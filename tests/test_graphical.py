import hashlib
import math
import struct

import pytest

from twostage.engine import FULL, SEMI, SparseConfig, simulate
from twostage.errors import DomainError, ParameterError
from twostage.graphical import (
    LazyClocks,
    _region_neighbors,
    containment_holds,
    path_event,
    sample_clocks,
    sir_from_clocks,
)
from twostage.lattice import Box, LatticeGeometry, l1_norm, origin, sub
from twostage.params import ProcessParams
from twostage.rng import exponentials, substream
from twostage.saw import sample_walk

P = ProcessParams(lam=1.5, gamma=2.0, delta=0.5)


def _line_region(k):
    return {(i,) for i in range(k)}


def test_sample_clocks_counts():
    region = _line_region(5)
    clocks = sample_clocks(region, P, substream(1))
    for x in sorted(region):
        clocks.w(x), clocks.y(x), clocks.gam(x)
        for y in _region_neighbors(x, clocks.region):
            clocks.u(x, y)
    assert len(clocks.recovery) == 5
    assert len(clocks.removal) == 5
    assert len(clocks.maturation) == 5
    # 4 adjacent pairs, both orders
    assert len(clocks.transmission) == 8
    assert all(v > 0 for v in clocks.recovery.values())
    assert clocks.u((0,), (1,)) != clocks.u((1,), (0,))


def test_sample_clocks_empty_region_rejected():
    with pytest.raises(DomainError):
        sample_clocks(set(), P, substream(2))


def test_sample_clocks_mixed_dimensions_rejected():
    with pytest.raises(DomainError):
        sample_clocks({(0,), (1, 0), (5,)}, P, substream(2))


def _brute_pairs(region):
    return [(x, y) for x in region for y in region if x != y and l1_norm(sub(x, y)) == 1]


def _irregular_region(d, rng):
    # random subset of a small box: holes and non-convex shapes
    g = LatticeGeometry(d, Box({1: 20, 2: 5, 3: 2, 4: 1}[d]))
    keep = rng.random(g.n_sites) < 0.6
    return frozenset(x for x, k in zip(g.sites(), keep) if k) | {(0,) * d}


def test_probe_neighbors_match_brute_force_scan():
    rng = substream(11)
    for d in (1, 2, 3, 4):
        for _ in range(5):
            region = _irregular_region(d, rng)
            probed = [(x, y) for x in region for y in _region_neighbors(x, region)]
            assert sorted(probed) == sorted(_brute_pairs(region))


def test_sample_clocks_draws_nothing_before_the_first_read():
    region = _irregular_region(3, substream(12))
    rng = substream(13)
    clocks = sample_clocks(region, P, rng)
    assert rng.bit_generator.state == substream(13).bit_generator.state
    assert not (clocks.recovery or clocks.removal or clocks.maturation or clocks.transmission)
    # each first read, whatever its kind, takes the next exponential over
    # its rate; a re-read returns the memo and draws nothing
    draws = exponentials(substream(13))
    want = {}
    for x, y in sorted(_brute_pairs(region)):
        reads = (
            ("u", (x, y), P.lam), ("w", (x,), 1.0), ("gam", (y,), P.gamma), ("y", (y,), 1.0 + P.delta)
        )
        for kind, args, rate in reads:
            got = getattr(clocks, kind)(*args)
            if (kind, args) not in want:
                want[(kind, args)] = next(draws) / rate
            assert got == want[(kind, args)]
    memos = (clocks.recovery, clocks.removal, clocks.maturation, clocks.transmission)
    assert sum(map(len, memos)) == len(want)


def test_clock_means():
    # one long line gives many iid draws per family
    region = _line_region(500)
    w_sum = y_sum = 0.0
    n_bundles = 200
    for b in range(n_bundles):
        clocks = sample_clocks(region, ProcessParams(lam=1.0, gamma=1.0, delta=1.0), substream(3, b))
        w_sum += sum(clocks.w(x) for x in region)
        y_sum += sum(clocks.y(x) for x in region)
    n = 500 * n_bundles
    assert abs(w_sum / n - 1.0) <= 3.0 / math.sqrt(n)  # Exp(1): sd = 1
    assert abs(y_sum / n - 0.5) <= 3.0 * 0.5 / math.sqrt(n)  # rate 1+delta = 2


def _hand_clocks(region, recovery, removal, maturation, transmission):
    # every clock a reader needs is prefilled, so nothing is ever drawn
    clocks = LazyClocks(P, substream(0), region)
    clocks.recovery.update(recovery)
    clocks.removal.update(removal)
    clocks.maturation.update(maturation)
    clocks.transmission.update(transmission)
    return clocks


def _hand_bundle(u01, w0, gam1, y1):
    return _hand_clocks(
        {(0,), (1,)},
        recovery={(0,): w0, (1,): 9.9},
        removal={(0,): 9.9, (1,): y1},
        maturation={(0,): 9.9, (1,): gam1},
        transmission={((0,), (1,)): u01, ((1,), (0,)): 9.9},
    )


def test_path_event_direct_inequalities():
    path = [(0,), (1,)]
    assert path_event(path, _hand_bundle(u01=0.2, w0=0.5, gam1=0.1, y1=0.4))
    assert not path_event(path, _hand_bundle(u01=0.6, w0=0.5, gam1=0.1, y1=0.4))
    assert not path_event(path, _hand_bundle(u01=0.2, w0=0.5, gam1=0.5, y1=0.4))


def test_path_event_validations():
    bundle = _hand_bundle(0.2, 0.5, 0.1, 0.4)
    with pytest.raises(ParameterError):
        path_event([(1,), (0,)], bundle)  # does not start at the origin
    with pytest.raises(DomainError):
        path_event([(0,), (-1,)], bundle)  # leaves the region
    with pytest.raises(ParameterError):
        path_event([(0,)], bundle)  # no step


def test_path_event_probability_closed_form():
    # per step: P(U < W) = lam/(1+lam), P(Gam < Y) = gamma/(1+gamma+delta)
    p = ProcessParams(lam=1.5, gamma=2.0, delta=0.5)
    path = [(0,), (1,), (2,), (3,)]
    region = _line_region(4)
    n = 100000
    hits = 0
    # one family on one stream, cleared per draw: a fresh family's first
    # read costs a whole buffer fill
    clocks = sample_clocks(region, p, substream(4))
    for _ in range(n):
        clocks.clear()
        if path_event(path, clocks):
            hits += 1
    step = (p.lam / (1 + p.lam)) * (p.gamma / (1 + p.gamma + p.delta))
    target = step ** 3
    se = math.sqrt(target * (1 - target) / n)
    assert abs(hits / n - target) <= 3 * se


def test_comparison_probabilities():
    p = ProcessParams(lam=0.8, gamma=1.0, delta=1.0)
    n = 100000
    lazy = LazyClocks(p, substream(5))
    u_hits = gam_hits = 0
    for i in range(n):
        x, y = (i, 0), (i, 1)
        if lazy.u(x, y) < lazy.w(x):
            u_hits += 1
        if lazy.gam(y) < lazy.y(y):
            gam_hits += 1
    pu = p.lam / (1 + p.lam)
    pg = p.gamma / (1 + p.gamma + p.delta)
    assert abs(u_hits / n - pu) <= 3 * math.sqrt(pu * (1 - pu) / n)
    assert abs(gam_hits / n - pg) <= 3 * math.sqrt(pg * (1 - pg) / n)


def _lazy_clock_values(clocks, n_sites):
    # all four kinds interleaved per site, then a re-read of every 7th site
    # (memo hits, in another kind order)
    out = []
    for j in range(n_sites):
        x, y = (j, 0), (j, 1)
        out += [clocks.w(x), clocks.u(x, y), clocks.gam(y), clocks.y(y)]
    for j in range(0, n_sites, 7):
        x, y = (j, 0), (j, 1)
        out += [clocks.y(y), clocks.w(x), clocks.u(x, y), clocks.gam(y)]
    return out


def test_lazy_clock_stream_golden():
    # pinned stream: one fill of 8192 uniforms that are never read, then
    # exponentials 8192 at a time; 22 000 fresh draws cross two refills
    values = _lazy_clock_values(LazyClocks(P, substream(31)), 5500)
    assert len(values) == 25144
    digest = hashlib.sha256(b"".join(struct.pack("<d", v) for v in values)).hexdigest()
    assert digest == "d7a74d9adf0854cc6b3776f1dbec62427ec9eb66d2f7ee6bc562dc57666c8bcd"


def test_exponentials_follow_one_unread_uniform_fill():
    draws = exponentials(substream(33))
    got = [next(draws) for _ in range(8192 + 5)]
    ref = substream(33)
    ref.random(8192)
    want = ref.standard_exponential(8192).tolist() + ref.standard_exponential(5).tolist()
    assert got == want


def test_lazy_clocks_clear_forgets_clocks_and_keeps_the_stream():
    cleared = LazyClocks(P, substream(34))
    first = [cleared.w((j,)) for j in range(10)]
    assert [cleared.w((j,)) for j in range(10)] == first  # memoized
    cleared.clear()
    again = [cleared.w((j,)) for j in range(10)]
    straight = LazyClocks(P, substream(34))
    assert [straight.w((j,)) for j in range(20)] == first + again


def test_sir_from_clocks_single_site():
    bundle = _hand_clocks({(0,)}, {(0,): 0.73}, {(0,): 1.0}, {(0,): 1.0}, {})
    traj = sir_from_clocks(bundle, SparseConfig(states={(0,): FULL}))
    assert traj.extinction_time == pytest.approx(0.73)
    assert traj.ever_fully_infected == {(0,)}
    assert [e[2] for e in traj.events] == [FULL, -1]


def test_sir_from_clocks_two_site_chain_timing():
    # U(O,x) < W(O) and Gam(x) < Y(x): x fully infected at U + Gam
    bundle = _hand_bundle(u01=0.2, w0=0.5, gam1=0.1, y1=0.4)
    traj = sir_from_clocks(bundle, SparseConfig(states={(0,): FULL}))
    times = {(site, state): t for t, site, state in traj.events}
    assert times[((1,), FULL)] == pytest.approx(0.2 + 0.1)
    assert (1,) in traj.ever_fully_infected


def test_sir_from_clocks_rejects_semi_or_recovered_init():
    bundle = _hand_bundle(0.2, 0.5, 0.1, 0.4)
    with pytest.raises(DomainError):
        sir_from_clocks(bundle, SparseConfig(states={(0,): 1}))
    with pytest.raises(DomainError):
        sir_from_clocks(bundle, SparseConfig(states={(0,): -1}))


def test_sir_from_clocks_reads_only_the_clocks_it_reaches():
    # W when a site turns fully infected, Gam and Y when it turns
    # semi-infected, and no other site clock
    p = ProcessParams(lam=2.0, gamma=1.5, delta=0.5)
    region = frozenset(LatticeGeometry(3, Box(3)).sites())
    init = SparseConfig(states={origin(3): FULL})
    reached = 0
    for i in range(20):
        clocks = sample_clocks(region, p, substream(35, i))
        traj = sir_from_clocks(clocks, init)
        ever_semi = {x for _, x, state in traj.events if state == SEMI}
        assert set(clocks.recovery) == traj.ever_fully_infected
        assert set(clocks.maturation) == set(clocks.removal) == ever_semi
        assert {x for x, _ in clocks.transmission} == traj.ever_fully_infected
        reached += len(traj.ever_fully_infected) > 1
    assert reached > 0


def test_readers_need_a_region():
    clocks = LazyClocks(P, substream(36))
    path = [(0,), (1,)]
    with pytest.raises(ParameterError, match="no region"):
        path_event(path, clocks)
    with pytest.raises(ParameterError, match="no region"):
        containment_holds(path, clocks)
    with pytest.raises(ParameterError, match="no region"):
        sir_from_clocks(clocks, SparseConfig(states={(0,): FULL}))


def test_clock_sir_matches_engine_in_law():
    # same finite graph, two independent simulators: extinction times agree
    # (two-sample Kolmogorov-Smirnov at alpha = 0.001)
    p = ProcessParams(lam=1.2, gamma=1.5, delta=0.5)
    g = LatticeGeometry(2, Box(1))
    region = set(g.sites())
    o = (0, 0)
    init = SparseConfig(states={o: FULL})
    n = 4000
    clock_times = []
    for i in range(n):
        traj = sir_from_clocks(sample_clocks(region, p, substream(6, i)), init)
        clock_times.append(traj.extinction_time)
    engine_times = []
    for i in range(n):
        out = simulate("sir", init, p, g, 1e9, substream(7, i))
        engine_times.append(out.extinction_time)
    a = sorted(clock_times)
    b = sorted(engine_times)
    # two-sample KS statistic
    d_stat = 0.0
    ia = ib = 0
    while ia < n and ib < n:
        if a[ia] <= b[ib]:
            ia += 1
        else:
            ib += 1
        d_stat = max(d_stat, abs(ia - ib) / n)
    threshold = 1.949 * math.sqrt(2.0 / n)  # c(0.001) = sqrt(-ln(alpha/2)/2)
    assert d_stat <= threshold


def test_containment_vacuous_and_constructive():
    bundle = _hand_bundle(u01=0.6, w0=0.5, gam1=0.1, y1=0.4)  # event fails
    assert containment_holds([(0,), (1,)], bundle)
    bundle = _hand_bundle(u01=0.2, w0=0.5, gam1=0.1, y1=0.4)  # event holds
    assert path_event([(0,), (1,)], bundle)
    assert containment_holds([(0,), (1,)], bundle)


def test_containment_property_small_run():
    p = ProcessParams(lam=4.0, gamma=8.0, delta=0.5)
    rng = substream(8)
    for i in range(2000):
        n = 1 + int(rng.integers(8))
        path = sample_walk(6, n, substream(9, i)).sites
        clocks = sample_clocks(set(path), p, substream(10, i))
        assert containment_holds(path, clocks)
