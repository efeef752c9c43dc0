import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from twostage import saw
from twostage.errors import DomainError, ParameterError
from twostage.params import ProcessParams
from twostage.rng import substream
from twostage.saw import (
    PairStats,
    WalkPath,
    admissible_floor,
    admissible_next,
    drift_band,
    drift_period,
    estimate_survival_lower_bound,
    estimate_union_direct,
    pair_stats,
    pair_weight,
    sample_walk,
    step_walk,
    union_lower_bound,
)


def test_period_and_band_values():
    # natural logarithm: ln 10 = 2.30..., ln 6 = 1.79..., ln 50 = 3.91...
    assert (drift_period(10), drift_band(10)) == (2, 4)
    assert (drift_period(6), drift_band(6)) == (1, 3)
    assert (drift_period(50), drift_band(50)) == (3, 12)
    assert admissible_floor(10) == 2 * 6 - 2
    with pytest.raises(ParameterError):
        drift_period(2)


def test_admissible_next_fresh_walk():
    # d=10: 12 non-drift candidates, none visited yet
    path = WalkPath.start(10)
    cands = admissible_next(path)
    assert len(cands) == 12
    assert len(set(cands)) == 12


def test_admissible_next_contract_error_at_drift_step():
    path = sample_walk(10, 1, substream(1, 0))  # next step index 2 is a drift step
    with pytest.raises(ParameterError):
        admissible_next(path)


def _brute_admissible(path):
    cur = path.sites[-1]
    out = set()
    for axis in range(path.d - path.drift_band):
        for step in (1, -1):
            cand = tuple(c + (step if i == axis else 0) for i, c in enumerate(cur))
            if cand not in set(path.sites):
                out.add(cand)
    return out


def test_straight_line_histories_have_full_shell_minus_one():
    # straight lines along a free axis: the shell loses only the previous
    # site; queries stop one short of the forced drift step
    for d, ks in ((55, (1, 2)), (200, (1, 2, 3))):  # periods 4 and 5
        free = 2 * (d - drift_band(d))
        for k in ks:
            sites = [tuple(i if a == 0 else 0 for a in range(d)) for i in range(k + 1)]
            path = WalkPath.from_sites(d, sites)
            cands = admissible_next(path)
            assert len(cands) == free - 1
            assert set(cands) == _brute_admissible(path)
            assert len(cands) >= admissible_floor(d)


def test_admissible_matches_brute_force_on_sampled_walks():
    # periods 2 and 3: at d=10 a level holds only the head, at d=50 it
    # can also hold the site before it
    for d in (10, 50):
        rng = substream(2)
        for i in range(30):
            n = 1 + int(rng.integers(30))
            path = sample_walk(d, n, substream(3, i))
            if not path.is_drift_step(len(path.sites)):
                assert set(admissible_next(path)) == _brute_admissible(path)


def test_sample_walk_stream_golden():
    # sha256 of the sites of 20 walks each at d=8, 12, 50 (periods 2, 2, 3)
    h = hashlib.sha256()
    for d in (8, 12, 50):
        for i in range(20):
            h.update(repr(sample_walk(d, 60, substream(31, d, i)).sites).encode())
    assert h.hexdigest() == "bfd875702bc32bbbf3888e09c638ecf57dd33a379efa68700865345706bc9ac3"


def test_sample_walk_vector_path_matches_step_walk():
    # periods 1 and 2: the one-call draw must be the per-step loop, site
    # for site, and leave the generator where the loop leaves it
    for d in range(3, 21):
        for n in (1, 2, 3, 8, 101):
            fast, slow = substream(47, d), substream(47, d)
            for _ in range(2):
                path = WalkPath.start(d)
                for _ in range(n):
                    step_walk(path, slow)
                assert sample_walk(d, n, fast).sites == path.sites, (d, n)
            assert fast.bit_generator.state == slow.bit_generator.state, (d, n)


def test_drift_steps_uniform_over_band():
    # d=10: drift steps pick among 4 reserved directions with prob 1/4
    counts = {}
    draws = 0
    for i in range(4000):
        path = sample_walk(10, 10, substream(4, i))
        for s in range(1, 11):
            if path.is_drift_step(s):
                delta = tuple(a - b for a, b in zip(path.sites[s], path.sites[s - 1]))
                counts[delta] = counts.get(delta, 0) + 1
                draws += 1
    assert len(counts) == 4
    expected = draws / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 16.27  # 99.9% quantile, 3 degrees of freedom


def test_sampled_prefixes_stay_in_class():
    for i in range(20):
        path = sample_walk(12, 40, substream(6, i))
        assert path.is_valid()
        prefix = WalkPath.from_sites(12, path.sites[:11])
        assert prefix.is_valid()


def test_validator_step_classes():
    # d=10, period 2: step 1 is free (axes 0..5, +-1), step 2 is drift
    # (axes 6..9, +1 only)
    d = 10
    o = (0,) * d

    def e(axis, k=1):
        return tuple(k if i == axis else 0 for i in range(d))

    def shifted(base, axis, k=1):
        return tuple(c + (k if i == axis else 0) for i, c in enumerate(base))

    assert WalkPath.from_sites(d, [o, e(0)]).is_valid()
    assert not WalkPath.from_sites(d, [o, e(6)]).is_valid()  # drift axis at a free step
    assert WalkPath.from_sites(d, [o, e(0), shifted(e(0), 6)]).is_valid()
    assert not WalkPath.from_sites(d, [o, e(0), shifted(e(0), 0)]).is_valid()  # free axis at drift
    assert not WalkPath.from_sites(d, [o, e(0), shifted(e(0), 6, -1)]).is_valid()  # negative drift
    revisit = [o, e(0), shifted(e(0), 6), e(6)]  # returns through a free step, all distinct
    assert WalkPath.from_sites(d, revisit).is_valid()
    assert not WalkPath.from_sites(d, [o, e(0), o]).is_valid()  # self-intersection


def test_pair_stats_identical_paths():
    path = sample_walk(10, 15, substream(7, 0))
    want = [PairStats(f_size=n + 1, k_size=n) for n in (3, 8, 15)]
    assert pair_stats(path, path, [3, 8, 15]) == want


def test_pair_stats_origin_only():
    d = 10
    a = WalkPath.from_sites(d, [(0,) * d, tuple(1 if i == 0 else 0 for i in range(d))])
    b = WalkPath.from_sites(d, [(0,) * d, tuple(1 if i == 1 else 0 for i in range(d))])
    assert pair_stats(a, b, [1]) == [PairStats(f_size=1, k_size=0)]


def _brute_pair_stats(s_sites, v_sites, n):
    f = 0
    k = 0
    fmk = 0
    for i in range(n + 1):
        in_f = any(v_sites[i] == s_sites[j] for j in range(n + 1))
        in_k = i < n and any(
            v_sites[i] == s_sites[j] and v_sites[i + 1] == s_sites[j + 1] for j in range(n)
        )
        if in_f:
            f += 1
            if not in_k:
                fmk += 1
        if in_k:
            k += 1
    assert fmk == f - k  # K is a subset of F
    return PairStats(f_size=f, k_size=k)


def test_pair_stats_matches_quadratic_brute_force():
    for i in range(60):
        rng = substream(8, i)
        a = sample_walk(10, 200, rng)
        b = sample_walk(10, 200, rng)
        lengths = [7, 60, 200]
        want = [_brute_pair_stats(a.sites, b.sites, n) for n in lengths]
        assert pair_stats(a, b, lengths) == want


def _walk(d, steps):
    # the sites of a walk from the origin that takes steps (axis, +-1)
    sites = [(0,) * d]
    for axis, sign in steps:
        cur = list(sites[-1])
        cur[axis] += sign
        sites.append(tuple(cur))
    return sites


def test_pair_stats_index_joins_at_its_first_match():
    # hand-built class walks whose matches sit at offsets j - i = +-2,
    # the only nonzero offsets at periods 3 (d=21) and 4 (d=55)
    def check(d, s_sites, v_sites, want):
        lengths = list(range(1, len(want) + 1))
        for a, b in ((s_sites, v_sites), (v_sites, s_sites)):  # offsets o and -o
            s, v = WalkPath.from_sites(d, a), WalkPath.from_sites(d, b)
            assert s.is_valid() and v.is_valid()
            assert pair_stats(s, v, lengths) == want
            assert [_brute_pair_stats(a, b, n) for n in lengths] == want
            # prefixes as short as one step, below the largest offset
            for n in lengths:
                short_s, short_v = WalkPath.from_sites(d, a[: n + 1]), WalkPath.from_sites(d, b[: n + 1])
                assert pair_stats(short_s, short_v, [n]) == [want[n - 1]]

    # d=21: V_3 = S_5, so index 3 joins F at n = 5, not 3
    s = _walk(21, [(0, 1), (1, -1), (15, 1), (1, 1), (1, 1)])
    v = _walk(21, [(1, 1), (0, 1), (15, 1), (2, 1), (3, 1)])
    assert v[3] == s[5]
    check(21, s, v, [PairStats(1, 0)] * 4 + [PairStats(2, 0)])
    # d=55: V's edge 4 -> 5 runs along S's edge 6 -> 7, so index 4 joins
    # F at n = 6 and K at n = 7
    s = _walk(55, [(0, 1), (1, 1), (0, -1), (42, 1), (2, 1), (3, 1), (4, 1), (43, 1)])
    v = _walk(55, [(3, 1), (2, 1), (1, 1), (42, 1), (4, 1), (1, -1), (5, 1), (44, 1)])
    assert (v[4], v[5]) == (s[6], s[7])
    check(55, s, v, [PairStats(1, 0)] * 5 + [PairStats(2, 0), PairStats(3, 1), PairStats(3, 1)])


def _lattice_walk(d, n, rng):
    # any axis, either sign: revisits and band sums of both signs occur
    steps = np.zeros((n, d), dtype=np.int64)
    steps[np.arange(n), rng.integers(d, size=n)] = rng.choice([-1, 1], size=n)
    return np.concatenate([np.zeros((1, d), dtype=np.int64), steps.cumsum(axis=0)])


def test_pair_stats_rejects_walks_outside_the_class():
    # a free axis at a drift step (d=10), a revisit, and unstructured
    # d=3 walks on any axis with either sign, whose sites have no fixed
    # band sum; one bad walk of the two is enough
    d = 10

    def site(*axes):
        return tuple(1 if k in axes else 0 for k in range(d))

    inputs = [
        ([site(), site(0), site(0, 1), site(1), site(1, 2)],
         [site(), site(1), site(1, 2), site(1, 2, 3), site(1, 2, 3, 4)]),
        ([site(), site(0), site(), site(0), site(0, 1)],
         [site(), site(0), site(0, 2), site(0, 2, 3), site(0, 2, 3, 4)]),
    ]
    for s_sites, v_sites in inputs:
        with pytest.raises(ParameterError, match="structured class"):
            pair_stats(WalkPath.from_sites(d, s_sites), WalkPath.from_sites(d, v_sites), [1, 2, 3, 4])
    rng = substream(53)
    inside = sample_walk(3, 40, substream(53, 1))
    for _ in range(12):
        outside = WalkPath.from_sites(3, list(map(tuple, _lattice_walk(3, 40, rng).tolist())))
        for s, v in ((outside, outside), (outside, inside), (inside, outside)):
            with pytest.raises(ParameterError, match="structured class"):
                pair_stats(s, v, [5, 17, 40])


def test_block_join_matches_brute_force_on_class_walks():
    # blocks of several pairs at periods 1, 2, 3 and 4, walks as short as
    # one step (below the largest offset, 2, at d=21 and 55); in every
    # block of two or more pairs, pair 1's V is pair 0's S, which a
    # compare that leaked across pairs would match
    rng = substream(53)
    collisions = 0
    for d in (4, 12, 21, 55):
        for n in (1, 2, 3, 40):
            lengths = sorted({1, max(1, n // 2), n})
            pairs = 1 + int(rng.integers(6))
            rngs = [substream(54, d, n, r) for r in range(pairs)]
            s, v = saw._draw_walks(d, n, rngs, 2)
            if pairs > 1:
                v[1] = s[0]
            f, k = saw._join_counts(s, v, lengths)
            for b in range(pairs):
                s_sites = list(map(tuple, s[b].tolist()))
                v_sites = list(map(tuple, v[b].tolist()))
                want = [_brute_pair_stats(s_sites, v_sites, m) for m in lengths]
                assert [PairStats(a, c) for a, c in zip(f[b].tolist(), k[b].tolist())] == want
                collisions += want[-1].f_size > 1
    assert collisions > 10


@pytest.mark.parametrize("d", [4, 12, 25, 60])
def test_drawn_walk_rows_have_the_parity_and_band_sum_of_their_index(d):
    # the two facts the shifted compare relies on; d=4 and 12 take the
    # one-call draw, d=25 and 60 step_walk
    n = 60
    walks = saw._draw_walks(d, n, [substream(56, d, r) for r in range(5)], 2)
    index = np.arange(n + 1)
    assert (walks.sum(axis=3) % 2 == index % 2).all()
    assert (walks[..., d - drift_band(d) :].sum(axis=3) == index // drift_period(d)).all()


def test_pair_stats_length_precondition():
    a = sample_walk(10, 5, substream(9, 0))
    with pytest.raises(ParameterError):
        pair_stats(a, a, [6])


@pytest.mark.parametrize("lengths", [[], [0, -1], [0], [3, 0]])
def test_pair_stats_needs_lengths_of_at_least_one(lengths):
    a = sample_walk(10, 5, substream(9, 3))
    with pytest.raises(ParameterError, match="lengths"):
        pair_stats(a, a, lengths)


def test_pair_stats_rejects_mixed_dimensions():
    a = sample_walk(10, 5, substream(9, 1))
    b = sample_walk(12, 5, substream(9, 2))
    with pytest.raises(ParameterError, match="share a dimension"):
        pair_stats(a, b, [5])


def test_pair_weight_examples():
    p1 = ProcessParams(lam=1.0, gamma=1.0, delta=1.0)
    assert pair_weight(PairStats(1, 0), p1) == pytest.approx(2.0)
    n = 9
    ident = pair_weight(PairStats(n + 1, n), p1)
    assert ident == pytest.approx(2.0 * 3.0**n * 2.0**n, rel=1e-12)
    for i in range(40):
        a = sample_walk(8, 30, substream(11, i))
        b = sample_walk(8, 30, substream(12, i))
        assert pair_weight(pair_stats(a, b, [30])[0], p1) >= 1.0
    with pytest.raises(ParameterError):
        pair_weight(PairStats(0, 0), p1)


def test_pair_weight_overflow_goes_to_inf():
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    assert pair_weight(PairStats(100000, 99999), p) == math.inf


def test_union_lower_bound_single_event_equality():
    assert union_lower_bound([0.37], [[0.37]], [1.0]) == pytest.approx(0.37)


def test_union_lower_bound_two_independent_events():
    pa, pb = 0.3, 0.45
    pair = [[pa, pa * pb], [pa * pb, pb]]
    bound = union_lower_bound([pa, pb], pair, [0.5, 0.5])
    closed = 1.0 / (0.25 * (1 / pa + 1 / pb + 2))
    assert bound == pytest.approx(closed)
    exact = pa + pb - pa * pb
    assert bound <= exact + 1e-12


def test_union_lower_bound_validations():
    with pytest.raises(DomainError):
        union_lower_bound([0.0, 0.5], [[0.0, 0.0], [0.0, 0.5]], [0.5, 0.5])
    with pytest.raises(ParameterError):
        union_lower_bound([0.2, 0.5], [[0.2, 0.1], [0.1, 0.5]], [0.7, 0.2])
    with pytest.raises(ParameterError):
        union_lower_bound([0.2], [[0.2]], [1.0, 0.0])


def test_survival_bound_estimate_shape():
    p = ProcessParams(lam=1.5 * 3.0 / 24.0, gamma=1.0, delta=1.0)
    est = estimate_survival_lower_bound(12, p, n_max=400, replicas=1500, seed=21)
    assert 0.0 < est.bound <= 1.0
    assert est.ci_low <= est.bound <= est.ci_high
    assert [n for n, _ in est.convergence] == [100, 200, 400]
    assert all(0.0 < b <= 1.0 for _, b in est.convergence)
    assert est.mean_weight >= 2.0  # every weight is at least 2


def _estimator_digest():
    # sha256 of every field of the estimate at periods 1, 2 and 3
    h = hashlib.sha256()
    for d, n_max, replicas in ((4, 40, 60), (12, 80, 60), (25, 60, 30)):
        p = ProcessParams(lam=1.5 * 3.0 / (2 * d), gamma=1.0, delta=1.0)
        est = estimate_survival_lower_bound(d, p, n_max=n_max, replicas=replicas, seed=17)
        h.update(repr(dataclasses.astuple(est)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("budget", [None, 1, 7 * 2 * 81 * 12])
def test_survival_bound_golden_at_any_block_size(budget, monkeypatch):
    # recorded with the per-replica estimator, before replicas came in
    # blocks; a budget of 1 gives one pair per block, and 7 pairs of the
    # d=12 walks leave a partial last block at every d
    if budget is not None:
        monkeypatch.setattr(saw, "_BLOCK_ELEMENTS", budget)
    assert _estimator_digest() == "03cf32ce2f500088a08919e95424dacc7f68da947dcf06ca21542d325c50134b"


def test_union_direct_needs_period_one():
    p = ProcessParams(lam=1.0, gamma=1.0, delta=1.0)
    with pytest.raises(ParameterError):
        estimate_union_direct(10, 4, p, 100, seed=0)


@pytest.mark.parametrize("replicas", [0, -1])
def test_union_direct_needs_a_replica(replicas):
    p = ProcessParams(lam=1.0, gamma=1.0, delta=1.0)
    with pytest.raises(ParameterError, match="replicas must be >= 1"):
        estimate_union_direct(6, 4, p, replicas, seed=0)


def test_union_direct_matches_exhaustive_path_enumeration():
    # second estimator: eagerly sample clocks on the reachable region and
    # take the max of the per-path events over all 3^n monotone paths
    from twostage.graphical import path_event, sample_clocks

    d, n = 6, 3
    p = ProcessParams(lam=2.0, gamma=4.0, delta=0.5)
    band = drift_band(d)
    axes = list(range(d - band, d))
    paths = []
    for combo in itertools.product(axes, repeat=n):
        sites = [(0,) * d]
        for axis in combo:
            cur = list(sites[-1])
            cur[axis] += 1
            sites.append(tuple(cur))
        paths.append(sites)
    region = {site for path in paths for site in path}
    n_brute = 4000
    hits = 0
    for i in range(n_brute):
        clocks = sample_clocks(region, p, substream(22, i))
        if any(path_event(path, clocks) for path in paths):
            hits += 1
    p_brute = hits / n_brute
    est = estimate_union_direct(d, n, p, replicas=40000, seed=23)
    se = math.sqrt(p_brute * (1 - p_brute) / n_brute + est.se**2)
    assert abs(est.p_hat - p_brute) <= 3 * se
    # the union dominates any single path's event probability
    step = (p.lam / (1 + p.lam)) * (p.gamma / (1 + p.gamma + p.delta))
    assert est.p_hat >= step**n - 3 * est.se


GOLDEN_UNION = [
    # d, n, replicas, seed, successes
    (4, 4, 25000, 41, 8617), (6, 3, 3000, 42, 1962), (5, 5, 3000, 43, 1804), (3, 6, 3000, 44, 682),
]


@pytest.mark.parametrize(
    "d, n, replicas, seed, successes",
    GOLDEN_UNION,
    # named by the run, not its pinned count, so a restated golden keeps its id
    ids=[f"{d}-{n}-{replicas}-{seed}" for d, n, replicas, seed, _ in GOLDEN_UNION],
)
def test_union_direct_successes_golden(d, n, replicas, seed, successes):
    # recorded when each block's clocks read their exponentials in windows
    # from the start of the stream; 25 000 replicas span three
    # 10 000-replica blocks
    p = ProcessParams(lam=2.0, gamma=4.0, delta=0.5)
    assert estimate_union_direct(d, n, p, replicas, seed).successes == successes
