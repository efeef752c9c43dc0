import hashlib
import itertools
import math

import numpy as np
import pytest

from twostage.engine import (
    FULL,
    HEALTHY,
    RECOVERED,
    SEMI,
    LinearConfig,
    SparseConfig,
    all_full_config,
    all_ones_linear,
    project_linear,
    simulate,
    simulate_linear,
    site_rates_contact,
    site_rates_sir,
)
from twostage.errors import DomainError, ParameterError
from twostage.lattice import Box, LatticeGeometry, Torus, origin
from twostage.params import ProcessParams
from twostage.rng import event_draws, substream


@pytest.fixture
def torus3():
    return LatticeGeometry(3, Torus(5))


def _config(mapping):
    return SparseConfig.from_sites(mapping)


def test_contact_rates_fully_infected(torus3):
    p = ProcessParams(lam=0.7, gamma=2.0, delta=0.5)
    cfg = _config({origin(3): FULL})
    assert site_rates_contact(cfg, origin(3), p, torus3) == [(HEALTHY, 1.0)]


def test_contact_rates_semi_infected(torus3):
    p = ProcessParams(lam=0.7, gamma=2.0, delta=0.5)
    cfg = _config({origin(3): SEMI})
    assert site_rates_contact(cfg, origin(3), p, torus3) == [(FULL, 2.0), (HEALTHY, 1.5)]


def test_contact_rates_healthy_counts_full_neighbors(torus3):
    p = ProcessParams(lam=0.1, gamma=1.0, delta=1.0)
    o = origin(3)
    nbrs = torus3.neighbors(o)
    cfg = _config({nbrs[0]: FULL, nbrs[1]: FULL, nbrs[2]: FULL, nbrs[3]: SEMI})
    rates = site_rates_contact(cfg, o, p, torus3)
    assert len(rates) == 1
    target, rate = rates[0]
    assert target == SEMI
    assert rate == p.lam * 3  # exactly the table value, zero tolerance
    # zero infected neighbors: empty rate list
    assert site_rates_contact(_config({}), o, p, torus3) == []


def test_sir_rates(torus3):
    p = ProcessParams(lam=0.7, gamma=2.0, delta=0.5)
    o = origin(3)
    assert site_rates_sir(_config({o: FULL}), o, p, torus3) == [(RECOVERED, 1.0)]
    assert site_rates_sir(_config({o: SEMI}), o, p, torus3) == [(RECOVERED, 1.5), (FULL, 2.0)]
    assert site_rates_sir(_config({o: RECOVERED}), o, p, torus3) == []
    assert site_rates_sir(_config({}), o, p, torus3) == []


def test_project_linear():
    lc = LinearConfig.from_sites({(0,): (3, 0), (1,): (0, 5), (2,): (0, 0)})
    proj = project_linear(lc)
    assert proj.state((0,)) == FULL
    assert proj.state((1,)) == SEMI
    assert proj.state((2,)) == HEALTHY


def test_single_site_pure_death_mean_extinction_time():
    # lam ~ 0 makes the origin a pure rate-1 death; extinction ~ Exp(1)
    p = ProcessParams(lam=1e-12, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(0))
    init = _config({(0,): FULL})
    n = 100000
    total = 0.0
    for i in range(n):
        out = simulate("contact", init, p, g, 50.0, substream(101, i))
        assert out.extinction_time is not None
        total += out.extinction_time
    mean = total / n
    assert abs(mean - 1.0) <= 3.0 / math.sqrt(n)


def test_sir_ever_fully_infected_contains_origin():
    p = ProcessParams(lam=2.0, gamma=2.0, delta=0.5)
    g = LatticeGeometry(2, Box(6))
    init = _config({(0, 0): FULL})
    out = simulate("sir", init, p, g, 50.0, substream(5, 0), track_ever_fully_infected=True)
    assert (0, 0) in out.ever_fully_infected
    for site in out.ever_fully_infected:
        assert g.contains(site)


def test_extinction_is_absorbing_and_config_frozen():
    p = ProcessParams(lam=1e-12, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(2))
    out = simulate("contact", _config({(0,): FULL}), p, g, 1000.0, substream(6, 0))
    assert out.extinction_time is not None
    assert out.extinction_time <= 1000.0
    assert out.final.states == {}
    assert not out.survived


def test_simulate_from_empty_init_is_extinct_immediately():
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(2))
    out = simulate("contact", _config({}), p, g, 10.0, substream(7, 0))
    assert out.extinction_time == 0.0
    assert out.event_count == 0


def test_active_cap_reports_survival():
    p = ProcessParams(lam=5.0, gamma=5.0, delta=0.1)
    g = LatticeGeometry(2, Box(20))
    out = simulate("contact", _config({(0, 0): FULL}), p, g, 1000.0, substream(8, 1), active_cap=50)
    assert out.survived
    assert out.extinction_time is None
    assert out.peak_active >= 50


def test_every_stop_path_derives_survived_from_extinction_time():
    p = ProcessParams(lam=5.0, gamma=5.0, delta=0.1)
    dying = ProcessParams(lam=1e-12, gamma=1.0, delta=1.0)
    g = LatticeGeometry(2, Box(20))
    o = (0, 0)
    pair = {o: FULL, (1, 0): SEMI}
    runs = {
        "empty": simulate("contact", SparseConfig(time=1.5), p, g, 10.0, substream(14, 0)),
        "start-at-cap": simulate(
            "contact", _config(pair), p, g, 10.0, substream(14, 1), active_cap=2
        ),
        "horizon": simulate("contact", _config(pair), p, g, 0.5, substream(14, 2)),
        "cap": simulate("contact", _config(pair), p, g, 1000.0, substream(14, 3), active_cap=50),
        "extinction": simulate("contact", _config({o: FULL}), dying, g, 1000.0, substream(14, 4)),
    }
    for name, out in runs.items():
        assert out.survived == (out.extinction_time is None), name
    empty, at_cap, horizon, cap, extinct = runs.values()
    assert empty.extinction_time == empty.final.time == 1.5
    assert at_cap.survived and at_cap.final.time == 0.0 and at_cap.event_count == 0
    assert at_cap.final.states == pair
    assert horizon.survived and horizon.final.time == 0.5 and horizon.event_count > 0
    assert cap.survived and 0.0 < cap.final.time < 1000.0
    assert cap.peak_active == len(cap.final.states) == 50
    assert not extinct.survived and extinct.final.states == {}
    assert 0.0 < extinct.extinction_time == extinct.final.time < 1000.0


@pytest.mark.parametrize("time", [math.nan, -math.inf])
def test_non_finite_init_time_is_rejected(time):
    # a nan start would ignore the horizon, and a linear run would
    # stamp a state from after extinction with a sample time
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(2))
    with pytest.raises(ParameterError, match="init.time"):
        simulate("contact", SparseConfig({(0,): FULL}, time), p, g, 10.0, substream(0))
    with pytest.raises(ParameterError, match="init.time"):
        simulate_linear(LinearConfig({(0,): (1, 0)}, time), p, g, [1.0], substream(0))


def test_simulate_validations():
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(2))
    init = _config({(0,): FULL})
    with pytest.raises(ParameterError):
        simulate("bogus", init, p, g, 1.0, substream(0))
    with pytest.raises(ParameterError):
        simulate("contact", init, p, g, 0.0, substream(0))
    with pytest.raises(ParameterError):
        simulate("contact", _config({(0,): RECOVERED}), p, g, 1.0, substream(0))
    with pytest.raises(DomainError):
        simulate("contact", _config({(9,): FULL}), p, g, 1.0, substream(0))
    with pytest.raises(ParameterError):
        ProcessParams(lam=float("nan"), gamma=1.0, delta=1.0)


def test_simulate_is_deterministic_given_stream():
    p = ProcessParams(lam=0.9, gamma=1.0, delta=1.0)
    g = LatticeGeometry(2, Box(8))
    init = _config({(0, 0): FULL})
    a = simulate("contact", init, p, g, 8.0, substream(12, 3))
    b = simulate("contact", init, p, g, 8.0, substream(12, 3))
    assert a.final.states == b.final.states
    assert a.extinction_time == b.extinction_time
    assert a.event_count == b.event_count


def test_linear_isolated_pair_changes_only_by_reset():
    # (1, 0) with all-zero neighbors: delta and gamma rows are idempotent,
    # so the pair survives at O until the rate-1 reset: P(unchanged) = e^-t
    p = ProcessParams(lam=0.4, gamma=1.3, delta=0.7)
    g = LatticeGeometry(1, Box(1))
    init = LinearConfig.from_sites({(0,): (1, 0)})
    t = 0.7
    n = 20000
    kept = 0
    for i in range(n):
        snap = simulate_linear(init, p, g, [t], substream(31, i))[0]
        if snap.value((0,)) == (1, 0):
            kept += 1
    target = math.exp(-t)
    se = math.sqrt(target * (1 - target) / n)
    assert abs(kept / n - target) <= 3 * se


def test_linear_theta_gains_are_source_zeta_multiples():
    # all pair values stay in 5Z when the only seed is (5, 0), and the
    # neighbor increment equals the source zeta, not an indicator
    p = ProcessParams(lam=2.0, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Torus(3))
    init = LinearConfig.from_sites({(0,): (5, 0)})
    seen_five = False
    for i in range(4000):
        snap = simulate_linear(init, p, g, [0.4], substream(32, i))[0]
        for site, (z, th) in snap.values.items():
            assert z % 5 == 0 and th % 5 == 0
            if site != (0,) and th == 5:
                seen_five = True
    assert seen_five


def test_linear_frozen_after_all_zero():
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(2))
    init = LinearConfig.from_sites({})
    snaps = simulate_linear(init, p, g, [0.5, 2.0], substream(33, 0))
    assert [s.time for s in snaps] == [0.5, 2.0]
    assert snaps[0].values == {} and snaps[1].values == {}


def test_linear_validations():
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(2))
    with pytest.raises(ParameterError):
        simulate_linear(LinearConfig.from_sites({(0,): (1, 0)}), p, g, [], substream(0))
    with pytest.raises(DomainError):
        simulate_linear(LinearConfig.from_sites({(5,): (1, 0)}), p, g, [1.0], substream(0))
    with pytest.raises(ParameterError):
        simulate_linear(LinearConfig(values={(0,): (-1, 2)}), p, g, [1.0], substream(0))


@pytest.mark.parametrize("times", [[math.nan], [math.inf], [0.5, math.inf], [-math.inf]])
def test_linear_rejects_non_finite_sample_times(times):
    # a run that dies out would otherwise stamp its frozen state with nan/inf
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Torus(3))
    init = LinearConfig.from_sites({(0,): (1, 0)})
    with pytest.raises(ParameterError, match="finite"):
        simulate_linear(init, p, g, times, substream(0))


def test_all_full_config_covers_domain():
    g = LatticeGeometry(2, Torus(3))
    cfg = all_full_config(g)
    assert len(cfg.states) == 9
    assert all(s == FULL for s in cfg.states.values())


# ----------------------------------------------------------------------
# draw contract: a replica's draws are a fixed function of its stream
# ----------------------------------------------------------------------
# Fingerprints recorded when every replica took two full 8192-draw fills
# (uniforms, then exponentials) before its first event; the d = 8 and
# d = 2 torus rows date from memoized neighbour tuples, before the loop
# computed neighbours from per-direction strides.  The comment on
# each row is the number of (uniform, exponential) pairs the replica
# reads: up to 64 stays inside the peeked first fill, more replays it,
# more than 8192 goes on into the second fill.
SPREAD_SETUPS = {
    # name: (d, domain, (lam, gamma, delta), horizon)
    "ring": (1, Torus(3), (0.8, 1.0, 1.0), 2.0),
    "box2": (2, Box(8), (0.9, 1.0, 1.0), 8.0),
    "box2-sir": (2, Box(8), (2.0, 2.0, 0.5), 50.0),
    "box2-long": (2, Box(12), (2.0, 2.0, 0.5), 20.0),
    "box3-sir": (3, Box(7), (1.0, 5.0, 0.1), 100.0),
    # exits on every axis and a wrap past axis 0
    "box8": (8, Box(3), (0.6, 1.0, 1.0), 4.0),
    "box8-sir": (8, Box(1), (0.4, 2.0, 0.5), 50.0),
    "torus2": (2, Torus(5), (2.0, 1.0, 1.0), 10.0),
    "torus2-sir": (2, Torus(5), (2.0, 2.0, 0.5), 50.0),
}
GOLDEN_SPREAD = [
    # kind, setup, seed, replica, event_count, extinction_time, final digest
    ("contact", "ring", 41, 0, 5, None, "957d8ce7bae2b149"),  # 9 pairs
    ("contact", "ring", 41, 1, 6, 1.0876909256879248, "4f53cda18c2baa0c"),  # 6
    ("contact", "ring", 41, 2, 7, None, "d15322468c7bf07f"),  # 7
    ("contact", "ring", 41, 3, 4, None, "d15322468c7bf07f"),  # 5
    ("sir", "ring", 42, 0, 3, 1.7696191479573473, "2118b09479269d85"),  # 5
    ("sir", "ring", 42, 1, 5, None, "78b445a25ad57e1e"),  # 11
    ("sir", "ring", 42, 2, 1, 0.1556434299455173, "227ac23236268e01"),  # 1
    ("sir", "ring", 42, 3, 1, 1.8919109136866727, "227ac23236268e01"),  # 1
    ("contact", "box2", 43, 1, 56, 6.538259662777585, "4f53cda18c2baa0c"),  # 65
    ("sir", "box2-sir", 44, 0, 37, 5.226100923748302, "beef02667d76440a"),  # 124
    ("sir", "box2-sir", 44, 2, 37, 2.6039391626665265, "ef2d3845ba4be2b4"),  # 67
    ("contact", "box2-long", 45, 0, 9523, None, "b2235e38e36638c4"),  # 20796
    ("contact", "box2-long", 45, 3, 7732, None, "785247bd8caceed5"),  # 16550
    ("sir", "box3-sir", 51, 0, 8258, 30.539326553525573, "2b64096c1a2e68c0"),  # 19448
    ("contact", "box8", 71, 0, 647, None, "f4d809016f157ef9"),  # 728
    ("contact", "box8", 71, 3, 1510, None, "315b1a262552cd08"),  # 1708
    ("contact", "box8", 71, 4, 4, 0.5603280941514954, "4f53cda18c2baa0c"),  # 5
    ("sir", "box8-sir", 72, 0, 4, 0.2008630480497818, "2ade2d542610a0bd"),  # 4
    ("sir", "box8-sir", 72, 1, 11875, 31.960932776640817, "f353f12ceb1e61a1"),  # 24556
    ("contact", "torus2", 73, 1, 118, 8.123830736193426, "4f53cda18c2baa0c"),  # 159
    ("contact", "torus2", 73, 2, 278, None, "745b2da9867e64b7"),  # 521
    ("sir", "torus2-sir", 74, 0, 51, 5.979060599244783, "ba900288a44b1882"),  # 135
    ("sir", "torus2-sir", 74, 4, 3, 0.5448345932471994, "1ed2d7c2bc56a2f5"),  # 3
]
LINEAR_SETUPS = {
    # name: (d, domain, (lam, gamma, delta), initial pair at the origin or
    # None for (1, 0) at every site, sample times)
    "ring": (1, Torus(3), (2.0, 1.0, 1.0), (5, 0), [0.4]),
    "box2": (2, Box(4), (2.0, 1.0, 1.0), (1, 0), [0.5, 2.0]),
    # the c04/c05 ensemble's shape
    "torus2-all": (2, Torus(5), (0.25, 1.0, 1.0), None, [1.0]),
    # reaches the faces, so absorbing exits are drawn
    "box3": (3, Box(2), (2.0, 1.0, 1.0), (1, 0), [1.0, 3.0]),
}
GOLDEN_LINEAR = [
    # setup, seed, replica, digest of each snapshot
    ("ring", 46, 0, ["3cd3374b57072acc"]),  # 5 pairs
    ("ring", 46, 2, ["23edb2e5504978bc"]),  # 9
    ("box2", 47, 0, ["93eaa84ced492681", "6080f54125e887df"]),  # 165
    ("box2", 47, 2, ["ea3be95ce4b605a1", "4f53cda18c2baa0c"]),  # 74
    ("torus2-all", 48, 0, ["5f3b52191c2dba46"]),  # 84
    ("torus2-all", 48, 4, ["51c2ff0791c00c16"]),  # 113
    ("box3", 49, 0, ["96bc14223c66fccc", "3d1314522233039a"]),  # 627
    ("box3", 49, 3, ["532e70ad8f71c178", "24485c366759ef0d"]),  # 1907
]


def _digest(mapping):
    return hashlib.sha256(repr(sorted(mapping.items())).encode()).hexdigest()[:16]


def _spread(kind, setup, rng):
    d, domain, rates, horizon = SPREAD_SETUPS[setup]
    init = _config({origin(d): FULL})
    return simulate(kind, init, ProcessParams(*rates), LatticeGeometry(d, domain), horizon, rng)


def _linear(setup, rng):
    d, domain, rates, pair, times = LINEAR_SETUPS[setup]
    g = LatticeGeometry(d, domain)
    init = all_ones_linear(g) if pair is None else LinearConfig.from_sites({origin(d): pair})
    return simulate_linear(init, ProcessParams(*rates), g, times, rng)


def _lockstep_state(seed, replica, fills):
    """Generator state after `fills` full fills of uniforms then exponentials."""
    rng = substream(seed, replica)
    for _ in range(fills):
        rng.random(8192)
        rng.standard_exponential(8192)
    return rng.bit_generator.state


@pytest.mark.parametrize("kind,setup,seed,replica,events,extinction,final", GOLDEN_SPREAD)
def test_spread_draws_are_fixed_by_the_stream(kind, setup, seed, replica, events, extinction, final):
    out = _spread(kind, setup, substream(seed, replica))
    assert out.event_count == events
    assert out.extinction_time == extinction
    assert _digest(out.final.states) == final


@pytest.mark.parametrize("setup,seed,replica,finals", GOLDEN_LINEAR)
def test_linear_draws_are_fixed_by_the_stream(setup, seed, replica, finals):
    snaps = _linear(setup, substream(seed, replica))
    assert [_digest(s.values) for s in snaps] == finals


def test_peek_is_the_prefix_of_the_full_fill_and_replays_it():
    for i in range(50):
        full = substream(53, i)
        lockstep = []
        for _ in range(2):
            u = full.random(8192)
            lockstep += zip(u.tolist(), full.standard_exponential(8192).tolist())
        rng = substream(53, i)
        before = rng.bit_generator.state
        draws = event_draws(rng)
        assert rng.bit_generator.state == before  # nothing is drawn until a pair is read
        peek = list(itertools.islice(draws, 64))
        assert peek == lockstep[:64]
        assert all(type(x) is float for x in peek[0])
        assert list(itertools.islice(draws, 8192 - 64)) == lockstep[64:8192]
        assert rng.bit_generator.state == _lockstep_state(53, i, 1)
        assert list(itertools.islice(draws, 8192)) == lockstep[8192:]
        assert rng.bit_generator.state == _lockstep_state(53, i, 2)


def test_state_after_a_peeked_replica_is_past_every_output_it_read():
    # the replica read uniforms from outputs 0..63 and exponentials from
    # output 8192 on, so a second call on this generator reuses none of them
    for run in (lambda rng: _spread("contact", "ring", rng), lambda rng: _linear("ring", rng)):
        rng = substream(41, 0)
        run(rng)
        expected = substream(41, 0)
        expected.bit_generator.advance(8192)
        expected.standard_exponential(64)
        assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize(
    "kind,setup,seed,replica,fills",
    [
        ("contact", "box2", 43, 1, 1),
        ("sir", "box2-sir", 44, 0, 1),
        ("contact", "box2-long", 45, 0, 3),
        ("linear", "box2", 47, 0, 1),
    ],
)
def test_state_after_outgrowing_the_peek_is_lockstep(kind, setup, seed, replica, fills):
    rng = substream(seed, replica)
    if kind == "linear":
        _linear(setup, rng)
    else:
        _spread(kind, setup, rng)
    assert rng.bit_generator.state == _lockstep_state(seed, replica, fills)


@pytest.mark.parametrize(
    "bit_generator,seed,events,extinction",
    [(np.random.MT19937, 7, 1, 0.14478959082733972), (np.random.Philox, 8, 3, 1.0460565981573622)],
)
def test_generators_without_an_output_counted_jump_take_the_full_fill(
    bit_generator, seed, events, extinction
):
    # MT19937 has no advance and Philox advances in four-output blocks:
    # both read the whole first fill up front, as every generator once did
    rng = np.random.Generator(bit_generator(seed))
    out = _spread("contact", "ring", rng)
    assert (out.event_count, out.extinction_time) == (events, extinction)
    ref = np.random.Generator(bit_generator(seed))
    ref.random(8192)
    ref.standard_exponential(8192)
    assert (rng.random(4) == ref.random(4)).all()


# ----------------------------------------------------------------------
# snapshots: a path up to time t does not depend on the horizon
# ----------------------------------------------------------------------
SNAPSHOT_SETUPS = [
    # kind, d, domain, (lam, gamma, delta), sample times, horizon, seed
    ("contact", 1, Torus(3), (0.8, 1.0, 1.0), [0.5, 1.0], 2.0, 61),
    ("sir", 1, Torus(3), (0.8, 1.0, 1.0), [0.5, 1.0], 2.0, 62),
    ("contact", 2, Box(6), (1.5, 2.0, 0.5), [0.3, 1.0, 2.5, 4.0], 6.0, 63),
    ("sir", 2, Box(6), (2.0, 2.0, 0.5), [0.3, 1.0, 2.5, 4.0], 6.0, 64),
]


@pytest.mark.parametrize("kind,d,domain,rates,times,horizon,seed", SNAPSHOT_SETUPS)
def test_snapshots_equal_runs_stopped_at_the_sample_times(kind, d, domain, rates, times, horizon, seed):
    p = ProcessParams(*rates)
    g = LatticeGeometry(d, domain)
    init = _config({origin(d): FULL})
    died_early = 0
    for i in range(60):
        out = simulate(kind, init, p, g, horizon, substream(seed, i), sample_times=times)
        plain = simulate(kind, init, p, g, horizon, substream(seed, i))
        assert out.final == plain.final
        assert (out.extinction_time, out.event_count, out.peak_active) == (
            plain.extinction_time, plain.event_count, plain.peak_active
        )
        assert [s.time for s in out.snapshots] == times
        for s, snap in zip(times, out.snapshots):
            alone = simulate(kind, init, p, g, s, substream(seed, i))
            assert snap.states == alone.final.states, (i, s)
        if out.extinction_time is not None and out.extinction_time < times[0]:
            died_early += 1
            assert all(snap.states == out.final.states for snap in out.snapshots)
    assert died_early > 0


@pytest.mark.parametrize("kind,d,domain,rates,times,horizon,seed", SNAPSHOT_SETUPS)
def test_site_states_read_the_snapshots_and_the_final_state(
    kind, d, domain, rates, times, horizon, seed
):
    p = ProcessParams(*rates)
    g = LatticeGeometry(d, domain)
    sites = [origin(d), *g.neighbors(origin(d))]
    for i in range(20):
        out = simulate(kind, _config({origin(d): FULL}), p, g, horizon, substream(seed, i), sample_times=times)
        for x in sites:
            assert out.site_states(x) == [cfg.state(x) for cfg in (*out.snapshots, out.final)]


def test_snapshots_of_an_empty_start_are_empty():
    g = LatticeGeometry(1, Torus(3))
    p = ProcessParams(lam=0.8, gamma=1.0, delta=1.0)
    out = simulate("contact", _config({}), p, g, 2.0, substream(0), sample_times=[0.5, 1.0])
    assert [(s.states, s.time) for s in out.snapshots] == [({}, 0.5), ({}, 1.0)]


def test_sample_times_validations():
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(2))
    init = _config({(0,): FULL})
    for times in ([], [1.0, 0.5], [0.5, 0.5], [0.0, 1.0], [-1.0], [2.0], [3.0], [float("nan")]):
        with pytest.raises(ParameterError):
            simulate("contact", init, p, g, 2.0, substream(0), sample_times=times)
    with pytest.raises(ParameterError):
        simulate("contact", init, p, g, 2.0, substream(0), active_cap=5, sample_times=[1.0])
    with pytest.raises(TypeError):
        simulate("contact", init, p, g, 2.0, substream(0), None, False, [1.0])
    assert simulate("contact", init, p, g, 2.0, substream(0)).snapshots == []


def test_final_is_decoded_only_when_read():
    p = ProcessParams(lam=0.9, gamma=1.0, delta=1.0)
    g = LatticeGeometry(2, Box(8))
    calls = []
    decode = g.decode
    g.decode = lambda code: calls.append(code) or decode(code)
    out = simulate("contact", _config({(0, 0): FULL}), p, g, 3.0, substream(12, 2))
    assert out.event_count > 0 and calls == []
    assert out.final is out.final
    assert len(calls) == len(out.final.states) > 0
