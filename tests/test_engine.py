import hashlib
import itertools
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from twostage import engine
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
    simulate_many,
    site_rates,
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
    assert site_rates("contact", cfg, origin(3), p, torus3) == [(HEALTHY, 1.0)]


def test_contact_rates_semi_infected(torus3):
    p = ProcessParams(lam=0.7, gamma=2.0, delta=0.5)
    cfg = _config({origin(3): SEMI})
    assert site_rates("contact", cfg, origin(3), p, torus3) == [(FULL, 2.0), (HEALTHY, 1.5)]


def test_contact_rates_healthy_counts_full_neighbors(torus3):
    p = ProcessParams(lam=0.1, gamma=1.0, delta=1.0)
    o = origin(3)
    nbrs = torus3.neighbors(o)
    cfg = _config({nbrs[0]: FULL, nbrs[1]: FULL, nbrs[2]: FULL, nbrs[3]: SEMI})
    rates = site_rates("contact", cfg, o, p, torus3)
    assert len(rates) == 1
    target, rate = rates[0]
    assert target == SEMI
    assert rate == p.lam * 3  # exactly the table value, zero tolerance
    # zero infected neighbors: empty rate list
    assert site_rates("contact", _config({}), o, p, torus3) == []


def test_sir_rates(torus3):
    p = ProcessParams(lam=0.7, gamma=2.0, delta=0.5)
    o = origin(3)
    assert site_rates("sir", _config({o: FULL}), o, p, torus3) == [(RECOVERED, 1.0)]
    assert site_rates("sir", _config({o: SEMI}), o, p, torus3) == [(FULL, 2.0), (RECOVERED, 1.5)]
    assert site_rates("sir", _config({o: RECOVERED}), o, p, torus3) == []
    assert site_rates("sir", _config({}), o, p, torus3) == []


def test_recovered_is_not_a_contact_state(torus3):
    p = ProcessParams(lam=0.7, gamma=2.0, delta=0.5)
    o = origin(3)
    with pytest.raises(ParameterError, match="state -1 is not a contact state"):
        site_rates("contact", _config({o: RECOVERED}), o, p, torus3)
    with pytest.raises(ParameterError, match="state 3 is not a sir state"):
        site_rates("sir", _config({o: 3}), o, p, torus3)


UNKNOWN_KIND = "kind must be 'contact' or 'sir', got 'sis'"


def test_unknown_kind_raises_the_one_message(torus3):
    p = ProcessParams(lam=0.7, gamma=2.0, delta=0.5)
    o = origin(3)
    init = _config({o: FULL})
    with pytest.raises(ParameterError, match=UNKNOWN_KIND):
        site_rates("sis", init, o, p, torus3)
    with pytest.raises(ParameterError, match=UNKNOWN_KIND):
        simulate("sis", init, p, torus3, 1.0, substream(0, 0))
    with pytest.raises(ParameterError, match="kind must be 'contact' or 'sir', got \\['sir'\\]"):
        simulate(["sir"], init, p, torus3, 1.0, substream(0, 0))


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


def _exact_pair_moments(g, p, init, t):
    """E sum zeta, E sum theta, E zeta(o), E theta(o) at time t, exactly.

    On a finite graph the first moments solve m' = A m with
    d E zeta(x)/dt = -E zeta(x) + gamma E theta(x) and
    d E theta(x)/dt = -(1 + gamma + delta) E theta(x) + lam sum_{y ~ x} E zeta(y);
    the 2n x 2n matrix A is diagonalized with numpy.linalg.eig.
    """
    index = {x: i for i, x in enumerate(g.sites())}
    n = len(index)
    a = np.zeros((2 * n, 2 * n))
    for x, i in index.items():
        a[i, i] = -1.0
        a[i, n + i] = p.gamma
        a[n + i, n + i] = -(1.0 + p.gamma + p.delta)
        for y in g.neighbors(x):
            a[n + i, index[y]] += p.lam
    m0 = np.zeros(2 * n)
    for x, (z, th) in init.values.items():
        m0[index[x]] = z
        m0[n + index[x]] = th
    w, v = np.linalg.eig(a)
    m = (v @ (np.exp(w * t) * np.linalg.solve(v, m0))).real
    o = index[origin(g.d)]
    return m[:n].sum(), m[n:].sum(), m[o], m[n + o]


@pytest.mark.parametrize(
    "case,d,domain,rates,init,t",
    [
        # box exits from a corner and from a face
        (0, 2, Box(1), (0.4, 1.0, 1.0), {(-1, -1): (2, 1)}, 1.5),
        (1, 3, Box(1), (0.2, 1.0, 1.0), {(1, 0, 0): (2, 1)}, 1.5),
        # an inhomogeneous start on the torus, with theta to clear and promote
        (2, 2, Torus(3), (0.3, 1.0, 1.0), {(0, 0): (1, 1), (1, 2): (0, 2)}, 1.0),
    ],
)
def test_linear_first_moments_solve_the_moment_ode(case, d, domain, rates, init, t):
    # subcritical rates (2d lam gamma < 1 + gamma + delta) keep the sums light-tailed
    g = LatticeGeometry(d, domain)
    p = ProcessParams(*rates)
    lc = LinearConfig.from_sites(init)
    n = 20000
    rows = np.empty((n, 4))
    for i in range(n):
        snap = simulate_linear(lc, p, g, [t], substream(4003, case, i))[0]
        pairs = snap.values.values()
        rows[i] = (sum(z for z, _ in pairs), sum(th for _, th in pairs), *snap.value(origin(d)))
    exact = np.array(_exact_pair_moments(g, p, lc, t))
    z = (rows.mean(axis=0) - exact) / (rows.std(axis=0, ddof=1) / math.sqrt(n))
    assert np.all(np.abs(z) <= 4.0), (exact, rows.mean(axis=0), z)


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
# Fingerprints recorded when every stream was drawn in windows of 64,
# 64, 128, ..., 4096 pairs and then 4096 each, a window of w pairs as w
# uniforms and then w exponentials.  The comment on each row is the
# number of (uniform, exponential) pairs the replica reads: up to 64
# stays inside the first window, each later window is drawn when it is
# reached, and the rows past 8192 pairs go on into the windows of 4096.
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
    ("contact", "ring", 41, 0, 7, None, "d768b3c75d0c15e8"),  # 16 pairs
    ("contact", "ring", 41, 1, 4, None, "9255178249b91e46"),  # 5
    ("contact", "ring", 41, 2, 7, None, "d15322468c7bf07f"),  # 8
    ("contact", "ring", 41, 3, 9, None, "d15322468c7bf07f"),  # 13
    ("sir", "ring", 42, 0, 3, 1.750314301401796, "2118b09479269d85"),  # 5
    ("sir", "ring", 42, 1, 4, None, "ac8f0eb1f9dacfc3"),  # 8
    ("sir", "ring", 42, 2, 1, 0.49239253788244836, "227ac23236268e01"),  # 1
    ("sir", "ring", 42, 3, 1, 0.24116513220464478, "227ac23236268e01"),  # 1
    ("contact", "box2", 43, 1, 56, 4.733249505274189, "4f53cda18c2baa0c"),  # 65
    ("sir", "box2-sir", 44, 0, 53, 6.360670252155435, "4df74c06c050ace5"),  # 163
    ("sir", "box2-sir", 44, 2, 38, 1.8862465415813858, "ef2d3845ba4be2b4"),  # 68
    ("contact", "box2-long", 45, 0, 10034, None, "fa686206b25334fa"),  # 21955
    ("contact", "box2-long", 45, 3, 8597, None, "a89e6eb133ef7c16"),  # 18482
    ("sir", "box3-sir", 51, 0, 8322, 24.074068621999405, "66e68bd77ecde7f9"),  # 20011
    ("contact", "box8", 71, 0, 1422, None, "6eccf696a06b374c"),  # 1623
    ("contact", "box8", 71, 3, 973, None, "f5fbdc5732b63309"),  # 1106
    ("contact", "box8", 71, 4, 4, 0.4613529745281696, "4f53cda18c2baa0c"),  # 5
    ("sir", "box8-sir", 72, 0, 4, 0.37771865416962946, "2ade2d542610a0bd"),  # 4
    ("sir", "box8-sir", 72, 1, 11515, 28.378054655785665, "3a7e67bb7cc0c9bc"),  # 24044
    ("contact", "torus2", 73, 1, 66, 3.953658272413403, "4f53cda18c2baa0c"),  # 89
    ("contact", "torus2", 73, 2, 435, None, "51211abc11bca9a4"),  # 792
    ("sir", "torus2-sir", 74, 0, 52, 9.278599389319863, "eb156412f493143c"),  # 160
    ("sir", "torus2-sir", 74, 4, 3, 0.1640891643568572, "1ed2d7c2bc56a2f5"),  # 3
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
    # setup, seed, replica, digest of each snapshot; recorded with the
    # windows of GOLDEN_SPREAD, each lam clock indexed by its source
    ("ring", 46, 0, ["5844e05f76ad19c6"]),  # 10 pairs
    ("ring", 46, 2, ["3cd3374b57072acc"]),  # 3
    ("box2", 47, 0, ["e13375823f3aeb80", "b59801c5426867a1"]),  # 105
    ("box2", 47, 2, ["5b853cb4de4d5fa8", "4f53cda18c2baa0c"]),  # 13
    ("torus2-all", 48, 0, ["70d3ace354797822"]),  # 72
    ("torus2-all", 48, 4, ["3957679f6f8576c8"]),  # 58
    ("box3", 49, 0, ["eb69186e4c556069", "03d66f0317906855"]),  # 176
    ("box3", 49, 3, ["931a01362c2fa345", "48faae31c6a6e1f9"]),  # 534
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


def _stream(name, seed, replica):
    if name == "PCG64":
        return substream(seed, replica)
    return np.random.Generator(getattr(np.random, name)([seed, replica]))


def _window_state(rng, pairs):
    """rng's state after drawing every window that holds one of its first `pairs` pairs."""
    drawn = 0
    for w in itertools.chain([64, 64, 128, 256, 512, 1024, 2048], itertools.repeat(4096)):
        if drawn >= pairs:
            return pickle.dumps(rng.bit_generator.state)
        rng.random(w)
        rng.standard_exponential(w)
        drawn += w


@pytest.mark.parametrize(
    "kind,setup,seed,replica,events,extinction,final",
    GOLDEN_SPREAD,
    # named by the run, not its pinned values, so a restated golden keeps its id
    ids=[f"{kind}-{setup}-{seed}-{replica}" for kind, setup, seed, replica, *_ in GOLDEN_SPREAD],
)
def test_spread_draws_are_fixed_by_the_stream(kind, setup, seed, replica, events, extinction, final):
    out = _spread(kind, setup, substream(seed, replica))
    assert out.event_count == events
    assert out.extinction_time == extinction
    assert _digest(out.final.states) == final


@pytest.mark.parametrize("setup,seed,replica,finals", GOLDEN_LINEAR)
def test_linear_draws_are_fixed_by_the_stream(setup, seed, replica, finals):
    snaps = _linear(setup, substream(seed, replica))
    assert [_digest(s.values) for s in snaps] == finals


@pytest.mark.parametrize(
    "stream,kind,setup,seed,replica,pairs",
    [
        ("PCG64", "contact", "ring", 41, 0, 16),  # the first window
        ("PCG64", "contact", "box2", 43, 1, 65),  # the second
        ("PCG64", "linear", "box2", 47, 0, 105),  # the second
        ("PCG64", "sir", "box2-sir", 44, 0, 163),  # the third
        ("PCG64", "linear", "box3", 49, 0, 176),  # the third
        ("PCG64", "linear", "box3", 49, 3, 534),  # the fifth
        ("PCG64", "contact", "box2-long", 45, 0, 21955),  # the twelfth, past 2 * 8192 pairs
        ("MT19937", "sir", "box2-sir", 44, 0, 73),  # the second
        ("Philox", "contact", "box8", 71, 3, 630),  # the fifth
    ],
)
def test_replica_state_ends_its_last_window(monkeypatch, stream, kind, setup, seed, replica, pairs):
    # every generator follows the one layout, so a second call on it reads
    # on from the window after the last one this replica drew
    read = []

    def counted(rng):
        for pair in event_draws(rng):
            read.append(pair)
            yield pair

    monkeypatch.setattr(engine, "event_draws", counted)
    rng = _stream(stream, seed, replica)
    if kind == "linear":
        _linear(setup, rng)
    else:
        _spread(kind, setup, rng)
    assert len(read) == pairs
    assert pickle.dumps(rng.bit_generator.state) == _window_state(_stream(stream, seed, replica), pairs)


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


# kind, d, domain, rates, horizon, active_cap, sample times, track ever-full, seed
MANY_SETUPS = [
    ("contact", 2, Box(4), (1.2, 1.0, 1.0), 6.0, None, None, False, 81),
    ("sir", 2, Torus(5), (1.5, 1.5, 0.5), 6.0, None, [0.5, 2.0, 4.0], True, 82),
    ("contact", 1, Torus(3), (0.8, 1.0, 1.0), 2.0, None, [0.5, 1.0], False, 83),
    ("sir", 3, Box(3), (0.9, 2.0, 0.5), 20.0, 12, None, True, 84),
    ("contact", 3, Torus(5), (0.7, 1.0, 1.0), 20.0, 25, None, True, 85),
]


def _mixed_start(kind, g):
    """Origin full, one neighbour semi, one full and (for SIR) one recovered."""
    o = origin(g.d)
    nbrs = g.neighbors(o)
    states = {o: FULL, nbrs[0]: SEMI, nbrs[1]: FULL}
    if kind == "sir":
        states[nbrs[2]] = RECOVERED
    return _config(states)


@pytest.mark.parametrize("kind,d,domain,rates,horizon,cap,times,track,seed", MANY_SETUPS)
def test_simulate_many_equals_one_simulate_per_stream(kind, d, domain, rates, horizon, cap, times, track, seed):
    p = ProcessParams(*rates)
    g = LatticeGeometry(d, domain)
    stops = Counter()
    for init in (_config({origin(d): FULL}), _mixed_start(kind, g)):
        n = 30
        runs = simulate_many(
            kind, init, p, g, horizon, (substream(seed, i) for i in range(n)), cap, track,
            sample_times=times,
        )
        got = list(runs)
        assert len(got) == n
        for i, many in enumerate(got):
            one = simulate(kind, init, p, g, horizon, substream(seed, i), cap, track, sample_times=times)
            assert (many.event_count, many.extinction_time, many.peak_active) == (
                one.event_count, one.extinction_time, one.peak_active
            )
            assert many.final == one.final
            assert many.snapshots == one.snapshots
            assert many.ever_fully_infected == one.ever_fully_infected
            if not many.survived:
                stops["extinct"] += 1
            elif cap is not None and many.peak_active >= cap:
                stops["cap"] += 1
            else:
                stops["horizon"] += 1
    assert stops["extinct"] > 0
    assert stops["cap" if cap is not None else "horizon"] > 0


def test_simulate_many_reads_its_streams_lazily_in_order():
    p = ProcessParams(lam=0.8, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Torus(3))
    init = _config({(0,): FULL})
    seen = []

    def streams():
        for i in range(3):
            seen.append(i)
            yield substream(9, i)

    runs = simulate_many("contact", init, p, g, 2.0, streams())
    assert seen == []
    first = next(runs)
    assert seen == [0]
    assert first.event_count == simulate("contact", init, p, g, 2.0, substream(9, 0)).event_count
    assert len(list(runs)) == 2 and seen == [0, 1, 2]
    # the same generator twice reads on, as two simulate calls in a row do
    rng_a, rng_b = substream(9, 5), substream(9, 5)
    twice = list(simulate_many("contact", init, p, g, 2.0, [rng_a, rng_a]))
    calls = [simulate("contact", init, p, g, 2.0, rng_b) for _ in range(2)]
    assert [o.final for o in twice] == [o.final for o in calls]


def test_simulate_many_raises_as_simulate_does_before_reading_a_stream():
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Box(2))
    full = _config({(0,): FULL})

    def untouched():
        raise AssertionError("a stream was read")
        yield  # pragma: no cover

    bad = [
        (("bogus", full, p, g, 1.0), {}),
        (("contact", SparseConfig({(0,): FULL}, math.nan), p, g, 1.0), {}),
        (("contact", full, p, g, 0.0), {}),
        (("contact", full, p, g, 1.0), {"active_cap": 0}),
        (("contact", full, p, g, 1.0), {"sample_times": []}),
        (("contact", full, p, g, 1.0), {"sample_times": [0.5], "active_cap": 3}),
        (("contact", _config({(0,): RECOVERED}), p, g, 1.0), {}),
        (("contact", _config({(9,): FULL}), p, g, 1.0), {}),
        # lam * 2d overflows to inf although lam itself is finite
        (("contact", full, ProcessParams(lam=1e308, gamma=1.0, delta=1.0), g, 1.0), {}),
    ]
    for args, kwargs in bad:
        with pytest.raises((ParameterError, DomainError)) as one:
            simulate(*args, substream(0), **kwargs)
        with pytest.raises(type(one.value), match=re.escape(str(one.value))):
            simulate_many(*args, untouched(), **kwargs)
    with pytest.raises(ParameterError, match=r"lam \* 2d must be finite, got 1e\+308 \* 2"):
        simulate("contact", full, ProcessParams(lam=1e308, gamma=1.0, delta=1.0), g, 1.0, substream(0))


@pytest.mark.parametrize(
    "kind,rates,span",
    [
        # lam * 2d is finite, but t + e / rate would stop moving t
        ("contact", (5e307, 1.0, 1.0), 1.0),
        # the semi-infected rate gamma + 1 + delta alone reaches the bound
        ("sir", (0.5, 2.0**50, 0.5), 1.0),
        # both site rates are 2, so 2**49 time units make exactly 2**50 attempts
        ("contact", (0.5, 0.5, 0.5), 2.0**49),
        ("linear", (5e307, 1.0, 1.0), 1.0),
        # 1 + delta + gamma + lam * 2d = 4
        ("linear", (0.5, 1.0, 1.0), 2.0**48),
    ],
)
def test_a_run_with_2_to_the_50_attempts_per_site_is_refused_before_a_draw(kind, rates, span, time_limit):
    p = ProcessParams(*rates)
    g = LatticeGeometry(1, Torus(3))
    rng = substream(0)
    before = rng.bit_generator.state
    # without the guard some of these runs never end
    with time_limit(10), pytest.raises(
        ParameterError, match=r"attempts in .* time units; a run cannot finish past 2\*\*50"
    ):
        if kind == "linear":
            simulate_linear(LinearConfig.from_sites({(0,): (1, 0)}), p, g, [span], rng)
        else:
            simulate(kind, _config({(0,): FULL}), p, g, span, rng)
    assert rng.bit_generator.state == before


def test_a_run_just_inside_the_attempt_bound_runs(time_limit):
    # 3 * 2**48 and 4 * 2**47 attempts: the ring dies out long before the end
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Torus(3))
    with time_limit(10):
        out = simulate("contact", _config({(0,): FULL}), p, g, 2.0**48, substream(0))
        snaps = simulate_linear(
            LinearConfig.from_sites({(0,): (1, 0)}), p, g, [2.0**47], substream(0)
        )
    assert not out.survived
    assert snaps[0].time == 2.0**47
