import math

import numpy as np
import pytest

from twostage.engine import FULL, SEMI, SparseConfig, simulate
from twostage.errors import ParameterError, ResourceError
from twostage.lattice import Box, LatticeGeometry, Torus
from twostage import oracle
from twostage.oracle import brute_union_spaces, build_exact, check_suite, transient
from twostage.params import ProcessParams
from twostage.rng import substream

P = ProcessParams(lam=0.8, gamma=2.0, delta=0.5)


def test_single_site_contact_generator_rows():
    g = LatticeGeometry(1, Box(0))
    chain = build_exact("contact", g, P)
    assert len(chain.states) == 3
    q = chain.generator
    i0, i1, i2 = (chain.index[(s,)] for s in (0, 1, 2))
    assert q[i2, i0] == 1.0 and q[i2, i2] == -1.0 and q[i2, i1] == 0.0
    assert q[i1, i2] == P.gamma and q[i1, i0] == 1.0 + P.delta
    assert (q[i0] == 0).all()  # healthy site with no neighbors never moves


def test_single_site_sir_recovered_row_is_zero():
    g = LatticeGeometry(1, Box(0))
    chain = build_exact("sir", g, P)
    assert len(chain.states) == 4
    rec = chain.index[(-1,)]
    assert (chain.generator[rec] == 0).all()


def test_unknown_kind_raises_the_one_message():
    with pytest.raises(ParameterError, match="kind must be 'contact' or 'sir', got 'sis'"):
        build_exact("sis", LatticeGeometry(1, Box(0)), P)


def test_ring_generator_conservation():
    g = LatticeGeometry(1, Torus(3))
    for kind, n_states in (("contact", 27), ("sir", 64)):
        chain = build_exact(kind, g, P)
        q = chain.generator
        assert len(chain.states) == n_states
        assert abs(q.sum(axis=1)).max() < 1e-12
        off = q - np.diag(np.diag(q))
        assert (off >= 0).all()


def test_state_space_size_guard():
    g = LatticeGeometry(1, Torus(13))  # 3^13 > 10^6
    with pytest.raises(ResourceError):
        build_exact("contact", g, P)


def test_state_space_guard_names_its_limit():
    g = LatticeGeometry(1, Torus(9))  # 3^9 = 19683 configurations
    with pytest.raises(ResourceError, match="over the limit of 12000"):
        build_exact("contact", g, P)


def test_transient_point_mass_at_zero():
    g = LatticeGeometry(1, Box(0))
    chain = build_exact("contact", g, P)
    start = chain.config_index({(0,): FULL})
    dist = transient(chain, start, 0.0)
    assert dist[start] == 1.0
    assert dist.sum() == pytest.approx(1.0)


def test_transient_pure_death_closed_form():
    g = LatticeGeometry(1, Box(0))
    chain = build_exact("contact", g, P)
    start = chain.config_index({(0,): FULL})
    for t in (0.1, 0.7, 2.5, 8.0):
        dist = transient(chain, start, t)
        healthy = chain.marginal(dist, (0,))[0]
        assert healthy == pytest.approx(1.0 - math.exp(-t), abs=1e-10)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_transient_absorption_is_monotone():
    g = LatticeGeometry(1, Torus(3))
    chain = build_exact("sir", g, P)
    start = chain.config_index({(0,): FULL})
    absorbed_prev = -1.0
    for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        dist = transient(chain, start, t)
        # absorbing configurations: no site in state 1 or 2
        absorbed = sum(
            float(dist[k])
            for k, st in enumerate(chain.states)
            if all(s not in (SEMI, FULL) for s in st)
        )
        assert absorbed >= absorbed_prev - 1e-12
        absorbed_prev = absorbed


def test_single_site_sir_semi_start_vs_monte_carlo():
    # start semi-infected: P(fully infected at t) has no elementary form
    # worth hand-coding; uniformization and the event simulator must agree
    p = ProcessParams(lam=0.5, gamma=1.0, delta=0.25)
    g = LatticeGeometry(1, Box(0))
    chain = build_exact("sir", g, p)
    start = chain.config_index({(0,): SEMI})
    t = 0.8
    exact = chain.marginal(transient(chain, start, t), (0,))
    n = 40000
    counts = {s: 0 for s in chain.state_values}
    init = SparseConfig(states={(0,): SEMI})
    for i in range(n):
        out = simulate("sir", init, p, g, t, substream(71, i))
        counts[out.final.state((0,))] += 1
    for s, prob in exact.items():
        se = math.sqrt(max(prob * (1 - prob), 1e-12) / n)
        assert abs(counts[s] / n - prob) <= 3.5 * se


def test_transient_validations():
    g = LatticeGeometry(1, Box(0))
    chain = build_exact("contact", g, P)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="time must be finite"):
            transient(chain, 0, t)
    with pytest.raises(ParameterError):
        transient(chain, 99, 1.0)
    with pytest.raises(ParameterError):
        build_exact("bogus", g, P)
    with pytest.raises(ParameterError):
        chain.config_index({(0,): 7})


def test_transient_refuses_a_poisson_mean_it_cannot_weigh():
    # exp(-Lambda*t) underflows past ~745; the loop used to run ~Lambda*t
    # steps and then report a failure to converge
    chain = build_exact("contact", LatticeGeometry(1, Torus(3)), ProcessParams(400.0, 1.0, 1.0))
    start = chain.config_index({(0,): FULL})
    rate = float(-chain.generator.diagonal().min())
    assert rate * 2.0 > 745
    with pytest.raises(ResourceError, match=r"Lambda\*t <= 700, got 1604 at t=2"):
        transient(chain, start, 2.0)
    assert transient(chain, start, 600.0 / rate).sum() == pytest.approx(1.0)


def test_brute_union_spaces_clean():
    report = brute_union_spaces(200, substream(72))
    assert report.trials == 200
    assert report.violations == 0
    assert report.worst_gap <= 1e-12
    # equality case: single event spaces appear and reach equality
    singles = [c for c in report.cases if c.bound == pytest.approx(c.exact_union)]
    assert singles  # at least one single-event trial hit equality


SUITE_ROWS = [
    "generator-single-site-contact",
    "generator-single-site-sir",
    "generator-ring-contact",
    "generator-ring-sir",
    "pure-death-closed-form",
    "marginals-ring-contact",
    "marginals-ring-sir",
    "union-bound-spaces",
]


def test_check_suite_rows_in_order_and_passing():
    rows = check_suite(ProcessParams(lam=0.8, gamma=1.0, delta=1.0), 400, 3)
    assert [name for name, _, _ in rows] == SUITE_ROWS
    assert all(ok for _, ok, _ in rows), rows
    assert rows[-1][2].startswith("200 spaces, worst gap ")
    with pytest.raises(ParameterError, match="replicas must be >= 1"):
        check_suite(P, 0, 3)


def test_check_suite_builds_each_chain_once(monkeypatch):
    built = []

    def counting(kind, g, p):
        built.append((kind, len(list(g.sites()))))
        return build_exact(kind, g, p)

    monkeypatch.setattr(oracle, "build_exact", counting)
    check_suite(P, 20, 0)
    assert sorted(built) == [("contact", 1), ("contact", 3), ("sir", 1), ("sir", 3)]
