import re

import numpy as np
import pytest

from twostage.critical import (
    ProxySettings,
    bisect_critical,
    estimate_survival,
    run_replicas,
    wilson_interval,
)
from twostage.engine import FULL, LinearConfig, SparseConfig, simulate, simulate_linear
from twostage.errors import DomainError, ParameterError
from twostage.lattice import (
    Box,
    LatticeGeometry,
    Torus,
    l1_norm,
    origin,
    sub,
)
from twostage.meanfield import lambda_from_theta, lower_bound_lambda, moment_matrix
from twostage.oracle import brute_union_spaces, check_suite
from twostage.params import ProcessParams
from twostage.rng import substream
from twostage.saw import estimate_survival_lower_bound, estimate_union_direct, sample_walk


def test_l1_norm_examples():
    assert l1_norm(origin(3)) == 0
    assert l1_norm((1, -2, 0)) == 3


def test_neighbors_torus_origin():
    g = LatticeGeometry(2, Torus(5))
    got = set(g.neighbors((0, 0)))
    assert got == {(1, 0), (4, 0), (0, 1), (0, 4)}
    assert len(got) == 4


def test_neighbors_box_boundary_clipped():
    L = 3
    g = LatticeGeometry(3, Box(L))
    got = g.neighbors((L, 0, 0))
    assert len(got) == 5
    assert (L + 1, 0, 0) not in got


def test_neighbors_small_torus_wrap_distinct():
    g = LatticeGeometry(1, Torus(3))
    assert set(g.neighbors((0,))) == {(1,), (2,)}


def test_neighbor_count_and_distinctness():
    rng = substream(123)
    for d in (1, 2, 3):
        gt = LatticeGeometry(d, Torus(5))
        gb = LatticeGeometry(d, Box(4))
        for _ in range(50):
            x = tuple(int(rng.integers(0, 5)) for _ in range(d))
            nb = gt.neighbors(x)
            assert len(nb) == 2 * d
            assert len(set(nb)) == 2 * d
            # interior box site
            y = tuple(int(rng.integers(-3, 4)) for _ in range(d))
            assert len(gb.neighbors(y)) == 2 * d


def test_neighbor_symmetry():
    rng = substream(7)
    for g in (LatticeGeometry(2, Torus(5)), LatticeGeometry(2, Box(4))):
        for _ in range(100):
            if g.is_torus:
                x = tuple(int(rng.integers(0, 5)) for _ in range(2))
            else:
                x = tuple(int(rng.integers(-4, 5)) for _ in range(2))
            for y in g.neighbors(x):
                assert x in g.neighbors(y)


def test_box_neighbors_at_l1_distance_one():
    g = LatticeGeometry(3, Box(4))
    x = (1, -2, 3)
    for y in g.neighbors(x):
        assert l1_norm(sub(x, y)) == 1


def test_domain_errors():
    g = LatticeGeometry(2, Box(3))
    with pytest.raises(DomainError):
        g.neighbors((4, 0))
    gt = LatticeGeometry(2, Torus(5))
    with pytest.raises(DomainError):
        gt.neighbors((-1, 0))


def test_invalid_geometry_parameters():
    with pytest.raises(ParameterError):
        LatticeGeometry(0, Box(3))
    with pytest.raises(ParameterError):
        LatticeGeometry(2, Box(-1))
    with pytest.raises(ParameterError):
        LatticeGeometry(2, Torus(2))


@pytest.mark.parametrize(
    "d,domain,match",
    [
        (2, Box(1.5), "box radius must be an integer, got 1.5"),
        (2, Torus(3.5), "torus side must be an integer, got 3.5"),
        (2.0, Box(1), "dimension must be an integer, got 2.0"),
        (1, Box("2"), "box radius must be an integer, got '2'"),
    ],
)
def test_non_integer_geometry_parameters_are_refused(d, domain, match):
    # a fractional radius gave a fractional side, and codes such as 7.5
    with pytest.raises(ParameterError, match=re.escape(match)):
        LatticeGeometry(d, domain)


def test_numpy_integer_geometry_parameters_are_plain_ints():
    g = LatticeGeometry(np.int64(2), Box(np.int32(3)))
    assert (g.d, g.side, g.n_sites) == (2, 7, 49)
    assert type(g.side) is int and type(g.n_sites) is int
    assert g.encode((3, 3)) == 48
    assert LatticeGeometry(1, Torus(np.int64(4))).neighbors((0,)) == [(3,), (1,)]


def test_survival_estimate_refuses_a_fractional_box_radius():
    p = ProcessParams(lam=0.9, gamma=1.0, delta=1.0)
    # the proxy refuses the radius itself, before any estimate is asked for
    with pytest.raises(ParameterError, match="box radius must be an integer"):
        estimate_survival("contact", 2, p, ProxySettings(5.0, 50, box_radius=1.5), 50, seed=0)


P = ProcessParams(lam=0.9, gamma=1.0, delta=1.0)
SMALL_PROXY = ProxySettings(horizon=5.0, active_cap=50, box_radius=3)

# id -> (a call that passes one fractional count, the refusal naming it)
FRACTIONAL_COUNTS = {
    "proxy-cap": (lambda: ProxySettings(active_cap=2.5), "proxy cap must be an integer, got 2.5"),
    "proxy-radius": (
        lambda: ProxySettings(box_radius=1.5), "proxy box radius must be an integer, got 1.5"
    ),
    "simulate-active-cap": (
        lambda: simulate(
            "contact", SparseConfig({(0,): FULL}), P, LatticeGeometry(1, Box(3)), 1.0,
            substream(0), active_cap=1.5,
        ),
        "active_cap must be an integer, got 1.5",
    ),
    "linear-config-zeta": (
        lambda: LinearConfig.from_sites({(0,): (1.5, 0)}), "zeta at (0,) must be an integer, got 1.5"
    ),
    "simulate-linear-zeta": (
        lambda: simulate_linear(
            LinearConfig({(0,): (1.5, 0)}), P, LatticeGeometry(1, Torus(3)), [1.0], substream(0)
        ),
        "zeta at (0,) must be an integer, got 1.5",
    ),
    "simulate-linear-theta": (
        lambda: simulate_linear(
            LinearConfig({(0,): (1, 0.5)}), P, LatticeGeometry(1, Torus(3)), [1.0], substream(0)
        ),
        "theta at (0,) must be an integer, got 0.5",
    ),
    "moment-matrix-d": (lambda: moment_matrix(2.5, P), "dimension must be an integer, got 2.5"),
    "lower-bound-d": (
        lambda: lower_bound_lambda(2.5, 1.0, 1.0), "dimension must be an integer, got 2.5"
    ),
    "lambda-from-theta-d": (
        lambda: lambda_from_theta(2.5, 1.0, 1.0, 1.5), "dimension must be an integer, got 2.5"
    ),
    "wilson-trials": (lambda: wilson_interval(1, 2.5), "trials must be an integer, got 2.5"),
    "wilson-successes": (lambda: wilson_interval(0.5, 2), "successes must be an integer, got 0.5"),
    "run-replicas": (
        lambda: run_replicas("contact", 2, P, Box(3), 2.0, 10, 2.5, 0),
        "replicas must be an integer, got 2.5",
    ),
    "estimate-survival": (
        lambda: estimate_survival("contact", 2, P, SMALL_PROXY, 2.5, 0),
        "replicas must be an integer, got 2.5",
    ),
    "estimate-survival-probe": (
        lambda: estimate_survival("contact", 2, P, SMALL_PROXY, 2.5, 0, eps=0.02),
        "replicas must be an integer, got 2.5",
    ),
    "bisect-probe-replicas": (
        lambda: bisect_critical(
            "contact", 2, 1.0, 1.0, probe_replicas=2.5, bracket_replicas=20, proxy=SMALL_PROXY
        ),
        "probe_replicas must be an integer, got 2.5",
    ),
    "bisect-bracket-replicas": (
        lambda: bisect_critical(
            "contact", 2, 1.0, 1.0, probe_replicas=20, bracket_replicas=2.5, proxy=SMALL_PROXY
        ),
        "bracket_replicas must be an integer, got 2.5",
    ),
    "check-suite": (lambda: check_suite(P, 2.5, 0), "replicas must be an integer, got 2.5"),
    "brute-union-spaces": (
        lambda: brute_union_spaces(2.5, substream(0)), "count must be an integer, got 2.5"
    ),
    "sawbound-n-max": (
        lambda: estimate_survival_lower_bound(6, P, 40.5, 10, 0), "n_max must be an integer, got 40.5"
    ),
    "sawbound-replicas": (
        lambda: estimate_survival_lower_bound(6, P, 40, 2.5, 0), "replicas must be an integer, got 2.5"
    ),
    "sample-walk-d": (
        lambda: sample_walk(6.5, 10, substream(0)), "walk dimension must be an integer, got 6.5"
    ),
    "union-direct-n": (
        lambda: estimate_union_direct(6, 4.5, P, 10, 0), "path length must be an integer, got 4.5"
    ),
    "union-direct-replicas": (
        lambda: estimate_union_direct(6, 4, P, 2.5, 0), "replicas must be an integer, got 2.5"
    ),
}


@pytest.mark.parametrize("case", list(FRACTIONAL_COUNTS))
def test_every_fractional_count_is_refused_naming_it(case):
    # each of these once ran, truncated the count or raised a bare TypeError
    call, match = FRACTIONAL_COUNTS[case]
    with pytest.raises(ParameterError, match=re.escape(match)):
        call()


def test_single_site_box_is_degenerate_domain():
    g = LatticeGeometry(1, Box(0))
    assert g.n_sites == 1
    assert g.neighbors((0,)) == []


def test_encode_decode_roundtrip_and_neighbor_codes():
    rng = substream(42)
    for g in (LatticeGeometry(3, Box(4)), LatticeGeometry(3, Torus(5))):
        for _ in range(100):
            if g.is_torus:
                x = tuple(int(rng.integers(0, 5)) for _ in range(3))
            else:
                x = tuple(int(rng.integers(-4, 5)) for _ in range(3))
            code = g.encode(x)
            assert g.decode(code) == x
            from_codes = sorted(g.decode(c) for c in g.neighbor_codes(code) if c >= 0)
            assert from_codes == sorted(g.neighbors(x))


def _coordinate_step(g, code, k):
    # direction k by coordinates: -1 then +1 on axis k // 2, wrapped on a
    # torus, -1 for a step out of the box
    x = list(g.decode(code))
    x[k // 2] += 1 if k % 2 else -1
    if g.is_torus:
        x[k // 2] %= g.side
    elif not g.contains(tuple(x)):
        return -1
    return g.encode(tuple(x))


def _table_matches_tuples(g, codes):
    for code in codes:
        want = [_coordinate_step(g, code, k) for k in range(2 * g.d)]
        assert list(g.neighbor_codes(code)) == want, (g, code)


def test_direction_tables_give_every_neighbor_code():
    # every code and direction of the small domains, where each axis has
    # both edges and the torus wraps past every axis
    for d in range(1, 5):
        for radius in range(4):
            g = LatticeGeometry(d, Box(radius))
            _table_matches_tuples(g, range(g.n_sites))
    for d in range(1, 4):
        for side in range(3, 6):
            g = LatticeGeometry(d, Torus(side))
            _table_matches_tuples(g, range(g.n_sites))
    # sampled codes of the d = 8 box, plus its corners' axis edges
    g = LatticeGeometry(8, Box(20))
    rng = substream(43)
    sampled = [int(c) for c in rng.integers(0, g.n_sites, 2000)]
    edges = [g.encode(tuple(int(c) for c in rng.choice([-20, 0, 20], 8))) for _ in range(500)]
    _table_matches_tuples(g, sampled + edges)


def test_sites_enumeration_matches_size():
    g = LatticeGeometry(2, Torus(3))
    sites = list(g.sites())
    assert len(sites) == g.n_sites == 9
    assert len(set(sites)) == 9
    gb = LatticeGeometry(2, Box(1))
    assert len(list(gb.sites())) == 9
