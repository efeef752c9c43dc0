import pytest

from twostage.errors import DomainError, ParameterError
from twostage.lattice import (
    Box,
    LatticeGeometry,
    Torus,
    l1_norm,
    origin,
    sub,
)
from twostage.rng import substream


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
