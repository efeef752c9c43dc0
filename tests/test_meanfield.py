import math

import pytest

from twostage.errors import ParameterError
from twostage.meanfield import (
    _moment_solution,
    eigenvalues,
    is_subcritical,
    lambda_from_theta,
    lower_bound_lambda,
    moment_matrix,
    scaled_limit,
    solve_moments,
)
from twostage.params import ProcessParams


def test_matrix_entries_direct_substitution():
    m = moment_matrix(1, ProcessParams(lam=1.0, gamma=1.0, delta=1.0))
    assert m.entries == ((-1.0, 1.0), (2.0, -3.0))


def test_trace_and_det():
    p = ProcessParams(lam=0.37, gamma=1.4, delta=0.9)
    for d in (1, 3, 8):
        m = moment_matrix(d, p)
        assert m.trace == pytest.approx(-(2 + p.gamma + p.delta))
        assert m.det == pytest.approx((1 + p.gamma + p.delta) - 2 * d * p.lam * p.gamma)


def test_eigenvalue_quadratic_example():
    # d=1, lam=gamma=delta=1: mu^2 + 4 mu + 1 = 0 -> -2 +- sqrt(3)
    c1, c2 = eigenvalues(moment_matrix(1, ProcessParams(lam=1.0, gamma=1.0, delta=1.0)))
    assert c1.real == pytest.approx(-2 + math.sqrt(3), abs=1e-12)
    assert c2.real == pytest.approx(-2 - math.sqrt(3), abs=1e-12)
    assert c1.imag == 0 and c2.imag == 0


def test_zero_eigenvalue_at_threshold():
    # 2 d lam gamma = 1 + gamma + delta makes the constant term vanish
    c1, _ = eigenvalues(moment_matrix(5, ProcessParams(lam=0.3, gamma=1.0, delta=1.0)))
    assert abs(c1.real) < 1e-12


def test_sign_criterion_both_directions():
    gamma, delta = 1.3, 0.6
    for d in (1, 2, 6):
        crit = (1 + gamma + delta) / (2 * d * gamma)
        for factor in (0.5, 0.97):
            p = ProcessParams(lam=factor * crit, gamma=gamma, delta=delta)
            c1, _ = eigenvalues(moment_matrix(d, p))
            assert c1.real < 0
            assert is_subcritical(d, p)
        for factor in (1.03, 1.5):
            p = ProcessParams(lam=factor * crit, gamma=gamma, delta=delta)
            c1, _ = eigenvalues(moment_matrix(d, p))
            assert c1.real > 0
            assert not is_subcritical(d, p)
        # equality point: the top eigenvalue vanishes to rounding error
        p = ProcessParams(lam=crit, gamma=gamma, delta=delta)
        c1, _ = eigenvalues(moment_matrix(d, p))
        assert abs(c1.real) < 1e-12


def test_solve_moments_initial_condition_and_derivative():
    p = ProcessParams(lam=0.4, gamma=1.5, delta=0.8)
    d = 3
    assert solve_moments(d, p, 0.0) == (1.0, 0.0)
    h = 1e-6
    z_p, th_p = solve_moments(d, p, h)
    z_m, th_m = solve_moments(d, p, 0.0)
    assert (z_p - z_m) / h == pytest.approx(-1.0, rel=1e-4)
    assert (th_p - th_m) / h == pytest.approx(2 * d * p.lam, rel=1e-4)


def test_solve_moments_subcritical_decay():
    # d=5, lam=0.29: slowest mode decays at rate (4 - sqrt(15.6))/2 ~ 0.025,
    # so the 1e-6 level is reached around t ~ 600
    p = ProcessParams(lam=0.29, gamma=1.0, delta=1.0)
    z50, th50 = solve_moments(5, p, 50.0)
    z, th = solve_moments(5, p, 600.0)
    assert 0 < z < z50 and 0 < th < th50  # monotone decay toward zero
    assert z < 1e-6
    assert th < 1e-6


def test_solve_moments_satisfies_ode_by_finite_differences():
    p = ProcessParams(lam=0.33, gamma=1.2, delta=0.7)
    d = 4
    m = moment_matrix(d, p)
    (a, b), (c, dd) = m.entries
    rng_ts = [0.05 + 0.21 * k for k in range(20)]
    h = 1e-5
    for t in rng_ts:
        z0, th0 = solve_moments(d, p, t)
        zp, thp = solve_moments(d, p, t + h)
        zm, thm = solve_moments(d, p, t - h)
        dz = (zp - zm) / (2 * h)
        dth = (thp - thm) / (2 * h)
        assert dz == pytest.approx(a * z0 + b * th0, rel=1e-4, abs=1e-10)
        assert dth == pytest.approx(c * z0 + dd * th0, rel=1e-4, abs=1e-10)


def test_confluent_branch_is_continuous():
    # valid rate parameters never produce a repeated root, but the solver
    # must stay finite and continuous across a synthetic near-collision
    exact = _moment_solution(-2.0, -2.0, 3.0, 1.3)
    near = _moment_solution(-2.0, -2.0 + 1e-9, 3.0, 1.3)
    assert exact[0] == pytest.approx(near[0], rel=1e-6)
    assert exact[1] == pytest.approx(near[1], rel=1e-6)


def test_lower_bound_values():
    assert lower_bound_lambda(5, 1.0, 1.0) == pytest.approx(0.3)
    for d in (1, 4, 12):
        assert 2 * d * lower_bound_lambda(d, 1.0, 1.0) == pytest.approx(3.0)
    # gamma -> infinity reduces to the single-stage value 1/(2d)
    assert lower_bound_lambda(5, 1e12, 1.0) == pytest.approx(1.0 / 10.0, rel=1e-10)
    assert scaled_limit(1.0, 1.0) == pytest.approx(3.0)


def test_lambda_from_theta():
    assert lambda_from_theta(12, 1.0, 1.0, 1.5) == pytest.approx(1.5 * 3.0 / 24.0)
    with pytest.raises(ParameterError):
        lambda_from_theta(12, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_lambda_from_theta_needs_positive_gamma(gamma):
    with pytest.raises(ParameterError, match="gamma must be positive"):
        lambda_from_theta(12, gamma, 1.0, 1.5)


def test_validations():
    with pytest.raises(ParameterError):
        moment_matrix(0, ProcessParams(lam=1.0, gamma=1.0, delta=1.0))
    with pytest.raises(ParameterError):
        solve_moments(2, ProcessParams(lam=1.0, gamma=1.0, delta=1.0), -0.5)
    with pytest.raises(ParameterError):
        lower_bound_lambda(3, -1.0, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_solve_moments_rejects_non_finite_time(t):
    with pytest.raises(ParameterError, match="time must be finite"):
        solve_moments(5, ProcessParams(lam=0.3, gamma=1.0, delta=1.0), t)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["gamma", "delta"])
def test_non_finite_gamma_or_delta_is_named(name, value):
    rates = {"gamma": 1.0, "delta": 1.0, name: value}
    calls = (
        lambda: lower_bound_lambda(4, **rates),
        lambda: scaled_limit(**rates),
        lambda: lambda_from_theta(4, theta=1.5, **rates),
    )
    for call in calls:
        with pytest.raises(ParameterError, match=f"{name} must be finite, got {value}"):
            call()


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_lambda_from_theta_rejects_non_finite_theta(theta):
    # a non-finite theta must be named, not surface later as a bad lambda
    with pytest.raises(ParameterError, match="theta must be positive and finite"):
        lambda_from_theta(12, 1.0, 1.0, theta)
