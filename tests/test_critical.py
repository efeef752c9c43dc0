import math

import pytest

from twostage.critical import (
    ProxySettings,
    bisect_critical,
    estimate_survival,
    occupation_fractions,
    trend_study,
    wilson_interval,
)
from twostage.errors import BracketError, ParameterError
from twostage.lattice import LatticeGeometry, Torus
from twostage.meanfield import lower_bound_lambda
from twostage.params import ProcessParams

FAST_PROXY = ProxySettings(horizon=25.0, active_cap=150, box_radius=10)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 10000)
    assert lo == 0.0
    assert hi < 5e-4
    lo, hi = wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    with pytest.raises(ParameterError):
        wilson_interval(5, 0)
    with pytest.raises(ParameterError):
        wilson_interval(11, 10)


def test_survival_zero_rate_never_survives():
    p = ProcessParams(lam=1e-12, gamma=1.0, delta=1.0)
    est = estimate_survival("contact", 2, p, FAST_PROXY, 300, seed=1)
    assert est.survivals == 0
    assert est.p_hat == 0.0


def test_survival_monotone_in_lambda():
    gamma = delta = 1.0
    prev_hi = -1.0
    rows = []
    for lam in (0.6, 1.2, 2.4):
        est = estimate_survival(
            "contact", 2, ProcessParams(lam=lam, gamma=gamma, delta=delta), FAST_PROXY, 800, seed=2
        )
        rows.append(est)
    for a, b in zip(rows, rows[1:]):
        assert b.p_hat >= a.p_hat - (a.p_hat - a.ci_low) - (b.ci_high - b.p_hat)


def test_survival_worker_count_does_not_change_counts():
    p = ProcessParams(lam=1.0, gamma=1.0, delta=1.0)
    serial = estimate_survival("contact", 2, p, FAST_PROXY, 400, seed=3, workers=1)
    parallel = estimate_survival("contact", 2, p, FAST_PROXY, 400, seed=3, workers=2)
    assert serial.survivals == parallel.survivals


def test_bisect_reproducible_and_above_lower_bound():
    est1 = bisect_critical(
        "contact", 2, 1.0, 1.0,
        tol=0.05, probe_replicas=300, bracket_replicas=600, proxy=FAST_PROXY, seed=4,
    )
    est2 = bisect_critical(
        "contact", 2, 1.0, 1.0,
        tol=0.05, probe_replicas=300, bracket_replicas=600, proxy=FAST_PROXY, seed=4,
    )
    assert est1.lambda_hat == est2.lambda_hat
    assert [p.lam for p in est1.probes] == [p.lam for p in est2.probes]
    assert est1.lambda_hat >= lower_bound_lambda(2, 1.0, 1.0) - est1.resolution
    assert est1.scaled == pytest.approx(4 * est1.lambda_hat)
    phases = {p.phase for p in est1.probes}
    assert "bracket-low" in phases and "bracket-high" in phases and "bisect" in phases


def test_bisect_seed_sensitivity_is_bounded():
    kwargs = dict(tol=0.06, probe_replicas=400, bracket_replicas=800, proxy=FAST_PROXY)
    a = bisect_critical("contact", 2, 1.0, 1.0, seed=5, **kwargs)
    b = bisect_critical("contact", 2, 1.0, 1.0, seed=6, **kwargs)
    # different seeds: estimates agree up to resolution plus probe noise
    assert abs(a.lambda_hat - b.lambda_hat) <= 2 * 0.06 + 0.15


def test_bisect_bracket_failure():
    with pytest.raises(BracketError):
        bisect_critical(
            "contact", 2, 1.0, 1.0,
            lambda_max=0.8, probe_replicas=50, bracket_replicas=50, proxy=FAST_PROXY, seed=7,
        )


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"lambda_max": math.nan}, "lambda_max"),
        ({"lambda_max": math.inf}, "lambda_max"),
        ({"lambda_max": -1.0}, "lambda_max"),
        ({"lambda_max": 0.0}, "lambda_max"),
    ],
)
def test_bisect_rejects_non_finite_or_non_positive_settings(kwargs, name):
    with pytest.raises(ParameterError, match=f"{name} must be positive and finite"):
        bisect_critical(
            "contact", 2, 1.0, 1.0,
            probe_replicas=20, bracket_replicas=20, proxy=FAST_PROXY, seed=7, **kwargs,
        )


@pytest.mark.slow
def test_bisect_d1_large_gamma_reduces_to_single_stage():
    # with near-instant maturation the model degenerates to a single
    # infected state, whose one-dimensional threshold sits near 1.65.
    # Qualitative check only: the alive-at-horizon rule overcounts
    # near-critical survival in 1d (slowly dying excursions), pulling the
    # crossing below the literature value at this horizon; it moves to
    # ~1.5 by horizon 400.  The point is the large-gamma reduction, which
    # lands far below the gamma=1 threshold (~2.5+ at d=1).
    est = bisect_critical(
        "contact", 1, 1000.0, 0.001,
        tol=0.1, probe_replicas=600, bracket_replicas=1500,
        proxy=ProxySettings(horizon=80.0, active_cap=400, box_radius=400),
        seed=17,
    )
    assert 1.1 < est.lambda_hat < 2.4


def test_trend_requires_ascending_dimensions():
    with pytest.raises(ParameterError):
        trend_study("contact", [4, 4], 1.0, 1.0, seed=0)
    with pytest.raises(ParameterError):
        trend_study("contact", [6, 4], 1.0, 1.0, seed=0)


def test_trend_small_run_emits_target():
    rows = trend_study(
        "contact", [2, 3], 1.0, 1.0,
        probe_replicas=200, bracket_replicas=400, proxy={2: FAST_PROXY, 3: FAST_PROXY}, seed=8,
    )
    assert [r.d for r in rows] == [2, 3]
    for r in rows:
        assert r.target == pytest.approx(3.0)
        assert r.scaled == pytest.approx(2 * r.d * r.lambda_hat)
        assert r.estimate.probes


def test_occupation_fractions_sum_to_one():
    p = ProcessParams(lam=0.5, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Torus(5))
    fractions = occupation_fractions("contact", p, g, t=3.0, replicas=200, seed=9)
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert all(0.0 <= v <= 1.0 for v in fractions.values())
