import math
import multiprocessing
import multiprocessing.pool
import random
import threading
from itertools import groupby

import pytest

from twostage import critical
from twostage.critical import (
    PROBE_ERROR,
    ProxySettings,
    binomial_tails,
    bisect_critical,
    curtail,
    estimate_survival,
    probe_looks,
    run_replicas,
    stage_bounds,
    trend_study,
    wilson_interval,
)
from twostage.errors import BracketError, ParameterError
from twostage.lattice import Box
from twostage.meanfield import lower_bound_lambda
from twostage.parallel import pool_scope
from twostage.params import ProcessParams
from twostage.rng import mix_seed

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
    serial = estimate_survival("contact", 2, p, FAST_PROXY, 400, seed=3)
    with pool_scope(2):
        pooled = estimate_survival("contact", 2, p, FAST_PROXY, 400, seed=3)
    assert serial.survivals == pooled.survivals


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
    assert [p.params.lam for p in est1.probes] == [p.params.lam for p in est2.probes]
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


@pytest.mark.parametrize("name", ["probe_replicas", "bracket_replicas"])
@pytest.mark.parametrize("replicas", [0, -1])
def test_bisect_needs_a_replica_per_probe(name, replicas):
    kwargs = dict(probe_replicas=20, bracket_replicas=20, proxy=FAST_PROXY, seed=7)
    kwargs[name] = replicas
    with pytest.raises(ParameterError, match=f"{name} must be >= 1, got {replicas}"):
        bisect_critical("contact", 2, 1.0, 1.0, **kwargs)


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
        assert r.probes


TREND_KWARGS = dict(probe_replicas=100, bracket_replicas=200, seed=8)


def test_trend_does_not_depend_on_workers_and_equals_lone_bisections():
    proxies = {d: FAST_PROXY for d in (2, 3, 4)}
    alone = [
        bisect_critical(
            "contact", d, 1.0, 1.0, probe_replicas=100, bracket_replicas=200, proxy=FAST_PROXY,
            seed=mix_seed(8, d),
        )
        for d in (2, 3, 4)
    ]
    for workers in (1, 2, 3):
        with pool_scope(workers):
            rows = trend_study("contact", [2, 3, 4], 1.0, 1.0, proxy=proxies, **TREND_KWARGS)
        # probes included: every round of every dimension is the lone run's
        assert rows == alone, workers


# an empty box: every replica dies, so no bracket exists below lambda_max
NO_BRACKET = ProxySettings(horizon=25.0, active_cap=150, box_radius=0)
# a horizon too short to die by: the lower bound already survives
ALL_SURVIVE = ProxySettings(horizon=0.01, active_cap=150, box_radius=10)


@pytest.mark.parametrize(
    "proxies,failing",
    [
        # d=2 fails while d=3 is still bisecting
        ({2: NO_BRACKET, 3: FAST_PROXY}, [2]),
        # d=3 fails at its first probe, before d=2 has run out of rates
        ({2: NO_BRACKET, 3: ALL_SURVIVE}, [2, 3]),
    ],
)
def test_trend_raises_the_lowest_failing_dimension(proxies, failing, time_limit):
    errors = {}
    for d in (2, 3):
        try:
            bisect_critical(
                "contact", d, 1.0, 1.0, probe_replicas=100, bracket_replicas=200,
                proxy=proxies[d], seed=mix_seed(8, d),
            )
        except BracketError as exc:
            errors[d] = str(exc)
    assert list(errors) == failing
    assert errors[2].startswith("no rate with survival above eps")
    threads = threading.active_count()
    with time_limit(60), pytest.raises(BracketError) as raised, pool_scope(2):
        trend_study("contact", [2, 3], 1.0, 1.0, proxy=proxies, **TREND_KWARGS)
    assert str(raised.value) == errors[2]
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_trend_takes_no_dimension_after_one_fails(monkeypatch):
    # outside a scope the dimensions run one after another: once d=2 has
    # failed, d=3 and d=4 are not started
    started = []

    def counted(kind, d, *args, **kwargs):
        started.append(d)
        return bisect_critical(kind, d, *args, **kwargs)

    monkeypatch.setattr(critical, "bisect_critical", counted)
    proxies = {2: NO_BRACKET, 3: FAST_PROXY, 4: FAST_PROXY}
    with pytest.raises(BracketError, match="no rate with survival above eps"):
        trend_study("contact", [2, 3, 4], 1.0, 1.0, proxy=proxies, **TREND_KWARGS)
    assert started == [2]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_replicas_start_reads_the_same_streams(workers):
    p = ProcessParams(lam=1.2, gamma=1.0, delta=1.0)
    args = ("contact", 2, p, Box(10), 25.0, 150)
    full = run_replicas(*args, 100, 21)
    with pool_scope(workers):
        parts = [run_replicas(*args, hi - lo, 21, start=lo) for lo, hi in ((0, 37), (37, 64), (64, 100))]
    assert [row for part in parts for row in part] == full


def test_stage_bounds():
    assert stage_bounds(40) == [40]
    assert stage_bounds(64) == [64]
    assert stage_bounds(65) == [64, 65]
    assert stage_bounds(128) == [64, 128]
    assert stage_bounds(10000) == [64, 128, 256, 512, 1024, 2048, 4096, 8192, 10000]


@pytest.mark.parametrize("n", [1, 5, 20, 64, 150])
@pytest.mark.parametrize("eps", [0.02, 0.05, 0.3, 0.9])
def test_binomial_tails_match_exact_sums(n, eps):
    pmf = [math.comb(n, i) * eps**i * (1 - eps) ** (n - i) for i in range(n + 1)]
    for k in range(n + 1):
        lower, upper = binomial_tails(k, n, eps)
        assert lower == pytest.approx(math.fsum(pmf[: k + 1]), rel=1e-9, abs=0)
        assert upper == pytest.approx(math.fsum(pmf[k:]), rel=1e-9, abs=0)


def _stage_rule(outcomes, eps):
    """The stage rule's decision on a whole outcome vector, from binomial_tails directly."""
    bounds = stage_bounds(len(outcomes))
    half_alpha = 0.5 * PROBE_ERROR / len(bounds)
    for n in bounds[:-1]:
        k = sum(outcomes[:n])
        if min(binomial_tails(k, n, eps)) < half_alpha:
            return k / n >= eps
    return sum(outcomes) / len(outcomes) >= eps


@pytest.mark.parametrize(
    "replicas, eps, vectors",
    [(40, 0.05, 60), (128, 0.05, 60), (300, 0.3, 40), (600, 0.02, 40), (2000, 0.02, 12),
     (10000, 0.02, 4)],
)
def test_curtailed_decision_is_the_stage_rule_on_the_shortest_prefix(replicas, eps, vectors):
    looks = probe_looks(replicas, eps)
    rnd = random.Random(replicas)
    for v in range(vectors):
        # survival rates on both sides of eps and near it, so both decisions and early and late stops occur
        p = min(0.99, eps * (0.25, 0.8, 1.0, 1.3, 2.0, 5.0)[v % 6])
        x = [int(rnd.random() < p) for _ in range(replicas)]
        m, k, decision = curtail(looks, x)
        assert decision == _stage_rule(x, eps)
        assert k == sum(x[:m])
        assert (k / m >= eps) == decision
        # the prefix fixes the decision, and the prefix one shorter does not
        rest = replicas - m
        assert _stage_rule(x[:m] + [0] * rest, eps) == _stage_rule(x[:m] + [1] * rest, eps)
        assert _stage_rule(x[: m - 1] + [0] * (rest + 1), eps) != _stage_rule(
            x[: m - 1] + [1] * (rest + 1), eps
        )


def test_curtail_resumes_where_a_prefix_left_off():
    looks = probe_looks(600, 0.02)
    x = [int(random.Random(3).random() < 0.03) for _ in range(600)]
    whole = curtail(looks, x)
    m, k, decision = curtail(looks, x[:100])
    assert decision is None and (m, k) == (100, sum(x[:100]))
    assert curtail(looks, x[100:], m, k) == whole


@pytest.mark.parametrize("replicas, eps", [(40, 0.05), (128, 0.05), (2000, 0.02), (10000, 0.02)])
def test_probe_looks_match_a_direct_tail_scan(replicas, eps):
    looks = probe_looks(replicas, eps)
    assert [n for n, _, _ in looks] == stage_bounds(replicas)
    half_alpha = 0.5 * PROBE_ERROR / len(looks)
    for n, k_no, k_yes in looks[:-1]:
        # every k up to n = 1024; beyond, a scan costs seconds per look, so
        # k within 64 of both thresholds, the tails being monotone in k
        near = set(range(k_no - 64, k_no + 65)) | set(range(k_yes - 64, k_yes + 65))
        for k in range(n + 1) if n <= 1024 else sorted(near & set(range(n + 1))):
            lower, upper = binomial_tails(k, n, eps)
            assert (lower < half_alpha) == (k <= k_no)
            assert (upper < half_alpha) == (k >= k_yes)
    n, k_no, k_yes = looks[-1]
    assert k_no == k_yes - 1
    assert (k_yes - 1) / n < eps <= k_yes / n


def test_sequential_probe_stops_at_first_look_when_clearly_supercritical():
    p = ProcessParams(lam=3.0, gamma=1.0, delta=1.0)
    est = estimate_survival("contact", 2, p, FAST_PROXY, 600, seed=1, eps=0.02)
    assert est.trials <= 64
    # the prefix ends at the survivor that reaches the first look's yes side
    assert est.survivals == probe_looks(600, 0.02)[0][2]
    assert est.p_hat == est.survivals / est.trials > 0.02
    prefix = estimate_survival("contact", 2, p, FAST_PROXY, est.trials, seed=1)
    assert est.survivals == prefix.survivals


@pytest.mark.parametrize("replicas", [40, 64])
def test_single_look_probe_equals_one_batch(replicas):
    p = ProcessParams(lam=3.0, gamma=1.0, delta=1.0)
    probe = estimate_survival("contact", 2, p, FAST_PROXY, replicas, seed=1, eps=0.02)
    assert probe.trials < replicas
    assert probe == estimate_survival("contact", 2, p, FAST_PROXY, probe.trials, seed=1)


def test_full_probe_does_not_depend_on_workers():
    # a subcritical probe settles only at its last replica, so the last
    # round is cut to the replicas that remain
    p = ProcessParams(lam=0.2, gamma=1.0, delta=1.0)
    serial = estimate_survival("contact", 2, p, FAST_PROXY, 40, seed=5, eps=0.02)
    with pool_scope(2):
        pooled = estimate_survival("contact", 2, p, FAST_PROXY, 40, seed=5, eps=0.02)
    assert serial.trials == 40
    assert pooled == serial


@pytest.mark.parametrize("replicas", [0, -1])
def test_probe_needs_a_replica(replicas):
    p = ProcessParams(lam=1.0, gamma=1.0, delta=1.0)
    with pytest.raises(ParameterError, match=f"replicas must be >= 1, got {replicas}"):
        estimate_survival("contact", 2, p, FAST_PROXY, replicas, seed=1, eps=0.02)


def test_staged_probe_records_do_not_depend_on_workers():
    kwargs = dict(tol=0.1, probe_replicas=300, bracket_replicas=600, proxy=FAST_PROXY, seed=4)
    serial = bisect_critical("contact", 2, 1.0, 1.0, **kwargs)
    with pool_scope(2):
        pooled = bisect_critical("contact", 2, 1.0, 1.0, **kwargs)
    assert pooled.probes == serial.probes
    assert pooled.lambda_hat == serial.lambda_hat
    for pr in serial.probes:
        requested = 300 if pr.phase == "bisect" else 600
        assert 1 <= pr.trials <= requested
        assert (pr.stop == "early") == (pr.trials < requested)


def test_bisect_leaves_no_worker_running(pools):
    with pool_scope(2):
        bisect_critical(
            "contact", 2, 1.0, 1.0,
            tol=0.2, probe_replicas=100, bracket_replicas=200, proxy=FAST_PROXY, seed=4,
        )
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    # a trend forks one pool for all its dimensions
    with pool_scope(2):
        trend_study(
            "contact", [2, 3], 1.0, 1.0,
            probe_replicas=100, bracket_replicas=200, proxy={2: FAST_PROXY, 3: FAST_PROXY}, seed=8,
        )
    assert len(pools) == 2
    assert multiprocessing.active_children() == []
    with pytest.raises(BracketError), pool_scope(2):
        bisect_critical(
            "contact", 2, 1.0, 1.0,
            lambda_max=0.8, probe_replicas=50, bracket_replicas=50, proxy=FAST_PROXY, seed=7,
        )
    assert multiprocessing.active_children() == []


def test_bisection_of_one_replica_probes_forks_no_pool(pools):
    # every round holds one replica, so a pool would never be used
    kwargs = dict(probe_replicas=1, bracket_replicas=1, proxy=FAST_PROXY, seed=0)
    with pool_scope(2):
        pooled = bisect_critical("contact", 2, 1.0, 1.0, **kwargs)
    assert len(pooled.probes) > 3
    assert pools == []
    assert pooled.probes == bisect_critical("contact", 2, 1.0, 1.0, **kwargs).probes


def test_estimators_fork_only_in_a_scope_and_share_its_pool(pools, monkeypatch):
    p = ProcessParams(lam=1.0, gamma=1.0, delta=1.0)
    # outside a scope a probe of several rounds runs serially and forks nothing
    probe = estimate_survival("contact", 2, p, FAST_PROXY, 2000, seed=1, eps=0.05)
    assert probe.trials > 64 and pools == []
    maps = []
    real_map = multiprocessing.pool.Pool.map

    def counted_map(pool, *args, **kwargs):
        maps.append(pool)
        return real_map(pool, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "map", counted_map)
    with pool_scope(2):
        # the scope's one pool serves every estimate inside it
        pooled = [
            estimate_survival("contact", 2, p, FAST_PROXY, 2000, seed=1, eps=0.05) for _ in range(3)
        ]
    assert len(pools) == 1
    assert len(maps) >= 3 and set(maps) == {pools[0]}
    assert pooled == [probe] * 3
    assert multiprocessing.active_children() == []


def step_curve_replicas(lam_star):
    """A run_replicas whose replica i survives with probability 1[lambda >= lam_star].

    Each replica is a Bernoulli draw seeded by (seed, i), as a simulated
    replica reads stream (seed, i); no process is simulated.
    """

    def fake(kind, d, p, domain, horizon, cap, replicas, seed, *, start=0):
        survival = 1.0 if p.lam >= lam_star else 0.0
        return [
            (random.Random(mix_seed(seed, i)).random() < survival, 0.0, 1, 0)
            for i in range(start, start + replicas)
        ]

    return fake


def test_bisection_driver_brackets_a_step_curve_without_simulating(monkeypatch):
    lam_star = 1.37 * lower_bound_lambda(4, 1.0, 1.0)
    monkeypatch.setattr(critical, "run_replicas", step_curve_replicas(lam_star))
    est = bisect_critical("contact", 4, 1.0, 1.0, seed=1)
    phases = [pr.phase for pr in est.probes]
    assert [ph for ph, _ in groupby(phases)] == ["bracket-low", "bracket-high", "bisect"]
    assert phases.count("bracket-low") == 1
    lo = max(pr.params.lam for pr in est.probes if pr.p_hat < est.threshold_eps)
    hi = min(pr.params.lam for pr in est.probes if pr.p_hat >= est.threshold_eps)
    assert lo < lam_star <= hi
    assert hi - lo <= est.resolution
    assert est.lambda_hat == 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "factor, message",
    [(1.0, "already at the lower bound"), (65.0, "no rate with survival above eps")],
)
def test_bisection_driver_finds_no_bracket_past_either_end(monkeypatch, factor, message):
    # the default lambda_max is 64 times the lower bound
    lam_star = factor * lower_bound_lambda(4, 1.0, 1.0)
    monkeypatch.setattr(critical, "run_replicas", step_curve_replicas(lam_star))
    with pytest.raises(BracketError, match=message):
        bisect_critical("contact", 4, 1.0, 1.0, seed=1)


def test_unknown_kind_fails_before_any_worker_starts(pools):
    p = ProcessParams(lam=1.0, gamma=1.0, delta=1.0)
    with pool_scope(2):
        with pytest.raises(ParameterError, match="kind must be 'contact' or 'sir', got 'sis'"):
            run_replicas("sis", 2, p, Box(10), 25.0, 150, 100, 1)
        # a trend checks every dimension before it forks the pool its threads share
        with pytest.raises(ParameterError, match="kind must be 'contact' or 'sir', got 'sis'"):
            trend_study("sis", [2, 3], 1.0, 1.0, proxy={2: FAST_PROXY, 3: FAST_PROXY})
        with pytest.raises(ParameterError, match="dimension must be >= 1, got 0"):
            trend_study("contact", [0, 3], 1.0, 1.0, proxy={0: FAST_PROXY, 3: FAST_PROXY})
    assert pools == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind,rates", [("contact", (1.6, 1.0, 1.0)), ("sir", (1.6, 4.0, 0.5))])
def test_cap_and_horizon_rows_predict_every_smaller_proxy(kind, rates):
    # on one stream the path up to time t does not depend on the horizon,
    # and the cap only ends the loop as the active count climbs by one
    # per infection; so the (cap, horizon) row decides survival under any
    # smaller cap c2 and horizon t2: survived, or peak >= c2, or died after t2
    p = ProcessParams(*rates)
    cap, horizon, n = 60, 20.0, 300
    rows = run_replicas(kind, 2, p, Box(10), horizon, cap, n, 31)
    reasons = set()
    for c2, t2 in [(15, horizon), (cap, 5.0), (15, 5.0), (30, 10.0)]:
        direct = run_replicas(kind, 2, p, Box(10), t2, c2, n, 31)
        for (survived, ext, peak, _), (want, *_) in zip(rows, direct):
            predicted = survived or peak >= c2 or ext > t2
            assert predicted == want, (c2, t2, survived, ext, peak)
            if want:
                reasons.add("survived" if survived else "peak" if peak >= c2 else "late")
    assert reasons == {"survived", "peak", "late"}
