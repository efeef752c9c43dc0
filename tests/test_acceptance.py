"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to watch them stream).  Statistical
checks run at fixed seeds, so a passing suite is reproducible.  On a
two-vCPU shared VM criterion 4 is the longest, at about 100 s with its
fixture; criterion 11, the critical-rate trend, takes about 8 s, and the
others take seconds to under a minute.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import twostage
from twostage.critical import ProxySettings, estimate_survival, trend_study
from twostage.engine import (
    FULL,
    HEALTHY,
    RECOVERED,
    SEMI,
    SparseConfig,
    all_full_config,
    all_ones_linear,
    project_linear,
    simulate,
    simulate_linear,
    site_rates,
)
from twostage.graphical import containment_holds, path_event, sample_clocks
from twostage.lattice import LatticeGeometry, Torus, origin
from twostage.meanfield import (
    eigenvalues,
    lambda_from_theta,
    lower_bound_lambda,
    moment_matrix,
    solve_moments,
)
from twostage.oracle import brute_union_spaces, build_exact, transient
from twostage.parallel import pool_scope
from twostage.params import ProcessParams
from twostage.rng import substream
from twostage.saw import (
    admissible_floor,
    admissible_next,
    drift_band,
    drift_period,
    estimate_survival_lower_bound,
    estimate_union_direct,
    sample_walk,
    step_walk,
    WalkPath,
)

WORKERS = 2


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


# ----------------------------------------------------------------------
# 1. rate-table exactness
# ----------------------------------------------------------------------
def test_c01_rate_tables_exact():
    p = ProcessParams(lam=0.37, gamma=1.7, delta=0.45)
    g = LatticeGeometry(3, Torus(5))
    o = origin(3)
    nbrs = g.neighbors(o)
    checked = 0
    ok = True
    for k in range(0, 2 * g.d + 1):
        # k fully-infected neighbors; the rest split between states that
        # must not count toward the infection rate
        filler = [SEMI, RECOVERED, HEALTHY, SEMI, RECOVERED, HEALTHY]
        base = {}
        for i, y in enumerate(nbrs):
            base[y] = FULL if i < k else filler[i - k]
        for own in (HEALTHY, SEMI, FULL, RECOVERED):
            sir_cfg = SparseConfig.from_sites({**base, o: own})
            got = site_rates("sir", sir_cfg, o, p, g)
            if own == FULL:
                want = [(RECOVERED, 1.0)]
            elif own == SEMI:
                want = [(FULL, p.gamma), (RECOVERED, 1.0 + p.delta)]
            elif own == RECOVERED:
                want = []
            else:
                want = [(SEMI, p.lam * k)] if k else []
            if got != want:
                ok = False
            checked += 1
            if own == RECOVERED:
                continue
            contact_base = {y: (s if s != RECOVERED else HEALTHY) for y, s in base.items()}
            cfg = SparseConfig.from_sites({**contact_base, o: own})
            got = site_rates("contact", cfg, o, p, g)
            if own == FULL:
                want = [(HEALTHY, 1.0)]
            elif own == SEMI:
                want = [(FULL, p.gamma), (HEALTHY, 1.0 + p.delta)]
            else:
                want = [(SEMI, p.lam * k)] if k else []
            if got != want:
                ok = False
            checked += 1
    report(1, "rate-tables-exact", ok, f"{checked} state/neighbor combinations, zero tolerance")


# ----------------------------------------------------------------------
# 2. Monte Carlo marginals vs uniformization on the 3-ring
# ----------------------------------------------------------------------
def test_c02_ring_marginals_match_uniformization():
    p = ProcessParams(lam=0.8, gamma=1.0, delta=1.0)
    g = LatticeGeometry(1, Torus(3))
    o = (0,)
    side = (1,)
    init = SparseConfig(states={o: FULL})
    times = (0.5, 1.0, 2.0)
    n = 100000
    worst = 0.0
    ok = True
    for kind, seed in (("contact", 3001), ("sir", 3002)):
        chain = build_exact(kind, g, p)
        exact = {
            t: {
                site: chain.marginal(transient(chain, chain.config_index(init), t), site)
                for site in (o, side)
            }
            for t in times
        }
        counts = {t: {site: {s: 0 for s in chain.state_values} for site in (o, side)} for t in times}
        for i in range(n):
            rng = substream(seed, i)
            cfg = init
            for t in times:
                out = simulate(kind, cfg, p, g, t, rng)
                cfg = out.final
                counts[t][o][cfg.state(o)] += 1
                counts[t][side][cfg.state(side)] += 1
        for t in times:
            for site in (o, side):
                for s, prob in exact[t][site].items():
                    sigma = math.sqrt(max(prob * (1.0 - prob), 1e-12) / n)
                    z = abs(counts[t][site][s] / n - prob) / sigma
                    worst = max(worst, z)
                    if z > 3.0:
                        ok = False
    report(2, "ring-marginals-vs-uniformization", ok, f"max |z| {worst:.2f} over both processes")


# ----------------------------------------------------------------------
# 3. moment-ODE threshold at d=5
# ----------------------------------------------------------------------
def test_c03_ode_threshold_and_finite_differences():
    d = 5
    details = []
    ok = True
    for lam, want in ((0.29, "neg"), (0.30, "zero"), (0.31, "pos")):
        p = ProcessParams(lam=lam, gamma=1.0, delta=1.0)
        c1, _ = eigenvalues(moment_matrix(d, p))
        top = c1.real
        if want == "neg" and not top < 0:
            ok = False
        if want == "zero" and not abs(top) < 1e-12:
            ok = False
        if want == "pos" and not top > 0:
            ok = False
        details.append(f"lam={lam}: {top:+.2e}")
    p = ProcessParams(lam=0.29, gamma=1.0, delta=1.0)
    m = moment_matrix(d, p)
    (a, b), (c, dd) = m.entries
    rng = substream(3003)
    h = 1e-5
    worst_rel = 0.0
    for _ in range(20):
        t = float(rng.uniform(0.05, 6.0))
        z0, th0 = solve_moments(d, p, t)
        zp, thp = solve_moments(d, p, t + h)
        zm, thm = solve_moments(d, p, t - h)
        for fd, rhs in (((zp - zm) / (2 * h), a * z0 + b * th0), ((thp - thm) / (2 * h), c * z0 + dd * th0)):
            rel = abs(fd - rhs) / max(abs(rhs), 1e-12)
            worst_rel = max(worst_rel, rel)
            if rel > 1e-4:
                ok = False
    report(3, "ode-threshold-and-derivative", ok, "; ".join(details) + f"; max FD rel err {worst_rel:.1e}")


# ----------------------------------------------------------------------
# 4 & 5. torus moment agreement and projection law (shared ensembles)
# ----------------------------------------------------------------------
TORUS_PARAMS = ProcessParams(lam=0.25, gamma=1.0, delta=1.0)
TORUS_REPLICAS = 100000
TORUS_T = 1.0


@pytest.fixture(scope="module")
def torus_ensembles():
    g = LatticeGeometry(2, Torus(5))
    o = (0, 0)
    init = all_ones_linear(g)
    zetas = np.empty(TORUS_REPLICAS)
    thetas = np.empty(TORUS_REPLICAS)
    proj_counts = {HEALTHY: 0, SEMI: 0, FULL: 0}
    for i in range(TORUS_REPLICAS):
        snap = simulate_linear(init, TORUS_PARAMS, g, [TORUS_T], substream(4001, i))[0]
        z, th = snap.value(o)
        zetas[i] = z
        thetas[i] = th
        proj_counts[project_linear(snap).state(o)] += 1
    cinit = all_full_config(g)
    contact_counts = {HEALTHY: 0, SEMI: 0, FULL: 0}
    for i in range(TORUS_REPLICAS):
        out = simulate("contact", cinit, TORUS_PARAMS, g, TORUS_T, substream(4002, i))
        contact_counts[out.final.state(o)] += 1
    return zetas, thetas, proj_counts, contact_counts


@pytest.mark.slow
def test_c04_torus_moments_match_ode(torus_ensembles):
    zetas, thetas, _, _ = torus_ensembles
    ez, eth = solve_moments(2, TORUS_PARAMS, TORUS_T)
    n = len(zetas)
    zz = (zetas.mean() - ez) / (zetas.std(ddof=1) / math.sqrt(n))
    zt = (thetas.mean() - eth) / (thetas.std(ddof=1) / math.sqrt(n))
    ok = abs(zz) <= 3.0 and abs(zt) <= 3.0
    report(4, "torus-moments-vs-ode", ok, f"zeta z={zz:+.2f}, theta z={zt:+.2f} at n={n}")


@pytest.mark.slow
def test_c05_projection_matches_contact_marginal(torus_ensembles):
    zetas, thetas, proj_counts, contact_counts = torus_ensembles
    n = TORUS_REPLICAS
    ok = True
    zs = []
    for s in (HEALTHY, SEMI, FULL):
        p1 = proj_counts[s] / n
        p2 = contact_counts[s] / n
        se = math.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
        z = (p1 - p2) / se
        zs.append(f"{s}:{z:+.2f}")
        if abs(z) > 3.0:
            ok = False
    # first-moment bound: P(active) <= E zeta + E theta (+ noise allowance)
    p_active = (contact_counts[SEMI] + contact_counts[FULL]) / n
    mean_sum = zetas.mean() + thetas.mean()
    se_bound = math.sqrt(
        p_active * (1 - p_active) / n + (zetas + thetas).std(ddof=1) ** 2 / n
    )
    if p_active > mean_sum + 3 * se_bound:
        ok = False
    report(
        5,
        "projection-law-and-moment-bound",
        ok,
        f"state z's {', '.join(zs)}; P(active)={p_active:.4f} <= {mean_sum:.4f}+3se",
    )


# ----------------------------------------------------------------------
# 6. containment of the path event in the ever-fully-infected set
# ----------------------------------------------------------------------
def test_c06_path_event_containment():
    p = ProcessParams(lam=4.0, gamma=8.0, delta=0.5)
    draws = 10000
    violations = 0
    non_vacuous = 0
    for i in range(draws):
        rng = substream(6001, i)
        n = 1 + int(rng.integers(20))
        path = sample_walk(6, n, rng).sites
        clocks = sample_clocks(set(path), p, rng)
        if path_event(path, clocks):
            non_vacuous += 1
        if not containment_holds(path, clocks):
            violations += 1
    ok = violations == 0 and non_vacuous > 100
    report(6, "path-event-containment", ok, f"{draws} draws, {non_vacuous} non-vacuous, {violations} violations")


# ----------------------------------------------------------------------
# 7. admissible-set floor along sampled walks
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_c07_admissible_floor():
    quotas = {10: 50000, 50: 40000, 200: 20000}
    total_checked = 0
    violations = 0
    shell_violations = 0
    for d, quota in quotas.items():
        floor = admissible_floor(d)
        period = drift_period(d)
        band = drift_band(d)
        free_shell = 2 * (d - band)
        checked = 0
        w = 0
        while checked < quota:
            rng = substream(7001, d, w)
            w += 1
            path = WalkPath.start(d)
            for _ in range(600):
                s = len(path.sites)
                if not path.is_drift_step(s):
                    h = admissible_next(path)
                    if len(h) < floor:
                        violations += 1
                    # restated form: at most `period` shell sites are visited
                    if free_shell - len(h) > period:
                        shell_violations += 1
                    checked += 1
                step_walk(path, rng)
                if checked >= quota:
                    break
        total_checked += checked
    ok = violations == 0 and shell_violations == 0 and total_checked >= 100000
    report(
        7,
        "admissible-floor",
        ok,
        f"{total_checked} free steps at d in (10, 50, 200); {violations}+{shell_violations} violations",
    )


# ----------------------------------------------------------------------
# 8. union lower bound on enumerable spaces
# ----------------------------------------------------------------------
def test_c08_union_bound_enumeration():
    result = brute_union_spaces(1000, substream(8001))
    ok = result.violations == 0
    report(8, "union-bound-enumeration", ok, f"{result.trials} spaces, worst gap {result.worst_gap:.2e}")


# ----------------------------------------------------------------------
# 9. contact survival dominates SIR survival
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_c09_contact_dominates_sir():
    proxy = ProxySettings(horizon=40.0, active_cap=300, box_radius=16)
    replicas = 10000
    ok = True
    details = []
    with pool_scope(WORKERS):
        for lam in (0.4, 0.6, 0.8):
            p = ProcessParams(lam=lam, gamma=1.0, delta=1.0)
            c = estimate_survival("contact", 4, p, proxy, replicas, seed=9001)
            s = estimate_survival("sir", 4, p, proxy, replicas, seed=9002)
            sigma = math.sqrt(
                c.p_hat * (1 - c.p_hat) / replicas + s.p_hat * (1 - s.p_hat) / replicas
            )
            if c.p_hat < s.p_hat - 3 * sigma:
                ok = False
            details.append(f"lam={lam}: {c.p_hat:.4f}>={s.p_hat:.4f}-3sig")
    report(9, "contact-dominates-sir", ok, "; ".join(details))


# ----------------------------------------------------------------------
# 10. no survival below the proven lower bound
# ----------------------------------------------------------------------
def test_c10_no_survival_below_lower_bound():
    proxy = ProxySettings(horizon=150.0, active_cap=1000, box_radius=25)
    ok = True
    details = []
    with pool_scope(WORKERS):
        for d in (4, 6):
            lam = 0.9 * lower_bound_lambda(d, 1.0, 1.0)
            p = ProcessParams(lam=lam, gamma=1.0, delta=1.0)
            est = estimate_survival("contact", d, p, proxy, 10000, seed=10001)
            if est.survivals != 0 or est.ci_high >= 5e-4:
                ok = False
            details.append(f"d={d}: {est.survivals}/10000, wilson_hi {est.ci_high:.1e}")
    report(10, "subcritical-below-lower-bound", ok, "; ".join(details))


# ----------------------------------------------------------------------
# 11. scaled critical-rate trend across dimensions (the headline job)
# ----------------------------------------------------------------------
def test_c11_scaled_threshold_trend():
    proxy = ProxySettings(horizon=60.0, active_cap=800, box_radius=20)
    with pool_scope(WORKERS):
        rows = trend_study(
            "contact",
            [4, 6, 8],
            1.0,
            1.0,
            probe_replicas=2000,
            bracket_replicas=10000,
            proxy={d: proxy for d in (4, 6, 8)},
            seed=424242,
        )
    ok = True
    details = []
    for r in rows:
        if r.target != pytest.approx(3.0):
            ok = False
        if r.scaled < 3.0 - 0.1:
            ok = False
        details.append(f"d={r.d}: 2d*lam={r.scaled:.3f}")
    for a, b in zip(rows, rows[1:]):
        slack = 2 * a.d * a.resolution + 2 * b.d * b.resolution + 0.1
        if b.scaled > a.scaled + slack:
            ok = False
    report(11, "scaled-threshold-trend", ok, "; ".join(details) + "; target 3.0")


# ----------------------------------------------------------------------
# 12. second-moment bound consistency with the direct union estimate
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_c12_second_moment_bound_vs_direct():
    d, n = 6, 8
    lam = lambda_from_theta(d, 1.0, 1.0, 1.5)
    p = ProcessParams(lam=lam, gamma=1.0, delta=1.0)
    bound = estimate_survival_lower_bound(d, p, n_max=n, replicas=300000, seed=12001)
    direct = estimate_union_direct(d, n, p, replicas=2000000, seed=12002)
    se_bound = bound.se_weight / bound.mean_weight**2
    sigma = math.sqrt(direct.se**2 + se_bound**2)
    ok = direct.p_hat >= bound.bound - 3 * sigma
    report(
        12,
        "second-moment-bound-consistency",
        ok,
        f"direct {direct.p_hat:.2e} >= bound {bound.bound:.2e} - 3*{sigma:.1e}"
        + (", heavy tail flagged" if bound.heavy_tail else ""),
    )


# ----------------------------------------------------------------------
# 13. CLI determinism
# ----------------------------------------------------------------------
CLI_CASES = [
    (
        "simulate",
        ["simulate", "--kind", "contact", "--d", "2", "--lambda", "0.9", "--gamma", "1",
         "--delta", "1", "--replicas", "40", "--horizon", "8", "--radius", "8", "--seed", "7"],
    ),
    (
        "sweep",
        ["sweep", "--kind", "contact", "--d", "2", "--lambdas", "0.5,1.0", "--gamma", "1",
         "--delta", "1", "--replicas", "60", "--horizon", "10", "--cap", "80", "--radius", "8",
         "--seed", "3"],
    ),
    (
        "bisect",
        ["bisect", "--d", "2", "--gamma", "1", "--delta", "1", "--tol", "0.1",
         "--bracket-replicas", "150", "--probe-replicas", "100", "--cap", "150",
         "--horizon", "25", "--radius", "10", "--seed", "5"],
    ),
    (
        "trend",
        ["trend", "--d-list", "2", "--gamma", "1", "--delta", "1", "--probe-replicas", "80",
         "--bracket-replicas", "120", "--cap", "150", "--horizon", "25", "--radius", "10",
         "--seed", "2"],
    ),
    (
        "ode",
        ["ode", "--d", "5", "--lambda", "0.3", "--gamma", "1", "--delta", "1", "--seed", "0"],
    ),
    (
        "sawbound",
        ["sawbound", "--d", "12", "--theta", "1.5", "--gamma", "1", "--delta", "1",
         "--n-max", "120", "--replicas", "200", "--seed", "11", "--format", "jsonl"],
    ),
    (
        "oracle-check",
        ["oracle-check", "--suite", "all", "--replicas", "3000", "--seed", "0"],
    ),
]


def test_c13_cli_determinism(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(twostage.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TWOSTAGE_THREADS"] = "1"
    ok = True
    details = []
    for name, args in CLI_CASES:
        outputs = []
        codes = []
        for run in (0, 1):
            out = tmp_path / f"{name}-{run}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "twostage", *args, "--out", str(out)],
                capture_output=True,
                env=env,
            )
            codes.append(proc.returncode)
            outputs.append(out.read_bytes() if out.exists() else b"")
        same = outputs[0] == outputs[1] and codes[0] == codes[1] and outputs[0] != b""
        if not same:
            ok = False
        details.append(f"{name}:{'=' if same else '!='}")
    report(13, "cli-determinism", ok, " ".join(details))
