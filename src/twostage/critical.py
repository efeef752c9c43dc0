"""Survival estimation, rate sweeps, bisection and the trend study.

Infinite-time survival of the fully-infected set is not finitely
observable, so every estimate here uses a proxy: a replica counts as
surviving when it is still active at the horizon or its active set
reached a cap.  The absorbing box kills excursions that leave it, which
under-counts survival and biases the estimated critical rate upward,
keeping the proven lower bound (1/2d)(1 + (1+delta)/gamma) testable as
an inequality.  The still-active-at-horizon rule pushes the other way by
counting slowly dying near-critical excursions; that over-count fades as
the horizon grows and is mild at the defaults except in very low
dimension (see the bisection docstring).  The empirical critical rate is
the crossing of the survival curve with a small level ``eps`` (default
0.02), located by bisection from a doubling bracket; each probed rate
gets its own derived seed so the answer does not depend on probe order
or worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .engine import FULL, SparseConfig, all_full_config, simulate
from .errors import BracketError, ParameterError
from .lattice import Box, Domain, LatticeGeometry, origin
from .meanfield import lower_bound_lambda, scaled_limit
from .params import ProcessParams
from .parallel import chunked_map, index_chunks
from .rng import float_key, mix_seed, substream

DEFAULT_EPS = 0.02


@dataclass(frozen=True)
class ProxySettings:
    """Finite-volume, finite-horizon surrogate for the survival event."""

    horizon: float = 100.0
    active_cap: int = 5000
    box_radius: int = 50

    @classmethod
    def default_for(cls, d: int) -> "ProxySettings":
        # memory guard: high dimensions get a smaller cap
        return cls(active_cap=2000 if d >= 10 else 5000)

    def describe(self) -> str:
        return f"horizon={self.horizon},cap={self.active_cap},box_radius={self.box_radius}"


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ParameterError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class SurvivalEstimate:
    """Replicated survival-probability estimate under the proxy."""

    kind: str
    d: int
    params: ProcessParams
    trials: int
    survivals: int
    p_hat: float
    ci_low: float
    ci_high: float
    proxy: str


def _replica_chunk(args) -> list[tuple]:
    kind, d, p, domain, horizon, cap, seed, lo, hi = args
    g = LatticeGeometry(d, domain)
    init = SparseConfig(states={origin(d): FULL})
    rows = []
    for i in range(lo, hi):
        out = simulate(kind, init, p, g, horizon, substream(seed, i), active_cap=cap)
        rows.append((out.survived, out.extinction_time, out.peak_active, out.event_count))
    return rows


def run_replicas(
    kind: str,
    d: int,
    p: ProcessParams,
    domain: Domain,
    horizon: float,
    cap: int,
    replicas: int,
    seed: int,
    workers: int = 1,
) -> list[tuple]:
    """Replicas from a single fully-infected origin, in index order.

    Each row is (survived, extinction_time, peak_active, event_count).
    Replica i uses the derived stream (seed, i), so the rows are identical
    for any worker count.
    """
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    if kind not in ("contact", "sir"):
        raise ParameterError(f"kind must be 'contact' or 'sir', got {kind!r}")
    chunk = max(64, replicas // (4 * max(1, workers)))
    chunks = [(kind, d, p, domain, horizon, cap, seed, lo, hi) for lo, hi in index_chunks(replicas, chunk)]
    return [row for part in chunked_map(_replica_chunk, chunks, workers) for row in part]


def estimate_survival(
    kind: str,
    d: int,
    p: ProcessParams,
    proxy: ProxySettings,
    replicas: int,
    seed: int,
    workers: int = 1,
) -> SurvivalEstimate:
    """Monte Carlo survival estimate from a single fully-infected origin.

    The replicas are ``run_replicas``'s, in the box of the proxy's radius.
    """
    rows = run_replicas(
        kind, d, p, Box(proxy.box_radius), proxy.horizon, proxy.active_cap, replicas, seed, workers
    )
    survivals = sum(row[0] for row in rows)
    ci_low, ci_high = wilson_interval(survivals, replicas)
    return SurvivalEstimate(
        kind=kind,
        d=d,
        params=p,
        trials=replicas,
        survivals=survivals,
        p_hat=survivals / replicas,
        ci_low=ci_low,
        ci_high=ci_high,
        proxy=proxy.describe(),
    )


@dataclass
class ProbeRecord:
    """One survival probe of the bisection."""

    lam: float
    phase: str  # "bracket-low", "bracket-high" or "bisect"
    trials: int
    survivals: int
    p_hat: float
    ci_low: float
    ci_high: float


@dataclass
class CriticalEstimate:
    """Empirical critical infection rate for one dimension."""

    kind: str
    d: int
    gamma: float
    delta: float
    lambda_hat: float
    scaled: float  # 2 d lambda_hat
    threshold_eps: float
    resolution: float
    proxy: str
    probes: list[ProbeRecord] = field(default_factory=list)


def bisect_critical(
    kind: str,
    d: int,
    gamma: float,
    delta: float,
    *,
    eps: float = DEFAULT_EPS,
    tol: Optional[float] = None,
    probe_replicas: int = 2000,
    bracket_replicas: int = 10000,
    lambda_max: Optional[float] = None,
    proxy: Optional[ProxySettings] = None,
    seed: int = 0,
    workers: int = 1,
) -> CriticalEstimate:
    """Locate the eps-crossing of the survival curve by bisection.

    The bracket starts at the proven lower bound (expected sub-eps) and
    doubles upward until a probe exceeds eps; bisection then narrows the
    bracket to ``tol`` (default 5% of the lower bound).  Every probe is
    recorded.  Raises ParameterError unless ``tol`` and ``lambda_max``
    are positive and finite, and BracketError when no bracket exists
    below ``lambda_max`` (default 64x the lower bound).

    The probe seed is derived from (seed, rate bits), so re-running any
    probe in isolation reproduces it exactly.

    In one dimension near-critical excursions die slowly, so short
    horizons shift the crossing visibly below the infinite-time
    threshold; lengthen the horizon when absolute placement matters
    there.  In d >= 2 at the default settings the absorbing-box bias
    dominates and estimates sit above the proven lower bound.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    lb = lower_bound_lambda(d, gamma, delta)
    if tol is None:
        tol = 0.05 * lb
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tol must be positive and finite, got {tol}")
    if lambda_max is None:
        lambda_max = 64.0 * lb
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ParameterError(f"lambda_max must be positive and finite, got {lambda_max}")
    if proxy is None:
        proxy = ProxySettings.default_for(d)

    probes: list[ProbeRecord] = []

    def probe(lam: float, phase: str, replicas: int) -> float:
        p = ProcessParams(lam=lam, gamma=gamma, delta=delta)
        est = estimate_survival(
            kind, d, p, proxy, replicas, mix_seed(seed, float_key(lam)), workers
        )
        probes.append(
            ProbeRecord(
                lam=lam,
                phase=phase,
                trials=est.trials,
                survivals=est.survivals,
                p_hat=est.p_hat,
                ci_low=est.ci_low,
                ci_high=est.ci_high,
            )
        )
        return est.p_hat

    lo = lb
    p_lo = probe(lo, "bracket-low", bracket_replicas)
    if p_lo >= eps:
        raise BracketError(
            f"survival {p_lo:.4f} >= eps {eps} already at the lower bound {lb:.6f}; "
            "no bracket below it exists.  The alive-at-horizon proxy "
            f"({proxy.describe()}) counts replicas still active at the horizon "
            "or at the cap as survivors, so a short horizon raises survival at "
            "every rate; use a longer --horizon"
        )
    hi = 2.0 * lb
    while True:
        if hi > lambda_max:
            raise BracketError(
                f"no rate with survival above eps={eps} found up to lambda_max={lambda_max:.6f}"
            )
        p_hi = probe(hi, "bracket-high", bracket_replicas)
        if p_hi >= eps:
            break
        hi *= 2.0

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        p_mid = probe(mid, "bisect", probe_replicas)
        if p_mid >= eps:
            hi = mid
        else:
            lo = mid

    lambda_hat = 0.5 * (lo + hi)
    return CriticalEstimate(
        kind=kind,
        d=d,
        gamma=gamma,
        delta=delta,
        lambda_hat=lambda_hat,
        scaled=2.0 * d * lambda_hat,
        threshold_eps=eps,
        resolution=tol,
        proxy=proxy.describe(),
        probes=probes,
    )


@dataclass
class TrendRow:
    """One dimension of the scaled-threshold trend."""

    d: int
    lambda_hat: float
    scaled: float
    target: float
    estimate: CriticalEstimate


def trend_study(
    kind: str,
    d_list: list[int],
    gamma: float,
    delta: float,
    *,
    eps: float = DEFAULT_EPS,
    probe_replicas: int = 2000,
    bracket_replicas: int = 10000,
    proxy: Optional[dict[int, ProxySettings]] = None,
    seed: int = 0,
    workers: int = 1,
) -> list[TrendRow]:
    """Scaled critical-rate sequence 2d*lambda_hat across dimensions.

    Emits the dimension-free target constant 1 + (1+delta)/gamma with the
    data.  d_list must be ascending.  ``proxy`` maps each dimension to its
    setting; None uses ``ProxySettings.default_for(d)`` throughout.
    """
    if list(d_list) != sorted(set(d_list)):
        raise ParameterError("d_list must be strictly ascending")
    target = scaled_limit(gamma, delta)
    rows = []
    for d in d_list:
        est = bisect_critical(
            kind,
            d,
            gamma,
            delta,
            eps=eps,
            probe_replicas=probe_replicas,
            bracket_replicas=bracket_replicas,
            proxy=proxy[d] if proxy is not None else ProxySettings.default_for(d),
            seed=mix_seed(seed, d),
            workers=workers,
        )
        rows.append(
            TrendRow(d=d, lambda_hat=est.lambda_hat, scaled=est.scaled, target=target, estimate=est)
        )
    return rows


def occupation_fractions(
    kind: str,
    p: ProcessParams,
    g: LatticeGeometry,
    t: float,
    replicas: int,
    seed: int,
) -> dict[int, float]:
    """Long-run state-occupation diagnostic from the all-infected start.

    Reports the fraction of (site, replica) pairs in each state at time
    t.  Diagnostic only: no finite-volume protocol for the limiting
    occupation measure is claimed.
    """
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    init = all_full_config(g)
    counts: dict[int, int] = {}
    n_sites = g.n_sites
    for i in range(replicas):
        out = simulate(kind, init, p, g, t, substream(seed, i))
        seen = 0
        for s in out.final.states.values():
            counts[s] = counts.get(s, 0) + 1
            seen += 1
        counts[0] = counts.get(0, 0) + (n_sites - seen)
    total = replicas * n_sites
    return {s: c / total for s, c in sorted(counts.items())}
