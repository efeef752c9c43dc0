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
dimension (see the bisection docstring).  Reaching the cap also counts
as survival, so the cap pushes the estimate down as well: an excursion
that reaches the cap and would later die counts as a survivor, and a
smaller cap counts more of them.  ``ProxySettings.default_for`` drops
the cap from 5000 to 2000 at d >= 10, so ``trend``'s step from d = 8 to
d = 10 mixes a change of dimension with a change of proxy.  On one
stream the run under a smaller cap c2 <= cap and horizon t2 <= horizon
survives exactly when the full run survived, reached c2 active sites
(``peak_active``) or died after t2.  The empirical critical rate is
the crossing of the survival curve with a small level ``eps`` (default
0.02), located by bisection from a doubling bracket; each probed rate
gets its own derived seed so the answer does not depend on probe order
or worker count.

A bisection probe decides one bit, p >= eps or not, by a stage rule on
replica-index looks at 64, 128, 256, ... replicas and then at all of
them.  At each look but the last the rule stops once an exact binomial
test puts the survival probability p clearly on one side of eps: with k
survivors in n replicas, P(X >= k) < alpha/2 or P(X <= k) < alpha/2 for
X ~ Binomial(n, eps), i.e. the exact (Clopper-Pearson) interval at level
alpha excludes eps.  alpha is ``PROBE_ERROR`` (1e-3) split evenly
(Bonferroni) over the probe's looks, so whatever the true p, the rule
stops early on the wrong side of eps with probability at most
``PROBE_ERROR``/2.  At the last look it decides by p_hat >= eps on all
its replicas, as a one-batch estimate does, with no error bound beyond
that estimate's: the ``PROBE_ERROR`` level bounds early stops only.

The rule's decision is monotone in the replica outcomes, so a prefix of
replicas [0, m) fixes it once completing the prefix with all deaths and
with all survivals gives the same decision.  A probe runs replicas in
index order and stops at the shortest such prefix (curtailment): it
reaches the decision the rule would reach on all the replicas without
running the rest.  The recorded ``trials`` is m, ``survivals`` and
``p_hat`` count that prefix, and p_hat >= eps exactly when the decision
is yes.  Replica i reads the same stream whatever else runs, so the
prefix, and the record, depend only on (seed, rate), not on the worker
count.  The recorded ``ci_low``/``ci_high`` are the plain fixed-n Wilson
interval on the prefix; its length was chosen by the data, so that
interval is not adjusted for the curtailment and is not a 95% interval.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Optional

from . import parallel
from .engine import FULL, SparseConfig, kind_states, simulate, simulate_many
from .errors import BracketError, ParameterError
from .lattice import Box, Domain, LatticeGeometry, origin
from .meanfield import lower_bound_lambda, scaled_limit
from .params import ProcessParams
from .parallel import chunked_map  # bound here by name: perfbench/tracer.py wraps it
from .rng import float_key, mix_seed, substream

DEFAULT_EPS = 0.02
PROBE_ERROR = 1e-3  # total error of a probe rule's early stops
FIRST_STAGE = 64  # replicas at a probe rule's first look
PROBE_REPLICAS = 2000  # replicas of a bisection probe
BRACKET_REPLICAS = 10000  # replicas of a bracket probe
WILSON_Z = 1.96  # normal quantile of a two-sided 95% interval


@dataclass(frozen=True)
class ProxySettings:
    """Finite-volume, finite-horizon surrogate for the survival event."""

    horizon: float = 100.0
    active_cap: int = 5000
    box_radius: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"proxy horizon must be positive and finite, got {self.horizon}")
        if self.active_cap < 1:
            raise ParameterError(f"proxy cap must be >= 1, got {self.active_cap}")
        if self.box_radius < 0:
            raise ParameterError(f"proxy box radius must be >= 0, got {self.box_radius}")

    @classmethod
    def default_for(cls, d: int) -> "ProxySettings":
        # memory guard: high dimensions get a smaller cap, which pushes
        # their estimate down (module docstring)
        return cls(active_cap=2000 if d >= 10 else 5000)

    def describe(self) -> str:
        return f"horizon={self.horizon},cap={self.active_cap},box_radius={self.box_radius}"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ParameterError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _binomial_pmf(n: int, p: float) -> list[float]:
    """The terms P(X = 0), ..., P(X = n) for X ~ Binomial(n, p) with 0 < p < 1.

    Each term is exponentiated from its logarithm, so no intermediate
    over- or underflows; terms below the double range are 0.
    """
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return [
        math.exp(log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
        for i in range(n + 1)
    ]


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p) with 0 < p < 1."""
    pmf = _binomial_pmf(n, p)
    return min(1.0, math.fsum(pmf[: k + 1])), min(1.0, math.fsum(pmf[k:]))


def stage_bounds(replicas: int) -> list[int]:
    """Replica counts at a probe's looks: 64, 128, 256, ... below replicas, then replicas."""
    bounds = []
    n = FIRST_STAGE
    while n < replicas:
        bounds.append(n)
        n *= 2
    return bounds + [replicas]


Look = tuple[int, int, int]  # (n, k_no, k_yes)


@lru_cache(maxsize=16)
def probe_looks(replicas: int, eps: float) -> tuple[Look, ...]:
    """The stage rule of a probe of ``replicas`` against eps, as thresholds.

    One (n, k_no, k_yes) per look of ``stage_bounds(replicas)``: the rule
    stops at the first look whose survivor count k has k <= k_no
    (decision: p < eps) or k >= k_yes (p >= eps).  At an early look these
    are the two sides of ``min(binomial_tails(k, n, eps)) < alpha/2``,
    found by bisection on k, since the lower tail rises and the upper
    tail falls with k; each look costs one law and O(log n) tail sums.
    The last look always stops: k_yes is the fewest survivors with
    k / replicas >= eps, and k_no = k_yes - 1.
    """
    bounds = stage_bounds(replicas)
    half_alpha = 0.5 * PROBE_ERROR / len(bounds)
    looks = []
    for n in bounds[:-1]:
        pmf = _binomial_pmf(n, eps)
        ks = range(n + 1)
        k_no = bisect_left(ks, True, key=lambda k: math.fsum(pmf[: k + 1]) >= half_alpha) - 1
        k_yes = bisect_left(ks, True, key=lambda k: math.fsum(pmf[k:]) < half_alpha)
        looks.append((n, k_no, k_yes))
    k_final = bisect_left(range(replicas + 1), True, key=lambda k: k / replicas >= eps)
    looks.append((replicas, k_final - 1, k_final))
    return tuple(looks)


def _decision(looks: tuple[Look, ...], m: int, k: int, fill: int) -> bool:
    """Decision after m replicas with k survivors if all later ones die (fill 0) or survive (fill 1).

    Looks at fewer than m replicas are skipped: the caller knows none of
    them stopped.
    """
    for n, k_no, k_yes in looks:
        s = k + fill * (n - m)
        if n >= m and not k_no < s < k_yes:
            return s >= k_yes
    raise ParameterError(f"a prefix of {m} replicas is longer than the probe")


def curtail(
    looks: tuple[Look, ...], survived: Iterable[int], m: int = 0, k: int = 0
) -> tuple[int, int, Optional[bool]]:
    """Read replica outcomes up to the shortest prefix that fixes the rule's decision.

    Starts after a prefix of m replicas with k survivors that fixes
    nothing and reads ``survived`` in replica order.  A prefix fixes the
    decision when its completions by all deaths and by all survivals get
    the same one, which then every completion gets, the decision being
    monotone in the outcomes.  Returns (m, k, decision) for the first
    prefix that fixes it, or for all of ``survived`` with decision None.
    """
    for s in survived:
        m += 1
        k += s
        decision = _decision(looks, m, k, 0)
        if decision == _decision(looks, m, k, 1):
            return m, k, decision
    return m, k, None


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
    *,
    start: int = 0,
) -> list[tuple]:
    """Replicas start .. start + replicas - 1 from a fully-infected origin, in index order.

    Each row is (survived, extinction_time, peak_active, event_count).
    Replica i uses the derived stream (seed, i), so the rows are identical
    for any worker count and any split of the indices into calls.  The
    replicas run in chunks on the open ``parallel.pool_scope``'s pool, or
    serially outside one.  Raises ParameterError, before any chunk is
    mapped, for fewer than one replica or for a run that ``simulate``
    would refuse.
    """
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    init = SparseConfig(states={origin(d): FULL})
    # checks the whole run on no stream, so a refused run maps nothing
    simulate_many(kind, init, p, LatticeGeometry(d, domain), horizon, (), cap)
    # up to four chunks a worker, so a few slow replicas do not idle the rest
    chunk = math.ceil(replicas / (4 * parallel.size()))
    end = start + replicas
    chunks = [
        (kind, d, p, domain, horizon, cap, seed, lo, min(lo + chunk, end))
        for lo in range(start, end, chunk)
    ]
    return [row for part in chunked_map(_replica_chunk, chunks) for row in part]


def estimate_survival(
    kind: str,
    d: int,
    p: ProcessParams,
    proxy: ProxySettings,
    replicas: int,
    seed: int,
    *,
    eps: Optional[float] = None,
) -> SurvivalEstimate:
    """Monte Carlo survival estimate from a single fully-infected origin.

    The replicas are ``run_replicas``'s, in the box of the proxy's radius.
    With ``eps`` None all of them run in one batch.  With ``eps`` set the
    estimate is a probe of p against eps (see the module docstring): it
    covers the shortest prefix of the replicas that fixes the decision of
    ``probe_looks(replicas, eps)``, and ``trials`` is its length.

    The replicas run in rounds.  A round speculates past the fewest
    replicas that could fix the decision: it runs until a yes is expected
    at the prefix's survival rate (k+1)/(m+2), but stops where a no could
    first be fixed, and holds at least one replica per worker, ``parallel.size()``.
    Raises ParameterError unless ``replicas`` >= 1 and eps is in (0, 1).
    """
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    if eps is not None and not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    args = (kind, d, p, Box(proxy.box_radius), proxy.horizon, proxy.active_cap)
    if eps is None:
        trials = replicas
        survivals = sum(row[0] for row in run_replicas(*args, replicas, seed))
    else:
        looks = probe_looks(replicas, eps)
        trials = survivals = 0
        decision = None
        while decision is None:
            # r_yes more survivals fix the decision at the earliest; a round
            # ends where the prefix's survival rate expects that many, and
            # sooner where deaths could fix it
            r_yes = curtail(looks, repeat(1), trials, survivals)[0] - trials
            r_yes = math.ceil(r_yes * (trials + 2) / (survivals + 1))
            size = curtail(looks, repeat(0, r_yes), trials, survivals)[0] - trials
            size = min(max(parallel.size(), size), replicas - trials)
            rows = run_replicas(*args, size, seed, start=trials)
            trials, survivals, decision = curtail(looks, (row[0] for row in rows), trials, survivals)
    ci_low, ci_high = wilson_interval(survivals, trials)
    return SurvivalEstimate(
        kind=kind,
        d=d,
        params=p,
        trials=trials,
        survivals=survivals,
        p_hat=survivals / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        proxy=proxy.describe(),
    )


@dataclass
class ProbeRecord(SurvivalEstimate):
    """One survival probe of the bisection: its estimate, phase and stop."""

    phase: str  # "bracket-low", "bracket-high" or "bisect"
    stop: str  # "early" (settled before its last replica) or "full"


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
    target: float  # the limit 1 + (1+delta)/gamma of scaled as d grows
    probes: list[ProbeRecord] = field(default_factory=list)


def bisect_critical(
    kind: str,
    d: int,
    gamma: float,
    delta: float,
    *,
    eps: float = DEFAULT_EPS,
    tol: Optional[float] = None,
    probe_replicas: int = PROBE_REPLICAS,
    bracket_replicas: int = BRACKET_REPLICAS,
    lambda_max: Optional[float] = None,
    proxy: Optional[ProxySettings] = None,
    seed: int = 0,
) -> CriticalEstimate:
    """Locate the eps-crossing of the survival curve by bisection.

    The bracket starts at the proven lower bound (expected sub-eps) and
    doubles upward until a probe exceeds eps; bisection then narrows the
    bracket to ``tol`` (default 5% of the lower bound).  Every probe is
    a curtailed probe against ``eps`` (see the module docstring) and is
    recorded as a ``ProbeRecord``: its ``SurvivalEstimate``, whose
    ``trials``, ``survivals`` and ``p_hat`` describe the shortest replica
    prefix that settled its decision, plus the bisection phase and
    whether that prefix is shorter than the probe's replicas ("early")
    or all of them ("full").  The Wilson interval on the prefix is not
    adjusted for the curtailment.  The probes' replicas run on the open
    ``parallel.pool_scope``'s pool, one for all of them, or serially
    outside a scope; a probe whose rounds hold one replica each runs
    serially either way.  Raises ParameterError, before any replica runs,
    unless ``tol`` and ``lambda_max`` are positive and finite, both
    replica counts are at least 1 and the kind is known, and BracketError
    when no bracket exists below ``lambda_max`` (default 64x the lower
    bound).

    The probe seed is derived from (seed, rate bits), so re-running any
    probe in isolation reproduces it exactly.

    In one dimension near-critical excursions die slowly, so short
    horizons shift the crossing visibly below the infinite-time
    threshold; lengthen the horizon when absolute placement matters
    there.  In d >= 2 at the default settings the absorbing-box bias
    dominates and estimates sit above the proven lower bound.
    """
    lb, tol, lambda_max, proxy = _bisection_inputs(
        kind, d, gamma, delta, eps, tol, probe_replicas, bracket_replicas, lambda_max, proxy
    )
    probes: list[ProbeRecord] = []

    def probe(lam: float, phase: str, replicas: int) -> float:
        p = ProcessParams(lam=lam, gamma=gamma, delta=delta)
        est = estimate_survival(kind, d, p, proxy, replicas, mix_seed(seed, float_key(lam)), eps=eps)
        stop = "early" if est.trials < replicas else "full"
        probes.append(ProbeRecord(**vars(est), phase=phase, stop=stop))
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
        target=scaled_limit(gamma, delta),
        probes=probes,
    )


def _bisection_inputs(
    kind: str,
    d: int,
    gamma: float,
    delta: float,
    eps: float,
    tol: Optional[float],
    probe_replicas: int,
    bracket_replicas: int,
    lambda_max: Optional[float],
    proxy: Optional[ProxySettings],
) -> tuple[float, float, float, ProxySettings]:
    """Check ``bisect_critical``'s inputs.

    Returns (lower bound, tol, lambda_max, proxy), with the defaults of
    those left None filled in.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    for name, n in (("probe_replicas", probe_replicas), ("bracket_replicas", bracket_replicas)):
        if n < 1:
            raise ParameterError(f"{name} must be >= 1, got {n}")
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
    kind_states(kind)
    return lb, tol, lambda_max, proxy


def trend_study(
    kind: str,
    d_list: list[int],
    gamma: float,
    delta: float,
    *,
    eps: float = DEFAULT_EPS,
    probe_replicas: int = PROBE_REPLICAS,
    bracket_replicas: int = BRACKET_REPLICAS,
    proxy: Optional[dict[int, ProxySettings]] = None,
    seed: int = 0,
) -> list[CriticalEstimate]:
    """Scaled critical-rate sequence 2d*lambda_hat across dimensions.

    One ``bisect_critical`` estimate per dimension, at seed
    ``mix_seed(seed, d)``, each carrying the dimension-free target
    constant 1 + (1+delta)/gamma.  d_list must be ascending.  ``proxy``
    maps each dimension to its setting; None uses
    ``ProxySettings.default_for(d)`` throughout.

    Every dimension's inputs are checked before any replica runs.  With
    ``parallel.size()`` workers, the open ``pool_scope``'s count, the
    trend then forks that scope's pool with ``parallel.start()`` and up to
    that many threads call ``bisect_critical`` at the same time, taking
    the dimensions in d order; all of them map onto the one pool, so
    while one waits on a slow survivor another keeps the workers busy.
    The calling thread runs one of them and daemon threads the rest;
    outside a scope, or in one of one worker, the dimensions run one
    after another in the calling thread and no pool is forked.  Each
    bisection is the one ``bisect_critical`` runs alone, so the
    estimates do not depend on the worker count; they come back in d
    order.  Once a dimension fails no further one is started; those
    already running finish, and then the error of the lowest failing d is
    raised.  Every lower d had started before the failure, so this is the
    error a dimension-by-dimension loop would raise.
    """
    if list(d_list) != sorted(set(d_list)):
        raise ParameterError("d_list must be strictly ascending")
    proxies = proxy if proxy is not None else dict.fromkeys(d_list)
    for d in d_list:
        _bisection_inputs(
            kind, d, gamma, delta, eps, None, probe_replicas, bracket_replicas, None, proxies[d]
        )
    todo = deque(enumerate(d_list))
    outcomes: list = [None] * len(todo)

    def work() -> None:
        while True:
            try:
                i, d = todo.popleft()  # atomic: each dimension runs once
            except IndexError:
                return
            try:
                outcomes[i] = bisect_critical(
                    kind, d, gamma, delta, eps=eps, probe_replicas=probe_replicas,
                    bracket_replicas=bracket_replicas, proxy=proxies[d], seed=mix_seed(seed, d),
                )
            except Exception as exc:  # raised below, once the running dimensions end
                outcomes[i] = exc
                todo.clear()

    # the pool is forked here, before the threads start; they are daemons
    # because one blocked on a pool that an interrupt terminated never
    # returns, and must not keep the process alive
    parallel.start()
    helpers = min(parallel.size(), len(todo)) - 1
    threads = [threading.Thread(target=work, daemon=True) for _ in range(helpers)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
