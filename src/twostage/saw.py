"""Structured self-avoiding walks and the second-moment survival bound.

The walk reserves the last ``band = floor(d / log d)`` coordinates for
forced positive "drift" steps taken every ``period = floor(log d)``
steps (natural logarithm); all other steps move +-1 in the first
``d - band`` coordinates, uniformly over the not-yet-visited choices.
The drift makes the admissible set at every free step at least

    2 * (d - band) - period

sites large, so the walk never gets stuck for d >= 3.

A drift step adds +1 to one band coordinate and a free step leaves the
band alone, so site i of a walk has band-coordinate sum i // period.
Sites of different levels (band sums) are therefore distinct, and a walk
can revisit a site only inside its current level.

When period <= 2 (3 <= d <= 20) a level holds only the head before each
free step, so the admissible set is always all 2 * (d - band) free moves
and a walk's per-step draw bounds are fixed in advance: the whole walk
is then drawn in one ``rng.integers`` call, which reads the same stream
as the per-step calls of ``step_walk``.

For two independent such walks S and V, the index sets

    F = { i : V_i hits some S_j }         (site collisions)
    K = { i : (V_i, V_{i+1}) = (S_j, S_{j+1}) }   (edge collisions)

control the second-moment weight
``2^|F\\K| * ((1+gamma+delta)/gamma)^(|F|-1) * ((lam+1)/lam)^|K|``,
whose inverse expectation lower-bounds the probability that some walk of
the class carries a full infection chain -- and hence lower-bounds
survival of the SIR model started from one fully-infected origin.
K is a subset of F, since a matching edge starts at a site of S, so
|F\\K| = |F| - |K|.

The estimator keeps walks as (n+1) x d int64 arrays and counts F and K
for a block of replica pairs with shifted row compares (``_join_counts``):
a step changes one coordinate by +-1 and site i has band sum i // period,
so V_i can equal S_j only for even j - i with |j - i| < period.  Each
such offset is one compare of V's rows with S's shifted rows, O(n d) per
pair, with no sort or hash: a single compare at period <= 2, three at
periods 3 and 4, 2 * ((period - 1) // 2) + 1 in general.  A block
holds about ``_BLOCK_ELEMENTS`` walk-site entries, which bounds its
memory.  ``sample_walk`` and ``pair_stats`` wrap the same draw and
compare for callers that work with ``WalkPath`` objects; ``pair_stats``
rejects walks outside the class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError, count
from .graphical import LazyClocks
from .lattice import Site, origin
from .params import ProcessParams
from .rng import substream


def drift_period(d: int) -> int:
    """floor(log d); must be >= 1, so d >= 3."""
    return int(math.floor(math.log(count("walk dimension", d, 3))))


def drift_band(d: int) -> int:
    """floor(d / log d): number of reserved drift coordinates; d >= 3."""
    d = count("walk dimension", d, 3)
    return int(math.floor(d / math.log(d)))


def admissible_floor(d: int) -> int:
    """Guaranteed minimum size 2*(d - band) - period of the admissible set."""
    return 2 * (d - drift_band(d)) - drift_period(d)


@dataclass
class WalkPath:
    """A finite walk of the structured class, built step by step."""

    sites: list[Site]
    d: int
    drift_period: int
    drift_band: int

    @classmethod
    def start(cls, d: int) -> "WalkPath":
        if admissible_floor(d) < 1:
            raise ParameterError(f"admissible floor not positive at d={d}")
        return cls(sites=[origin(d)], d=d, drift_period=drift_period(d), drift_band=drift_band(d))

    @classmethod
    def from_sites(cls, d: int, sites: Sequence[Site]) -> "WalkPath":
        """Wrap an explicit site sequence (first site must be the origin)."""
        if not sites or sites[0] != origin(d):
            raise ParameterError("explicit paths must start at the origin")
        return cls(
            sites=list(sites),
            d=d,
            drift_period=drift_period(d),
            drift_band=drift_band(d),
        )

    @property
    def length(self) -> int:
        return len(self.sites) - 1

    @property
    def last(self) -> Site:
        return self.sites[-1]

    def is_drift_step(self, step_index: int) -> bool:
        """Whether the 1-based step producing site ``step_index`` is a drift step."""
        return step_index % self.drift_period == 0

    def is_valid(self) -> bool:
        """Membership validator for the structured path class."""
        if self.sites[0] != origin(self.d):
            return False
        if len(set(self.sites)) != len(self.sites):
            return False
        free_axes = self.d - self.drift_band
        for s in range(1, len(self.sites)):
            delta = tuple(a - b for a, b in zip(self.sites[s], self.sites[s - 1]))
            nz = [(i, c) for i, c in enumerate(delta) if c != 0]
            if len(nz) != 1:
                return False
            axis, c = nz[0]
            if self.is_drift_step(s):
                if c != 1 or axis < free_axes:
                    return False
            else:
                if abs(c) != 1 or axis >= free_axes:
                    return False
        return True


def admissible_next(path: WalkPath) -> list[Site]:
    """Unvisited sites one free (non-drift) step from the walk's head.

    Only defined when the next step is a free step; calling it at a
    drift step is a contract error.  The path must be in the structured
    class (``path.is_valid()``): only the head's level is searched for
    visited sites.
    """
    s = len(path.sites)
    if path.is_drift_step(s):
        raise ParameterError(f"step {s} is a drift step; the admissible set is undefined")
    cur = path.last
    # site j has band sum j // period, so only the head's level can be revisited
    visited = path.sites[s - s % path.drift_period :]
    out = []
    for axis in range(path.d - path.drift_band):
        c = cur[axis]
        head, tail = cur[:axis], cur[axis + 1 :]
        cand = head + (c + 1,) + tail
        if cand not in visited:
            out.append(cand)
        cand = head + (c - 1,) + tail
        if cand not in visited:
            out.append(cand)
    return out


def step_walk(path: WalkPath, rng: np.random.Generator) -> Site:
    """Extend the walk by one step and return the new site.

    Drift steps pick uniformly among the ``band`` positive drift
    directions; free steps pick uniformly from the admissible set.
    """
    s = len(path.sites)
    cur = path.last
    if path.is_drift_step(s):
        axis = path.d - path.drift_band + int(rng.integers(path.drift_band))
        nxt = cur[:axis] + (cur[axis] + 1,) + cur[axis + 1 :]
    else:
        cands = admissible_next(path)
        if not cands:
            raise AssertionError("empty admissible set; the floor bound excludes this")
        nxt = cands[int(rng.integers(len(cands)))]
    path.sites.append(nxt)
    return nxt


_PLANS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _walk_plan(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move table, draw bounds and table offsets of an n-step walk at period <= 2.

    Table rows are the free moves in ``admissible_next``'s order (axis by
    axis, +1 before -1), then the ``band`` drift moves; step s draws below
    ``band`` and reads the drift rows when s % period == 0, and draws below
    2 * (d - band) from the free rows otherwise.  Kept per d at the longest
    n asked for, and sliced.
    """
    plan = _PLANS.get(d)
    if plan is None or len(plan[1]) < n:
        period, band = drift_period(d), drift_band(d)
        free = d - band
        unit = np.eye(d, dtype=np.int8)
        signed = np.stack([unit[:free], -unit[:free]], axis=1).reshape(-1, d)
        moves = np.concatenate([signed, unit[free:]])
        drift = np.arange(1, n + 1) % period == 0
        plan = _PLANS[d] = (moves, np.where(drift, band, 2 * free), np.where(drift, 2 * free, 0))
    moves, highs, offsets = plan
    return moves, highs[:n], offsets[:n]


def _draw_walks(d: int, n: int, rngs: Sequence[np.random.Generator], per_rng: int) -> np.ndarray:
    """Sites of ``per_rng`` n-step walks from each generator, as int64 arrays.

    Returns shape (per_rng, len(rngs), n + 1, d): entry [k, r] is the
    k-th walk drawn from ``rngs[r]``, and each generator's walks are
    drawn in order.  At period <= 2 no free step can hit a visited site
    (see the module docstring), so a walk's draw is one
    ``rng.integers(0, highs)`` call, which yields the same values, and
    leaves the generator in the same state, as the n scalar
    ``rng.integers`` calls of ``step_walk``; one gather from the move
    table and one cumulative sum then give every walk's sites.  Longer
    periods step each walk with ``step_walk`` and convert its sites once.
    """
    n = count("walk length", n, 1)
    period = drift_period(d)
    sites = np.zeros((per_rng, len(rngs), n + 1, d), dtype=np.int64)
    if period > 2:
        for r, rng in enumerate(rngs):
            for k in range(per_rng):
                path = WalkPath.start(d)
                for _ in range(n):
                    step_walk(path, rng)
                sites[k, r] = path.sites
        return sites
    moves, highs, offsets = _walk_plan(d, n)
    rows = np.empty((per_rng, len(rngs), n), dtype=np.int64)
    for r, rng in enumerate(rngs):
        for k in range(per_rng):
            rows[k, r] = rng.integers(0, highs)
    rows += offsets
    steps = sites[:, :, 1:]
    steps[...] = moves[rows]
    np.cumsum(steps, axis=2, out=steps)  # in place: no temporary of the sites' size
    return sites


def sample_walk(d: int, n: int, rng: np.random.Generator) -> WalkPath:
    """A structured walk of length n from the origin.

    One walk of the array draw path that ``estimate_survival_lower_bound``
    reads, as a ``WalkPath`` for callers that step or validate walks site
    by site.
    """
    sites = _draw_walks(d, n, [rng], 1)[0, 0]
    return WalkPath.from_sites(d, list(map(tuple, sites.tolist())))


@dataclass(frozen=True)
class PairStats:
    """Collision counts |F| and |K| of an ordered walk pair at one length."""

    f_size: int
    k_size: int


def _join_counts(
    s: np.ndarray, v: np.ndarray, lengths: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """|F| and |K| of B walk pairs at each length, by shifted row compares.

    ``s`` and ``v`` hold pair b's walks S and V, both of the structured
    class, as int64 arrays of shape (B, n + 1, d), n = max(lengths).
    Returns two (B, len(lengths)) int arrays.

    Every step changes one coordinate by +-1, so site i's coordinate sum
    has the parity of i, and site i's band sum is i // period; V_i = S_j
    therefore needs j - i even and |j - i| < period.  V's rows are
    compared with S's rows shifted by each such offset o, one vectorised
    compare of the block per offset: only o = 0 at period <= 2
    (3 <= d <= 20), and 2 * ((period - 1) // 2) + 1 offsets in general.
    S is self-avoiding, so V_i matches at most one S_j, and the edge
    (V_i, V_{i+1}) matches (S_j, S_{j+1}) exactly when sites i and i + 1
    both match at the same offset.

    Index i joins F at n = max(i, j) for its site match j, and K at
    n = max(i, j) + 1 for its edge match j.
    """
    pairs, rows, d = s.shape
    index = np.arange(rows)
    f_at = np.full((pairs, rows), rows)  # rows marks "no match": beyond every length
    k_at = np.full((pairs, rows), rows)
    reach = 2 * ((drift_period(d) - 1) // 2)  # the largest even offset below period
    for o in range(-reach, reach + 1, 2):
        lo, hi = max(0, -o), min(rows, rows - o)  # V's rows i with S_{i+o} in range
        if lo >= hi:
            continue
        same = (v[:, lo:hi] == s[:, lo + o : hi + o]).all(axis=2)
        at = index[lo:hi] + max(0, o)
        np.copyto(f_at[:, lo:hi], at, where=same)
        np.copyto(k_at[:, lo : hi - 1], at[:-1] + 1, where=same[:, :-1] & same[:, 1:])
    f = np.stack([(f_at <= m).sum(axis=1) for m in lengths], axis=1)
    k = np.stack([(k_at <= m).sum(axis=1) for m in lengths], axis=1)
    return f, k


def pair_stats(s_walk: WalkPath, v_walk: WalkPath, lengths: Sequence[int]) -> list[PairStats]:
    """Site- and edge-collision counts of two walks at each length in ``lengths``.

    At length n, F collects indices i <= n with V_i among S's first n+1
    sites, and K collects indices i <= n-1 whose edge (V_i, V_{i+1})
    appears among S's first n edges.  Index 0 is always in F (shared
    origin).  One pass of shifted row compares over the longest prefixes
    serves every length (``_join_counts``, here with a block of one pair,
    the core the estimator runs on its blocks): index i joins F at
    n = max(i, j) for the j with S_j = V_i, and joins K at n = max(i, j) + 1
    for the j with (S_j, S_{j+1}) = (V_i, V_{i+1}).  Both walks must be of
    the structured class (``WalkPath.is_valid``), which that compare relies
    on; ``lengths`` must be non-empty and every length at least 1.

    K is a subset of F at every n: if i is in K, some j <= n-1 has
    (S_j, S_{j+1}) = (V_i, V_{i+1}), so V_i = S_j is among S's first n+1
    sites and i <= n-1 < n, which puts i in F.
    """
    if s_walk.d != v_walk.d:
        raise ParameterError(f"walks must share a dimension, got d={s_walk.d} and d={v_walk.d}")
    if not lengths or min(lengths) < 1:
        raise ParameterError(f"lengths must be a non-empty list of lengths >= 1, got {list(lengths)}")
    n = max(lengths)
    if len(s_walk.sites) < n + 1 or len(v_walk.sites) < n + 1:
        raise ParameterError(f"both walks must have length >= {n}")
    if not (s_walk.is_valid() and v_walk.is_valid()):
        raise ParameterError("both walks must be in the structured class (WalkPath.is_valid)")
    s = np.array([s_walk.sites[: n + 1]], dtype=np.int64)
    v = np.array([v_walk.sites[: n + 1]], dtype=np.int64)
    f, k = _join_counts(s, v, lengths)
    return [PairStats(a, b) for a, b in zip(f[0].tolist(), k[0].tolist())]


def pair_weight(stats: PairStats, p: ProcessParams) -> float:
    """Second-moment weight of a walk pair.

    2^(F\\K) * ((1+gamma+delta)/gamma)^(F-1) * ((lam+1)/lam)^K, with
    |F\\K| = |F| - |K| since K is a subset of F; returns inf on float
    overflow (flagged downstream as a heavy tail).
    """
    if stats.f_size < 1:
        raise ParameterError("F must contain the shared origin; got f_size=0")
    log_w = (
        (stats.f_size - stats.k_size) * math.log(2.0)
        + (stats.f_size - 1) * math.log((1.0 + p.gamma + p.delta) / p.gamma)
        + stats.k_size * math.log((p.lam + 1.0) / p.lam)
    )
    try:
        return math.exp(log_w)
    except OverflowError:
        return math.inf


@dataclass
class SawBoundEstimate:
    """Monte Carlo estimate of the second-moment survival lower bound."""

    bound: float
    ci_low: float
    ci_high: float
    mean_weight: float
    se_weight: float
    n_max: int
    replicas: int
    convergence: list[tuple[int, float]]  # (walk length, bound at that length)
    heavy_tail: bool


# int64 walk-site entries per block of replicas in the estimator: bounds
# the block's arrays, and so its memory, whatever n_max and d are
_BLOCK_ELEMENTS = 1 << 16


def estimate_survival_lower_bound(
    d: int, p: ProcessParams, n_max: int, replicas: int, seed: int
) -> SawBoundEstimate:
    """Estimate 1 / E[pair weight] over independent structured walk pairs.

    The limit object lives at infinite walk length; the estimate is taken
    at n_max with a three-point convergence diagnostic at n_max/4,
    n_max/2 and n_max so the truncation error stays visible.  The
    heavy_tail flag fires when the top 1% of sampled weights carries more
    than half of the total mass, signalling an unreliable mean.

    Replica r draws S and then V from ``substream(seed, r)``.  Replicas
    come in blocks of B pairs, B = _BLOCK_ELEMENTS // (2 (n_max + 1) d)
    but at least 1, so a block's walk arrays hold about _BLOCK_ELEMENTS
    int64 entries whatever the size: one draw call per block gives its
    walks as arrays, and shifted row compares (``_join_counts``) give |F|
    and |K| at all three checkpoints for every pair: one compare of the
    block's V and S rows per even offset below ``period``, a single one at
    3 <= d <= 20.  Weights are summed in replica order, so
    the result does not depend on B; ``pair_weight`` runs once per
    distinct (|F|, |K|).

    Returns a SawBoundEstimate with a 95% delta-method interval.
    """
    n_max = count("n_max", n_max, 4)
    replicas = count("replicas", replicas, 2)
    drift_period(d)  # refuses a d outside the walk class before a block is sized
    checkpoints = sorted({max(1, n_max // 4), max(1, n_max // 2), n_max})
    block = max(1, _BLOCK_ELEMENTS // (2 * (n_max + 1) * d))
    sums = {n: 0.0 for n in checkpoints}
    weight_of: dict[tuple[int, int], float] = {}  # (|F|, |K|) -> pair_weight
    weights_at_max = np.empty(replicas)
    for start in range(0, replicas, block):
        rngs = [substream(seed, r) for r in range(start, min(start + block, replicas))]
        f, k = _join_counts(*_draw_walks(d, n_max, rngs, 2), checkpoints)
        for r, (f_r, k_r) in enumerate(zip(f.tolist(), k.tolist()), start):
            for n, key in zip(checkpoints, zip(f_r, k_r)):
                w = weight_of.get(key)
                if w is None:
                    w = weight_of[key] = pair_weight(PairStats(*key), p)
                sums[n] += w
            weights_at_max[r] = w
    mean = float(np.mean(weights_at_max))
    se = float(np.std(weights_at_max, ddof=1) / math.sqrt(replicas))
    top = max(1, replicas // 100)
    tail_mass = float(np.sort(weights_at_max)[-top:].sum())
    total = float(weights_at_max.sum())
    heavy = not math.isfinite(mean) or (total > 0 and tail_mass / total > 0.5)
    bound = 0.0 if not math.isfinite(mean) else 1.0 / mean
    lo = 0.0 if not math.isfinite(mean) else 1.0 / (mean + 1.96 * se)
    denom = mean - 1.96 * se
    hi = 1.0 if (not math.isfinite(mean) or denom <= 1.0) else min(1.0, 1.0 / denom)
    convergence = [
        (n, (replicas / sums[n]) if math.isfinite(sums[n]) and sums[n] > 0 else 0.0)
        for n in checkpoints
    ]
    return SawBoundEstimate(
        bound=bound,
        ci_low=lo,
        ci_high=hi,
        mean_weight=mean,
        se_weight=se,
        n_max=n_max,
        replicas=replicas,
        convergence=convergence,
        heavy_tail=heavy,
    )


def union_lower_bound(
    probs: Sequence[float],
    pair_probs: Sequence[Sequence[float]],
    weights: Sequence[float],
) -> float:
    """Weighted second-moment lower bound on P(union of events).

    Given P(B_i) > 0, the joint matrix P(B_i & B_j) and positive weights
    p_i summing to one, the union probability is at least
    1 / sum_ij p_i p_j P(B_i & B_j) / (P(B_i) P(B_j)).
    """
    n = len(probs)
    if n == 0:
        raise ParameterError("need at least one event")
    if len(weights) != n or len(pair_probs) != n or any(len(row) != n for row in pair_probs):
        raise ParameterError("probs, weights and pair_probs dimensions must agree")
    if any(q <= 0.0 for q in probs):
        raise DomainError("every event must have strictly positive probability")
    if any(w <= 0.0 for w in weights):
        raise ParameterError("weights must be positive")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ParameterError(f"weights must sum to 1 within 1e-12, got {sum(weights)}")
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += weights[i] * weights[j] * pair_probs[i][j] / (probs[i] * probs[j])
    if total <= 0.0:
        raise DomainError("pair-probability mass vanished; bound undefined")
    return 1.0 / total


@dataclass(frozen=True)
class DirectUnionEstimate:
    """Plain Monte Carlo estimate of the union probability over the walk class."""

    p_hat: float
    se: float
    successes: int
    replicas: int


_UNION_BLOCK = 10_000  # replicas per substream(seed, block index)


def estimate_union_direct(
    d: int, n: int, p: ProcessParams, replicas: int, seed: int
) -> DirectUnionEstimate:
    """Estimate P(some length-n structured path carries a full chain).

    Only dimensions with drift period 1 (3 <= d <= 7) are supported:
    there every structured path is a monotone path in the drift band, so
    the union event equals survival of a level-by-level reachability
    front, which is evaluated with lazily drawn clocks.  Replicas come in
    blocks of 10 000, each reading one stream ``substream(seed, block)``.
    """
    if drift_period(d) != 1:
        raise ParameterError(
            f"direct union estimation needs drift period 1 (3 <= d <= 7), got d={d}"
        )
    n = count("path length", n, 1)
    replicas = count("replicas", replicas, 1)
    band = drift_band(d)
    axes = range(d - band, d)
    o = origin(d)
    successes = 0
    for start in range(0, replicas, _UNION_BLOCK):
        clocks = LazyClocks(p, substream(seed, start // _UNION_BLOCK))
        for _ in range(min(_UNION_BLOCK, replicas - start)):
            clocks.clear()
            level = [o]
            for _step in range(n):
                nxt: list[Site] = []
                accepted: set[Site] = set()
                for x in level:
                    wx = clocks.w(x)
                    for axis in axes:
                        y = x[:axis] + (x[axis] + 1,) + x[axis + 1 :]
                        if y in accepted:
                            continue
                        if clocks.u(x, y) < wx and clocks.gam(y) < clocks.y(y):
                            accepted.add(y)
                            nxt.append(y)
                if not nxt:
                    level = []
                    break
                level = nxt
            if level:
                successes += 1
    p_hat = successes / replicas
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / replicas) / replicas)
    return DirectUnionEstimate(p_hat=p_hat, se=se, successes=successes, replicas=replicas)
