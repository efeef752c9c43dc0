"""Exact ground truth for tiny instances.

For geometries small enough to enumerate every configuration, the full
generator of the contact or SIR process is assembled directly from the
single-site rate tables, and transient distributions are computed by
uniformization: Poisson-weighted powers of the discrete kernel
P = I + Q/Lambda, truncated once the remaining Poisson tail is below
1e-10.  This gives the statistical reference the event-driven simulator
is tested against, through an independent code path.

A second validator generates random finite probability spaces and checks
the weighted union lower bound against exhaustive enumeration.

``check_suite`` is the whole ``twostage oracle-check`` suite: both
validators, with the simulator's marginals checked against the first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .engine import (
    CONTACT_STATES, FULL, SIR_STATES, SparseConfig, site_rates_contact, site_rates_sir
)
from .errors import ParameterError, ResourceError
from .lattice import Box, LatticeGeometry, Site, Torus, origin
from .params import ProcessParams
from . import engine, rng, saw

_MAX_DENSE = 12_000  # configurations; the dense generator is ~1 GB of float64
_POISSON_TAIL = 1e-10


@dataclass
class ExactChain:
    """Fully enumerated CTMC of a spread process on a tiny geometry."""

    kind: str
    params: ProcessParams
    sites: list[Site]
    state_values: tuple[int, ...]
    states: list[tuple[int, ...]]  # per-site state vectors, site order as in `sites`
    index: dict[tuple[int, ...], int]
    generator: np.ndarray

    def config_index(self, cfg: SparseConfig | dict[Site, int]) -> int:
        """Index of a configuration given as a sparse site -> state map."""
        mapping = cfg.states if isinstance(cfg, SparseConfig) else cfg
        key = tuple(mapping.get(x, 0) for x in self.sites)
        try:
            return self.index[key]
        except KeyError:
            raise ParameterError(f"configuration {mapping} not a state of this chain") from None

    def marginal(self, dist: np.ndarray, site: Site) -> dict[int, float]:
        """Single-site marginal of a distribution over full configurations."""
        pos = self.sites.index(site)
        out = {s: 0.0 for s in self.state_values}
        for k, state in enumerate(self.states):
            out[state[pos]] += float(dist[k])
        return out


def build_exact(kind: str, g: LatticeGeometry, p: ProcessParams) -> ExactChain:
    """Assemble the exact generator of the contact or SIR process on g.

    Every entry comes from the single-site rate tables; all multi-site
    jumps have rate zero.  Raises ResourceError when the state space
    exceeds 12 000 configurations, the dense generator's memory guard.
    """
    if kind == "contact":
        values: tuple[int, ...] = CONTACT_STATES
        rates = site_rates_contact
    elif kind == "sir":
        values = SIR_STATES
        rates = site_rates_sir
    else:
        raise ParameterError(f"kind must be 'contact' or 'sir', got {kind!r}")
    sites = list(g.sites())
    n_sites = len(sites)
    n_states = len(values) ** n_sites
    if n_states > _MAX_DENSE:
        raise ResourceError(
            f"state space has {n_states} configurations, over the limit of "
            f"{_MAX_DENSE} for a dense generator; use a smaller geometry"
        )
    # the last site's state varies fastest
    states = list(product(values, repeat=n_sites))
    index = {state: k for k, state in enumerate(states)}
    q = np.zeros((n_states, n_states))
    for k, state in enumerate(states):
        cfg = SparseConfig(states={x: s for x, s in zip(sites, state) if s != 0})
        for pos, x in enumerate(sites):
            for target, rate in rates(cfg, x, p, g):
                nxt = list(state)
                nxt[pos] = target
                j = index[tuple(nxt)]
                q[k, j] += rate
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return ExactChain(
        kind=kind,
        params=p,
        sites=sites,
        state_values=values,
        states=states,
        index=index,
        generator=q,
    )


def transient(chain: ExactChain, init_index: int, t: float) -> np.ndarray:
    """Distribution at time t from a point mass, by uniformization."""
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    n = chain.generator.shape[0]
    if not 0 <= init_index < n:
        raise ParameterError(f"init_index {init_index} outside [0, {n})")
    pi = np.zeros(n)
    pi[init_index] = 1.0
    rate = float(-chain.generator.diagonal().min())
    if rate == 0.0 or t == 0.0:
        return pi
    kernel = np.eye(n) + chain.generator / rate
    mu = rate * t
    weight = np.exp(-mu)
    acc = weight * pi
    covered = weight
    term = pi
    k = 0
    while covered < 1.0 - _POISSON_TAIL:
        k += 1
        term = term @ kernel
        weight *= mu / k
        acc += weight * term
        covered += weight
        if k > mu + 60.0 * np.sqrt(mu) + 200.0:
            raise ResourceError(f"uniformization failed to converge at t={t}")
    out = np.clip(acc, 0.0, None)
    total = out.sum()
    if abs(total - 1.0) > 1e-9:
        raise ResourceError(f"transient distribution sums to {total}, expected 1")
    return out


@dataclass
class UnionSpaceTrial:
    """One randomly generated finite probability space."""

    exact_union: float
    bound: float
    violated: bool


@dataclass
class UnionValidationReport:
    """Outcome of the union-bound enumeration harness."""

    trials: int
    violations: int
    worst_gap: float  # max(bound - exact) over all trials, <= 0 when clean
    cases: list[UnionSpaceTrial]


def brute_union_spaces(count: int, rng: np.random.Generator) -> UnionValidationReport:
    """Check the union lower bound on random enumerable spaces.

    Each trial draws up to 12 atoms with Dirichlet masses and up to 5
    non-empty events, computes the exact union probability by
    enumeration and compares it with the weighted second-moment bound.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    cases: list[UnionSpaceTrial] = []
    violations = 0
    worst = -np.inf
    for _ in range(count):
        n_atoms = int(rng.integers(2, 13))
        atom_p = rng.dirichlet(np.ones(n_atoms))
        n_events = int(rng.integers(1, 6))
        members = []
        for _e in range(n_events):
            mask = rng.random(n_atoms) < rng.uniform(0.15, 0.85)
            if not mask.any():
                mask[int(rng.integers(n_atoms))] = True
            members.append(mask)
        probs = [float(atom_p[m].sum()) for m in members]
        union_mask = np.logical_or.reduce(members)
        exact = float(atom_p[union_mask].sum())
        pair = [
            [float(atom_p[np.logical_and(mi, mj)].sum()) for mj in members] for mi in members
        ]
        weights = rng.dirichlet(np.ones(n_events))
        weights = (weights / weights.sum()).tolist()
        bound = saw.union_lower_bound(probs, pair, weights)
        gap = bound - exact
        violated = gap > 1e-12
        if violated:
            violations += 1
        worst = max(worst, gap)
        cases.append(UnionSpaceTrial(exact_union=exact, bound=bound, violated=violated))
    return UnionValidationReport(
        trials=count, violations=violations, worst_gap=float(worst), cases=cases
    )


def check_suite(p: ProcessParams, replicas: int, seed: int) -> list[tuple[str, bool, str]]:
    """Every exactness check as (name, passed, detail), in report order.

    The contact and SIR chains are built once each on one site and on
    the 3-site ring.  The ring marginals are z-scores (limit 4) over
    ``replicas`` runs on streams (seed, i) for contact and (seed +
    replicas, i) for SIR; the union bound reads stream (seed, 97).
    """
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    site, ring = LatticeGeometry(1, Box(0)), LatticeGeometry(1, Torus(3))
    single = {kind: build_exact(kind, site, p) for kind in ("contact", "sir")}
    triple = {kind: build_exact(kind, ring, p) for kind in ("contact", "sir")}
    times = [0.5, 1.0, 2.0]
    rows: list[tuple[str, bool, str]] = []

    chain = single["contact"]
    # states enumerate (0, 1, 2) for the one site
    want = {(0,): {}, (1,): {(2,): p.gamma, (0,): 1.0 + p.delta}, (2,): {(0,): 1.0}}
    ok = all(
        chain.generator[chain.index[src], j]
        == (targets.get(dst, 0.0) if dst != src else -sum(targets.values()))
        for src, targets in want.items()
        for j, dst in enumerate(chain.states)
    )
    rows.append(("generator-single-site-contact", ok, "exact row match"))
    chain = single["sir"]
    ok = bool((chain.generator[chain.index[(-1,)]] == 0).all())
    rows.append(("generator-single-site-sir", ok, "recovered row identically zero"))

    for kind, chain in triple.items():
        q = chain.generator
        off = q - np.diag(q.diagonal())
        ok = bool(abs(q.sum(axis=1)).max() < 1e-12) and bool((off >= 0).all())
        rows.append((f"generator-ring-{kind}", ok, "row sums 0, off-diagonals >= 0"))

    chain = single["contact"]
    start = chain.config_index({(0,): FULL})
    gaps = [
        abs(chain.marginal(transient(chain, start, t), (0,))[0] - (1.0 - math.exp(-t)))
        for t in times
    ]
    rows.append(("pure-death-closed-form", max(gaps) <= 1e-9, f"max |gap| {max(gaps):.2e}"))

    o = origin(1)
    init = SparseConfig(states={o: FULL})
    for kind, ring_seed in (("contact", seed), ("sir", seed + replicas)):
        chain = triple[kind]
        # one run per replica to the last time; the earlier ones are snapshots
        counts = {t: {s: 0 for s in chain.state_values} for t in times}
        for i in range(replicas):
            # module lookups, so perfbench's tracer sees its patched simulate and substream
            out = engine.simulate(
                kind, init, p, ring, times[-1], rng.substream(ring_seed, i), sample_times=times[:-1]
            )
            for t, state in zip(times, out.site_states(o)):
                counts[t][state] += 1
        start = chain.config_index(init)
        zs = [
            abs(counts[t][s] / replicas - prob)
            / math.sqrt(max(prob * (1.0 - prob), 1e-12) / replicas)
            for t in times
            for s, prob in chain.marginal(transient(chain, start, t), o).items()
        ]
        rows.append((f"marginals-ring-{kind}", max(zs) <= 4.0, f"max |z| {max(zs):.2f} (limit 4)"))

    report = brute_union_spaces(200, rng.substream(seed, 97))
    detail = f"{report.trials} spaces, worst gap {report.worst_gap:.2e}"
    rows.append(("union-bound-spaces", report.violations == 0, detail))
    return rows
