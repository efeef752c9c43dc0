"""Exponential-clock construction of the two-stage SIR model.

Each site x of a finite region carries three independent exponential
clocks: recovery W(x) at rate 1 (read once x is fully infected), removal
Y(x) at rate 1 + delta and maturation Gam(x) at rate gamma (both read
once x is semi-infected).  Each ordered neighbor pair (x, y) carries a
transmission clock U(x, y) at rate lam; U(x, y) and U(y, x) are distinct.
Because a site is infected at most once in the SIR model, one clock per
site/pair realizes the process exactly, and the whole trajectory is a
deterministic function of the bundle.

The event along a self-avoiding path that every transmission clock beats
the source's recovery clock and every maturation clock beats the removal
clock (``path_event``) forces the path's endpoint to be fully infected at
some time; ``containment_holds`` checks that implication constructively.

Neighbors within the region are found by probing the 2d sites at +-1 in
each coordinate against the region set, so building a bundle and running
the clock-driven trajectory cost O(|region| * d), up to the logarithm of
the sorts and of the event heap.  A region's sites must share one
dimension.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import FULL, HEALTHY, RECOVERED, SEMI, SparseConfig
from .errors import DomainError, ParameterError
from .lattice import Site, l1_norm, sub
from .params import ProcessParams
from .rng import exponentials


@dataclass(frozen=True)
class ClockBundle:
    """One realization of the clock family on a finite region.

    recovery[x]      -- W(x), rate 1
    removal[x]       -- Y(x), rate 1 + delta
    maturation[x]    -- Gam(x), rate gamma
    transmission[x,y]-- U(x, y), rate lam, ordered pairs of neighbors
    """

    recovery: dict[Site, float]
    removal: dict[Site, float]
    maturation: dict[Site, float]
    transmission: dict[tuple[Site, Site], float]
    region: frozenset[Site]


def _region_neighbors(x: Site, region: frozenset[Site]) -> list[Site]:
    """Sites of region at l1 distance 1 from x, probed at +-1 per coordinate."""
    probes = (x[:i] + (x[i] + s,) + x[i + 1 :] for i in range(len(x)) for s in (-1, 1))
    return [y for y in probes if y in region]


def _ordered_neighbor_pairs(region: frozenset[Site]) -> list[tuple[Site, Site]]:
    return [(x, y) for x in region for y in _region_neighbors(x, region)]


def sample_clocks(
    region: set[Site] | frozenset[Site], p: ProcessParams, rng: np.random.Generator
) -> ClockBundle:
    """Draw an independent clock bundle for every site and ordered pair."""
    if not region:
        raise DomainError("clock region must be non-empty")
    frozen = frozenset(region)
    if len({len(x) for x in frozen}) != 1:
        raise DomainError("clock region mixes sites of different dimensions")
    sites = sorted(frozen)
    n = len(sites)
    w = rng.standard_exponential(n)
    y = rng.standard_exponential(n) / (1.0 + p.delta)
    gam = rng.standard_exponential(n) / p.gamma
    pairs = sorted(_ordered_neighbor_pairs(frozen))
    u = rng.standard_exponential(len(pairs)) / p.lam
    return ClockBundle(
        recovery=dict(zip(sites, w.tolist())),
        removal=dict(zip(sites, y.tolist())),
        maturation=dict(zip(sites, gam.tolist())),
        transmission=dict(zip(pairs, u.tolist())),
        region=frozen,
    )


def _validate_path(path: Sequence[Site], region: frozenset[Site]) -> None:
    if len(path) < 2:
        raise ParameterError("path must contain at least one step")
    d = len(path[0])
    if any(c != 0 for c in path[0]):
        raise ParameterError(f"path must start at the origin, starts at {path[0]}")
    if len(set(path)) != len(path):
        raise ParameterError("path must be self-avoiding")
    for a, b in zip(path, path[1:]):
        if len(b) != d or l1_norm(sub(a, b)) != 1:
            raise ParameterError(f"consecutive path sites {a}, {b} are not neighbors")
    outside = [x for x in path if x not in region]
    if outside:
        raise DomainError(f"path leaves the clock region at {outside[0]}")


def path_event(path: Sequence[Site], clocks: ClockBundle) -> bool:
    """True iff the infection chain succeeds along the whole path.

    Requires U(x_i, x_{i+1}) < W(x_i) and Gam(x_{i+1}) < Y(x_{i+1}) for
    every step i.
    """
    _validate_path(path, clocks.region)
    w = clocks.recovery
    u = clocks.transmission
    gam = clocks.maturation
    yy = clocks.removal
    for a, b in zip(path, path[1:]):
        if not (u[(a, b)] < w[a] and gam[b] < yy[b]):
            return False
    return True


@dataclass
class ClockTrajectory:
    """Deterministic SIR trajectory generated by a clock bundle."""

    events: list[tuple[float, Site, int]]  # (time, site, new state), time-ordered
    ever_fully_infected: set[Site]
    extinction_time: float
    final: SparseConfig


def sir_from_clocks(clocks: ClockBundle, init: SparseConfig) -> ClockTrajectory:
    """Run the SIR model as a deterministic function of the clocks.

    init may only contain states 0 and 2.  A site turning semi-infected
    at time s matures at s + Gam or is removed at s + Y, whichever clock
    is smaller; a site turning fully infected at s recovers at s + W and
    attempts each neighbor y at s + U(x, y), succeeding iff
    U(x, y) < W(x) and y is still healthy at that moment.  Simultaneous
    clock values (probability zero; possible under replay with crafted
    bundles) are resolved in lexicographic site order.
    """
    region = clocks.region
    w = clocks.recovery
    yy = clocks.removal
    gam = clocks.maturation
    u = clocks.transmission

    state: dict[Site, int] = {}
    for x, s in init.states.items():
        if s in (SEMI, RECOVERED):
            raise DomainError(f"initial state {s} at {x} not allowed (only 0 and 2)")
        if s == FULL:
            if x not in region:
                raise DomainError(f"initial site {x} outside the clock region")
            state[x] = FULL

    events: list[tuple[float, Site, int]] = []
    ever_full: set[Site] = set()
    active = 0  # sites currently in state 1 or 2
    extinction_time = 0.0
    seq = 0

    # heap entries: (time, site, action, seq, payload); the site breaks
    # float ties lexicographically, seq makes the order total
    _ATTEMPT, _MATURE, _REMOVE, _RECOVER = 0, 1, 2, 3
    heap: list[tuple[float, Site, int, int, Site | None]] = []

    def push(at: float, x: Site, action: int, payload: Site | None = None) -> None:
        nonlocal seq
        heapq.heappush(heap, (at, x, action, seq, payload))
        seq += 1

    def become_full(x: Site, at: float) -> None:
        # runs at most once per site, so neighbors are not memoized
        state[x] = FULL
        ever_full.add(x)
        events.append((at, x, FULL))
        push(at + w[x], x, _RECOVER)
        for y in sorted(_region_neighbors(x, region)):
            if u[(x, y)] < w[x]:
                push(at + u[(x, y)], x, _ATTEMPT, y)

    for x in sorted(state):
        active += 1
        become_full(x, 0.0)

    while heap:
        at, x, action, _, payload = heapq.heappop(heap)
        if action == _ATTEMPT:
            y = payload
            if state.get(y, HEALTHY) == HEALTHY:
                state[y] = SEMI
                active += 1
                events.append((at, y, SEMI))
                if gam[y] < yy[y]:
                    push(at + gam[y], y, _MATURE)
                else:
                    push(at + yy[y], y, _REMOVE)
        elif action == _MATURE:
            become_full(x, at)  # active count unchanged: 1 -> 2
        else:  # _REMOVE or _RECOVER
            state[x] = RECOVERED
            active -= 1
            events.append((at, x, RECOVERED))
            if active == 0:
                extinction_time = at

    final = SparseConfig(
        states={x: s for x, s in state.items() if s != HEALTHY}, time=extinction_time
    )
    return ClockTrajectory(
        events=events,
        ever_fully_infected=ever_full,
        extinction_time=extinction_time,
        final=final,
    )


def containment_holds(path: Sequence[Site], clocks: ClockBundle) -> bool:
    """Check: path event implies the endpoint was ever fully infected.

    Runs the SIR trajectory from a single fully-infected origin and
    returns True unless the path event occurred while the endpoint never
    reached state 2.  Used as a zero-violation property check.
    """
    if not path_event(path, clocks):
        return True
    d = len(path[0])
    init = SparseConfig(states={(0,) * d: FULL})
    traj = sir_from_clocks(clocks, init)
    return path[-1] in traj.ever_fully_infected


class LazyClocks:
    """Clock family drawn on first touch and memoized.

    Drawing independent exponentials in data-dependent order leaves the
    joint law unchanged, so estimators may explore a region lazily
    without materializing every clock.

    Draw contract: each clock read for the first time takes the next value
    of ``rng.exponentials(rng)``, scaled by its rate, whatever its kind;
    nothing is drawn before the first such read.  ``clear`` forgets every
    memoized clock and keeps reading the same stream, so one instance
    serves a run of independent replicas.
    """

    __slots__ = ("_p", "_draw", "_w", "_y", "_gam", "_u")

    def __init__(self, p: ProcessParams, rng: np.random.Generator):
        self._p = p
        self._draw = exponentials(rng).__next__
        self._w: dict[Site, float] = {}
        self._y: dict[Site, float] = {}
        self._gam: dict[Site, float] = {}
        self._u: dict[tuple[Site, Site], float] = {}

    def clear(self) -> None:
        """Forget every memoized clock; later reads draw fresh values."""
        for memo in (self._w, self._y, self._gam, self._u):
            memo.clear()

    def recovery(self, x: Site) -> float:
        v = self._w.get(x)
        if v is None:
            v = self._draw()
            self._w[x] = v
        return v

    def removal(self, x: Site) -> float:
        v = self._y.get(x)
        if v is None:
            v = self._draw() / (1.0 + self._p.delta)
            self._y[x] = v
        return v

    def maturation(self, x: Site) -> float:
        v = self._gam.get(x)
        if v is None:
            v = self._draw() / self._p.gamma
            self._gam[x] = v
        return v

    def transmission(self, x: Site, y: Site) -> float:
        v = self._u.get((x, y))
        if v is None:
            v = self._draw() / self._p.lam
            self._u[(x, y)] = v
        return v
