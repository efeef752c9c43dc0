"""Exponential-clock construction of the two-stage SIR model.

Each site x carries three independent exponential clocks: recovery W(x)
at rate 1 (read once x is fully infected), removal Y(x) at rate
1 + delta and maturation Gam(x) at rate gamma (both read once x is
semi-infected).  Each ordered neighbor pair (x, y) carries a
transmission clock U(x, y) at rate lam; U(x, y) and U(y, x) are
distinct.  Because a site is infected at most once in the SIR model, one
clock per site/pair realizes the process exactly, and the whole
trajectory is a deterministic function of the clocks.

One family, ``LazyClocks``, holds them: a clock is drawn the first time
it is read and memoized, so a run draws only the clocks it reaches.
Drawing independent exponentials in data-dependent order leaves their
joint law unchanged.

The event along a self-avoiding path that every transmission clock beats
the source's recovery clock and every maturation clock beats the removal
clock (``path_event``) forces the path's endpoint to be fully infected at
some time; ``containment_holds`` checks that implication constructively.

Neighbors within the region are found by probing the 2d sites at +-1 in
each coordinate against the region set, so the clock-driven trajectory
costs O(d) per site it reaches, up to the logarithm of the sorts and of
the event heap.  A region's sites must share one dimension.
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


class LazyClocks:
    """The clock family, drawn on first read and memoized.

    recovery[x]        -- W(x), rate 1, read by ``w(x)``
    removal[x]         -- Y(x), rate 1 + delta, read by ``y(x)``
    maturation[x]      -- Gam(x), rate gamma, read by ``gam(x)``
    transmission[x, y] -- U(x, y), rate lam, read by ``u(x, y)``

    The four dicts hold the clocks read so far; a value put there before
    its first read is read as is, which builds a family by hand.
    ``region`` is the finite site set that ``path_event``,
    ``sir_from_clocks`` and ``containment_holds`` explore; a family
    without one serves readers that pick their sites themselves.

    Draw contract: each clock read for the first time takes the next value
    of ``rng.exponentials(rng)``, scaled by its rate, whatever its kind;
    nothing is drawn before the first such read.  ``clear`` forgets every
    memoized clock and keeps reading the same stream, so one instance
    serves a run of independent replicas.
    """

    __slots__ = ("region", "recovery", "removal", "maturation", "transmission", "_p", "_draw")

    def __init__(
        self,
        p: ProcessParams,
        rng: np.random.Generator,
        region: set[Site] | frozenset[Site] | None = None,
    ):
        self.region = None if region is None else frozenset(region)
        self.recovery: dict[Site, float] = {}
        self.removal: dict[Site, float] = {}
        self.maturation: dict[Site, float] = {}
        self.transmission: dict[tuple[Site, Site], float] = {}
        self._p = p
        self._draw = exponentials(rng).__next__

    def clear(self) -> None:
        """Forget every memoized clock; later reads draw fresh values."""
        for memo in (self.recovery, self.removal, self.maturation, self.transmission):
            memo.clear()

    def w(self, x: Site) -> float:
        v = self.recovery.get(x)
        if v is None:
            v = self.recovery[x] = self._draw()
        return v

    def y(self, x: Site) -> float:
        v = self.removal.get(x)
        if v is None:
            v = self.removal[x] = self._draw() / (1.0 + self._p.delta)
        return v

    def gam(self, x: Site) -> float:
        v = self.maturation.get(x)
        if v is None:
            v = self.maturation[x] = self._draw() / self._p.gamma
        return v

    def u(self, x: Site, y: Site) -> float:
        v = self.transmission.get((x, y))
        if v is None:
            v = self.transmission[(x, y)] = self._draw() / self._p.lam
        return v


def sample_clocks(
    region: set[Site] | frozenset[Site], p: ProcessParams, rng: np.random.Generator
) -> LazyClocks:
    """Clock family on a finite region; nothing is drawn until a clock is read."""
    if not region:
        raise DomainError("clock region must be non-empty")
    frozen = frozenset(region)
    if len({len(x) for x in frozen}) != 1:
        raise DomainError("clock region mixes sites of different dimensions")
    return LazyClocks(p, rng, frozen)


def _region(clocks: LazyClocks) -> frozenset[Site]:
    if clocks.region is None:
        raise ParameterError("clock family has no region (build it with sample_clocks)")
    return clocks.region


def _region_neighbors(x: Site, region: frozenset[Site]) -> list[Site]:
    """Sites of region at l1 distance 1 from x, probed at +-1 per coordinate."""
    probes = (x[:i] + (x[i] + s,) + x[i + 1 :] for i in range(len(x)) for s in (-1, 1))
    return [y for y in probes if y in region]


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


def path_event(path: Sequence[Site], clocks: LazyClocks) -> bool:
    """True iff the infection chain succeeds along the whole path.

    Requires U(x_i, x_{i+1}) < W(x_i) and Gam(x_{i+1}) < Y(x_{i+1}) for
    every step i; the reads stop at the first step that fails.
    """
    _validate_path(path, _region(clocks))
    return all(
        clocks.u(a, b) < clocks.w(a) and clocks.gam(b) < clocks.y(b)
        for a, b in zip(path, path[1:])
    )


@dataclass
class ClockTrajectory:
    """Deterministic SIR trajectory generated by a clock family."""

    events: list[tuple[float, Site, int]]  # (time, site, new state), time-ordered
    ever_fully_infected: set[Site]
    extinction_time: float
    final: SparseConfig


def sir_from_clocks(clocks: LazyClocks, init: SparseConfig) -> ClockTrajectory:
    """Run the SIR model as a deterministic function of the clocks.

    init may only contain states 0 and 2.  A site turning semi-infected
    at time s matures at s + Gam or is removed at s + Y, whichever clock
    is smaller; a site turning fully infected at s recovers at s + W and
    attempts each neighbor y at s + U(x, y), succeeding iff
    U(x, y) < W(x) and y is still healthy at that moment.  So W and every
    U(x, .) are read when x turns fully infected, Gam and Y when it turns
    semi-infected, and no other clock is read.  Simultaneous clock values
    (probability zero; possible with hand-filled clocks) are resolved in
    lexicographic site order.
    """
    region = _region(clocks)

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
        wx = clocks.w(x)
        push(at + wx, x, _RECOVER)
        for y in sorted(_region_neighbors(x, region)):
            uxy = clocks.u(x, y)
            if uxy < wx:
                push(at + uxy, x, _ATTEMPT, y)

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
                gam, yy = clocks.gam(y), clocks.y(y)
                if gam < yy:
                    push(at + gam, y, _MATURE)
                else:
                    push(at + yy, y, _REMOVE)
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


def containment_holds(path: Sequence[Site], clocks: LazyClocks) -> bool:
    """Check: path event implies the endpoint was ever fully infected.

    Runs the SIR trajectory from a single fully-infected origin on the
    same clocks and returns True unless the path event occurred while the
    endpoint never reached state 2.  Used as a zero-violation property
    check.
    """
    if not path_event(path, clocks):
        return True
    d = len(path[0])
    init = SparseConfig(states={(0,) * d: FULL})
    traj = sir_from_clocks(clocks, init)
    return path[-1] in traj.ever_fully_infected
