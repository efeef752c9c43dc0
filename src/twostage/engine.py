"""Event-driven simulation of the three particle systems.

Three continuous-time Markov processes share this module:

* two-stage contact process, site states {0, 1, 2} (healthy,
  semi-infected, fully-infected);
* two-stage SIR model, site states {-1, 0, 1, 2} with -1 an absorbing
  recovered state;
* the auxiliary linear pair process assigning each site a pair
  (zeta, theta) of non-negative integers whose projection reproduces the
  contact process in law.

The spread simulators use a next-event scheme over the active sites with
a thinning bound for infections: attempts are drawn at the constant
per-source rate lam * 2d and rejected when the chosen direction leaves
the domain or hits a non-susceptible site.  Rejected attempts are null
transitions, so the scheme is exact in law while keeping every event at
O(1) amortized cost.  Sites are handled as integer codes internally
(see lattice.LatticeGeometry); the public API speaks tuples.  Both loops
step between codes by the geometry's per-direction tables (stride, edge
digit, step, torus wrap): the spread loop steps from a source code to the
proposed neighbour by their arithmetic, so it builds and keeps no
neighbour tuples; the pair loop reads whole tuples from
``neighbor_codes``, which builds them from the same tables.

Draw contract: each event reads one (uniform, exponential) pair of
Python floats from rng.event_draws, so a replica's draws are a fixed
function of the stream it is handed.  Where the generator is left
afterwards is not part of the contract (see event_draws); a generator
reused for a second call still reads no output twice, so the calls stay
independent.  A replica's path up to time t does not depend on
``horizon``, which only ends the loop, so the state at each of
``simulate``'s ``sample_times`` s is the final state of the same stream
run to horizon s.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError
from .lattice import LatticeGeometry, Site
from .params import ProcessParams
from .rng import event_draws

HEALTHY = 0
SEMI = 1
FULL = 2
RECOVERED = -1

CONTACT_STATES = (HEALTHY, SEMI, FULL)
SIR_STATES = (RECOVERED, HEALTHY, SEMI, FULL)

_ZERO_PAIR = (0, 0)


@dataclass
class SparseConfig:
    """Sparse site -> state map; absent sites are healthy (0)."""

    states: dict[Site, int] = field(default_factory=dict)
    time: float = 0.0

    @classmethod
    def from_sites(cls, mapping: dict[Site, int], time: float = 0.0) -> "SparseConfig":
        """Build a config, dropping explicit zeros."""
        return cls(states={x: s for x, s in mapping.items() if s != HEALTHY}, time=time)

    def state(self, x: Site) -> int:
        return self.states.get(x, HEALTHY)


@dataclass
class LinearConfig:
    """Sparse site -> (zeta, theta) map; absent sites are (0, 0)."""

    values: dict[Site, tuple[int, int]] = field(default_factory=dict)
    time: float = 0.0

    @classmethod
    def from_sites(cls, mapping: dict[Site, tuple[int, int]], time: float = 0.0) -> "LinearConfig":
        return cls(
            values={x: (int(z), int(t)) for x, (z, t) in mapping.items() if (z, t) != _ZERO_PAIR},
            time=time,
        )

    def value(self, x: Site) -> tuple[int, int]:
        return self.values.get(x, _ZERO_PAIR)


@dataclass
class TrajectorySummary:
    """Replica-level outcome of a spread simulation.

    ``final`` is the configuration at the stop time and ``snapshots`` the
    configurations at ``simulate``'s sample times.  Both are kept as the
    run's site-code maps and decoded on first access, so a caller that
    reads only the scalars never decodes a site; ``site_states`` reads
    one site from the maps without decoding any.
    """

    extinction_time: Optional[float]  # None when the survival proxy fired
    peak_active: int
    event_count: int
    ever_fully_infected: Optional[set[Site]]
    _g: LatticeGeometry = field(repr=False)
    _codes: dict[int, int] = field(repr=False)
    _stop_time: float = field(repr=False)
    _samples: list[tuple[dict[int, int], float]] = field(repr=False)

    def _decode(self, codes: dict[int, int], time: float) -> SparseConfig:
        decode = self._g.decode
        return SparseConfig(states={decode(c): s for c, s in codes.items()}, time=time)

    @property
    def survived(self) -> bool:
        """Whether the run stopped at the horizon or the cap, not by extinction."""
        return self.extinction_time is None

    @functools.cached_property
    def final(self) -> SparseConfig:
        return self._decode(self._codes, self._stop_time)

    @functools.cached_property
    def snapshots(self) -> list[SparseConfig]:
        """One configuration per sample time, stamped with that time."""
        return [self._decode(codes, at) for codes, at in self._samples]

    def site_states(self, x: Site) -> list[int]:
        """State of site x at each sample time, then at the stop time."""
        code = self._g.encode(x)
        maps = [codes for codes, _ in self._samples] + [self._codes]
        return [codes.get(code, HEALTHY) for codes in maps]


def all_full_config(g: LatticeGeometry) -> SparseConfig:
    """Every site of the domain fully infected."""
    return SparseConfig(states={x: FULL for x in g.sites()})


def all_ones_linear(g: LatticeGeometry) -> LinearConfig:
    """Every site of the domain at (1, 0)."""
    return LinearConfig(values={x: (1, 0) for x in g.sites()})


# ----------------------------------------------------------------------
# transition-rate tables
# ----------------------------------------------------------------------
def _infected_neighbor_count(cfg: SparseConfig, x: Site, g: LatticeGeometry) -> int:
    states = cfg.states
    return sum(1 for y in g.neighbors(x) if states.get(y, HEALTHY) == FULL)


def site_rates_contact(
    cfg: SparseConfig, x: Site, p: ProcessParams, g: LatticeGeometry
) -> list[tuple[int, float]]:
    """Outgoing transitions (target state, rate) of site x, contact process.

    Fully infected sites recover at rate 1; semi-infected sites mature at
    rate gamma or recover at rate 1 + delta; healthy sites become
    semi-infected at rate lam per fully-infected neighbor (omitted when
    that count is zero).
    """
    g.require(x)
    s = cfg.state(x)
    if s == FULL:
        return [(HEALTHY, 1.0)]
    if s == SEMI:
        return [(FULL, p.gamma), (HEALTHY, 1.0 + p.delta)]
    if s == HEALTHY:
        k = _infected_neighbor_count(cfg, x, g)
        if k:
            return [(SEMI, p.lam * k)]
        return []
    raise ParameterError(f"state {s} is not a contact-process state")


def site_rates_sir(
    cfg: SparseConfig, x: Site, p: ProcessParams, g: LatticeGeometry
) -> list[tuple[int, float]]:
    """Outgoing transitions of site x in the two-stage SIR model.

    As the contact process, except recoveries land in the absorbing
    state -1, which has no outgoing transitions.
    """
    g.require(x)
    s = cfg.state(x)
    if s == FULL:
        return [(RECOVERED, 1.0)]
    if s == SEMI:
        return [(RECOVERED, 1.0 + p.delta), (FULL, p.gamma)]
    if s == HEALTHY:
        k = _infected_neighbor_count(cfg, x, g)
        if k:
            return [(SEMI, p.lam * k)]
        return []
    if s == RECOVERED:
        return []
    raise ParameterError(f"state {s} is not an SIR state")


def project_linear(lc: LinearConfig) -> SparseConfig:
    """Project a pair configuration onto contact-process states.

    A site maps to 2 if zeta > 0, to 1 if zeta = 0 < theta, else to 0.
    """
    states: dict[Site, int] = {}
    for x, (z, th) in lc.values.items():
        if z > 0:
            states[x] = FULL
        elif th > 0:
            states[x] = SEMI
    return SparseConfig(states=states, time=lc.time)


# ----------------------------------------------------------------------
# spread simulation (contact / SIR)
# ----------------------------------------------------------------------
def simulate(
    kind: str,
    init: SparseConfig,
    p: ProcessParams,
    g: LatticeGeometry,
    horizon: float,
    rng: np.random.Generator,
    active_cap: Optional[int] = None,
    track_ever_fully_infected: bool = False,
    *,
    sample_times: Optional[list[float]] = None,
) -> TrajectorySummary:
    """Run one replica of the contact or SIR process.

    The run terminates at extinction (no site in state 1 or 2), at the
    absolute time ``horizon``, or as soon as the active-site count
    reaches ``active_cap``; the latter two outcomes are reported as
    survival under the proxy.

    Args:
        kind: "contact" or "sir".
        init: initial configuration (finite support and time, usually 0).
        horizon: absolute stop time, > init.time.
        rng: replica-local generator.
        active_cap: survival cap on |state 1| + |state 2|, or None.
        track_ever_fully_infected: record every site that ever reaches
            state 2 (off by default; costs memory).
        sample_times: ascending times in (init.time, horizon) at which
            to record the configuration, or None; a time after
            extinction records the final configuration.  Not allowed
            with ``active_cap``, since a capped run has no state after
            its stop.

    Returns:
        TrajectorySummary with the configuration at the stop time and,
        in ``snapshots``, one per sample time.
    """
    if kind not in ("contact", "sir"):
        raise ParameterError(f"kind must be 'contact' or 'sir', got {kind!r}")
    sir = kind == "sir"
    if not math.isfinite(init.time):
        raise ParameterError(f"init.time must be finite, got {init.time}")
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon)) or horizon <= init.time:
        raise ParameterError(f"horizon must be finite and exceed init.time, got {horizon}")
    if active_cap is not None and active_cap < 1:
        raise ParameterError(f"active_cap must be >= 1, got {active_cap}")
    samples: list[float] = []
    if sample_times is not None:
        if active_cap is not None:
            raise ParameterError("sample_times cannot be combined with active_cap")
        samples = [float(s) for s in sample_times]
        if not samples:
            raise ParameterError("sample_times must be non-empty")
        bounds = [init.time, *samples, horizon]
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise ParameterError(
                f"sample_times must ascend strictly within ({init.time}, {horizon}), got {samples}"
            )

    allowed = SIR_STATES if sir else CONTACT_STATES
    states: dict[int, int] = {}
    ones: list[int] = []
    twos: list[int] = []
    for x, s in init.states.items():
        if s == HEALTHY:
            continue
        if s not in allowed:
            raise ParameterError(f"state {s} at {x} invalid for kind {kind!r}")
        code = g.encode(x)  # raises DomainError for sites outside the domain
        states[code] = s
        if s == SEMI:
            ones.append(code)
        elif s == FULL:
            twos.append(code)

    lam = p.lam
    gamma = p.gamma
    delta = p.delta
    twod = 2 * g.d
    lam2d = lam * twod
    semi_tot = gamma + 1.0 + delta  # total outgoing rate of a semi-infected site

    ever2: Optional[set[int]] = set(twos) if track_ever_fully_infected else None

    # direction tables: see LatticeGeometry
    side = g.side
    stride = g.dir_stride
    edge = g.dir_edge
    step = g.dir_step
    wrap = g.dir_wrap

    snaps: list[dict[int, int]] = []
    stop = samples[0] if samples else horizon  # the next sample time, else the horizon
    t = init.time
    peak = len(ones) + len(twos)
    events = 0
    extinction_time: Optional[float] = None

    cap = math.inf if active_cap is None else active_cap
    if peak == 0:
        extinction_time = t
    elif peak < cap:
        n1 = len(ones)
        n2 = len(twos)
        full_tot = 1.0 + lam2d  # total outgoing rate of a fully-infected site
        for u, e in event_draws(rng):
            s1 = n1 * semi_tot
            rate = n2 * full_tot + s1
            t_next = t + e / rate
            if t_next >= stop:
                if t_next >= horizon:
                    t = horizon
                    break
                while t_next >= stop:  # stop < horizon: a sample time
                    snaps.append(dict(states))
                    stop = samples[len(snaps)] if len(snaps) < len(samples) else horizon
            t = t_next
            u *= rate
            if u < n2:
                # recovery of a fully-infected site
                i = int(u)
                if i >= n2:
                    i = n2 - 1
                n2 -= 1
                x = twos[i]
                twos[i] = twos[n2]
                twos.pop()
                if sir:
                    states[x] = RECOVERED
                else:
                    del states[x]
                events += 1
                if n2 + n1 == 0:
                    extinction_time = t
                    break
            elif u < n2 + s1:
                v = u - n2
                i = int(v / semi_tot)
                if i >= n1:
                    i = n1 - 1
                n1 -= 1
                x = ones[i]
                ones[i] = ones[n1]
                ones.pop()
                events += 1
                if v - i * semi_tot < gamma:
                    # maturation to fully infected
                    states[x] = FULL
                    twos.append(x)
                    n2 += 1
                    if ever2 is not None:
                        ever2.add(x)
                else:
                    # recovery of a semi-infected site
                    if sir:
                        states[x] = RECOVERED
                    else:
                        del states[x]
                    if n1 + n2 == 0:
                        extinction_time = t
                        break
            else:
                # infection attempt: uniform (source, direction) thinning
                k = int((u - n2 - s1) / lam)
                if k >= n2 * twod:
                    k = n2 * twod - 1
                i, direction = divmod(k, twod)
                x = twos[i]
                if x // stride[direction] % side != edge[direction]:
                    y = x + step[direction]
                elif wrap is None:
                    continue  # the attempt leaves the box
                else:
                    y = x + wrap[direction]
                if y not in states:
                    states[y] = SEMI
                    ones.append(y)
                    n1 += 1
                    events += 1
                    active = n1 + n2
                    if active > peak:
                        peak = active
                    if active >= cap:
                        break

    # sample times after the stop see the final configuration
    snaps += [states] * (len(samples) - len(snaps))
    ever_sites = {g.decode(c) for c in ever2} if ever2 is not None else None
    return TrajectorySummary(
        extinction_time=extinction_time,
        peak_active=peak,
        event_count=events,
        ever_fully_infected=ever_sites,
        _g=g,
        _codes=states,
        _stop_time=t,
        _samples=list(zip(snaps, samples)),
    )


# ----------------------------------------------------------------------
# linear pair process
# ----------------------------------------------------------------------
def simulate_linear(
    init: LinearConfig,
    p: ProcessParams,
    g: LatticeGeometry,
    sample_times: list[float],
    rng: np.random.Generator,
) -> list[LinearConfig]:
    """Run the pair process and snapshot it at the requested times.

    Per site the five transition rows are: reset to (0, 0) at rate 1;
    (zeta, 0) at rate delta; (zeta + theta, 0) at rate gamma; and per
    ordered neighbor pair y ~ x, (zeta, theta + zeta(y)) at rate lam --
    one independent clock per direction, 2d per site.  Rows whose target
    equals the current pair are null, so only sites with a nonzero pair
    or a zeta-positive neighbor need live clocks.

    Returns one LinearConfig per entry of sample_times (ascending).
    """
    if not sample_times:
        raise ParameterError("sample_times must be non-empty")
    if not math.isfinite(init.time):
        raise ParameterError(f"init.time must be finite, got {init.time}")
    times = sorted(float(s) for s in sample_times)
    if not all(math.isfinite(s) for s in times):
        raise ParameterError(f"sample times must be finite, got {times}")
    if times[0] < init.time:
        raise ParameterError("sample times must not precede init.time")

    vals: dict[int, tuple[int, int]] = {}
    for x, (z, th) in init.values.items():
        if z < 0 or th < 0:
            raise ParameterError(f"pair values must be non-negative, got {(z, th)} at {x}")
        if (z, th) == _ZERO_PAIR:
            continue
        vals[g.encode(x)] = (int(z), int(th))

    nbrs = g.neighbor_codes

    # active set: nonzero pair, or some neighbor with zeta > 0
    active: list[int] = []
    pos: dict[int, int] = {}

    def activate(c: int) -> None:
        if c not in pos:
            pos[c] = len(active)
            active.append(c)

    def deactivate(c: int) -> None:
        i = pos.pop(c)
        last = active.pop()
        if i < len(active):
            active[i] = last
            pos[last] = i

    for c, (z, _) in vals.items():
        activate(c)
        if z:
            for y in nbrs(c):
                if y >= 0:
                    activate(y)

    lam = p.lam
    gamma = p.gamma
    delta = p.delta
    twod = 2 * g.d
    bundle = 1.0 + delta + gamma + lam * twod
    gd_edge = 1.0 + delta + gamma  # lower edge of the lam rows

    out: list[LinearConfig] = []
    t = init.time
    next_i = 0

    def snapshot(at: float) -> None:
        out.append(
            LinearConfig(values={g.decode(c): v for c, v in vals.items()}, time=at)
        )

    draws = event_draws(rng)
    while next_i < len(times):
        n = len(active)
        if n == 0:
            # frozen forever: emit the remaining snapshots
            while next_i < len(times):
                snapshot(times[next_i])
                next_i += 1
            break
        u, e = next(draws)  # after the frozen check: a run that never moves draws nothing
        t_next = t + e / (n * bundle)
        while next_i < len(times) and times[next_i] <= t_next:
            snapshot(times[next_i])
            next_i += 1
        if next_i >= len(times):
            break
        t = t_next
        u *= n
        i = int(u)
        if i >= n:
            i = n - 1
        x = active[i]
        v = (u - i) * bundle
        z, th = vals.get(x, _ZERO_PAIR)
        if v < 1.0:
            # reset row; a zeta drop can strand neighbors, pruned lazily
            if z or th:
                del vals[x]
            # prune x once no zeta-positive neighbor remains
            if not any(vals.get(y, _ZERO_PAIR)[0] for y in nbrs(x) if y >= 0):
                deactivate(x)
        elif v < 1.0 + delta:
            # clear theta, keep zeta
            if th:
                if z:
                    vals[x] = (z, 0)
                else:
                    del vals[x]
        elif v < gd_edge:
            # promote theta into zeta
            if th:
                vals[x] = (z + th, 0)
                if z == 0:
                    for y in nbrs(x):
                        if y >= 0:
                            activate(y)
        else:
            # absorb a neighbor's zeta into theta
            k = int((v - gd_edge) / lam)
            if k >= twod:
                k = twod - 1
            y = nbrs(x)[k]
            if y >= 0:
                zy = vals.get(y, _ZERO_PAIR)[0]
                if zy:
                    vals[x] = (z, th + zy)
                    activate(x)
    return out
