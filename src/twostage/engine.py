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
step from a source code to one neighbour by the arithmetic of the
geometry's per-direction tables (stride, edge digit, step, torus wrap),
so neither builds or keeps neighbour tuples: the spread loop to the
site an infection attempt proposes, the pair loop to the site a lam
clock gives zeta to.

Draw contract: each event reads one (uniform, exponential) pair of
Python floats from rng.event_draws, so a replica's draws are a fixed
function of the stream it is handed; they are drawn in windows that
grow from 64 pairs, so a short replica converts only the values of its
first window.  A call leaves the generator at the end of the window
that holds its last pair, so a generator reused for a second call reads
on from there and the calls stay independent.  A replica's path up to
time t does not depend on ``horizon``, which only ends the loop, so the
state at each of ``simulate``'s ``sample_times`` s is the final state of
the same stream run to horizon s.

``simulate_many`` runs ``simulate`` over a sequence of streams with one
setup: it checks the arguments and encodes ``init`` once, then yields
one summary per stream, each equal to ``simulate`` on that stream.
``simulate`` is its one-stream case, so the event loop exists once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ParameterError
from .lattice import LatticeGeometry, Site
from .params import ProcessParams
from .rng import event_draws

HEALTHY = 0
SEMI = 1
FULL = 2
RECOVERED = -1

# site states per process kind; build_exact enumerates configurations in this order
STATES = {"contact": (HEALTHY, SEMI, FULL), "sir": (RECOVERED, HEALTHY, SEMI, FULL)}

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
    _sample_times: list[float] = field(repr=False)
    _snaps: list[dict[int, int]] = field(repr=False)  # one code map per sample time

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
        return [self._decode(codes, at) for codes, at in zip(self._snaps, self._sample_times)]

    def site_states(self, x: Site) -> list[int]:
        """State of site x at each sample time, then at the stop time."""
        return self.code_states(self._g.encode(x))

    def code_states(self, code: int) -> list[int]:
        """``site_states`` of the site whose code (``LatticeGeometry.encode``) is ``code``.

        A caller that reads one site of many replicas encodes it once.
        """
        return [codes.get(code, HEALTHY) for codes in self._snaps] + [self._codes.get(code, HEALTHY)]


def all_full_config(g: LatticeGeometry) -> SparseConfig:
    """Every site of the domain fully infected."""
    return SparseConfig(states={x: FULL for x in g.sites()})


def all_ones_linear(g: LatticeGeometry) -> LinearConfig:
    """Every site of the domain at (1, 0)."""
    return LinearConfig(values={x: (1, 0) for x in g.sites()})


# ----------------------------------------------------------------------
# process kinds and the single-site rate table (engine.site_rates)
# ----------------------------------------------------------------------
def kind_states(kind: str) -> tuple[int, ...]:
    """The site states of process ``kind``, in ``STATES`` order."""
    try:
        return STATES[kind]
    except (KeyError, TypeError):
        names = " or ".join(map(repr, STATES))
        raise ParameterError(f"kind must be {names}, got {kind!r}") from None


def site_rates(
    kind: str, cfg: SparseConfig, x: Site, p: ProcessParams, g: LatticeGeometry
) -> list[tuple[int, float]]:
    """Outgoing transitions (target state, rate) of site x.

    Fully infected sites recover at rate 1; semi-infected sites mature at
    rate gamma or recover at rate 1 + delta; healthy sites become
    semi-infected at rate lam per fully-infected neighbor (omitted when
    that count is zero).  A recovery lands in 0 for the contact process
    and in -1 for SIR, an absorbing state with no outgoing transitions.
    """
    states = kind_states(kind)
    g.require(x)
    s = cfg.state(x)
    if s not in states:
        raise ParameterError(f"state {s} is not a {kind} state")
    cured = RECOVERED if kind == "sir" else HEALTHY
    if s == FULL:
        return [(cured, 1.0)]
    if s == SEMI:
        return [(FULL, p.gamma), (cured, 1.0 + p.delta)]
    if s == HEALTHY:
        k = sum(1 for y in g.neighbors(x) if cfg.state(y) == FULL)
        return [(SEMI, p.lam * k)] if k else []
    return []  # -1 is absorbing


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
    survival under the proxy.  This is ``simulate_many`` on one stream.

    Args:
        kind: a key of STATES, "contact" or "sir".
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
    runs = simulate_many(
        kind, init, p, g, horizon, (rng,), active_cap, track_ever_fully_infected,
        sample_times=sample_times,
    )
    return next(runs)


def simulate_many(
    kind: str,
    init: SparseConfig,
    p: ProcessParams,
    g: LatticeGeometry,
    horizon: float,
    rngs: Iterable[np.random.Generator],
    active_cap: Optional[int] = None,
    track_ever_fully_infected: bool = False,
    *,
    sample_times: Optional[list[float]] = None,
) -> Iterator[TrajectorySummary]:
    """``simulate`` once per generator of ``rngs``, with one setup.

    The arguments are checked, raising as ``simulate`` does, and ``init``
    is encoded when this is called, before any stream is read.  The
    returned iterator runs stream k when summary k is asked for, so
    ``rngs`` may itself be lazy; summary k equals ``simulate`` on
    stream k.  For many short replicas this saves the per-call setup.
    """
    allowed = kind_states(kind)
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
    twod = 2 * g.d
    if not math.isfinite(p.lam * twod):
        raise ParameterError(f"lam * 2d must be finite, got {p.lam} * {twod}")
    _check_attempts(max(1.0 + p.lam * twod, p.gamma + 1.0 + p.delta), horizon - init.time)

    states: dict[int, int] = {}
    for x, s in init.states.items():
        if s == HEALTHY:
            continue
        if s not in allowed:
            raise ParameterError(f"state {s} at {x} invalid for kind {kind!r}")
        states[g.encode(x)] = s  # raises DomainError for sites outside the domain
    return _runs(
        kind == "sir", states, init.time, p, g, horizon, samples, active_cap,
        track_ever_fully_infected, rngs,
    )


def _check_attempts(site_rate: float, span: float) -> None:
    """Refuse a run in which one active site alone makes 2**50 attempts.

    ``site_rate`` is the largest total rate of one active site and
    ``span`` the time the run may last.  2**50 steps of the event loop
    take years; further on ``t + e / rate`` stops moving t, or the total
    rate overflows to inf.  Checked before any stream is read.
    """
    attempts = site_rate * span
    if attempts >= 2.0**50:
        raise ParameterError(
            f"one active site at total rate {site_rate:.6g} makes {attempts:.6g} attempts "
            f"in {span:.6g} time units; a run cannot finish past 2**50"
        )


def _runs(
    sir: bool,
    init_states: dict[int, int],
    t0: float,
    p: ProcessParams,
    g: LatticeGeometry,
    horizon: float,
    samples: list[float],
    active_cap: Optional[int],
    track: bool,
    rngs: Iterable[np.random.Generator],
) -> Iterator[TrajectorySummary]:
    """The event loop of ``simulate_many``, one summary per stream."""
    init_ones = [c for c, s in init_states.items() if s == SEMI]
    init_twos = [c for c, s in init_states.items() if s == FULL]
    lam = p.lam
    gamma = p.gamma
    delta = p.delta
    twod = 2 * g.d
    semi_tot = gamma + 1.0 + delta  # total outgoing rate of a semi-infected site
    full_tot = 1.0 + lam * twod  # total outgoing rate of a fully-infected site
    cap = math.inf if active_cap is None else active_cap
    first_stop = samples[0] if samples else horizon
    n_samples = len(samples)
    start_active = len(init_ones) + len(init_twos)

    # direction tables: see LatticeGeometry
    side = g.side
    stride = g.dir_stride
    edge = g.dir_edge
    step = g.dir_step
    wrap = g.dir_wrap

    for rng in rngs:
        states = dict(init_states)
        ones = init_ones[:]
        twos = init_twos[:]
        ever2: Optional[set[int]] = set(twos) if track else None
        snaps: list[dict[int, int]] = []
        stop = first_stop  # the next sample time, else the horizon
        t = t0
        peak = start_active
        events = 0
        extinction_time: Optional[float] = None

        if peak == 0:
            extinction_time = t
        elif peak < cap:
            n1 = len(ones)
            n2 = len(twos)
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
                        stop = samples[len(snaps)] if len(snaps) < n_samples else horizon
                t = t_next
                u *= rate
                if u < n2:
                    # recovery of a fully-infected site
                    i = int(u)
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
        snaps += [states] * (n_samples - len(snaps))
        yield TrajectorySummary(
            extinction_time=extinction_time,
            peak_active=peak,
            event_count=events,
            ever_fully_infected={g.decode(c) for c in ever2} if ever2 is not None else None,
            _g=g,
            _codes=states,
            _stop_time=t,
            _sample_times=samples,
            _snaps=snaps,
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
    ordered neighbor pair y -> x, theta(x) += zeta(y) at rate lam -- one
    independent clock per direction, 2d per site.  Each lam clock is
    indexed by its source y, so it gives rather than takes: rows whose
    target equals the current pair are null, and only sites with a
    nonzero pair need live clocks.  The active set is exactly the sites
    of the current configuration, and a clock that points out of a box
    is a null event.

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
    bundle = 1.0 + p.delta + p.gamma + p.lam * (2 * g.d)  # total rate of one active site
    _check_attempts(bundle, times[-1] - init.time)

    vals: dict[int, tuple[int, int]] = {}
    for x, (z, th) in init.values.items():
        if z < 0 or th < 0:
            raise ParameterError(f"pair values must be non-negative, got {(z, th)} at {x}")
        if (z, th) == _ZERO_PAIR:
            continue
        vals[g.encode(x)] = (int(z), int(th))
    active = list(vals)  # the keys of vals: every site with live clocks

    lam = p.lam
    gamma = p.gamma
    delta = p.delta
    twod = 2 * g.d
    gd_edge = 1.0 + delta + gamma  # lower edge of the lam rows

    # direction tables: see LatticeGeometry
    side = g.side
    stride = g.dir_stride
    edge = g.dir_edge
    step = g.dir_step
    wrap = g.dir_wrap

    out: list[LinearConfig] = []
    stop = times[0]
    t = init.time
    draws = event_draws(rng)
    while True:
        n = len(active)
        if n:
            u, e = next(draws)
            t_next = t + e / (n * bundle)
        else:
            t_next = math.inf  # frozen: the remaining snapshots, and no draw
        while t_next >= stop:
            out.append(LinearConfig(values={g.decode(c): v for c, v in vals.items()}, time=stop))
            if len(out) == len(times):
                return out
            stop = times[len(out)]
        t = t_next
        u *= n
        i = int(u)
        if i >= n:
            i = n - 1
        x = active[i]
        v = (u - i) * bundle
        z, th = vals[x]
        if v < 1.0:
            # reset to (0, 0)
            del vals[x]
            active[i] = active[-1]
            active.pop()
        elif v < 1.0 + delta:
            # clear theta, keep zeta
            if th:
                if z:
                    vals[x] = (z, 0)
                else:
                    del vals[x]
                    active[i] = active[-1]
                    active.pop()
        elif v < gd_edge:
            # promote theta into zeta
            if th:
                vals[x] = (z + th, 0)
        elif z:
            # give zeta to the neighbour in direction k
            k = int((v - gd_edge) / lam)
            if k >= twod:
                k = twod - 1
            if x // stride[k] % side != edge[k]:
                y = x + step[k]
            elif wrap is None:
                continue  # the clock points out of the box
            else:
                y = x + wrap[k]
            target = vals.get(y)
            if target is None:
                vals[y] = (0, z)
                active.append(y)
            else:
                vals[y] = (target[0], target[1] + z)
