"""Outside-in tracing of the twostage layers.

Nothing under ``src/`` knows about this module.  ``install`` replaces
the public functions of each layer, at the name its caller binds them
(modules use ``from .x import y``), with wrappers that record a span:
layer, name, start, end and the index of the enclosing span.  Draw-buffer
fills are timed by handing the engine a proxy of the Generator that
``substream`` returns.  Spans stay in memory; ``metrics`` turns them into
per-layer counts and self times once the unit has finished.

A layer's self time is the time inside its spans minus the time inside
the spans they enclose.  Pool workers are forked, so spans recorded in
a worker never reach the parent: a traced unit that wants engine, rng
and lattice spans runs with one worker.
"""
from __future__ import annotations

import time
from collections import Counter

import numpy as np

LAYERS = ("rng", "engine", "lattice", "parallel", "critical", "oracle", "saw", "graphical", "cli")
PHASES = ("bracket-low", "bracket-high", "bisect")

# Every per-layer metric with its unit.  Metrics named *_s are self
# times except parallel.map_s and critical.probe_s.*, which are inclusive
# (they time a pool map and a whole probe).
UNITS = {
    "rng.substream_calls": "count",
    "rng.substream_s": "s",
    "rng.draw_fill_calls": "count",
    "rng.draw_fill_s": "s",
    "rng.draws": "count",
    "rng.draws_per_event": "draws/event",
    "rng.share": "ratio",
    "engine.replicas": "count",
    "engine.events": "count",
    "engine.simulate_self_s": "s",
    "engine.events_per_s": "1/s",
    "engine.stop_extinct": "count",
    "engine.stop_horizon": "count",
    "engine.stop_cap": "count",
    "engine.share": "ratio",
    "lattice.geometries": "count",
    "lattice.neighbor_codes_calls": "count",
    "lattice.neighbor_codes_s": "s",
    "lattice.decode_calls": "count",
    "lattice.decode_s": "s",
    "lattice.share": "ratio",
    "parallel.map_calls": "count",
    "parallel.chunks": "count",
    "parallel.map_s": "s",
    "parallel.efficiency": "ratio",
    "parallel.share": "ratio",
    "critical.probes": "count",
    "critical.probe_s.bracket-low": "s",
    "critical.probe_s.bracket-high": "s",
    "critical.probe_s.bisect": "s",
    "critical.share": "ratio",
    "oracle.build_exact_calls": "count",
    "oracle.states": "count",
    "oracle.build_exact_s": "s",
    "oracle.transient_calls": "count",
    "oracle.transient_s": "s",
    "oracle.union_spaces_s": "s",
    "oracle.share": "ratio",
    "saw.walks": "count",
    "saw.steps": "count",
    "saw.sample_walk_s": "s",
    "saw.steps_per_s": "1/s",
    "saw.pair_stats_calls": "count",
    "saw.pair_stats_s": "s",
    "saw.share": "ratio",
    "graphical.bundles": "count",
    "graphical.transmission_clocks": "count",
    "graphical.sample_clocks_s": "s",
    "graphical.sir_from_clocks_s": "s",
    "graphical.clock_events": "count",
    "graphical.share": "ratio",
    "cli.write_s": "s",
    "cli.write_bytes": "B",
    "cli.share": "ratio",
    "bench.share": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# metrics taken from the lightly traced unit at the workload's own worker
# count; every other layer metric comes from the fully traced unit
FROM_LIGHT = ("parallel.map_calls", "parallel.chunks", "parallel.map_s", "critical.probes") + tuple(
    f"critical.probe_s.{ph}" for ph in PHASES
)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, start, end, parent index]
        self.counts: Counter = Counter()
        self.phases: list[str] = []  # probe phases, in call order
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, after=None):
        """fn with a span around every call; after(args, kwargs, result) counts work."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owners, attr: str, layer: str, after=None, name: str = "") -> None:
        """Wrap owners[0].attr once, as span `name` (default attr), and bind it on every owner."""
        traced = self.wrap(layer, name or attr, getattr(owners[0], attr), after)
        for owner in owners:
            setattr(owner, attr, traced)

    # ------------------------------------------------------------------
    def install(self, level: str) -> None:
        """Patch the package: 'light' = parent-side spans only, 'full' = every layer."""
        from twostage import cli, critical, engine, graphical, lattice, oracle, parallel, rng, saw

        count = self.counts

        def probes(args, kwargs, est):
            self.phases.extend(pr.phase for pr in est.probes)

        def chunks(args, kwargs, result):
            count["parallel.chunks"] += len(args[1])

        self.patch([cli], "main", "cli")
        self.patch([critical], "trend_study", "critical")
        self.patch([critical], "bisect_critical", "critical", probes)
        self.patch([critical], "estimate_survival", "critical")
        self.patch([parallel, critical, cli], "chunked_map", "parallel", chunks)
        if level == "light":
            return

        def replica(args, kwargs, out):
            count["engine.replicas"] += 1
            count["engine.events"] += out.event_count
            cap = kwargs.get("active_cap", args[6] if len(args) > 6 else None)
            if not out.survived:
                count["engine.stop_extinct"] += 1
            elif cap is not None and out.peak_active >= cap:
                count["engine.stop_cap"] += 1
            else:
                count["engine.stop_horizon"] += 1

        self.patch([engine, critical, cli], "simulate", "engine", replica)

        def drawn(args, kwargs, values):
            count["rng.draws"] += np.size(values)

        fill = self.wrap("rng", "fill", lambda draw, size: draw(size), drawn)
        raw_stream = rng.substream

        def stream(*args, **kwargs):
            return TracedGenerator(raw_stream(*args, **kwargs), fill)

        traced_stream = self.wrap("rng", "substream", stream)
        for owner in (rng, critical, cli, saw):
            owner.substream = traced_stream

        geo = lattice.LatticeGeometry
        self.patch([geo], "__init__", "lattice", name="geometry")
        self.patch([geo], "neighbor_codes", "lattice")
        self.patch([geo], "decode", "lattice")

        def states(args, kwargs, chain):
            count["oracle.states"] += len(chain.states)

        self.patch([oracle], "build_exact", "oracle", states)
        self.patch([oracle], "transient", "oracle")
        self.patch([oracle], "brute_union_spaces", "oracle")

        def walk(args, kwargs, path):
            count["saw.steps"] += path.length

        self.patch([saw], "estimate_survival_lower_bound", "saw")
        self.patch([saw], "sample_walk", "saw", walk)
        self.patch([saw], "pair_stats", "saw")

        def bundle(args, kwargs, clocks):
            count["graphical.transmission_clocks"] += len(clocks.transmission)

        def trajectory(args, kwargs, traj):
            count["graphical.clock_events"] += len(traj.events)

        self.patch([graphical], "sample_clocks", "graphical", bundle)
        self.patch([graphical], "sir_from_clocks", "graphical", trajectory)

        writer = cli.OutputWriter
        for attr in ("meta", "table", "__exit__"):
            self.patch([writer], attr, "cli", name="write")

    # ------------------------------------------------------------------
    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer counts and times of one unit whose traced wall time is `wall`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        incl: Counter = Counter()
        layer_self: Counter = Counter()
        probe_s: list[float] = []
        for i, (layer, name, t0, t1, parent) in enumerate(spans):
            key = f"{layer}.{name}"
            calls[key] += 1
            incl[key] += t1 - t0
            self_s[key] += t1 - t0 - child[i]
            layer_self[layer] += t1 - t0 - child[i]
            if key == "critical.estimate_survival":
                probe_s.append(t1 - t0)
        c = self.counts
        m: dict[str, float] = {}
        m["rng.substream_calls"] = calls["rng.substream"]
        m["rng.substream_s"] = self_s["rng.substream"]
        m["rng.draw_fill_calls"] = calls["rng.fill"]
        m["rng.draw_fill_s"] = self_s["rng.fill"]
        m["rng.draws"] = c["rng.draws"]
        m["rng.draws_per_event"] = c["rng.draws"] / c["engine.events"] if c["engine.events"] else 0.0
        m["engine.replicas"] = c["engine.replicas"]
        m["engine.events"] = c["engine.events"]
        m["engine.simulate_self_s"] = self_s["engine.simulate"]
        sim = incl["engine.simulate"]
        m["engine.events_per_s"] = c["engine.events"] / sim if sim else 0.0
        for stop in ("extinct", "horizon", "cap"):
            m[f"engine.stop_{stop}"] = c[f"engine.stop_{stop}"]
        m["lattice.geometries"] = calls["lattice.geometry"]
        m["lattice.neighbor_codes_calls"] = calls["lattice.neighbor_codes"]
        m["lattice.neighbor_codes_s"] = self_s["lattice.neighbor_codes"]
        m["lattice.decode_calls"] = calls["lattice.decode"]
        m["lattice.decode_s"] = self_s["lattice.decode"]
        m["parallel.map_calls"] = calls["parallel.chunked_map"]
        m["parallel.chunks"] = c["parallel.chunks"]
        m["parallel.map_s"] = incl["parallel.chunked_map"]
        m["critical.probes"] = len(probe_s)
        # probes map one to one, in call order, onto estimate_survival spans
        phases = self.phases if len(self.phases) == len(probe_s) else [""] * len(probe_s)
        for ph in PHASES:
            m[f"critical.probe_s.{ph}"] = sum(s for s, p in zip(probe_s, phases) if p == ph)
        m["oracle.build_exact_calls"] = calls["oracle.build_exact"]
        m["oracle.states"] = c["oracle.states"]
        m["oracle.build_exact_s"] = self_s["oracle.build_exact"]
        m["oracle.transient_calls"] = calls["oracle.transient"]
        m["oracle.transient_s"] = self_s["oracle.transient"]
        m["oracle.union_spaces_s"] = self_s["oracle.brute_union_spaces"]
        m["saw.walks"] = calls["saw.sample_walk"]
        m["saw.steps"] = c["saw.steps"]
        m["saw.sample_walk_s"] = self_s["saw.sample_walk"]
        walk_s = self_s["saw.sample_walk"]
        m["saw.steps_per_s"] = c["saw.steps"] / walk_s if walk_s else 0.0
        m["saw.pair_stats_calls"] = calls["saw.pair_stats"]
        m["saw.pair_stats_s"] = self_s["saw.pair_stats"]
        m["graphical.bundles"] = calls["graphical.sample_clocks"]
        m["graphical.transmission_clocks"] = c["graphical.transmission_clocks"]
        m["graphical.sample_clocks_s"] = self_s["graphical.sample_clocks"]
        m["graphical.sir_from_clocks_s"] = self_s["graphical.sir_from_clocks"]
        m["graphical.clock_events"] = c["graphical.clock_events"]
        m["cli.write_s"] = self_s["cli.write"]
        for layer in LAYERS:
            m[f"{layer}.share"] = layer_self[layer] / wall
        m["bench.share"] = 1.0 - sum(layer_self.values()) / wall
        return m


class TracedGenerator:
    """A numpy Generator whose buffer fills (random, standard_exponential) are traced.

    fill(draw, size) is the traced call; every other method passes through.
    """

    __slots__ = ("_gen", "_fill")

    def __init__(self, gen: np.random.Generator, fill) -> None:
        self._gen = gen
        self._fill = fill

    def random(self, size=None):
        return self._fill(self._gen.random, size)

    def standard_exponential(self, size=None):
        return self._fill(self._gen.standard_exponential, size)

    def __getattr__(self, name):
        return getattr(self._gen, name)
