"""Benchmark of the twostage package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats *units* of the named
workload (see workloads.py), each in a fresh interpreter started by
unit.py, until another unit would overrun S seconds.  The first two
units both run at ``workloads.unit_seed(NAME, N, 0)``, so every run checks
that one seed gives byte-identical output; the next ones run at
``unit_seed(NAME, N, 1)``, ``unit_seed(NAME, N, 2)``, ...

--trace 0 prints the end-to-end metrics: median unit wall time, median
set-up time (interpreter start to ready, over several extra set-ups as
well as every unit's), both in reference seconds (see calib.py), and
median peak resident memory.  --trace 1 runs
cycles of a lightly traced unit at the workload's worker count and at
one worker plus a fully traced one-worker unit, all at one seed, and
prints the per-layer metrics of tracer.py with the tracing overhead.

Standard output ends with one JSON line: correct, attempted and failed
(output checks) and metrics.  A provenance line precedes it.  Exit code
0 iff every check passed; 2 when the package source is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calib
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNIT = os.path.join(HERE, "unit.py")
CALIB = os.path.join(HERE, "calib.py")
WORK = os.path.join(ROOT, ".perfbench-work")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, units included, ends well within 180 s


def provenance(args) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                with open(f"{base}/{entry}/level") as lv, open(f"{base}/{entry}/type") as ty, open(
                    f"{base}/{entry}/size"
                ) as sz:
                    caches[f"L{lv.read().strip()}-{ty.read().strip()}"] = sz.read().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "size": workloads.SIZES[args.scale][args.workload],
        "workers": workloads.workers(args.workload),
        "trace": args.trace,
    }


class Runner:
    """Spawns units one at a time and keeps what they report."""

    def __init__(self, args, out_dir: str):
        self.args = args
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.setups: list[float] = []
        self.calibs: list[float] = []  # reference-job times, one before every unit
        self.units: list[dict] = []  # dicts from unit.py plus seed/mode/workers
        self.attempted = 0
        self.failed = 0
        size = workloads.SIZES[args.scale][args.workload]
        self.n_checks = len(workloads.CHECKS[args.workload](b"", 1, size))

    def reference(self) -> None:
        """Time calib.py's reference job in a process of its own."""
        proc = subprocess.run([sys.executable, CALIB], cwd=ROOT, capture_output=True, timeout=60, check=True)
        self.calibs.append(json.loads(proc.stdout.decode().strip().splitlines()[-1])["ref"])

    def spawn(self, seed: int, mode: str, n_workers: int) -> dict | None:
        self.reference()
        cmd = [
            sys.executable, UNIT,
            "--workload", self.args.workload,
            "--seed", str(seed),
            "--mode", mode,
            "--workers", str(n_workers),
            "--scale", self.args.scale,
            "--out-dir", self.out_dir,
        ]
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # the unit and its pool workers share a session: stop them all
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        report = None
        if proc.returncode == 0:
            try:
                report = json.loads(out.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                report = None
        if report is None:
            sys.stderr.write(f"perfbench: unit {mode} seed {seed} failed (exit {proc.returncode})\n")
            sys.stderr.write(err.decode(errors="replace")[-4000:])
        else:
            self.setups.append(report["ready"] - spawned)
        if mode == "setup":
            return report
        self.attempted += self.n_checks
        if report is None:
            self.failed += self.n_checks
            return None
        bad = [name for name, ok in report["checks"] if not ok]
        self.failed += len(bad)
        if bad:
            sys.stderr.write(f"perfbench: seed {seed} {mode}: failed checks {bad}\n")
        report.update(seed=seed, mode=mode, workers=n_workers)
        self.units.append(report)
        sys.stderr.write(
            f"perfbench: {mode} unit seed {seed} workers {n_workers}: wall {report['wall']:.3f} s, "
            f"setup {report['ready'] - spawned:.3f} s, peak {report['peak_rss_mb']:.1f} MB\n"
        )
        return report

    def same_output(self, reports: list[dict | None]) -> None:
        """One check: units run at one seed wrote byte-identical output."""
        self.attempted += 1
        digests = {r["digest"] for r in reports if r is not None}
        if len(digests) != 1 or None in reports:
            self.failed += 1
            sys.stderr.write("perfbench: outputs differ between units run at one seed\n")

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def median(values):
    return statistics.median(values) if values else float("nan")


def per_input(units: list[dict], key: str) -> float:
    """Median over the run's seeds of the mean value at each seed.

    Units 0 and 1 share a seed, and pooled workloads repeat seeds;
    averaging them first keeps one input from weighing more than
    another in a run of few units."""
    by_seed: dict[int, list[float]] = {}
    for u in units:
        by_seed.setdefault(u["seed"], []).append(u[key])
    return median([statistics.fmean(v) for v in by_seed.values()])


def another(run: Runner, t0: float, seconds: float, steps: int) -> bool:
    """Whether one more step, as long as the mean step so far, ends within the interval."""
    used = time.monotonic() - t0
    step = used / steps
    return used + step <= seconds and run.elapsed() + step <= DEADLINE_S - 10.0


def end_to_end(run: Runner, seconds: float) -> dict:
    n_workers = workloads.workers(run.args.workload)
    t0 = time.monotonic()
    seed0 = workloads.unit_seed(run.args.workload, run.args.seed, 0)
    # units 0 and 1 share a seed
    run.same_output([run.spawn(seed0, "plain", n_workers) for _ in range(2)])
    k = 2
    while another(run, t0, seconds, k):
        run.spawn(workloads.unit_seed(run.args.workload, run.args.seed, k - 1), "plain", n_workers)
        k += 1
    wall = per_input(run.units, "wall")
    setup = median(run.setups)
    # the machine's speed drifts over minutes: scale to reference seconds
    scale = calib.REF_S / median(run.calibs)
    sys.stderr.write(
        f"perfbench: measured wall {wall:.4f} s, setup {setup:.4f} s; "
        f"reference job {median(run.calibs):.4f} s over {len(run.calibs)} samples, scale {scale:.4f}\n"
    )
    return {
        "wall_s": wall * scale,
        "setup_s": setup * scale,
        "peak_rss_mb": per_input(run.units, "peak_rss_mb"),
    }


def per_layer(run: Runner, seconds: float) -> dict:
    n_workers = workloads.workers(run.args.workload)
    cycle = [("light", n_workers), ("light", 1), ("full", 1)]
    if n_workers == 1:
        cycle = cycle[1:]
    t0 = time.monotonic()
    k = 0
    while k == 0 or another(run, t0, seconds, k):
        seed = workloads.unit_seed(run.args.workload, run.args.seed, k)
        reports = {(mode, w): run.spawn(seed, mode, w) for mode, w in cycle}
        # the output records the worker count, so compare at one worker:
        # tracing must leave it byte-identical
        run.same_output([reports[("light", 1)], reports[("full", 1)]])
        k += 1

    def units(mode, w):
        return [u for u in run.units if u["mode"] == mode and u["workers"] == w]

    full = units("full", 1)
    light = units("light", n_workers)
    light1 = units("light", 1)
    metrics = {}
    for name in tracer.UNITS:
        source = light if name in tracer.FROM_LIGHT else full
        metrics[name] = median([u["layers"][name] for u in source if name in u["layers"]])
    map1 = median([u["layers"]["parallel.map_s"] for u in light1])
    mapw = metrics["parallel.map_s"]
    # one-worker chunk compute over the worker-seconds of the pool map
    metrics["parallel.efficiency"] = map1 / (n_workers * mapw) if n_workers > 1 and mapw > 0 else 0.0
    metrics["trace.wall_s"] = median([u["wall"] for u in full])
    metrics["trace.untraced_wall_s"] = median([u["wall"] for u in light1])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / metrics["trace.untraced_wall_s"]
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="twostage benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=tuple(workloads.SIZES), help="unit size (tiny: self-test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twostage", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source under {ROOT}/src/twostage\n")
        return 2

    print(json.dumps({"provenance": provenance(args)}), flush=True)
    out_dir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        run = Runner(args, out_dir)
        for _ in range(SETUP_PROBES):
            run.spawn(args.seed, "setup", 1)
        values = (per_layer if args.trace else end_to_end)(run, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    units = tracer.UNITS if args.trace else END_TO_END
    result = {
        "correct": run.failed == 0 and bool(run.units),
        "attempted": run.attempted,
        "failed": run.failed,
        # a failed unit can leave a metric without samples (NaN, not JSON)
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}
        if all(math.isfinite(values[n]) for n in units)
        else {},
    }
    sys.stderr.write(f"perfbench: {args.workload} seed {args.seed}: {len(run.units)} units\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
