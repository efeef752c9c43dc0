"""One unit of a benchmark workload, in a fresh interpreter.

    python3 perfbench/unit.py --workload NAME --seed N --mode MODE
        --workers W --scale full|tiny --out-dir DIR

MODE is ``setup`` (set up, then exit), ``plain`` (no tracing),
``light`` (parent-side spans: cli.main, critical, parallel) or ``full``
(every layer; see tracer.py).  Set-up is interpreter start, ``import
twostage`` and argument resolution; it ends at the ``ready`` timestamp,
taken on the system-wide monotonic clock so the parent can subtract its
own spawn time.  The timed part runs from the first call into the
package to the checked result.  The last stdout line is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (sibling module; path set above)


def prepare_cli(name: str, size: dict, seed: int, n_workers: int, out: str):
    from twostage import cli

    argv = workloads.cli_argv(name, size, seed, n_workers, out)
    cli.build_parser().parse_args(argv)

    def job() -> tuple[int, bytes]:
        code = cli.main(argv)
        with open(out, "rb") as fh:
            return code, fh.read()

    return job


def prepare_clock(size: dict, seed: int, out: str):
    from twostage import graphical, rng
    from twostage.engine import FULL, SparseConfig
    from twostage.lattice import Box, LatticeGeometry, origin
    from twostage.params import ProcessParams

    region = frozenset(LatticeGeometry(workloads.CLOCK_D, Box(workloads.CLOCK_RADIUS)).sites())
    p = ProcessParams(**workloads.CLOCK_RATES)
    init = SparseConfig(states={origin(workloads.CLOCK_D): FULL})

    def job() -> tuple[int, bytes]:
        lines = []
        for i in range(size["bundles"]):
            # module attributes, so a traced run sees its wrappers
            clocks = graphical.sample_clocks(region, p, rng.substream(seed, i))
            traj = graphical.sir_from_clocks(clocks, init)
            record = {
                "bundle": i,
                "extinction_time": traj.extinction_time,
                "ever_full": sorted(traj.ever_fully_infected),
                "events": traj.events,
            }
            lines.append(json.dumps(record, separators=(",", ":")) + "\n")
        data = "".join(lines).encode()
        with open(out, "wb") as fh:
            fh.write(data)
        return 0, data

    return job


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "light", "full"))
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=tuple(workloads.SIZES))
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    size = workloads.SIZES[args.scale][args.workload]
    out = os.path.join(args.out_dir, f"{args.workload}-{args.seed}-{args.mode}-{args.workers}.out")

    import twostage  # noqa: F401  (import cost belongs to set-up)

    if args.workload == "clock-sir-d3":
        job = prepare_clock(size, args.seed, out)
    else:
        job = prepare_cli(args.workload, size, args.seed, args.workers, out)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    recorder = None
    if args.mode != "plain":
        import tracer

        recorder = tracer.Tracer()
        recorder.install(args.mode)

    t0 = time.perf_counter()
    try:
        code, data = job()
    except Exception:  # a crash is a failed unit, reported through its checks
        traceback.print_exc()
        code, data = 1, b""
    checks = workloads.CHECKS[args.workload](data, code, size)
    wall = time.perf_counter() - t0

    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result = {
        "ready": ready,
        "wall": wall,
        "peak_rss_mb": rss_kb / 1024.0,
        "checks": checks,
        "digest": hashlib.sha256(data).hexdigest(),
    }
    if recorder is not None:
        layers = recorder.metrics(wall)
        layers["cli.write_bytes"] = len(data) if args.workload != "clock-sir-d3" else 0
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
