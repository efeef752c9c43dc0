"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every run prints the metrics BENCHMARK.json names, with
their units; that each output checker fails on a corrupted output; that
pooled workloads draw unit seeds from their pool and the others do not;
that the reference job runs; and that the benchmark refuses to run where
the package source is missing.
Run it from any directory; it writes only under the checkout's
.perfbench-work/.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work", f"selftest-{os.getpid()}")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def unit_output(name: str, seed: int = 3) -> bytes:
    """The output file of one tiny unit."""
    out_dir = os.path.join(WORK, "units")
    os.makedirs(out_dir, exist_ok=True)
    n_workers = workloads.workers(name)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "unit.py"), "--workload", name, "--seed", str(seed),
         "--mode", "plain", "--workers", str(n_workers), "--scale", "tiny", "--out-dir", out_dir],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    path = os.path.join(out_dir, f"{name}-{seed}-plain-{n_workers}.out")
    with open(path, "rb") as fh:
        return fh.read()


def failed(name: str, data: bytes, code: int = 0) -> list[str]:
    size = workloads.SIZES["tiny"][name]
    return [check for check, ok in workloads.CHECKS[name](data, code, size) if not ok]


class MetricsEmitted(unittest.TestCase):
    """Each workload, traced and not, prints exactly the declared metrics."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        cls.expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_workloads_match(self):
        self.assertEqual(sorted(self.workloads), sorted(workloads.NAMES))

    def test_metrics_and_units(self):
        for name in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "5", "--seconds", "1",
                                 "--trace", str(trace), "--scale", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, self.expected[trace])
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)


class CheckersCatchCorruption(unittest.TestCase):
    """A real tiny output passes; a corrupted copy fails the named check."""

    def test_trend(self):
        data = unit_output("trend-d4-d8")
        self.assertEqual(failed("trend-d4-d8", data), [])
        self.assertEqual(failed("trend-d4-d8", data, code=3)[0], "exit-0")
        lines = data.decode().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("4,"))
        d, lam, scaled, target = lines[row].split(",")
        bad = lines[:]
        bad[row] = f"{d},0.3,{scaled},{target}"  # below the d=4 lower bound 0.375
        self.assertIn("lambda_hat>=lower_bound[d=4]", failed("trend-d4-d8", "\n".join(bad).encode()))
        bad[row] = f"{d},{lam},{scaled},2.5"
        self.assertIn("target[d=4]", failed("trend-d4-d8", "\n".join(bad).encode()))
        bad[row] = f"{d},{lam},2.0,{target}"  # d=8 now far above d=4
        self.assertIn("trend-slack[d=4,8]", failed("trend-d4-d8", "\n".join(bad).encode()))

    def test_oracle(self):
        data = unit_output("oracle-ring")
        self.assertEqual(failed("oracle-ring", data), [])
        flipped = data.replace(b"marginals-ring-sir,pass", b"marginals-ring-sir,FAIL")
        self.assertEqual(failed("oracle-ring", flipped), ["marginals-ring-sir"])
        self.assertEqual(failed("oracle-ring", data, code=1), ["exit-0"])

    def test_sawbound(self):
        data = unit_output("sawbound-d12")
        self.assertEqual(failed("sawbound-d12", data), [])
        records = [json.loads(ln) for ln in data.decode().splitlines()]
        result = next(r for r in records if r["record"] == "result")

        def corrupt(**changes) -> bytes:
            lines = [json.dumps(dict(r, **changes) if r is result else r) for r in records]
            return "\n".join(lines).encode()

        self.assertIn("0<bound<=1", failed("sawbound-d12", corrupt(bound=1.5)))
        self.assertIn("ci_low<=bound<=ci_high", failed("sawbound-d12", corrupt(ci_low=result["bound"] * 2)))
        dropped = b"\n".join(ln for ln in data.splitlines() if b'"n":20,' not in ln)
        self.assertEqual(failed("sawbound-d12", dropped), ["convergence[n=20]"])

    def test_clock(self):
        data = unit_output("clock-sir-d3")
        self.assertEqual(failed("clock-sir-d3", data), [])
        record = json.loads(data)
        events = record["events"]
        self.assertGreater(len(events), 1)
        swapped = dict(record, events=[events[1], events[0]] + events[2:])
        self.assertIn("event-times-nondecreasing", failed("clock-sir-d3", json.dumps(swapped).encode()))
        no_origin = dict(record, ever_full=[x for x in record["ever_full"] if any(x)])
        self.assertIn("origin-ever-fully-infected", failed("clock-sir-d3", json.dumps(no_origin).encode()))
        endless = dict(record, extinction_time=float("inf"))
        self.assertIn("extinction-time-finite", failed("clock-sir-d3", json.dumps(endless).encode()))

    def test_missing_output_fails_every_check(self):
        for name in workloads.NAMES:
            size = workloads.SIZES["tiny"][name]
            self.assertTrue(all(not ok for _, ok in workloads.CHECKS[name](b"", 1, size)), name)


class SeedsAndReference(unittest.TestCase):
    def test_pooled_seeds_stay_in_their_pool(self):
        for name, size in workloads.POOLS.items():
            pool = set(workloads.pool(name))
            self.assertEqual(len(pool), size, name)
            for run_seed in range(20):
                seeds = [workloads.unit_seed(name, run_seed, k) for k in range(size + 1)]
                self.assertTrue(set(seeds) <= pool, name)
                # a run of more units than the pool holds visits every seed
                self.assertEqual(set(seeds), pool, name)
            starts = {workloads.unit_seed(name, run_seed, 0) for run_seed in range(20)}
            self.assertGreater(len(starts), 1, name)

    def test_other_workloads_take_fresh_seeds(self):
        for name in set(workloads.NAMES) - set(workloads.POOLS):
            seeds = {workloads.unit_seed(name, run_seed, k) for run_seed in range(5) for k in range(5)}
            self.assertEqual(len(seeds), 25, name)

    def test_reference_job_reports_a_time(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "calib.py")], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertGreater(json.loads(proc.stdout)["ref"], 0.0)


class RefusesWithoutPackage(unittest.TestCase):
    def test_bare_directory(self):
        bare = os.path.join(WORK, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", "oracle-ring", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass
