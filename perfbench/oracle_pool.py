"""Check that every seed of the oracle-ring pool passes oracle-check.

    python3 perfbench/oracle_pool.py

Runs the full-size oracle-ring unit (see workloads.py) once at each pool
seed, serially in this process, and prints one line per seed with the
two marginal rows' details.  Exit code 0 iff every row of every seed
passed.  Takes about two minutes on a 2-vCPU machine; writes only under
the checkout's .perfbench-work/.
"""
from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

from twostage import cli  # noqa: E402


def main() -> int:
    size = workloads.SIZES["full"]["oracle-ring"]
    work = os.path.join(ROOT, ".perfbench-work", f"pool-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    bad = 0
    try:
        for i, seed in enumerate(workloads.pool("oracle-ring")):
            out = os.path.join(work, f"{seed}.out")
            code = cli.main(workloads.cli_argv("oracle-ring", size, seed, 1, out))
            with open(out, "rb") as fh:
                data = fh.read()
            failed = [name for name, ok in workloads.check_oracle(data, code, size) if not ok]
            marginals = [r for r in workloads._csv_rows(data, 2) if r[0].startswith("marginals")]
            detail = "; ".join(f"{r[0]}: {r[2]}" for r in marginals)
            print(f"{i:3d} seed {seed:10d} {'FAIL ' + ','.join(failed) if failed else 'pass'}  {detail}", flush=True)
            bad += bool(failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n = workloads.POOLS["oracle-ring"]
    print(f"{n - bad} of {n} pool seeds pass")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
