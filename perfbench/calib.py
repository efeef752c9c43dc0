"""A fixed reference job that measures how fast the machine runs right now.

    python3 perfbench/calib.py     # prints {"ref": <seconds>}

The benchmark's machine is shared: its speed for the same code moves by
a third and more from one minute to the next, for interpreter start-up
and numpy alike.  run.py therefore runs this job in a fresh process of
its own just before every unit it starts, so that nothing a unit does
can change it.  It scales a run's median times by
``REF_S`` over the median time of the job in that run.  It reports them
in *reference seconds*: seconds on this machine at the speed where the
job takes ``REF_S``.

The job mixes what twostage spends its time on: an interpreted loop
over dicts, tuples, a heap and float arithmetic, and numpy Generator
buffer fills.  It does not import twostage, so no change to the package
changes it.
"""
from __future__ import annotations

import heapq
import json
import math
import time

import numpy as np

# median time of reference_job() on the machine described in RESULTS.md
REF_S = 0.155

_LOOP = 70_000
_FILLS = 40
_FILL_SIZE = 8192


def reference_job() -> float:
    """Run the fixed job; return its wall time in seconds."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(20171104)
    total = 0.0
    for _ in range(_FILLS):
        total += float(gen.random(_FILL_SIZE)[-1]) + float(gen.standard_exponential(_FILL_SIZE)[-1])
    seen: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, int]] = []
    x = 0.5
    for i in range(_LOOP):
        x = (x * 3.9) % 1.0 + 1e-9
        key = (i & 255, (i >> 8) & 7)
        seen[key] = seen.get(key, 0.0) - math.log(x)
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    total += sum(seen.values())
    elapsed = time.perf_counter() - t0
    if not math.isfinite(total):
        raise RuntimeError("reference job produced a non-finite sum")
    return elapsed


if __name__ == "__main__":
    print(json.dumps({"ref": reference_job()}))
