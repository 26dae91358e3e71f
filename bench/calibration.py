"""Host-speed calibration for the benchmark's timings.

On a shared host the other tenants slow every process down, by up to about
2x, in stretches that last from seconds to many minutes, so a wall time taken
at one moment and one taken minutes later differ mostly by the host. CPU time
does not help: the slowdown comes from contention for caches and cores, not
from time taken away, and it slows the process's own CPU time just as much.

So each timed call is bracketed by a short, fixed, pure-Python kernel (dicts,
f-strings, json, regex, sorting: the kind of work the program does) that uses
only the standard library and never changes with the program. The call's time
is rescaled to a host on which that kernel takes `REFERENCE_S`:

    normalized = elapsed * REFERENCE_S / kernel time around the call

A change to the program moves `elapsed` and not the kernel, so it shows in the
normalized figure one for one; a change in the host's speed moves both and
cancels. The raw wall times stay in the benchmark's report line.
"""

from __future__ import annotations

import gc
import json
import re
from random import Random
from time import perf_counter

REFERENCE_S = 0.010  # the kernel's time on the reference host, in seconds
_ROUNDS = 400  # about REFERENCE_S on an unloaded 2-vCPU cloud VM with Python 3.11
_NUMBER = re.compile(r"\d+\.\d+")


def kernel() -> int:
    """A fixed amount of mixed interpreter work; returns a checksum so that
    none of it can be skipped."""
    rng = Random(7)
    acc = 0
    for i in range(_ROUNDS):
        record = {"id": f"x{i:05d}", "values": [rng.random() for _ in range(8)],
                  "name": "abc" * (i % 5)}
        text = json.dumps(record, sort_keys=True)
        acc += len(_NUMBER.findall(text))
        acc += len(sorted(record["values"]))
        acc += len(json.loads(text)["values"])
    return acc


def measure() -> float:
    """Runs the kernel once from a clean collector state; returns its wall
    time in seconds."""
    gc.collect()
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def normalize(elapsed: float, before: float, after: float) -> float:
    """`elapsed`, rescaled from the host speed that the kernel times around it
    show to the reference host."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
