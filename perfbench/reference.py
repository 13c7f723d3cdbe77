"""A fixed reference job that measures the host's current speed.

The benchmark's host is a share of a machine whose speed switches
between levels (up to about 1.9x apart) for seconds to minutes at a
time, so a run's raw rate says as much about the neighbours as about
the program.  The timed loop runs this job before the first call and
after every call; each call's time is divided by the mean of the two
jobs around it, so the gated rate is counted in reference jobs instead
of seconds and a host slowdown that hits both cancels out.

The job is the benchmark's own code and never imports the program, so a
change to the program cannot change it.  It mixes the kinds of work the
program does, because a slow phase of the host slows them by different
factors: numpy on (points x runs) float arrays of the size the batch
kernels see, an interpreted loop of numpy calls on short arrays (the
per-call overhead regime), an interpreted dict loop, and random reads
from an 8 MB array.  It takes about 25 ms on a 2-vCPU x86_64 virtual
machine and returns a checksum that is the same on every call.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

#: (rows, columns) of the vector part: 10 points x 1000 runs
SHAPE = (10, 1000)
VECTOR_ROUNDS = 20
SHORT_LENGTH = 200
SHORT_ROUNDS = 750
LOOP_ITERATIONS = 15000
#: 8 MB of float64, read at 250k random places and then in order
LARGE_LENGTH = 1_000_000
LARGE_READS = 250_000

_arrays = {}


def _array(name: str) -> np.ndarray:
    """The job's fixed input arrays, made once per process."""
    if not _arrays:
        rng = np.random.default_rng(1)
        _arrays["short"] = rng.random(SHORT_LENGTH)
        _arrays["large"] = rng.random(LARGE_LENGTH)
        _arrays["reads"] = rng.integers(0, LARGE_LENGTH, LARGE_READS)
    return _arrays[name]


def _vector_part() -> float:
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(VECTOR_ROUNDS):
        a = rng.random(SHAPE)
        b = np.cumsum(a, axis=1)
        c = np.where(b > 250.0, b, a * 2.0)
        order = np.argsort(c[0])
        acc += float(c[:, order].sum() + np.minimum(a, 0.5).sum())
    return acc


def _short_part() -> float:
    a = _array("short")
    acc = 0.0
    for i in range(SHORT_ROUNDS):
        b = a * 1.5 + i
        m = np.minimum(b, 100.0)
        acc += float(m[int(np.argmin(m))]) + float(np.sum(b > 50.0))
    return acc


def _loop_part() -> int:
    table = {}
    total = 0
    for i in range(LOOP_ITERATIONS):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        total += key & 15
    return total + len(table)


def _memory_part() -> float:
    large = _array("large")
    return float(np.take(large, _array("reads")).sum() + large[::8].sum())


def reference_job() -> Tuple[float, float]:
    """Run the job once: (seconds it took, checksum)."""
    _array("large")
    start = time.perf_counter()
    checksum = (_vector_part() + _short_part() + _loop_part()
                + _memory_part())
    return time.perf_counter() - start, checksum
