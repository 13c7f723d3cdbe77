"""The batch simulation kernels over a program's lowered tape.

`repro.sim.compiled` exposes two batch entry points —
``run_fixed_batch`` and ``run_dynamic_batch`` — which are the tape
kernels of :mod:`.interp`: programs are lowered once to flat arrays
(:mod:`.tape`), each OR-path prefix executes once for every run below
it and every scheme of the call, processor state is kept
processor-major, and per-point constants are gathered a section at a
time.  They are pinned bit-identical to the dict engine and the
Figure 2 event engine by the golden suites.
"""

from __future__ import annotations

from typing import Dict

from .tape import (  # noqa: F401  (re-exported)
    ProgramTape,
    SectionTape,
    build_tape,
    clear_tape_cache,
    tape_cache_stats,
)


def resolve_kernel_tier(_tier=None) -> str:
    """The kernel implementation in use: always ``"numpy"``, the tape.

    Kept, and still accepting one ignored argument, because the repo
    benchmark (``perfbench/run.py``) records it in its host record as
    ``resolve_kernel_tier(None)``.
    """
    return "numpy"


def kernel_meta() -> Dict[str, object]:
    """Observability snapshot for ``series.meta["kernel"]``: the
    compile-side cache counters."""
    from ..compiled import program_cache_stats
    from ..sweepc import stacked_cache_stats

    return {
        "program_cache": program_cache_stats(),
        "tape_cache": tape_cache_stats(),
        "stacked_cache": stacked_cache_stats(),
    }
