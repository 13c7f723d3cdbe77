"""Kernel-tier registry for the batch simulation kernels.

`repro.sim.compiled` exposes two batch entry points —
``run_fixed_batch`` and ``run_dynamic_batch`` — and this package owns
*how* they execute.  Three tiers implement the same contract
(bit-identical floats, same error classes):

``legacy``
    The original entry-tuple loop kept verbatim inside
    ``repro.sim.compiled``.  Exists for differential testing: every
    other tier is pinned exact-float-equal to it by the golden suites.
``numpy``
    The tape interpreter (:mod:`.interp`) — programs lowered once to
    flat arrays (:mod:`.tape`), each OR-path prefix executed once for
    every run below it and every scheme of the call, processor state
    kept processor-major, per-point constants gathered a section at a
    time.  The default when numba is absent.
``jit``
    numba-compiled scalar cores over the same tape
    (:mod:`.jit` / :mod:`.jitcore`), ``fastmath=False`` so IEEE
    ordering and NaN semantics — and therefore bit-identity — hold.
    Requires the optional ``[jit]`` extra; ``auto`` falls back to
    ``numpy`` with a one-time warning when numba is missing.

``legacy`` and ``jit`` run one scheme per kernel call; the dispatchers
in ``repro.sim.compiled`` loop them over a call's schemes.

The tier is an execution knob, never a result knob: it is excluded
from the evaluation-cache key and only recorded in
``series.meta["kernel"]`` for observability.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional

from ...errors import ConfigError
from .tape import (  # noqa: F401  (re-exported)
    ProgramTape,
    SectionTape,
    build_tape,
    clear_tape_cache,
    tape_cache_stats,
)

#: the registered tiers, in documentation order
TIERS = ("legacy", "numpy", "jit")

#: session default consulted when ``RunConfig.kernel_tier`` is None —
#: the tape interpreter, so a default install never warns about the
#: missing [jit] extra; ``auto``/``jit`` are explicit opt-ins.  Read at
#: resolve time (module attribute) so tests can monkeypatch it,
#: mirroring ``engine.DEFAULT_BACKEND``
DEFAULT_KERNEL_TIER = os.environ.get("REPRO_KERNEL_TIER", "numpy")

_jit_probe: Optional[bool] = None
_warned_no_jit = False


def jit_available() -> bool:
    """Whether numba is importable (probed once per process)."""
    global _jit_probe
    if _jit_probe is None:
        try:
            import numba  # noqa: F401
        except ImportError:
            _jit_probe = False
        else:
            _jit_probe = True
    return _jit_probe


def resolve_kernel_tier(tier: Optional[str] = None) -> str:
    """Resolve a requested tier (or None for the session default) to a
    concrete registered tier.

    ``auto`` and ``jit`` select the numba tier when it is importable
    and otherwise fall back to ``numpy``, warning once per process so a
    missing extra never silently changes what users think they asked
    for.  Already-concrete tiers pass through, so resolving twice is
    idempotent.
    """
    global _warned_no_jit
    if tier is None:
        tier = DEFAULT_KERNEL_TIER
    if tier in ("auto", "jit"):
        if jit_available():
            return "jit"
        if not _warned_no_jit:
            _warned_no_jit = True
            warnings.warn(
                "numba is not installed; kernel tier "
                f"{tier!r} falls back to the numpy tape interpreter "
                "(pip install 'repro[jit]' for the JIT tier)",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy"
    if tier not in TIERS:
        raise ConfigError(
            f"unknown kernel tier {tier!r}; expected one of "
            f"{('auto',) + TIERS}"
        )
    return tier


def get_kernels(tier: str):
    """The ``(run_fixed, run_dynamic)`` implementations of a resolved
    tier.  Imports lazily: ``legacy`` lives in ``repro.sim.compiled``
    (which imports this package from inside its dispatchers), and the
    jit driver is only pulled in when actually selected."""
    if tier == "legacy":
        from ..compiled import _run_dynamic_legacy, _run_fixed_legacy

        return _run_fixed_legacy, _run_dynamic_legacy
    if tier == "numpy":
        from .interp import run_dynamic_tape, run_fixed_tape

        return run_fixed_tape, run_dynamic_tape
    if tier == "jit":
        from .jit import run_dynamic_jit, run_fixed_jit

        return run_fixed_jit, run_dynamic_jit
    raise ConfigError(f"unknown kernel tier {tier!r}")


def kernel_meta(tier: Optional[str] = None) -> Dict[str, object]:
    """Observability snapshot for ``series.meta["kernel"]``: the
    resolved tier plus the compile-side cache counters."""
    from ..compiled import program_cache_stats
    from ..sweepc import stacked_cache_stats

    return {
        "tier": resolve_kernel_tier(tier),
        "program_cache": program_cache_stats(),
        "tape_cache": tape_cache_stats(),
        "stacked_cache": stacked_cache_stats(),
    }
