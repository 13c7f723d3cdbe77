"""Sweep compiler: stack per-point section programs into one array program.

:mod:`repro.sim.compiled` made one evaluation point fast; a sweep still
paid a full kernel invocation — and, before this layer, a process-pool
round-trip — per point.  For the sweeps the paper's figures are built
from (load and α grids over one graph shape), every point compiles to a
*structurally identical* section program: same sections, same dispatch
order, same realization columns — only the float constants differ (WCET
stays put, but the finish bounds, deadline and branch statistics scale
with the point's load/α).  This module exploits that: it **stacks** the
per-point programs into one :class:`StackedProgram` whose varying
constants become ``(n_points,)`` vectors, so the batch kernels in
:mod:`repro.sim.compiled` can execute the whole ``points × runs`` axis
in one pass, gathering each run's point constants through a ``point_of``
index.

**Bit-identity.**  Stacking never changes a single float: a fused kernel
performs exactly the per-point kernels' elementwise operations with each
run's own point constants gathered into position, so per-run outputs are
equal bit for bit to evaluating every point on its own — the same
contract the compiled kernels hold against the dict engine
(``tests/property/test_fused_equivalence``).

Structural compatibility is checked, never assumed:
:func:`stack_programs` returns ``None`` for heterogeneous point sets
(different graphs, different processor counts), and the caller
(:mod:`repro.experiments.fused`) falls back to per-point evaluation —
pooled at the *point* level when a pool is available.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .compiled import CompiledPlan, _CompiledSection

#: a per-entry constant in a stacked program: a plain float when every
#: point agrees, else one value per point
Stacked = Union[float, np.ndarray]

#: coarse multiplier of the realization-matrix footprint covering the
#: batch kernels' per-run scratch lanes (actual/speed/wall/energy per
#: slot plus the path-grouped gathers); used only to pick a shard count
#: against a memory budget, never to allocate
FUSED_MEM_FACTOR = 6.0


def plan_shards(n_runs: int, shards: int) -> List[tuple]:
    """Deterministic near-equal run ranges ``[(lo, hi), ...]``.

    Partitions the run axis — every point keeps all its points-axis
    structure; a shard is the same sweep over a contiguous slice of
    each point's run rows.  The requested count is clamped into
    ``[1, n_runs]`` (a shard must hold at least one run), the first
    ``n_runs % shards`` ranges take the extra run, and ranges tile
    ``[0, n_runs)`` exactly: run ``r`` lands in precisely one shard,
    in run order, so a concat in shard-index order reproduces the
    monolithic run axis.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    k = max(1, min(int(shards), n_runs))
    base, rem = divmod(n_runs, k)
    ranges = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < rem else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def fused_bytes_estimate(prog, total_runs: int) -> int:
    """Rough peak-memory bytes of one fused pass over ``total_runs`` rows.

    The dominant allocations scale with the run axis: the float64
    realization matrix (``total_runs × n_cols``) plus the kernels'
    per-slot scratch, folded into :data:`FUSED_MEM_FACTOR`.  Accepts a
    :class:`CompiledPlan` or :class:`StackedProgram` (both expose
    ``comp_names``/``n_slots``).  Intentionally coarse — it only
    informs automatic shard-count selection against ``--shard-mem-mb``.
    """
    n_cols = max(len(prog.comp_names), 1)
    per_run = 8.0 * (n_cols + prog.n_slots) * FUSED_MEM_FACTOR
    return int(per_run * max(total_runs, 0))


def _stack_values(values: Sequence[float]) -> Stacked:
    """Collapse one per-point constant column to a scalar when possible.

    Keeping constants scalar where the points agree (WCETs in a load
    sweep, the deadline in an α sweep) keeps those kernel operations
    scalar-broadcast — cheaper, and trivially identical to the
    per-point kernels.
    """
    arr = np.asarray(values, dtype=float)
    first = arr.flat[0]
    if np.all(arr == first):
        return float(first)
    return arr


def programs_compatible(a: CompiledPlan, b: CompiledPlan) -> bool:
    """Whether two section programs share executable structure.

    Compatible means: same processor count, same realization columns,
    same sections with the same dispatch order, slots, intra-section
    predecessor lists and branch topology.  The float constants (WCET,
    finish bound, deadline, branch statistics) are allowed to differ —
    they are exactly what stacking vectorizes.
    """
    if (a.m != b.m or a.root_sid != b.root_sid
            or a.n_slots != b.n_slots or a.comp_names != b.comp_names
            or a.sections.keys() != b.sections.keys()):
        return False
    for sid, sa in a.sections.items():
        sb = b.sections[sid]
        if (sa.exit_or != sb.exit_or or sa.branch_ids != sb.branch_ids
                or len(sa.entries) != len(sb.entries)):
            return False
        for ea, eb in zip(sa.entries, sb.entries):
            # (is_and, gid, col, c, fb, name, preds): everything but the
            # float constants c/fb must match exactly
            if (ea[0] != eb[0] or ea[1] != eb[1] or ea[2] != eb[2]
                    or ea[5] != eb[5] or ea[6] != eb[6]):
                return False
        if sa.branch_stats.keys() != sb.branch_stats.keys():
            return False
    return True


class StackedProgram:
    """One array program covering every point of a homogeneous sweep.

    Structurally a :class:`~repro.sim.compiled.CompiledPlan` — same
    section/entry layout, consumed by the same batch kernels — whose
    float constants are :data:`Stacked`: scalars where the points
    agree, ``(n_points,)`` vectors where they differ.  The kernels
    gather a group's values with ``point_of`` (the per-run point index)
    and otherwise run unchanged.

    Holds no scratch buffers: stacked programs only ever run through
    the batch kernels, never the scalar one.
    """

    def __init__(self, progs: Sequence[CompiledPlan]):
        base = progs[0]
        self.n_points = len(progs)
        self.m = base.m
        self.root_sid = base.root_sid
        self.n_slots = base.n_slots
        self.comp_names = list(base.comp_names)
        self.deadline: Stacked = _stack_values([p.deadline for p in progs])

        self.sections = {}
        for sid, sec in base.sections.items():
            entries = []
            for k, (is_and, gid, col, _c, _fb, name, preds) in \
                    enumerate(sec.entries):
                if is_and:
                    entries.append((True, gid, -1, 0.0, 0.0, name, preds))
                    continue
                c = _stack_values([p.sections[sid].entries[k][3]
                                   for p in progs])
                fb = _stack_values([p.sections[sid].entries[k][4]
                                    for p in progs])
                entries.append((False, gid, col, c, fb, name, preds))
            branch_stats = {}
            for target in sec.branch_stats:
                worst = _stack_values(
                    [p.sections[sid].branch_stats[target][0] for p in progs])
                average = _stack_values(
                    [p.sections[sid].branch_stats[target][1] for p in progs])
                branch_stats[target] = (worst, average)
            self.sections[sid] = _CompiledSection(
                sid, tuple(entries), sec.exit_or, sec.branch_ids,
                branch_stats)

    # path grouping only reads section topology (exit_or / forced_target
    # / branch_ids), which stacking preserves verbatim — borrow the
    # plan implementations unchanged
    executed_paths = CompiledPlan.executed_paths
    realization_matrix = CompiledPlan.realization_matrix


#: stacked programs keyed by the tuple of point-program fingerprints:
#: re-sweeping the same point set (a report rebuilding a figure, a
#: cache-warm benchmark pass) reuses the stacked program *and* the tape
#: lowered onto it, instead of re-stacking per sweep.  Per-process,
#: bounded LRU, like the compiled-program cache.
_STACKED_CACHE: "OrderedDict[tuple, StackedProgram]" = OrderedDict()
_STACKED_CACHE_MAX = 8
_stacked_hits = 0
_stacked_misses = 0


def stacked_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of this process's stacked-program cache."""
    return {"hits": _stacked_hits, "misses": _stacked_misses,
            "size": len(_STACKED_CACHE)}


def clear_stacked_cache() -> None:
    """Drop every cached stacked program and reset the counters."""
    global _stacked_hits, _stacked_misses
    _STACKED_CACHE.clear()
    _stacked_hits = 0
    _stacked_misses = 0


def stack_programs(progs: Sequence[CompiledPlan]
                   ) -> Optional[StackedProgram]:
    """Stack compatible per-point programs, or ``None``.

    ``None`` means the points do not share section-program structure —
    the fused path must fall back to per-point evaluation.  Results are
    cached by the tuple of point-program fingerprints when every input
    carries one (i.e. came through ``compile_plan``'s cache); stacked
    programs are immutable once built, so sharing them across identical
    point sets cannot leak state.
    """
    global _stacked_hits, _stacked_misses
    if not progs:
        return None
    base = progs[0]
    for other in progs[1:]:
        if not programs_compatible(base, other):
            return None
    fps = tuple(getattr(p, "fingerprint", None) for p in progs)
    key = fps if all(fp is not None for fp in fps) else None
    if key is not None:
        stacked = _STACKED_CACHE.get(key)
        if stacked is not None:
            _stacked_hits += 1
            _STACKED_CACHE.move_to_end(key)
            return stacked
    _stacked_misses += 1
    stacked = StackedProgram(progs)
    if key is not None:
        _STACKED_CACHE[key] = stacked
        while len(_STACKED_CACHE) > _STACKED_CACHE_MAX:
            _STACKED_CACHE.popitem(last=False)
    return stacked
