"""The batch simulation kernels: one walk over the lowered tape.

The kernels walk the **prefix trie** of a call's executed paths.  Every
path starts at the root section and forks only at OR nodes, where all
processors synchronize; so runs whose paths share a prefix run that
prefix identically up to the fork.  The runs are ordered once so every
trie subtree is one contiguous row range, and each section executes
once for all runs under its trie node: the root once for the whole
batch, a shared prefix once for every path below it.  At an OR split a
child inherits only what the synchronization carries: each run's
section end time ``t_end`` and, in the dynamic kernel, each processor's
speed-level index and the run's floor.  These live in whole-batch
arrays in trie order, so a child reads them as slices; everything else
(processor free times, the finish buffer, the section's actual times)
is sized per section and released before the walk descends.

**Scheme axis.**  One walk runs several schemes over the same runs.
The schemes of a batch see the same realizations and, per kernel, the
same program (every dynamic scheme runs on the reserve plan, every
fixed speed on the static one); only the speed rule differs.  So the
WCET precheck, the trie, the run order and each node's actual-time
gather happen once per call, and every piece of per-run state gains a
trailing scheme axis: ``(runs, k)`` in trie order, so a node's rows
stay one contiguous slice for all ``k`` schemes.  Per-scheme constants
(fixed speed, floor, floor step) are ``(1, k)`` rows, or ``(runs, k)``
when a fused stack makes them per point.  The dynamic kernel writes
every floor as a step ``where(t < θ, f_lo, f_hi)``; a constant floor
has ``f_lo == f_hi`` (an exact selection), and OR re-speculation
rewrites only the columns of the schemes that declare it (``average``
for AS, ``worst`` for PS).  :data:`_WALK_ROWS` caps ``k × runs`` per
walk; the schemes beyond it go into further walks over the same trie.

Inside a section the processor state is processor-major, ``(m, runs,
k)`` read as ``m`` processors by ``runs·k`` columns: the lowest-id idle
processor is one contiguous ``min`` reduction plus a weighted ``max``
over the equality mask (the first minimum, exactly ``argmin``'s
tie-break), and its free time and speed index are updated through flat
indices.  Predecessor readiness is a row gather and ``max`` over the
section's finish buffer, and a stacked section's per-point constants
are gathered for every entry at once.

Bit-identity with the dict engine (:func:`repro.sim.engine.simulate`)
holds operation by operation:

* every (scheme, run) quantity sees the same float operations in the
  same order — a shared prefix computes, for each of its runs and
  schemes, exactly what simulating that run's path under that scheme
  on its own computes, and broadcasting a scalar or a per-run column
  over the scheme axis changes no float;
* a readiness ``max`` over several predecessors equals the engine's
  running maximum exactly — max is associative and exact on floats —
  and the section's end time is the same fold over the finish
  buffer's rows;
* the lowest-id idle processor's free time *is* the column minimum, so
  no gather is needed;
* the per-entry constant is the same float whether read from the
  Python tuple or a broadcast row of ``c_pt``;
* the fixed kernel batches ``actual / speed`` and the busy-energy
  product per section (identical elementwise operations, consumed row
  by row in entry order).

Error classes and messages match the scalar kernel's.  The WCET check
runs once per call, ahead of the walks, in path-group order: one
column-max comparison against the tape's smallest per-column guard
clears the common case, and otherwise each group re-scans its path
section by section, so the raised error names the first group, the
first entry in path order with a violating run, and the first
violating run of that group.  Guarantee, deadline and negative-idle
errors name the first failing run in *trie order* — guarantee errors
at the first section of the depth-first walk that violates.  A walk of
several schemes that raises is replayed one scheme at a time, so the
error is the one a per-scheme loop raises: the first failing scheme's,
in the order the caller listed them.  Realization sampling clamps actuals to
WCET and the offline plans guarantee feasibility, so these paths fire
only on doctored batches.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ...errors import DeadlineMissError, SimulationError
from ...power.model import PowerModel
from ...power.overhead import OverheadModel
from ..compiled import _EPS, DynamicBatchResult, FixedBatchResult
from .tape import build_tape

#: up to this many columns (runs × schemes) a section picks processors
#: with ``argmin`` (fewer calls); above it the contiguous reductions win
_SMALL_SECTION = 256

#: at most this many rows (runs × schemes) per walk, unless one scheme
#: alone has more.  Stacking schemes saves per-entry dispatch, which
#: dominates small batches, and loses once a walk's arrays outgrow the
#: caches (docs/internals.md, "Scheme axis", has the measured crossover)
_WALK_ROWS = 2 ** 14


def _check_wcet(st, block: np.ndarray,
                c_all: Optional[np.ndarray]) -> None:
    """One whole-section WCET check over a path group's rows.

    The guard products (``c * (1 + 1e-9)``) are precomputed on the tape
    for the scalar case, so the comparisons are float-for-float the ones
    a per-entry check performs.  On violation the raised error names the
    first entry in entry order with any violating run and the first
    violating run within the group, in the scalar kernel's message.
    """
    act = block[:, st.comp_cols]
    if c_all is not None:
        viol = act > c_all[st.comp_sel].T * (1 + 1e-9)
    else:
        viol = act > st.c_guard
    if viol.any():
        e_rel = int(np.nonzero(viol.any(axis=0))[0][0])
        e = int(st.comp_sel[e_rel])
        k = int(np.argmax(viol[:, e_rel]))
        c_g = c_all[e] if c_all is not None else st.c_list[e]
        raise SimulationError(
            f"actual time {act[k, e_rel]} of {st.names[e]!r} "
            f"exceeds WCET {c_g[k] if isinstance(c_g, np.ndarray) else c_g}")


def _precheck_wcet(tape, matrix: np.ndarray, groups,
                   point_of: Optional[np.ndarray]) -> None:
    """Raise the WCET error, if any run exceeds a WCET on its path.

    A batch whose every column stays within the smallest guard any point
    applies to it passes outright (``fmax`` skips NaN, which fails every
    comparison anyway).  Otherwise the groups are re-scanned in group
    order, section by section along each path.
    """
    if matrix.shape[0] == 0:
        return
    guard = tape.col_guard
    if not (np.fmax.reduce(matrix[:, :guard.size], axis=0) > guard).any():
        return
    for path, idx in groups:
        block = matrix[idx]
        pt = point_of[idx] if point_of is not None else None
        for sid in path:
            st = tape.sections[sid]
            if st.comp_sel.size:
                c_all = (st.c_pt[:, pt]
                         if st.c_pt is not None and pt is not None
                         else None)
                _check_wcet(st, block, c_all)


def _split(leaves, depth: int):
    """Partition trie-ordered leaves by their section at ``depth``:
    ``[(sid, lo, hi, leaves), ...]`` in row order."""
    out = []
    start = 0
    for i in range(1, len(leaves) + 1):
        if (i == len(leaves)
                or leaves[i][0][depth] != leaves[start][0][depth]):
            kids = leaves[start:i]
            out.append((kids[0][0][depth], kids[0][1], kids[-1][2], kids))
            start = i
    return out


def _trie(groups):
    """Order the path groups' runs so each trie subtree is contiguous.

    Returns ``(perm, leaves)``: ``perm`` lists the run indices in trie
    order and ``leaves`` the ``(path, lo, hi)`` row range of each group
    there.  Siblings keep the order of their first group, and runs keep
    their order within a group.
    """
    paths = [tuple(path) for path, _idx in groups]
    first = {}
    for g, path in enumerate(paths):
        for d in range(1, len(path) + 1):
            first.setdefault(path[:d], g)
    order = sorted(range(len(paths)), key=lambda g: tuple(
        first[paths[g][:d]] for d in range(1, len(paths[g]) + 1)))
    leaves = []
    lo = 0
    for g in order:
        hi = lo + groups[g][1].size
        leaves.append((paths[g], lo, hi))
        lo = hi
    perm = np.concatenate([groups[g][1] for g in order]
                          + [np.empty(0, dtype=np.intp)])
    return perm, leaves


def _walk(leaves):
    """Depth-first walk of the trie: yields ``(sid, lo, hi, children)``
    per node, ``children`` being the :func:`_split` of the nodes one OR
    below it.  An explicit stack, so no frame outlives its node."""
    stack = [(0, node) for node in reversed(_split(leaves, 0))]
    while stack:
        depth, (sid, lo, hi, sub) = stack.pop()
        children = []
        if depth + 1 < len(sub[0][0]):
            children = _split(sub, depth + 1)
        yield sid, lo, hi, children
        for child in reversed(children):
            stack.append((depth + 1, child))


def _table(values) -> np.ndarray:
    """Per-scheme constants as a ``(1, k)`` row, or as an ``(n_points,
    k)`` table when any of them is a stacked per-point vector."""
    n_pts = next((v.size for v in values if isinstance(v, np.ndarray)),
                 None)
    if n_pts is None:
        return np.array([values], dtype=np.float64)
    return np.stack([np.broadcast_to(v, n_pts) for v in values],
                    axis=1).astype(np.float64, copy=False)


def _per_run(table: np.ndarray, pt) -> np.ndarray:
    """A :func:`_table` gathered to trie-ordered runs (``(1, k)`` rows
    pass through and broadcast)."""
    if table.shape[0] == 1 or pt is None:
        return table
    return table[pt]


def _rows(value, lo: int, hi: int):
    """One node's rows of a per-run array (``(1, k)`` rows pass)."""
    if value.shape[0] == 1:
        return value
    return value[lo:hi]


def _first(flags: np.ndarray):
    """``(run, scheme)`` of the first flagged entry, run-major."""
    return divmod(int(np.argmax(flags)), flags.shape[1])


def _cell(value, r: int, s: int):
    """Entry ``(r, s)`` of a per-run array or of a scalar / ``(1, k)``
    / ``(runs, 1)`` one broadcast to it, for error messages."""
    if not isinstance(value, np.ndarray):
        return value
    return value[r if value.shape[0] > 1 else 0,
                 s if value.shape[1] > 1 else 0]


class _Procs:
    """Processor-major free times of one section's runs and schemes.

    ``free`` is ``(m, ng, k)``, read as ``m`` processors by ``ng·k``
    columns; :meth:`first_idle` returns the lowest-id idle processor of
    every column as ``(ng, k)`` flat indices into it (row-major, so they
    address a same-shaped array too) with its free time.
    """

    __slots__ = ("free", "flat", "ar", "cols", "offs", "w", "small")

    def __init__(self, t_sec: np.ndarray, m: int, w: np.ndarray):
        self.free = np.empty((m,) + t_sec.shape)
        self.free[...] = t_sec
        self.flat = self.free.reshape(-1)
        self.cols = cols = t_sec.size
        self.ar = np.arange(cols).reshape(t_sec.shape)
        self.small = cols <= _SMALL_SECTION
        if not self.small:
            # offs[k]: row offset of processor m - k, the one whose
            # weight is k; offs[0] is only reachable on NaN free times
            # and clamps to a valid row
            offs = (m - np.arange(m + 1, dtype=np.intp)) * cols
            offs[0] = (m - 1) * cols
            self.offs = offs
            self.w = w

    def first_idle(self):
        free = self.free
        if self.small:
            flat = free.argmin(axis=0) * self.cols + self.ar
            return self.flat[flat], flat
        mn = free.min(axis=0)
        # weights m..1 by processor id: the max over the minimum mask
        # names the first minimal processor, argmin's tie-break
        k = ((free == mn) * self.w).max(axis=0)
        return mn, self.offs.take(k) + self.ar


def _weights(m: int) -> np.ndarray:
    dtype = np.uint8 if m < 256 else np.intp
    return np.arange(m, 0, -1, dtype=dtype)[:, None, None]


def _in_walks(walk, specs, rows: int) -> list:
    """Run ``specs`` through ``walk`` in as few walks as
    :data:`_WALK_ROWS` allows, one result per spec in order.

    A walk of several schemes that raises is replayed one scheme at a
    time, so the error raised is the per-scheme loop's: the first
    failing scheme's, in caller order.
    """
    specs = list(specs)
    per = max(1, _WALK_ROWS // max(rows, 1))
    out = []
    for i in range(0, len(specs), per):
        part = specs[i:i + per]
        try:
            out += walk(part)
        except SimulationError:
            if len(part) == 1:
                raise
            for spec in part:
                walk([spec])
            raise
    return out


def _fixed_consts(speed, m: int, power: PowerModel,
                  overhead: OverheadModel):
    """One fixed speed's ``(t0, overhead_time, e_over, n_changes,
    p_busy)``: scalars, or per-point vectors for a per-point speed."""
    s_max = power.s_max
    if isinstance(speed, np.ndarray):
        # fused: one fixed speed per point; every derived constant is
        # computed with the same scalar formulas, selected per point
        switched = np.abs(speed - s_max) > _EPS
        return (np.where(switched, overhead.adjust_time, 0.0),
                np.where(switched, m * overhead.adjust_time, 0.0),
                np.where(switched, m * overhead.adjustment_energy(power),
                         0.0),
                np.where(switched, m, 0),
                power.power_table(speed))
    switched = abs(speed - s_max) > _EPS
    return (overhead.adjust_time if switched else 0.0,
            m * overhead.adjust_time if switched else 0.0,
            m * overhead.adjustment_energy(power) if switched else 0.0,
            m if switched else 0,
            power.power(speed))


def _deadline_and_idle(prog, dl, t_end, busy_time, overhead_time, part,
                       check_deadline: bool) -> np.ndarray:
    """The end-of-walk checks; returns every (run, scheme) idle time."""
    if check_deadline:
        late = t_end > dl * (1 + 1e-9) + _EPS
        if late.any():
            r, s = _first(late)
            raise DeadlineMissError(float(t_end[r, s]),
                                    float(_cell(dl, r, s)),
                                    scheme=part[s][0])
    window = prog.m * np.maximum(dl, t_end)
    idle_time = window - busy_time - overhead_time
    thresh = -1e-6 * np.where(dl > 1.0, dl, 1.0)
    bad = idle_time < thresh
    if bad.any():
        r, s = _first(bad)
        raise SimulationError(
            f"negative idle time {idle_time[r, s]}: "
            f"busy={busy_time[r, s]}, "
            f"overhead={_cell(overhead_time, r, s)}, "
            f"window={window[r, s]}")
    return idle_time


def _unpermute(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``(runs, k)`` trie-ordered values as ``(k, runs)`` in run order."""
    out = np.empty(values.shape[::-1], dtype=values.dtype)
    out[:, perm] = values.T
    return out


def run_fixed_tape(prog, power: PowerModel,
                   overhead: OverheadModel, matrix: np.ndarray,
                   groups, path_keys: List[str], specs: Sequence,
                   check_deadline: bool = True,
                   point_of: Optional[np.ndarray] = None
                   ) -> List[FixedBatchResult]:
    """Vectorized fixed-speed simulation of a whole realization batch
    (exported as :func:`repro.sim.compiled.run_fixed_batch`).

    ``specs`` lists ``(scheme, speed)`` pairs over the same program and
    batch; the result holds one :class:`FixedBatchResult` per pair, in
    order, and all pairs run in one walk of the trie.  ``matrix`` is the
    ``(n_runs, n_tasks)`` actual-time matrix in program column order and
    ``groups``/``path_keys`` the output of
    :meth:`~repro.sim.compiled.CompiledPlan.executed_paths`.
    ``overhead`` applies to every pair (a pair at ``S_max`` never
    switches, so it never consults it).

    **Fused sweeps.**  ``prog`` may be a
    :class:`~repro.sim.sweepc.StackedProgram` covering several sweep
    points; ``point_of`` is then the ``(n_runs,)`` point index of every
    row of ``matrix``, and a speed may be an ``(n_points,)`` vector of
    per-point fixed speeds.  Every run computes with exactly its own
    point's floats, so fused outputs are bit-identical to evaluating
    the points one program at a time.
    """
    tape = build_tape(prog)
    _precheck_wcet(tape, matrix, groups, point_of)
    perm, leaves = _trie(groups)
    pt = point_of[perm] if point_of is not None else None
    dl = _per_run(_table([prog.deadline]), pt)
    mt = matrix.T
    m = prog.m
    w = _weights(m)
    idle_power = power.idle_power

    def walk(part):
        consts = [_fixed_consts(speed, m, power, overhead)
                  for _name, speed in part]
        t0, ot, e_over, n_changes, p_busy = zip(*consts)
        speed_r = _per_run(_table([speed for _name, speed in part]), pt)
        p_busy_r = _per_run(_table(p_busy), pt)
        # every run's state in trie order, one column per scheme: the
        # end time of its last section, and its busy-time / busy-energy
        # accumulators
        shape = (perm.size, len(part))
        t_end = np.empty(shape)
        t_end[...] = _per_run(_table(t0), pt)
        busy_time = np.zeros(shape)
        e_busy = np.zeros(shape)

        for sid, lo, hi, _children in _walk(leaves):
            st = tape.sections[sid]
            if not st.n_entries:
                continue
            t_sec = t_end[lo:hi]
            busy = busy_time[lo:hi]
            eb = e_busy[lo:hi]
            if st.comp_sel.size:
                # the section's actual times, (n_comp, ng, k), with the
                # wall time division and busy-power product batched;
                # the entry loop consumes them row by row in entry order
                act = mt[st.comp_cols[:, None], perm[lo:hi]]
                wall_all = act[:, :, None] / _rows(speed_r, lo, hi)
                del act
                e_all = wall_all * _rows(p_busy_r, lo, hi)
            procs = _Procs(t_sec, m, w)
            free = procs.flat
            fin = np.empty((st.n_entries,) + t_sec.shape)
            last = t_sec
            for e, (is_and, pred, crel) in enumerate(st.steps):
                if pred is None:
                    ready = t_sec
                elif type(pred) is int:
                    ready = np.maximum(t_sec, fin[pred])
                else:
                    ready = np.maximum(t_sec, fin[pred].max(axis=0))
                if is_and:
                    fin[e] = ready
                    continue
                mn, flat = procs.first_idle()
                t = np.maximum(ready, last)
                np.maximum(t, mn, out=t)
                last = t
                wall = wall_all[crel]
                finish = fin[e]
                np.add(t, wall, out=finish)
                busy += wall
                eb += e_all[crel]
                free[flat] = finish
            np.maximum(fin.max(axis=0), t_sec, out=t_sec)
            # release the section's buffers before the walk descends
            del procs, free, fin, last
            if st.comp_sel.size:
                del wall_all, e_all

        ot_r = _per_run(_table(ot), pt)
        idle_time = _deadline_and_idle(prog, dl, t_end, busy_time, ot_r,
                                       part, check_deadline)
        e_idle = idle_power * np.maximum(idle_time, 0.0)
        energy = _unpermute(e_busy + e_idle + _per_run(_table(e_over), pt),
                            perm)
        finish_time = _unpermute(t_end, perm)
        return [FixedBatchResult(name, energy[s], finish_time[s],
                                 n_changes[s], list(path_keys))
                for s, (name, _speed) in enumerate(part)]

    return _in_walks(walk, specs, perm.size)


# one errstate for the whole kernel instead of one context per entry
# (~1us each); it only silences divide/invalid *warnings* — the guarded
# np.where selections below are unchanged float for float
@np.errstate(divide="ignore", invalid="ignore")
def run_dynamic_tape(prog, power: PowerModel,
                     overhead: OverheadModel, matrix: np.ndarray,
                     groups, path_keys: List[str], specs: Sequence,
                     check_deadline: bool = True,
                     point_of: Optional[np.ndarray] = None
                     ) -> List[DynamicBatchResult]:
    """Vectorized dynamic-scheme simulation of a whole realization batch
    (exported as :func:`repro.sim.compiled.run_dynamic_batch`).

    ``specs`` lists ``(scheme, policy_run)`` pairs that
    :func:`~repro.sim.compiled.supports_dynamic_batch` accepts; the
    result holds one :class:`DynamicBatchResult` per pair, in order.
    Each processor's current speed is tracked as an index into the
    discrete level table, so the per-level speed-computation time and
    power draw are fancy-indexing gathers.  Where the scalar engine
    *skips* an accumulation (no speed-computation overhead, no switch),
    this kernel adds an exact ``0.0``, which is bit-identical on the
    non-negative accumulators involved.  A run is consulted only for
    its protocol attributes (``floor_const``/``floor_step``/
    ``or_respec``) and is not mutated; in a fused sweep those may hold
    ``(n_points,)`` vectors, gathered per run like the program's
    per-point constants (see :func:`run_fixed_tape`).
    """
    tape = build_tape(prog)
    _precheck_wcet(tape, matrix, groups, point_of)
    perm, leaves = _trie(groups)
    pt = point_of[perm] if point_of is not None else None
    dl = _per_run(_table([prog.deadline]), pt)
    mt = matrix.T
    m = prog.m
    w = _weights(m)
    nr = perm.size
    s_max = power.s_max
    s_max_guard = s_max * (1 + 1e-6)

    speeds_arr = power.level_speed_table()
    n_lv = speeds_arr.size
    pow_arr = power.level_power_table()
    tc_arr = overhead.computation_time_table(power)
    # the speed-computation energy per level: the same products the
    # per-entry ``pow_arr[si] * tc_arr[si]`` forms
    e_comp_arr = pow_arr * tc_arr
    adjust_time = overhead.adjust_time
    adj_energy = overhead.adjustment_energy(power)
    idle_power = power.idle_power

    def walk(part):
        runs = [run for _name, run in part]
        k = len(runs)
        # every floor as a step where(t < theta, f_lo, f_hi); a constant
        # floor has f_lo == f_hi, so the selection is exact
        steps = [run.floor_step for run in runs]
        stepped = any(step is not None for step in steps)
        f_lo = _per_run(_table([
            run.floor_const if step is None else step[0]
            for run, step in zip(runs, steps)]), pt)
        if stepped:
            f_hi = _per_run(_table([
                run.floor_const if step is None else step[1]
                for run, step in zip(runs, steps)]), pt)
            theta = _per_run(_table([
                math.inf if step is None else step[2] for step in steps]),
                pt)
        # the schemes whose floor the OR synchronization re-speculates:
        # their floors become per-run state the children read as slices
        respec = [(s, run.or_respec == "average")
                  for s, (run, step) in enumerate(zip(runs, steps))
                  if run.or_respec is not None and step is None]
        if respec:
            rcols = np.array([s for s, _avg in respec], dtype=np.intp)
            f_lo = np.array(np.broadcast_to(f_lo, (nr, k)))
            if stepped:
                f_hi = np.array(np.broadcast_to(f_hi, (nr, k)))
        # every run's state in trie order, one column per scheme: what
        # the OR synchronization hands a child (section end time,
        # per-processor speed-level index, the floors above) plus the
        # energy/time accumulators
        t_end = np.zeros((nr, k))
        proc_idx = np.full((m, nr, k), n_lv - 1,
                           dtype=np.uint8 if n_lv <= 256 else np.intp)
        busy_time = np.zeros((nr, k))
        overhead_time = np.zeros((nr, k))
        e_busy = np.zeros((nr, k))
        e_over = np.zeros((nr, k))
        changes = np.zeros((nr, k), dtype=np.int64)

        for sid, lo, hi, children in _walk(leaves):
            st = tape.sections[sid]
            t_sec = t_end[lo:hi]
            if st.n_entries:
                if st.c_pt is not None and pt is not None:
                    c_all = st.c_pt[:, pt[lo:hi], None]
                    fb_all = st.fb_pt[:, pt[lo:hi], None]
                else:
                    c_all = fb_all = None
                if st.comp_sel.size:
                    act = mt[st.comp_cols[:, None], perm[lo:hi], None]
                fl = f_lo_g = _rows(f_lo, lo, hi)
                if stepped:
                    f_hi_g = _rows(f_hi, lo, hi)
                    theta_g = _rows(theta, lo, hi)
                busy = busy_time[lo:hi]
                o_time = overhead_time[lo:hi]
                eb = e_busy[lo:hi]
                eo = e_over[lo:hi]
                chg = changes[lo:hi]
                procs = _Procs(t_sec, m, w)
                free = procs.flat
                pidx = proc_idx[:, lo:hi].copy()
                lv = pidx.reshape(-1)
                fin = np.empty((st.n_entries,) + t_sec.shape)
                last = t_sec
                for e, (is_and, pred, crel) in enumerate(st.steps):
                    if pred is None:
                        ready = t_sec
                    elif type(pred) is int:
                        ready = np.maximum(t_sec, fin[pred])
                    else:
                        ready = np.maximum(t_sec, fin[pred].max(axis=0))
                    if is_and:
                        fin[e] = ready
                        continue

                    mn, flat = procs.first_idle()
                    t = np.maximum(ready, last)
                    np.maximum(t, mn, out=t)
                    last = t
                    if c_all is not None:
                        c_g = c_all[e]
                        fb_g = fb_all[e]
                    else:
                        # an unstacked section's constants are always
                        # scalars (vectors force c_pt/fb_pt)
                        c_g = st.c_list[e]
                        fb_g = st.fb_list[e]

                    si = lv[flat]
                    t_comp = tc_arr[si]
                    denom = fb_g - t
                    denom -= t_comp
                    denom -= adjust_time
                    s_req = np.where(denom > 0, c_g / denom, math.inf)
                    if stepped:
                        fl = np.where(t < theta_g, f_lo_g, f_hi_g)
                    target = np.maximum(s_req, fl)
                    viol = target > s_max_guard
                    if viol.any():
                        r, s = _first(viol)
                        raise SimulationError(
                            f"guarantee violated for {st.names[e]!r}: "
                            f"required speed {target[r, s]:.6g} exceeds "
                            f"maximum (t={t[r, s]:.6g}, "
                            f"bound={_cell(fb_g, r, s):.6g})")
                    want = np.minimum(target, s_max)
                    new_idx = speeds_arr.searchsorted(want - 1e-12,
                                                      side="left")
                    # searchsorted never returns < 0, so a
                    # clip(0, n_lv - 1) is exactly an upper clamp — and
                    # np.minimum is a raw ufunc where np.clip is a ~4us
                    # python wrapper
                    np.minimum(new_idx, n_lv - 1, out=new_idx)
                    speed = speeds_arr[new_idx]
                    changed = np.abs(speed - speeds_arr[si]) > _EPS
                    lv[flat] = np.where(changed, new_idx, si)
                    t_adj = np.where(changed, adjust_time, 0.0)
                    start_exec = t + t_comp
                    start_exec += t_adj
                    o_time += t_comp
                    eo += e_comp_arr[si]
                    o_time += t_adj
                    eo += np.where(changed, adj_energy, 0.0)
                    chg += changed

                    wall = act[crel] / speed
                    finish = fin[e]
                    np.add(start_exec, wall, out=finish)
                    busy += wall
                    eb += pow_arr[new_idx] * wall
                    free[flat] = finish
                np.maximum(fin.max(axis=0), t_sec, out=t_sec)
                proc_idx[:, lo:hi] = pidx
                # release the section's buffers before the walk descends
                del procs, free, pidx, lv, fin, last, c_all, fb_all
                if st.comp_sel.size:
                    del act
            if respec:
                # on_or_fired per child: re-speculate the floor from the
                # fired branch's remaining-time statistics (branch stats
                # stay on the program, not the tape)
                sec = prog.sections[sid]
                for child, clo, chi, _leaves in children:
                    worst, average = sec.branch_stats[child]
                    work = _table([average if avg else worst
                                   for _s, avg in respec])
                    if pt is not None:
                        work = _per_run(work, pt[clo:chi])
                    horizon = _rows(dl, clo, chi) - t_end[clo:chi, rcols]
                    raw = work / horizon
                    want = np.minimum(raw, s_max)
                    snap_idx = speeds_arr.searchsorted(want - 1e-12,
                                                       side="left")
                    np.minimum(snap_idx, n_lv - 1, out=snap_idx)
                    floor = np.where(horizon > 0, speeds_arr[snap_idx],
                                     s_max)
                    f_lo[clo:chi, rcols] = floor
                    if stepped:
                        f_hi[clo:chi, rcols] = floor

        idle_time = _deadline_and_idle(prog, dl, t_end, busy_time,
                                       overhead_time, part, check_deadline)
        e_idle = idle_power * np.maximum(idle_time, 0.0)
        energy = _unpermute(e_busy + e_idle + e_over, perm)
        finish_time = _unpermute(t_end, perm)
        n_changes = _unpermute(changes, perm)
        return [DynamicBatchResult(name, energy[s], finish_time[s],
                                   n_changes[s], list(path_keys))
                for s, (name, _run) in enumerate(part)]

    return _in_walks(walk, specs, nr)
