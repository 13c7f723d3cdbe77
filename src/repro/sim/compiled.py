"""Compiled array kernel for the simulation inner loop.

:mod:`repro.sim.engine` interprets the dispatch protocol over
string-keyed dicts: every task pays ``graph.node(name)`` lookups,
``Dict[str, float]`` finish maps and per-run method dispatch.  A
Monte-Carlo evaluation replays the *same* plan structure thousands of
times, so this module compiles an :class:`~repro.offline.plan.OfflinePlan`
once into an integer-indexed **section program** and runs it with two
interchangeable kernels:

* :class:`CompiledKernel` — a scalar, allocation-free re-expression of
  the dispatch loop for one run: task attributes live in per-section
  flat tuples (WCET, finish bound, realization column), intra-section
  predecessors in a CSR-style id list, and the ``finishes``/
  ``proc_free`` buffers are preallocated and reused across runs.  Used
  for the dynamic schemes (GSS, SS1, SS2, AS, PS) and any per-run fixed
  speed (ORACLE).
* :func:`run_fixed_batch` — a fully vectorized fixed-speed path that
  evaluates NPM/SPM for an entire ``(n_runs, n_tasks)`` realization
  matrix: runs are grouped by executed path and every dispatch step is
  one NumPy operation across the whole group, so the per-run Python
  loop disappears.  NPM is the denominator of every normalized energy,
  so this path touches every run of every scheme.

Both batch kernels also accept a :class:`~repro.sim.sweepc.
StackedProgram` plus a ``point_of`` run→point index, executing a whole
*sweep* of structurally identical points as one fused
``(points × runs)`` batch (see :mod:`repro.sim.sweepc` and
:mod:`repro.experiments.fused`); per-point constants are gathered per
path group, so fused outputs stay bit-identical to per-point runs.

**Bit-identity contract.**  Both kernels perform float operations in
exactly the order of :func:`repro.sim.engine.simulate` — the same
reductions, the same left-associated sums, the same tie-breaks
(``np.argmin`` returns the first minimal processor, matching
``min(range(m), key=...)``) — so energies, finish times, traces and
path keys are equal *bit for bit*, not merely approximately.  The
golden equivalence suite (``tests/property/test_compiled_equivalence``)
holds both kernels to exact float equality against the dict engine.

One intentional semantic difference: the compiled kernels prefetch the
actual execution times of a section (or the whole batch) up front, so a
hand-built :class:`~repro.sim.realization.Realization` missing a task's
actual time fails when the program is bound rather than at that task's
dispatch.  Sampled and worst-case realizations always carry every task.

The compiled program is cached on the plan instance
(``OfflinePlan.compiled``) next to the offline round-1 canonical-stage
cache; like that cache it is per-process and not thread-safe (the
library is process-parallel only).  The scratch buffers live on the
program, so two interleaved ``CompiledKernel.run`` calls on one program
would corrupt each other — the engine API is strictly run-to-completion.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import DeadlineMissError, SimulationError
from ..offline.plan import OfflinePlan
from ..power.model import PowerModel
from ..power.overhead import OverheadModel
from ..types import EnergyBreakdown, SimResult, TaskRecord
from .realization import Realization, RealizationBatch

_EPS = 1e-9


class _CompiledSection:
    """One program section as flat arrays, ready for integer dispatch.

    ``entries`` holds one tuple per node in canonical dispatch order:
    ``(is_and, gid, col, wcet, finish_bound, name, preds)`` where
    ``gid`` is the node's slot in the global finishes buffer, ``col``
    its column in the realization matrix (-1 for AND nodes) and
    ``preds`` the finish-buffer slots of its intra-section predecessors
    (the CSR row for this node, stored as a tuple because rows are
    short and tuple iteration is the fastest scan in CPython).
    """

    __slots__ = ("sid", "entries", "exit_or", "branch_ids", "branch_set",
                 "forced_target", "branch_stats")

    def __init__(self, sid: int, entries, exit_or: Optional[str],
                 branch_ids: Tuple[int, ...],
                 branch_stats: Dict[int, Tuple[float, float]]):
        self.sid = sid
        self.entries = entries
        self.exit_or = exit_or
        self.branch_ids = branch_ids
        self.branch_set = frozenset(branch_ids)
        self.forced_target = branch_ids[0] if len(branch_ids) == 1 else None
        #: per successor section: ``(worst, average)`` remaining time at
        #: the exit OR, for vectorized AS/PS re-speculation
        self.branch_stats = branch_stats


class CompiledPlan:
    """The integer-indexed section program of one offline plan.

    Built once per plan by :func:`compile_plan`; holds no reference to
    the plan itself (the plan holds the program), pickles cleanly for
    the pool initializer, and carries the preallocated per-run scratch
    buffers the scalar kernel reuses.
    """

    def __init__(self, plan: OfflinePlan):
        graph = plan.app.graph
        structure = plan.structure
        self.m = plan.n_processors
        self.deadline = plan.app.deadline
        self.root_sid = structure.root_id

        #: computation tasks in realization-matrix column order
        self.comp_names: List[str] = [n.name
                                      for n in graph.computation_nodes()]
        col_of = {name: i for i, name in enumerate(self.comp_names)}

        gid_of: Dict[str, int] = {}
        self.sections: Dict[int, _CompiledSection] = {}
        for sid, sp in plan.sections.items():
            entries = []
            for name in sp.dispatch_order:
                gid_of[name] = len(gid_of)
            for name in sp.dispatch_order:
                node = graph.node(name)
                preds = tuple(gid_of[p] for p in sp.preds_within[name])
                if node.is_and:
                    entries.append((True, gid_of[name], -1, 0.0, 0.0,
                                    name, preds))
                else:
                    entries.append((False, gid_of[name], col_of[name],
                                    node.wcet, sp.finish_bound[name],
                                    name, preds))
            exit_or = structure.section(sid).exit_or
            branch_ids: Tuple[int, ...] = ()
            branch_stats: Dict[int, Tuple[float, float]] = {}
            if exit_or is not None:
                branch_ids = tuple(t for t, _p in structure.branches(exit_or))
                stats = plan.branch_stats.get(exit_or, {})
                branch_stats = {t: (ps.worst, ps.average)
                                for t, ps in stats.items()}
            self.sections[sid] = _CompiledSection(
                sid, tuple(entries), exit_or, branch_ids, branch_stats)

        self.n_slots = len(gid_of)
        #: the plan fingerprint this program was compiled from, stamped
        #: by :func:`compile_plan`; lets downstream caches (the stacked-
        #: program LRU in ``repro.sim.sweepc``) key on program identity
        #: without holding the plan
        self.fingerprint: Optional[tuple] = None
        # per-run scratch, reused across runs (single-threaded use only)
        self._fin: List[float] = [0.0] * self.n_slots
        self._proc_free: List[float] = [0.0] * self.m
        self._proc_speed: List[float] = [0.0] * self.m

    # -- realization binding ------------------------------------------------
    def actuals_row(self, realization: Realization) -> List[float]:
        """The realization's actual times as a column-ordered flat list."""
        actuals = realization.actuals
        row = []
        for name in self.comp_names:
            try:
                row.append(actuals[name])
            except KeyError:
                raise SimulationError(
                    f"realization has no actual time for task "
                    f"{name!r}") from None
        return row

    def realization_matrix(self, batch: RealizationBatch) -> np.ndarray:
        """The batch's actual-time matrix aligned to this program's columns."""
        if batch.names == self.comp_names:
            return batch.actuals
        cols = [batch.column_of(name) for name in self.comp_names]
        return batch.actuals[:, cols]

    # -- executed paths -----------------------------------------------------
    def executed_paths(self, choices: Mapping[str, Sequence[int]], n: int
                       ) -> Tuple[List[Tuple[Tuple[int, ...], np.ndarray]],
                                  List[str]]:
        """Group ``n`` runs by the section path their OR choices select.

        ``choices`` maps each branching OR node to a length-``n``
        sequence of chosen section ids.  Returns ``(groups, keys)``:
        ``groups`` is a list of ``(path, run_indices)`` pairs in first-
        occurrence order and ``keys`` the per-run path key, formatted
        exactly like ``ExecutionPath.key()`` (``"0>2>5"``).

        All runs walk their sections together: each step looks up the
        distinct current sections, reads every run's choice at once and
        gives every distinct extended prefix an integer id.  A bad
        choice (no entry for an OR node, or a section that is not one of
        its successors) raises for the first offending run in run order,
        as a run-by-run walk would.
        """
        sections = self.sections
        n_ids = max(sections) + 1
        picks = {name: np.asarray(seq) for name, seq in choices.items()}
        prefixes: List[Tuple[int, ...]] = [(self.root_sid,)]
        pid = np.zeros(n, dtype=np.intp)          # each run's prefix id
        runs = np.arange(n)                       # still walking, ascending
        cur = np.full(n, self.root_sid, dtype=np.intp)
        fresh = 0                  # the walking runs' prefixes are >= this
        err_run, err = n, None
        while runs.size:
            # next section per walking run: -1 = path complete, -2 = error
            nxt = np.full(runs.size, -1, dtype=np.intp)
            for sid in np.bincount(cur).nonzero()[0].tolist():
                sec = sections[sid]
                if sec.exit_or is None or not sec.branch_ids:
                    continue
                at = (cur == sid).nonzero()[0]
                if sec.forced_target is not None:
                    nxt[at] = sec.forced_target
                    continue
                seq = picks.get(sec.exit_or)
                if seq is None:
                    nxt[at] = -2
                    if runs[at[0]] < err_run:
                        err_run = int(runs[at[0]])
                        err = SimulationError(
                            f"realization has no branch choice for OR "
                            f"node {sec.exit_or!r}")
                    continue
                chosen = seq[runs[at]]
                bad = chosen != sec.branch_ids[0]
                for target in sec.branch_ids[1:]:
                    bad &= chosen != target
                if bad.any():
                    k = int(np.argmax(bad))
                    if runs[at[k]] < err_run:
                        err_run = int(runs[at[k]])
                        err = SimulationError(
                            f"realization chose section {chosen[k]} at "
                            f"{sec.exit_or!r}, not a successor path")
                    chosen = np.where(bad, -2, chosen)
                nxt[at] = chosen
            go = nxt >= 0
            runs = runs[go]
            cur = nxt[go]
            # number the extended prefixes: (prefix, next section) pairs
            # are dense small integers, so a bincount finds the distinct
            # ones without sorting
            pair = (pid[runs] - fresh) * n_ids + cur
            seen = np.bincount(pair).nonzero()[0]
            number = np.empty(int(seen[-1]) + 1 if seen.size else 0,
                              dtype=np.intp)
            base = len(prefixes)
            number[seen] = np.arange(base, base + seen.size)
            prefixes.extend(prefixes[fresh + p // n_ids] + (p % n_ids,)
                            for p in seen.tolist())
            fresh = base
            pid[runs] = number[pair]
        if err is not None:
            raise err
        return path_groups(prefixes, pid)


def path_groups(paths: Sequence[Tuple[int, ...]], ids: np.ndarray
                ) -> Tuple[List[Tuple[Tuple[int, ...], np.ndarray]],
                           List[str]]:
    """``(groups, keys)`` of runs whose executed path is ``paths[ids[i]]``.

    The :meth:`CompiledPlan.executed_paths` result shape: groups in
    first-occurrence order (paths no run took are left out), each with
    its ascending run indices, and the per-run ``"0>2>5"`` keys — each
    key string formatted once per distinct path.
    """
    ids = np.asarray(ids, dtype=np.intp).reshape(-1)
    n_paths = len(paths)
    # one stable sort lays every path's runs out contiguously and in
    # run order; 16-bit keys sort by radix
    order = np.argsort(ids.astype(np.uint16) if n_paths <= 1 << 16
                       else ids, kind="stable")
    counts = np.bincount(ids, minlength=n_paths)
    starts = np.cumsum(counts) - counts
    used = counts.nonzero()[0]
    used = used[np.argsort(order[starts[used]])]     # first-occurrence order
    groups = [(tuple(paths[p]), order[starts[p]:starts[p] + counts[p]])
              for p in used.tolist()]
    rank = np.empty(n_paths, dtype=np.intp)
    rank[used] = np.arange(used.size)
    key_of = np.array([">".join(str(s) for s in path) for path, _ in groups],
                      dtype=object)
    return groups, key_of[rank[ids]].tolist()


#: cross-instance program cache keyed by plan *fingerprint* (graph,
#: deadline, m, reserve, heuristic): long-lived sweep workers rebuild
#: plan objects per evaluation, but two builds with equal inputs yield
#: equal plans, so the program compiles once per worker, not once per
#: point.  Per-process, bounded LRU, like the offline round-1 cache.
_PROGRAM_CACHE: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()
_PROGRAM_CACHE_MAX = 32
_program_cache_hits = 0
_program_cache_misses = 0


def program_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of this process's program cache."""
    return {"hits": _program_cache_hits, "misses": _program_cache_misses,
            "size": len(_PROGRAM_CACHE)}


def clear_program_cache() -> None:
    """Drop every cached program and reset the hit/miss counters
    (tests and memory-pressure escape hatch)."""
    global _program_cache_hits, _program_cache_misses
    _PROGRAM_CACHE.clear()
    _program_cache_hits = 0
    _program_cache_misses = 0


def compile_plan(plan: OfflinePlan) -> CompiledPlan:
    """The plan's section program, compiled once and cached.

    Two caches compose here: the instance slot (``plan.compiled``)
    makes repeat calls on one plan free, and the fingerprint-keyed LRU
    makes repeat compilations of *equal* plans (rebuilt instances in a
    pool worker) a lookup instead of a compile.  A program only reads
    the plan it was compiled from, so sharing across equal plans cannot
    leak state — the scratch-buffer caveat in the module docstring is
    unchanged (strictly run-to-completion, per process).
    """
    global _program_cache_hits, _program_cache_misses
    prog = plan.compiled
    if prog is not None:
        return prog
    key = plan.fingerprint()
    prog = _PROGRAM_CACHE.get(key)
    if prog is not None:
        _program_cache_hits += 1
        _PROGRAM_CACHE.move_to_end(key)
    else:
        _program_cache_misses += 1
        prog = CompiledPlan(plan)
        prog.fingerprint = key
        _PROGRAM_CACHE[key] = prog
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.popitem(last=False)
    plan.compiled = prog
    return prog


class CompiledKernel:
    """Scalar compiled dispatch loop for one (program, power, overhead).

    Mirrors :func:`repro.sim.engine.simulate` operation for operation;
    the constructor hoists everything that is constant across runs
    (speed-computation times per level, the switch energy) so the
    per-run loop touches only flat lists and local floats.
    """

    def __init__(self, prog: CompiledPlan, power: PowerModel,
                 overhead: OverheadModel):
        self.prog = prog
        self.power = power
        self.overhead = overhead
        self._adj_energy = overhead.adjustment_energy(power)
        self._tcomp: Dict[float, float] = {}
        # discrete models expose their level table and power-by-level
        # dict; binding them here lets the hot loop skip the snap_up /
        # power() method calls (identical values, same bisect epsilons)
        self._speeds: Optional[List[float]] = getattr(power, "_speeds",
                                                      None)
        pbs = getattr(power, "_power_by_speed", None)
        self._pget = pbs.get if pbs is not None else None

    def run(self, policy_run, actuals: Sequence[float],
            choices: Mapping[str, int],
            collect_trace: bool = False,
            check_deadline: bool = True) -> SimResult:
        """Simulate one run; drop-in equal to the dict engine's result.

        ``actuals`` is the realization's actual-time row in program
        column order (see :meth:`CompiledPlan.actuals_row`); ``choices``
        maps fired OR nodes to chosen section ids.
        """
        prog = self.prog
        power = self.power
        overhead = self.overhead
        m = prog.m
        deadline = prog.deadline
        s_max = power.s_max
        s_max_guard = s_max * (1 + 1e-6)
        snap_up = power.snap_up
        power_of = power.power
        speeds = self._speeds
        pget = self._pget
        tcomp = self._tcomp
        comp_time = overhead.computation_time
        adjust_time = overhead.adjust_time
        adj_energy = self._adj_energy
        sections = prog.sections
        fin = prog._fin
        proc_free = prog._proc_free
        proc_speed = prog._proc_speed
        floor = policy_run.floor
        fc = policy_run.floor_const
        fixed = policy_run.fixed_speed

        busy_time = 0.0
        overhead_time = 0.0
        e_busy = 0.0
        e_over = 0.0
        n_changes = 0
        n_tasks = 0
        trace: List[TaskRecord] = []
        path_choices: Dict[str, str] = {}

        t_section = 0.0
        speed0 = s_max
        if fixed is not None and abs(fixed - s_max) > _EPS:
            # SPM-style synchronized switch on every processor up front
            t_section = adjust_time
            overhead_time += m * adjust_time
            e_over += m * adj_energy
            n_changes += m
            speed0 = fixed
        for j in range(m):
            proc_free[j] = t_section
            proc_speed[j] = speed0

        last_dispatch = t_section
        sid = prog.root_sid
        t_end = t_section

        while True:
            sec = sections[sid]
            sec_max = None
            for is_and, gid, col, c, fb, name, preds in sec.entries:
                ready = t_section
                for p in preds:
                    f = fin[p]
                    if f > ready:
                        ready = f
                if is_and:
                    fin[gid] = ready
                    if sec_max is None or ready > sec_max:
                        sec_max = ready
                    continue

                j = 0
                pf = proc_free[0]
                for jj in range(1, m):
                    v = proc_free[jj]
                    if v < pf:
                        pf = v
                        j = jj
                t = ready
                if last_dispatch > t:
                    t = last_dispatch
                if pf > t:
                    t = pf
                last_dispatch = t
                actual = actuals[col]
                if actual > c * (1 + 1e-9):
                    raise SimulationError(
                        f"actual time {actual} of {name!r} exceeds WCET {c}")

                if fixed is not None:
                    speed = fixed
                    start_exec = t
                    changed = False
                else:
                    s_cur = proc_speed[j]
                    t_comp = tcomp.get(s_cur)
                    if t_comp is None:
                        t_comp = comp_time(power, s_cur)
                        tcomp[s_cur] = t_comp
                    avail = fb - t - t_comp
                    denom = avail - adjust_time
                    s_req = c / denom if denom > 0 else math.inf
                    fl = fc if fc is not None else floor(t)
                    target = fl if fl > s_req else s_req
                    if target > s_max_guard:
                        raise SimulationError(
                            f"guarantee violated for {name!r}: required "
                            f"speed {target:.6g} exceeds maximum "
                            f"(t={t:.6g}, bound={fb:.6g})")
                    want = s_max if s_max < target else target
                    if speeds is None:
                        speed = snap_up(want)
                    elif want <= speeds[0]:
                        speed = speeds[0]
                    elif want >= speeds[-1] - 1e-12:
                        speed = speeds[-1]
                    else:
                        speed = speeds[bisect_left(speeds, want - 1e-12)]
                    changed = abs(speed - s_cur) > _EPS
                    t_adj = adjust_time if changed else 0.0
                    start_exec = t + t_comp + t_adj
                    if t_comp > 0:
                        overhead_time += t_comp
                        p = pget(s_cur) if pget is not None else None
                        if p is None:
                            p = power_of(s_cur)
                        e_over += p * t_comp
                    if changed:
                        overhead_time += t_adj
                        e_over += adj_energy
                        n_changes += 1
                        proc_speed[j] = speed

                wall = actual / speed
                finish = start_exec + wall
                busy_time += wall
                p = pget(speed) if pget is not None else None
                if p is None:
                    p = power_of(speed)
                e_task = p * wall
                e_busy += e_task
                proc_free[j] = finish
                fin[gid] = finish
                n_tasks += 1
                if sec_max is None or finish > sec_max:
                    sec_max = finish
                if collect_trace:
                    trace.append(TaskRecord(
                        name=name, processor=j, start=start_exec,
                        finish=finish, speed=speed, actual_cycles=actual,
                        energy=e_task, speed_changed=changed))

            if sec_max is None:
                t_end = t_section
            else:
                t_end = t_section if t_section > sec_max else sec_max

            exit_or = sec.exit_or
            if exit_or is None:
                break
            if not sec.branch_ids:
                break  # terminal merge OR: the application ends here
            if sec.forced_target is not None:
                target_sid = sec.forced_target
            else:
                try:
                    target_sid = choices[exit_or]
                except KeyError:
                    raise SimulationError(
                        f"realization has no branch choice for OR node "
                        f"{exit_or!r}") from None
            if target_sid not in sec.branch_set:
                raise SimulationError(
                    f"realization chose section {target_sid} at "
                    f"{exit_or!r}, not a successor path")
            path_choices[exit_or] = str(target_sid)
            # all processors synchronize at the OR node before continuing
            t_section = t_end
            last_dispatch = t_end
            for j in range(m):
                proc_free[j] = t_end
            if fixed is None:
                policy_run.on_or_fired(exit_or, target_sid, t_end)
                fc = policy_run.floor_const  # AS/PS re-speculate here
            sid = target_sid

        finish_time = t_end
        if check_deadline and finish_time > deadline * (1 + 1e-9) + _EPS:
            raise DeadlineMissError(finish_time, deadline,
                                    scheme=policy_run.name)

        window = m * (finish_time if finish_time > deadline else deadline)
        idle_time = window - busy_time - overhead_time
        if idle_time < -1e-6 * (deadline if deadline > 1.0 else 1.0):
            raise SimulationError(
                f"negative idle time {idle_time}: busy={busy_time}, "
                f"overhead={overhead_time}, window={window}")
        e_idle = power.idle_energy(0.0 if 0.0 > idle_time else idle_time)

        return SimResult(
            scheme=policy_run.name,
            finish_time=finish_time,
            deadline=deadline,
            energy=EnergyBreakdown(busy=e_busy, idle=e_idle,
                                   overhead=e_over),
            n_speed_changes=n_changes,
            n_tasks_run=n_tasks,
            trace=trace,
            path_choices=path_choices,
        )


def simulate_compiled(plan: OfflinePlan, policy_run, power: PowerModel,
                      overhead: OverheadModel, realization: Realization,
                      collect_trace: bool = False,
                      check_deadline: bool = True) -> SimResult:
    """Drop-in replacement for :func:`repro.sim.engine.simulate`.

    Compiles (or reuses) the plan's section program and runs the scalar
    compiled kernel on one realization.  Results are bit-identical to
    the dict engine's.
    """
    prog = compile_plan(plan)
    kernel = CompiledKernel(prog, power, overhead)
    return kernel.run(policy_run, prog.actuals_row(realization),
                      realization.choices, collect_trace=collect_trace,
                      check_deadline=check_deadline)


class FixedBatchResult:
    """Per-run outputs of one vectorized fixed-speed batch simulation."""

    __slots__ = ("scheme", "total_energy", "finish_time", "n_speed_changes",
                 "path_keys")

    def __init__(self, scheme: str, total_energy: np.ndarray,
                 finish_time: np.ndarray, n_speed_changes,
                 path_keys: List[str]):
        self.scheme = scheme
        self.total_energy = total_energy
        self.finish_time = finish_time
        #: switches per run (identical across runs for a fixed speed):
        #: an int, or an ``(n_points,)`` int array when the batch was a
        #: fused sweep with one fixed speed per point
        self.n_speed_changes = n_speed_changes
        self.path_keys = path_keys


def _gather(value, pt):
    """One group's values of a possibly per-point constant.

    Scalars pass through unchanged (the non-fused path, and stacked
    constants that every point agrees on — broadcasting then performs
    the exact scalar operation); a stacked ``(n_points,)`` vector is
    fancy-indexed by the group's per-run point indices ``pt``.
    """
    if isinstance(value, np.ndarray):
        return value[pt]
    return value


def _at(value, k):
    """Row ``k``'s value of a gathered constant, for error messages."""
    if isinstance(value, np.ndarray):
        return value[k]
    return value


def run_fixed_batch(prog, power: PowerModel,
                    overhead: OverheadModel, matrix: np.ndarray,
                    groups, path_keys: List[str], specs,
                    check_deadline: bool = True,
                    point_of: Optional[np.ndarray] = None,
                    kernel_tier: Optional[str] = None
                    ) -> List[FixedBatchResult]:
    """Vectorized fixed-speed simulation of a whole realization batch.

    ``specs`` lists ``(scheme, speed)`` pairs over the same program and
    batch; the result holds one :class:`FixedBatchResult` per pair, in
    order.  ``overhead`` applies to every pair (a pair at ``S_max``
    never switches, so it never consults it).  Dispatches to the kernel
    tier selected by ``kernel_tier`` (None for the session default —
    see :func:`repro.sim.kernels.resolve_kernel_tier`): ``numpy`` runs
    every pair in one walk of the tape interpreter, ``legacy``
    (:func:`_run_fixed_legacy` below) and ``jit`` one call per pair.
    All tiers are bit-identical and raise the error of the first
    failing pair; the contract is documented on
    :func:`_run_fixed_legacy`.
    """
    return _dispatch(0, kernel_tier, (prog, power, overhead, matrix,
                                      groups, path_keys), specs,
                     check_deadline, point_of)


def _dispatch(which: int, kernel_tier, args, specs, check_deadline,
              point_of):
    """Run ``specs`` on the fixed (0) or dynamic (1) kernel of a tier."""
    from . import kernels  # local import breaks the cycle
    tier = kernels.resolve_kernel_tier(kernel_tier)
    kernel = kernels.get_kernels(tier)[which]
    if tier == "numpy":
        return kernel(*args, specs, check_deadline=check_deadline,
                      point_of=point_of)
    return [kernel(*args, run, scheme, check_deadline=check_deadline,
                   point_of=point_of)
            for scheme, run in specs]


def _run_fixed_legacy(prog, power: PowerModel,
                      overhead: OverheadModel, matrix: np.ndarray,
                      groups, path_keys: List[str], speed,
                      scheme: str,
                      check_deadline: bool = True,
                      point_of: Optional[np.ndarray] = None
                      ) -> FixedBatchResult:
    """Vectorized fixed-speed simulation of a whole realization batch
    (the ``legacy`` kernel tier: the original entry-tuple loop, kept as
    the differential-testing reference the tape tiers are pinned
    bit-identical against).

    ``matrix`` is the ``(n_runs, n_tasks)`` actual-time matrix in
    program column order and ``groups``/``path_keys`` the output of
    :meth:`CompiledPlan.executed_paths`.  Runs sharing an executed path
    are simulated together: each dispatch step is one NumPy operation
    over the group, in exactly the dict engine's float-operation order,
    so every per-run output is bit-identical to a scalar simulation.

    **Fused sweeps.**  ``prog`` may be a
    :class:`~repro.sim.sweepc.StackedProgram` covering several sweep
    points at once; ``point_of`` is then the ``(n_runs,)`` point index
    of every row of ``matrix``, and ``speed`` may be an ``(n_points,)``
    vector of per-point fixed speeds.  Per-point constants are gathered
    into each path group, so every run still sees exactly its own
    point's floats — fused outputs are bit-identical to evaluating the
    points one program at a time.
    """
    n = matrix.shape[0]
    m = prog.m
    deadline = prog.deadline
    s_max = power.s_max

    if isinstance(speed, np.ndarray):
        # fused: one fixed speed per point; every derived preamble
        # constant is computed with the same scalar formulas, selected
        # per point — bit-identical to the scalar preamble per point
        switched = np.abs(speed - s_max) > _EPS
        t0 = np.where(switched, overhead.adjust_time, 0.0)
        overhead_time = np.where(switched, m * overhead.adjust_time, 0.0)
        e_over = np.where(switched, m * overhead.adjustment_energy(power),
                          0.0)
        n_changes = np.where(switched, m, 0)
        p_busy = power.power_table(speed)
    else:
        switched = abs(speed - s_max) > _EPS
        t0 = overhead.adjust_time if switched else 0.0
        overhead_time = m * overhead.adjust_time if switched else 0.0
        e_over = m * overhead.adjustment_energy(power) if switched else 0.0
        n_changes = m if switched else 0
        p_busy = power.power(speed)
    idle_power = power.idle_power

    total_energy = np.empty(n)
    finish_time = np.empty(n)

    for path, idx in groups:
        block = matrix[idx]
        ng = idx.size
        rows = np.arange(ng)
        pt = point_of[idx] if point_of is not None else None
        speed_g = _gather(speed, pt)
        p_busy_g = _gather(p_busy, pt)
        t0_g = _gather(t0, pt)
        dl_g = _gather(deadline, pt)
        ot_g = _gather(overhead_time, pt)
        eo_g = _gather(e_over, pt)
        fin = np.empty((ng, prog.n_slots))
        if isinstance(t0_g, np.ndarray):
            proc_free = np.repeat(t0_g[:, None], m, axis=1)
            last_dispatch = t0_g.copy()
            t_section = t0_g.copy()
            t_end = t0_g.copy()
        else:
            proc_free = np.full((ng, m), t0_g)
            last_dispatch = np.full(ng, t0_g)
            t_section = np.full(ng, t0_g)
            t_end = np.full(ng, t0_g)
        busy_time = np.zeros(ng)
        e_busy = np.zeros(ng)

        for sid in path:
            sec = prog.sections[sid]
            sec_max = None
            for is_and, gid, col, c, fb, name, preds in sec.entries:
                ready = t_section.copy()
                for p in preds:
                    np.maximum(ready, fin[:, p], out=ready)
                if is_and:
                    fin[:, gid] = ready
                    if sec_max is None:
                        sec_max = ready.copy()
                    else:
                        np.maximum(sec_max, ready, out=sec_max)
                    continue

                j = np.argmin(proc_free, axis=1)  # first-idle, lowest id
                t = np.maximum(np.maximum(ready, last_dispatch),
                               proc_free[rows, j])
                last_dispatch = t
                actual = block[:, col]
                c_g = _gather(c, pt)
                over = actual > c_g * (1 + 1e-9)
                if over.any():
                    k = int(np.argmax(over))
                    raise SimulationError(
                        f"actual time {actual[k]} of {name!r} exceeds "
                        f"WCET {_at(c_g, k)}")
                wall = actual / speed_g
                finish = t + wall
                busy_time += wall
                e_busy += p_busy_g * wall
                proc_free[rows, j] = finish
                fin[:, gid] = finish
                if sec_max is None:
                    sec_max = finish.copy()
                else:
                    np.maximum(sec_max, finish, out=sec_max)

            if sec_max is None:
                t_end = t_section
            else:
                t_end = np.maximum(sec_max, t_section)
            # synchronize at the OR before the next section of the path
            t_section = t_end
            last_dispatch = t_end
            proc_free = np.broadcast_to(t_end[:, None], (ng, m)).copy()

        if check_deadline:
            late = t_end > dl_g * (1 + 1e-9) + _EPS
            if late.any():
                k = int(np.argmax(late))
                raise DeadlineMissError(float(t_end[k]),
                                        float(_at(dl_g, k)),
                                        scheme=scheme)
        window = m * np.maximum(dl_g, t_end)
        idle_time = window - busy_time - ot_g
        if isinstance(dl_g, np.ndarray):
            thresh = -1e-6 * np.where(dl_g > 1.0, dl_g, 1.0)
        else:
            thresh = -1e-6 * (dl_g if dl_g > 1.0 else 1.0)
        bad = idle_time < thresh
        if bad.any():
            k = int(np.argmax(bad))
            raise SimulationError(
                f"negative idle time {idle_time[k]}: busy={busy_time[k]}, "
                f"overhead={_at(ot_g, k)}, window={window[k]}")
        e_idle = idle_power * np.maximum(idle_time, 0.0)
        total_energy[idx] = e_busy + e_idle + eo_g
        finish_time[idx] = t_end

    return FixedBatchResult(scheme, total_energy, finish_time, n_changes,
                            list(path_keys))


class DynamicBatchResult:
    """Per-run outputs of one vectorized dynamic-scheme batch simulation."""

    __slots__ = ("scheme", "total_energy", "finish_time", "n_speed_changes",
                 "path_keys")

    def __init__(self, scheme: str, total_energy: np.ndarray,
                 finish_time: np.ndarray, n_speed_changes: np.ndarray,
                 path_keys: List[str]):
        self.scheme = scheme
        self.total_energy = total_energy
        self.finish_time = finish_time
        #: switches per run, as an int array (runs differ)
        self.n_speed_changes = n_speed_changes
        self.path_keys = path_keys


def supports_dynamic_batch(policy_run, power: PowerModel) -> bool:
    """Whether :func:`run_dynamic_batch` can replay ``policy_run`` exactly.

    Requires a discrete power model (the vector snap-up indexes its
    level table) and a run whose behaviour is fully declared by the
    :class:`~repro.core.base.PolicyRun` protocol attributes: a dynamic
    speed, a floor that is either a constant (``floor_const``), a single
    step (``floor_step``) or an OR-respeculated constant (``or_respec``)
    — i.e. GSS, SS1, SS2, AS and PS.  A subclass that overrides
    ``on_or_fired`` without declaring ``or_respec`` falls back to the
    scalar kernel.
    """
    from ..core.base import PolicyRun  # local import breaks the cycle
    if getattr(power, "_speeds", None) is None:
        return False
    if policy_run.fixed_speed is not None:
        return False
    if policy_run.floor_const is None and policy_run.floor_step is None:
        return False
    if (type(policy_run).on_or_fired is not PolicyRun.on_or_fired
            and policy_run.or_respec not in ("average", "worst")):
        return False
    return True


def run_dynamic_batch(prog, power: PowerModel,
                      overhead: OverheadModel, matrix: np.ndarray,
                      groups, path_keys: List[str], specs,
                      check_deadline: bool = True,
                      point_of: Optional[np.ndarray] = None,
                      kernel_tier: Optional[str] = None
                      ) -> List[DynamicBatchResult]:
    """Vectorized dynamic-scheme simulation of a whole realization batch.

    ``specs`` lists ``(scheme, policy_run)`` pairs that
    :func:`supports_dynamic_batch` accepts; the result holds one
    :class:`DynamicBatchResult` per pair, in order.  Dispatches like
    :func:`run_fixed_batch`; all tiers are bit-identical, and the
    contract is documented on :func:`_run_dynamic_legacy`.
    """
    return _dispatch(1, kernel_tier, (prog, power, overhead, matrix,
                                      groups, path_keys), specs,
                     check_deadline, point_of)


def _run_dynamic_legacy(prog, power: PowerModel,
                        overhead: OverheadModel, matrix: np.ndarray,
                        groups, path_keys: List[str], policy_run,
                        scheme: str,
                        check_deadline: bool = True,
                        point_of: Optional[np.ndarray] = None
                        ) -> DynamicBatchResult:
    """Vectorized dynamic-scheme simulation of a whole realization batch
    (the ``legacy`` kernel tier — the differential-testing reference).

    The dynamic counterpart of :func:`run_fixed_batch` for the schemes
    that :func:`supports_dynamic_batch` accepts.  Each processor's
    current speed is tracked as an *index* into the discrete level
    table, so the per-level speed-computation time and power draw become
    single fancy-indexing gathers; the greedy required speed, the floor,
    the snap-up (``searchsorted`` with the same ``1e-12`` epsilon as
    ``DiscretePowerModel.snap_up``) and the switch bookkeeping are one
    NumPy operation each across a path group.  Where the scalar engine
    *skips* an accumulation (no speed-computation overhead, no switch),
    this kernel adds an exact ``0.0``, which is bit-identical on the
    non-negative accumulators involved.

    ``policy_run`` is consulted only for its protocol attributes
    (``floor_const``/``floor_step``/``or_respec``) and is not mutated.
    The only observable difference from running the scalar kernel n
    times is *which* run raises first when a plan is infeasible — errors
    surface in path-group order rather than run order.

    **Fused sweeps.**  ``prog`` may be a
    :class:`~repro.sim.sweepc.StackedProgram` with ``point_of`` the
    per-run point index; the run's protocol attributes
    (``floor_const``, the ``floor_step`` triple) may then hold
    ``(n_points,)`` vectors, and the program's per-entry constants and
    branch statistics are gathered per group — every run computes with
    exactly its own point's floats.
    """
    n = matrix.shape[0]
    m = prog.m
    deadline = prog.deadline
    s_max = power.s_max
    s_max_guard = s_max * (1 + 1e-6)

    # per-level constants, cached on the model/overhead instances and
    # computed through the scalar API, so every gathered value is the
    # exact float the dict engine uses
    speeds_arr = power.level_speed_table()
    n_lv = speeds_arr.size
    pow_arr = power.level_power_table()
    tc_arr = overhead.computation_time_table(power)
    adjust_time = overhead.adjust_time
    adj_energy = overhead.adjustment_energy(power)
    idle_power = power.idle_power

    fc = policy_run.floor_const
    step = policy_run.floor_step
    respec = policy_run.or_respec

    total_energy = np.empty(n)
    finish_time = np.empty(n)
    n_changes = np.empty(n, dtype=np.int64)

    for path, idx in groups:
        block = matrix[idx]
        ng = idx.size
        rows = np.arange(ng)
        pt = point_of[idx] if point_of is not None else None
        fc_g = _gather(fc, pt)
        if step is not None:
            f_lo_g = _gather(step[0], pt)
            f_hi_g = _gather(step[1], pt)
            theta_g = _gather(step[2], pt)
        dl_g = _gather(deadline, pt)
        fin = np.empty((ng, prog.n_slots))
        proc_free = np.zeros((ng, m))
        # every processor starts at S_max = the top level
        proc_idx = np.full((ng, m), n_lv - 1, dtype=np.intp)
        last_dispatch = np.zeros(ng)
        t_section = np.zeros(ng)
        busy_time = np.zeros(ng)
        overhead_time = np.zeros(ng)
        e_busy = np.zeros(ng)
        e_over = np.zeros(ng)
        changes = np.zeros(ng, dtype=np.int64)
        fl_vec = None  # AS/PS floor after the first OR fires
        t_end = np.zeros(ng)

        for pos, sid in enumerate(path):
            sec = prog.sections[sid]
            sec_max = None
            for is_and, gid, col, c, fb, name, preds in sec.entries:
                ready = t_section.copy()
                for p in preds:
                    np.maximum(ready, fin[:, p], out=ready)
                if is_and:
                    fin[:, gid] = ready
                    if sec_max is None:
                        sec_max = ready.copy()
                    else:
                        np.maximum(sec_max, ready, out=sec_max)
                    continue

                j = np.argmin(proc_free, axis=1)  # first-idle, lowest id
                t = np.maximum(np.maximum(ready, last_dispatch),
                               proc_free[rows, j])
                last_dispatch = t
                actual = block[:, col]
                c_g = _gather(c, pt)
                fb_g = _gather(fb, pt)
                over = actual > c_g * (1 + 1e-9)
                if over.any():
                    k = int(np.argmax(over))
                    raise SimulationError(
                        f"actual time {actual[k]} of {name!r} exceeds "
                        f"WCET {_at(c_g, k)}")

                si = proc_idx[rows, j]
                t_comp = tc_arr[si]
                avail = fb_g - t - t_comp
                denom = avail - adjust_time
                with np.errstate(divide="ignore"):
                    s_req = np.where(denom > 0, c_g / denom, math.inf)
                if step is not None:
                    fl = np.where(t < theta_g, f_lo_g, f_hi_g)
                elif fl_vec is not None:
                    fl = fl_vec
                else:
                    fl = fc_g
                target = np.maximum(s_req, fl)
                viol = target > s_max_guard
                if viol.any():
                    k = int(np.argmax(viol))
                    raise SimulationError(
                        f"guarantee violated for {name!r}: required "
                        f"speed {target[k]:.6g} exceeds maximum "
                        f"(t={t[k]:.6g}, bound={_at(fb_g, k):.6g})")
                want = np.minimum(target, s_max)
                new_idx = np.searchsorted(speeds_arr, want - 1e-12,
                                          side="left")
                np.clip(new_idx, 0, n_lv - 1, out=new_idx)
                speed = speeds_arr[new_idx]
                s_cur = speeds_arr[si]
                changed = np.abs(speed - s_cur) > _EPS
                t_adj = np.where(changed, adjust_time, 0.0)
                start_exec = t + t_comp + t_adj
                overhead_time += t_comp
                e_over += pow_arr[si] * t_comp
                overhead_time += t_adj
                e_over += np.where(changed, adj_energy, 0.0)
                changes += changed
                proc_idx[rows, j] = np.where(changed, new_idx, si)

                wall = actual / speed
                finish = start_exec + wall
                busy_time += wall
                e_busy += pow_arr[new_idx] * wall
                proc_free[rows, j] = finish
                fin[:, gid] = finish
                if sec_max is None:
                    sec_max = finish.copy()
                else:
                    np.maximum(sec_max, finish, out=sec_max)

            if sec_max is None:
                t_end = t_section
            else:
                t_end = np.maximum(sec_max, t_section)
            # synchronize at the OR before the next section of the path
            t_section = t_end
            last_dispatch = t_end
            proc_free = np.broadcast_to(t_end[:, None], (ng, m)).copy()
            if respec is not None and pos + 1 < len(path):
                # on_or_fired: re-speculate the constant floor from the
                # fired branch's remaining-time statistics, exactly like
                # speculative_speed() but across the group
                worst, average = sec.branch_stats[path[pos + 1]]
                work = _gather(average if respec == "average" else worst,
                               pt)
                horizon = dl_g - t_end
                with np.errstate(divide="ignore", invalid="ignore"):
                    raw = work / horizon
                want = np.minimum(raw, s_max)
                snap_idx = np.searchsorted(speeds_arr, want - 1e-12,
                                           side="left")
                np.clip(snap_idx, 0, n_lv - 1, out=snap_idx)
                fl_vec = np.where(horizon > 0, speeds_arr[snap_idx], s_max)

        if check_deadline:
            late = t_end > dl_g * (1 + 1e-9) + _EPS
            if late.any():
                k = int(np.argmax(late))
                raise DeadlineMissError(float(t_end[k]),
                                        float(_at(dl_g, k)),
                                        scheme=scheme)
        window = m * np.maximum(dl_g, t_end)
        idle_time = window - busy_time - overhead_time
        if isinstance(dl_g, np.ndarray):
            thresh = -1e-6 * np.where(dl_g > 1.0, dl_g, 1.0)
        else:
            thresh = -1e-6 * (dl_g if dl_g > 1.0 else 1.0)
        bad = idle_time < thresh
        if bad.any():
            k = int(np.argmax(bad))
            raise SimulationError(
                f"negative idle time {idle_time[k]}: busy={busy_time[k]}, "
                f"overhead={overhead_time[k]}, window={window[k]}")
        e_idle = idle_power * np.maximum(idle_time, 0.0)
        total_energy[idx] = e_busy + e_idle + e_over
        finish_time[idx] = t_end
        n_changes[idx] = changes

    return DynamicBatchResult(scheme, total_energy, finish_time, n_changes,
                              list(path_keys))
