"""The offline phase: profile, canonical schedules, shifting, LSTs.

This implements Section 3.2's two-round offline phase:

* **round 1** — per program section, a canonical LTF list schedule with
  worst-case execution times (optionally inflated by the per-task
  overhead reserve), plus an average-case schedule for the statistical
  profile.  Recursing over the OR structure yields the worst/average
  *remaining* execution times stored at each power-management point:
  ``w``/``a`` for the whole application and ``w_i``/``a_i`` per path
  after every OR node.  If the worst case exceeds the deadline, the
  offline phase fails (:class:`~repro.errors.InfeasibleError`).
* **round 2** — shift every section's canonical schedule as late as the
  worst-case remaining work after it allows, so the application would
  finish exactly on the deadline; the shifted start of each task is its
  **latest start time** (LST), which the online phase uses to claim
  slack, and the shifted finish is the bound ``F_i = LST_i + c_i`` that
  the greedy speed computation targets.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import InfeasibleError, ValidationError
from ..graph.andor import AndOrGraph, Application
from ..graph.sections import SectionStructure
from ..graph.validate import validate_graph
from ..types import PathStats, ScheduledTask
from .canonical import CanonicalSchedule, acet_duration, list_schedule, wcet_duration


@dataclass
class SectionPlan:
    """Offline data for one program section."""

    sid: int
    schedule: CanonicalSchedule          # worst-case (possibly inflated)
    length_wc: float                      # canonical worst-case length
    length_ac: float                      # average-case canonical length
    worst_after: float = 0.0              # worst remaining after exit OR
    avg_after: float = 0.0                # average remaining after exit OR
    shift: float = 0.0                    # round-2 shift of this section
    #: per computation task: latest start time in the shifted schedule
    lst: Dict[str, float] = field(default_factory=dict)
    #: per computation task: shifted worst-case finish (LST + inflated WCET)
    finish_bound: Dict[str, float] = field(default_factory=dict)
    #: dispatch order (computation + AND nodes)
    dispatch_order: List[str] = field(default_factory=list)
    #: per node: predecessors within the section (immutable tuples, so
    #: plans built from one canonical stage copy only the dict)
    preds_within: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def worst_from_here(self) -> float:
        """Worst-case remaining time from this section's start."""
        return self.length_wc + self.worst_after

    @property
    def avg_from_here(self) -> float:
        return self.length_ac + self.avg_after


@dataclass
class OfflinePlan:
    """Everything the online phase needs, computed once per application.

    ``reserve`` is the per-task time reserved for runtime overheads
    (speed computation + one voltage switch); the dynamic schemes build
    their plan with the reserve, the static baselines with reserve 0.
    """

    app: Application
    structure: SectionStructure
    n_processors: int
    reserve: float
    sections: Dict[int, SectionPlan]
    t_worst: float
    t_avg: float
    #: per OR node, per successor section id: remaining-time statistics
    branch_stats: Dict[str, Dict[int, PathStats]]
    #: list-scheduling priority the canonical schedules were built with;
    #: part of the plan's identity (it reorders sections), recorded so
    #: content-addressed caches can key compiled programs by it
    heuristic: str = "ltf"
    #: lazily compiled section program (:mod:`repro.sim.compiled`); the
    #: deadline-shifted finish bounds bake into it, so it lives on the
    #: plan instance rather than in the deadline-independent round-1
    #: cache above.  Per-process, like that cache.
    compiled: Optional[object] = field(default=None, repr=False,
                                       compare=False)

    @property
    def deadline(self) -> float:
        return self.app.deadline

    def fingerprint(self) -> Tuple[str, float, int, float, str]:
        """Content identity of the plan (not the instance).

        Two :func:`build_plan` calls with equal inputs produce plans
        with equal fingerprints, which is what lets long-lived worker
        processes reuse a compiled section program across plan
        *instances* (:mod:`repro.sim.compiled`'s program cache).
        """
        return (graph_fingerprint(self.app.graph), float(self.deadline),
                self.n_processors, float(self.reserve), self.heuristic)

    @property
    def static_slack(self) -> float:
        return self.deadline - self.t_worst

    def section_plan(self, sid: int) -> SectionPlan:
        return self.sections[sid]

    def remaining_stats(self, or_name: str, target_sid: int) -> PathStats:
        """The PMP's ``(w_i, a_i)`` for one path after an OR node."""
        return self.branch_stats[or_name][target_sid]


@dataclass
class _CanonicalStage:
    """The deadline-independent part of the offline phase for one key.

    Canonical list schedules depend only on the graph, the processor
    count, the reserve and the heuristic — not on the deadline — and so
    does everything derived from them: each section's worst/average
    remaining time after its exit OR, the per-branch ``(w_i, a_i)``
    statistics and the application's ``T_worst``/``T_avg``.  Only
    round 2's shift (``D − worst_from_here``) sees the deadline, so a
    load sweep that revisits one graph at many deadlines reuses this
    read-only snapshot and :func:`build_plan` copies it and shifts.
    """

    structure: SectionStructure
    #: sid -> unshifted section plan (``shift``/``lst``/``finish_bound``
    #: unset); never handed out, only copied
    sections: Dict[int, SectionPlan]
    #: per OR node, per successor section id: remaining-time statistics
    branch_stats: Dict[str, Dict[int, PathStats]]
    t_worst: float
    t_avg: float


#: canonical-stage cache: (graph fingerprint, m, reserve, heuristic) ->
#: :class:`_CanonicalStage`.  Per-process (workers each grow their own),
#: bounded LRU.  Not thread-safe; the library is process-parallel only.
_PLAN_CACHE: "OrderedDict[Tuple[str, int, float, str], _CanonicalStage]" \
    = OrderedDict()
_PLAN_CACHE_MAX = 64
_plan_cache_hits = 0
_plan_cache_misses = 0


def graph_fingerprint(graph: AndOrGraph) -> str:
    """A deterministic content hash of a graph (nodes, edges, probabilities).

    Two structurally identical graphs fingerprint identically regardless
    of object identity; any change to a node's timing, an edge, or a
    branch probability changes the digest.  Used as the graph component
    of the offline-plan, program and evaluation cache keys, and
    memoized on the graph instance until it changes
    (:meth:`AndOrGraph.derived`).
    """
    return graph.derived("fingerprint", _content_digest)


def _content_digest(graph: AndOrGraph) -> str:
    from ..graph.serialize import graph_to_dict
    payload = json.dumps(graph_to_dict(graph), sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def clear_plan_cache() -> None:
    """Drop every cached canonical stage (and reset the hit counters)."""
    global _plan_cache_hits, _plan_cache_misses
    _PLAN_CACHE.clear()
    _plan_cache_hits = 0
    _plan_cache_misses = 0


def plan_cache_stats() -> Dict[str, int]:
    """Cache effectiveness counters: ``{"hits", "misses", "size"}``."""
    return {"hits": _plan_cache_hits, "misses": _plan_cache_misses,
            "size": len(_PLAN_CACHE)}


def _canonical_stage(graph: AndOrGraph, n_processors: int,
                     reserve: float = 0.0, heuristic: str = "ltf",
                     structure: Optional[SectionStructure] = None,
                     use_cache: bool = True) -> _CanonicalStage:
    """Round 1 plus the remaining-time pass, memoized on
    ``(graph, m, reserve, heuristic)``; ``use_cache=False`` bypasses the
    memo (and does not populate it)."""
    global _plan_cache_hits, _plan_cache_misses
    key = (graph_fingerprint(graph), n_processors, float(reserve),
           heuristic)
    if use_cache:
        stage = _PLAN_CACHE.get(key)
        if stage is not None:
            _plan_cache_hits += 1
            _PLAN_CACHE.move_to_end(key)
            return stage
        _plan_cache_misses += 1

    from .heuristics import get_heuristic
    heuristic_fn = get_heuristic(heuristic)
    if structure is None:
        structure = validate_graph(graph)

    sections: Dict[int, SectionPlan] = {}
    for section in structure.sections:
        sub = structure.subgraph(section.id)
        priority = heuristic_fn(sub)
        wc = list_schedule(sub, n_processors,
                           duration=wcet_duration(sub, reserve),
                           priority=priority)
        ac = list_schedule(sub, n_processors, duration=acet_duration(sub),
                           priority=priority)
        sections[section.id] = SectionPlan(
            sid=section.id, schedule=wc, length_wc=wc.length,
            length_ac=ac.length, dispatch_order=list(wc.dispatch_order),
            preds_within={name: tuple(sub.predecessors(name))
                          for name in sub.node_names})

    branch_stats: Dict[str, Dict[int, PathStats]] = {}
    _fill_remaining(structure, sections, branch_stats, structure.root_id)
    root = sections[structure.root_id]
    stage = _CanonicalStage(structure=structure, sections=sections,
                            branch_stats=branch_stats,
                            t_worst=root.worst_from_here,
                            t_avg=root.avg_from_here)
    if use_cache:
        _PLAN_CACHE[key] = stage
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    return stage


def canonical_lengths(graph: AndOrGraph, n_processors: int,
                      reserve: float = 0.0,
                      heuristic: str = "ltf") -> Tuple[float, float]:
    """``(T_worst, T_avg)`` of the canonical schedules, no plan built.

    Reads the memoized canonical stage that :func:`build_plan` shares,
    so probing a graph's length before choosing its deadline costs a
    lookup once the stage exists.
    """
    stage = _canonical_stage(graph, n_processors, reserve, heuristic)
    return stage.t_worst, stage.t_avg


def build_plan(app: Application, n_processors: int,
               reserve: float = 0.0,
               structure: Optional[SectionStructure] = None,
               require_feasible: bool = True,
               heuristic: str = "ltf",
               use_cache: bool = True) -> OfflinePlan:
    """Run the offline phase for ``app`` on ``n_processors`` processors.

    ``heuristic`` picks the list-scheduling priority (see
    :mod:`repro.offline.heuristics`); the paper uses LTF.  Raises
    :class:`InfeasibleError` if the canonical worst case misses the
    deadline (set ``require_feasible=False`` to obtain the plan anyway,
    e.g. to measure by how much a deadline must be extended).

    Everything but the shift — canonical schedules and remaining-time
    statistics — is memoized on ``(graph fingerprint, n_processors,
    reserve, heuristic)``, so load sweeps over one graph only copy that
    stage and shift it to each deadline.  ``use_cache=False`` bypasses
    the memo (and does not populate it).
    """
    if app.deadline <= 0:  # the stage memo never sees the deadline
        raise ValidationError(
            f"deadline must be positive, got {app.deadline}")
    stage = _canonical_stage(app.graph, n_processors, reserve, heuristic,
                             structure, use_cache)
    if structure is None:
        structure = stage.structure
    if require_feasible and stage.t_worst > app.deadline * (1 + 1e-12):
        raise InfeasibleError(stage.t_worst, app.deadline,
                              detail=f"app={app.name!r}, m={n_processors}")

    sections = {sid: SectionPlan(
                    sid=sid, schedule=sp.schedule, length_wc=sp.length_wc,
                    length_ac=sp.length_ac, worst_after=sp.worst_after,
                    avg_after=sp.avg_after,
                    dispatch_order=list(sp.dispatch_order),
                    preds_within=dict(sp.preds_within))
                for sid, sp in stage.sections.items()}
    _shift(sections, app.deadline)
    return OfflinePlan(app=app, structure=structure,
                       n_processors=n_processors, reserve=reserve,
                       sections=sections, t_worst=stage.t_worst,
                       t_avg=stage.t_avg,
                       branch_stats={o: dict(stats) for o, stats in
                                     stage.branch_stats.items()},
                       heuristic=heuristic)


def _fill_remaining(structure: SectionStructure,
                    sections: Dict[int, SectionPlan],
                    branch_stats: Dict[str, Dict[int, PathStats]],
                    sid: int) -> None:
    """Post-order recursion computing worst/avg remaining after each section."""
    plan = sections[sid]
    exit_or = structure.section(sid).exit_or
    if exit_or is None:
        plan.worst_after = 0.0
        plan.avg_after = 0.0
        return
    branches = structure.branches(exit_or)
    if not branches:  # terminal merge: nothing after the OR
        plan.worst_after = 0.0
        plan.avg_after = 0.0
        branch_stats.setdefault(exit_or, {})
        return
    stats = branch_stats.setdefault(exit_or, {})
    worst = 0.0
    avg = 0.0
    for target, prob in branches:
        if target not in stats:  # shared merge targets: compute once
            _fill_remaining(structure, sections, branch_stats, target)
            child = sections[target]
            stats[target] = PathStats(worst=child.worst_from_here,
                                      average=child.avg_from_here)
        worst = max(worst, stats[target].worst)
        avg += prob * stats[target].average
    plan.worst_after = worst
    plan.avg_after = avg


def _shift(sections: Dict[int, SectionPlan], deadline: float) -> None:
    """Round 2: shift each section so worst-case work ends exactly at D.

    The shift of a section depends only on the worst-case remaining work
    *from* it (``shift = D − worst_from_here``), which is path
    independent: any OR firing that reaches the section does so no later
    than its shift, because the predecessor section's shifted finish is
    ``D − worst_after(pred) ≤ shift`` (the max over branches includes
    this one).  This is the recursive shifting of embedded OR nodes the
    paper describes, collapsed to a closed form.
    """
    for plan in sections.values():
        shift = deadline - plan.worst_from_here
        plan.shift = shift
        plan.lst = {name: shift + st.start
                    for name, st in plan.schedule.tasks.items()}
        plan.finish_bound = {name: shift + st.finish
                             for name, st in plan.schedule.tasks.items()}
