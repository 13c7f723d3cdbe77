"""Outside-in layer tracing for the benchmark.

The program under test carries no spans of its own.  Instead this
module replaces each layer's public function *where its caller looks it
up* (a module global such as ``repro.experiments.fused.run_fixed_batch``,
or a class attribute such as ``CompiledPlan.executed_paths``) with a
wrapper that records one span per call, and puts every original back
afterwards.  A span holds its name, layer, start, end, parent span and
the workload call it belongs to.

A layer's self time is its spans' durations minus the part of each
span's interval that its child spans cover.  The root span of every
call belongs to the pseudo-layer ``bench``; its self time is the
unattributed remainder, so the layers' self times plus that remainder
add up to the traced wall time exactly.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: pseudo-layer of each workload call's root span
ROOT_LAYER = "bench"


def _arg(args, kwargs, index: int, name: str):
    """A positional-or-keyword argument of the wrapped call."""
    return args[index] if len(args) > index else kwargs[name]


# Each note turns one call (args, kwargs, result) into the numbers its
# layer counts; the wrapper stores them on the span.
def _note_batch(args, kwargs, result):
    # (prog, power, overhead, matrix, ...): runs = rows of the matrix
    return {"runs": int(_arg(args, kwargs, 3, "matrix").shape[0])}


def _note_sample(args, kwargs, result):
    return {"runs": int(_arg(args, kwargs, 2, "n"))}


def _note_paths(args, kwargs, result):
    # bound method: args[0] is the program, args[2] the run count
    return {"runs": int(_arg(args, kwargs, 2, "n"))}


def _note_fused(args, kwargs, result):
    return {"fallback": result is None}


def _note_map(args, kwargs, result):
    return {"tasks": len(_arg(args, kwargs, 2, "args_list"))}


def _note_get(args, kwargs, result):
    return {"hit": result is not None}


def _note_put(args, kwargs, result):
    cache, key = args[0], _arg(args, kwargs, 1, "key")
    try:
        size = cache.path_for(key).stat().st_size
    except OSError:
        size = 0
    return {"bytes": size}


def _note_arrivals(args, kwargs, result):
    return {"count": int(result.size)}


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``owner`` is ``"module"`` or ``"module:Class"``."""

    owner: str
    attr: str
    layer: str
    kind: str = ""
    note: Optional[Callable] = None


_RUNNER = "repro.experiments.runner"
_FUSED = "repro.experiments.fused"
_ONLINE = "repro.experiments.online"

#: every layer boundary the benchmark times, at each lookup site the
#: four workloads reach (callers that import a name into their own
#: namespace are patched there; function-local ``from x import y``
#: imports resolve through the defining module at call time)
TARGETS: Tuple[Target, ...] = (
    *(Target(m, "build_plans", "offline") for m in (_RUNNER, _FUSED, _ONLINE)),
    *(Target(m, "build_plan", "offline", "build_plan")
      for m in (_RUNNER, "repro.workloads.scaling")),
    *(Target(m, "compile_plan", "compiled", "compile_plan")
      for m in ("repro.sim.compiled", _RUNNER, _FUSED, _ONLINE)),
    Target("repro.sim.kernels.interp", "build_tape", "tape", "build_tape"),
    Target(_FUSED, "stack_programs", "sweepc"),
    *(Target(m, "sample_realization_batch", "realization", "", _note_sample)
      for m in (_RUNNER, _FUSED, _ONLINE)),
    *(Target(f"{mod}:{cls}", "realization_matrix", "paths")
      for mod, cls in (("repro.sim.compiled", "CompiledPlan"),
                       ("repro.sim.sweepc", "StackedProgram"))),
    *(Target(f"{mod}:{cls}", "executed_paths", "paths", "", _note_paths)
      for mod, cls in (("repro.sim.compiled", "CompiledPlan"),
                       ("repro.sim.sweepc", "StackedProgram"))),
    *(Target(m, "run_fixed_batch", "kernels", "fixed", _note_batch)
      for m in (_RUNNER, _FUSED, _ONLINE)),
    *(Target(m, "run_dynamic_batch", "kernels", "dynamic", _note_batch)
      for m in (_RUNNER, _FUSED, _ONLINE)),
    Target("repro.sim.compiled:CompiledKernel", "run", "kernels", "scalar"),
    Target(_FUSED, "evaluate_points_fused", "fused", "", _note_fused),
    *(Target(m, "evaluate_application", "runner")
      for m in (_RUNNER, "repro.experiments.parallel")),
    Target("repro.experiments.engine:ExecutionContext", "map", "engine", "",
           _note_map),
    Target("repro.experiments.evalcache:EvaluationCache", "get", "evalcache",
           "get", _note_get),
    Target("repro.experiments.evalcache:EvaluationCache", "put", "evalcache",
           "put", _note_put),
    Target(_ONLINE, "simulate_online", "online"),
    Target(f"{_ONLINE}:OnlineConfig", "arrival_times", "arrivals", "",
           _note_arrivals),
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    kind: str
    start: float
    end: float
    parent: Optional[int]
    call: int
    info: Dict[str, object]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve_owner(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder plus the wrap/restore machinery.

    ``install()`` wraps every target, ``restore()`` puts the originals
    back (also after a failed install); spans stay in memory until
    :meth:`dump` writes them.  Not re-entrant across threads: each
    thread keeps its own parent stack, and spans from threads other
    than the caller's have no parent.
    """

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._next_id = 0
        self.call = -1

    # -- span recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def span(self, name: str, layer: str, fn: Callable, *args,
             kind: str = "", note: Optional[Callable] = None, **kwargs):
        """Call ``fn`` inside one recorded span and return its result."""
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if not ok:
                info: Dict[str, object] = {"raised": True}
            else:
                info = note(args, kwargs, result) if note is not None else {}
            self.spans.append(Span(sid, name, layer, kind, start, end,
                                   parent, self.call, info))

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        name = f"{target.owner}.{target.attr}"
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, target.layer, original, *args,
                               kind=target.kind, note=target.note, **kwargs)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        traced.__name__ = getattr(original, "__name__", target.attr)
        return traced

    # -- wrapping ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target where its caller looks it up."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                owner = _resolve_owner(target.owner)
                # the raw attribute, so a class keeps a plain function
                # (re-bound as a method through the wrapper)
                original = vars(owner)[target.attr]
                self._saved.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrapper(target, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per-span self time: duration minus its children's coverage.

    Children are clipped to the parent's interval and overlapping
    children count once, so repeated or overlapping child spans never
    drive a self time negative.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


def _under(span: Span, by_id: Dict[int, Span], layer: str) -> Optional[Span]:
    """The nearest ancestor of ``span`` in ``layer``, if any."""
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.layer == layer:
            return parent
        parent = by_id.get(parent.parent) if parent.parent is not None \
            else None
    return None


def layer_summary(spans: Sequence[Span]) -> Dict[str, float]:
    """Totals over a set of spans: self times and counts per layer.

    Keys are per-layer metric names, as totals over the spans given;
    ``run.per_layer_metrics`` divides them by the traced call count.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    fused_tasks: Dict[int, int] = {}
    for span in spans:
        own = selfs[span.id]
        layer = span.layer
        if layer == ROOT_LAYER:
            add("trace.wall_s", span.duration)
            add("trace.unattributed_s", own)
            continue
        if layer == "kernels":
            add(f"kernels.{span.kind}_self_s", own)
            if span.kind == "scalar":
                add("kernels.scalar_runs", 1)
            else:
                add("kernels.calls", 1)
                add("kernels.runs", span.info.get("runs", 0))
            continue
        if layer == "engine":
            add("engine.map_s", own)
            add("engine.tasks", span.info.get("tasks", 0))
            fused = _under(span, by_id, "fused")
            if fused is not None:
                fused_tasks[fused.id] = (fused_tasks.get(fused.id, 0)
                                         + int(span.info.get("tasks", 0)))
            continue
        if layer == "evalcache":
            add(f"evalcache.{span.kind}_s", own)
            if span.kind == "get":
                add("evalcache.hits" if span.info.get("hit")
                    else "evalcache.misses", 1)
            else:
                add("evalcache.bytes_written", span.info.get("bytes", 0))
            continue
        add(f"{layer}.self_s", own)
        if layer in ("offline", "compiled", "tape"):
            # the cached unit: build_plan / compile_plan / build_tape
            if span.kind:
                add(f"{layer}.calls", 1)
        elif layer in ("sweepc", "runner"):
            add(f"{layer}.calls", 1)
        elif layer in ("realization", "paths"):
            add(f"{layer}.runs", span.info.get("runs", 0))
        elif layer == "fused":
            add("fused.passes", 1)
            if span.info.get("fallback"):
                add("fused.fallbacks", 1)
        elif layer == "arrivals":
            add("arrivals.count", span.info.get("count", 0))
    # a fused pass that mapped no tasks ran inline: one shard
    for span in spans:
        if span.layer == "fused" and not span.info.get("fallback"):
            add("fused.shards", fused_tasks.get(span.id, 0) or 1)
    return out
