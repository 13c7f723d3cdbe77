"""Process-pool fan-out of independent sweep points.

Each sweep point (one x-value of one figure) is an independent
Monte-Carlo evaluation, so the natural parallel decomposition is one
point per worker process — the same owner-computes pattern as an MPI
scatter/gather, implemented with the standard library so the package
stays dependency-light.  Results come back in submission order, keeping
sweeps deterministic regardless of worker scheduling.

``n_jobs=1`` (the default, with no context supplied) bypasses the pool
entirely — on single-core boxes the pickling round-trip costs more than
it buys.

Since PR 4 the pool itself lives in an
:class:`~repro.experiments.engine.ExecutionContext`: pass one
``context`` to share a single persistent pool (and optionally an
evaluation cache) across every map call of a sweep, figure or suite,
instead of paying pool spin-up per call.  Without a context, each call
creates and disposes its own — the pre-PR-4 behaviour.

Failure semantics: deterministic worker exceptions fail fast — the
outstanding futures are cancelled and the error is re-raised as
:class:`~repro.errors.ParallelError` carrying the failing point's
arguments, with the original exception chained as ``__cause__``.
*Partial* failures (a crashed worker, a hung point, a transport
problem) are instead retried/re-dispatched by the execution context
according to the configs'
:class:`~repro.experiments.engine.RetryPolicy` knobs
(``max_retries``/``chunk_timeout``/``degrade``), degrading to serial
execution in the parent as the last resort — results are bit-identical
under every recovery path.

There are two layers of parallelism: this module fans out across sweep
*points*, while :func:`~repro.experiments.runner.evaluate_application`
can additionally fan out the Monte-Carlo *runs* inside one point
(``RunConfig.n_jobs``).  When the point-level pool is active, the
per-point config is forced to ``n_jobs=1`` so workers never nest pools.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ParallelError
from ..graph.andor import AndOrGraph, Application
from ..workloads.scaling import application_with_load
from .engine import ExecutionContext, resolve_jobs
from .runner import EvaluationResult, RunConfig, evaluate_application

__all__ = [
    "resolve_jobs", "collect_in_order", "map_evaluations",
    "map_load_points", "map_applications", "map_custom",
]


def collect_in_order(pool: ProcessPoolExecutor, futures: Sequence,
                     labels: Sequence[str]) -> List:
    """Gather futures in submission order, failing fast with context.

    On the first worker exception the remaining futures are cancelled
    and the pool is shut down without waiting, then the error is
    re-raised as :class:`ParallelError` naming the failing work item.
    """
    results = []
    for future, label in zip(futures, labels):
        try:
            results.append(future.result())
        except Exception as exc:
            pool.shutdown(wait=False, cancel_futures=True)
            raise ParallelError(label, exc) from exc
    return results


def _evaluate_app_point(index: int, app: Application,
                        config: RunConfig) -> EvaluationResult:
    from ..errors import FaultInjected
    from . import faults
    from .fused import ShardTask, run_shard
    if isinstance(app, ShardTask):
        # a fused-sweep shard traveling through the point protocol
        # (both backends route their tasks here, so shards inherit
        # retry/steal/degrade without a wire-protocol change); its own
        # shard-exec fault site fires inside run_shard
        return run_shard(app)
    if faults.fire("worker-chunk", key=index) == "raise":
        raise FaultInjected(f"injected worker fault at point {index}")
    return evaluate_application(app, config)


def map_evaluations(apps: Sequence[Application],
                    config, n_jobs: int = 1,
                    context: Optional[ExecutionContext] = None,
                    labels: Optional[Sequence[str]] = None,
                    fused: bool = True) -> List[EvaluationResult]:
    """Evaluate several applications on one shared execution context.

    The engine-aware core of every point mapper: consults the context's
    evaluation cache point by point (only misses are computed), then
    evaluates the misses by the cheapest applicable strategy —

    0. **dispatch**: when the context's backend is ``"dispatch"`` (and
       at least two executors resolve), misses ship to the
       work-stealing executor fleet
       (:func:`~repro.experiments.dispatch.dispatch_points`); an
       unreachable fleet falls through to the local strategies below;
    1. **fused** (the default): structurally homogeneous points are
       stacked into one array program and executed in a single batch-
       kernel pass in the parent, no pool at all
       (:func:`~repro.experiments.fused.evaluate_points_fused`);
    2. **point-level pool**: heterogeneous points (or ``fused=False``)
       fan out one point per worker over the persistent pool, with
       per-point configs forced to ``n_jobs=1`` (pools never nest);
    3. **serial loop**: when the resolved worker count is 1.

    Fresh results are stored back into the cache per point regardless
    of strategy, results keep submission order, and every strategy is
    bit-identical to a serial loop.

    ``config`` is one :class:`RunConfig` shared by every point, or a
    sequence of per-point configs (same length as ``apps``) for sweeps
    whose x-axis is a config field (processor count, overhead, …).
    """
    if isinstance(config, RunConfig):
        configs: List[RunConfig] = [config] * len(apps)
    else:
        configs = list(config)
        if len(configs) != len(apps):
            raise ParallelError(
                f"{len(configs)} configs for {len(apps)} applications",
                ValueError("apps/configs length mismatch"))
    if labels is None:
        labels = [f"app={app.name!r}" for app in apps]
    owned = context is None
    if context is not None:
        ctx = context
    else:
        # an owned context honors the configs' execution knobs (the CLI
        # ships backend/executors/connect through the RunConfig) and the
        # session defaults (REPRO_BACKEND / REPRO_EXECUTORS)
        from .engine import default_executors
        cfg0 = configs[0]
        ctx = ExecutionContext(
            n_jobs=resolve_jobs(n_jobs, n_items=len(apps)),
            backend=cfg0.backend,
            executors=(cfg0.executors if cfg0.executors is not None
                       else default_executors()),
            connect=cfg0.connect)
    try:
        results: List[Optional[EvaluationResult]] = [None] * len(apps)
        pending = list(range(len(apps)))
        keys: List[str] = []
        if ctx.cache is not None:
            # cache lookups happen here in the parent — workers stay
            # cache-blind, so concurrent sweeps never race on entries
            from .evalcache import evaluation_key
            keys = [evaluation_key(app, cfg)
                    for app, cfg in zip(apps, configs)]
            pending = []
            for i, app in enumerate(apps):
                hit = ctx.cache.get(keys[i], app.name, configs[i])
                if hit is not None:
                    results[i] = hit
                else:
                    pending.append(i)
        if not pending:
            return results

        def _fused_attempt():
            from .fused import evaluate_points_fused
            try:
                computed = evaluate_points_fused(
                    [apps[i] for i in pending],
                    [configs[i] for i in pending],
                    context=ctx)
            except Exception as exc:
                raise ParallelError(
                    f"fused sweep over {len(pending)} point(s)",
                    exc) from exc
            if computed is not None:
                for i, res in zip(pending, computed):
                    results[i] = res
                    if ctx.cache is not None:
                        ctx.cache.put(keys[i], res)
            return computed

        shard_requested = False
        if fused and len(pending) > 1:
            from .fused import default_shards
            shard_requested = (configs[0].shards is not None
                               or default_shards() is not None)

        if shard_requested:
            # a sharded fused sweep fans out over this context's own
            # backend (pool workers or the dispatch fleet), so it
            # outranks per-point dispatch of the demoted path
            if _fused_attempt() is not None:
                return results
            # not fusable: the per-point strategies below still apply

        if ctx.backend == "dispatch" and ctx.dispatch_jobs() >= 2:
            # distributed fan-out: pending points go to the executor
            # fleet; cache misses only, exactly like the local paths
            from .dispatch import dispatch_points
            computed = dispatch_points(
                ctx, [apps[i] for i in pending],
                [configs[i] for i in pending],
                labels=[labels[i] for i in pending],
                policy=configs[0].retry_policy(),
                keys=[keys[i] for i in pending] if keys else None)
            if computed is not None:
                for i, res in zip(pending, computed):
                    results[i] = res
                    if ctx.cache is not None:
                        ctx.cache.put(keys[i], res)
                return results
            # no executors reachable: degrade to the local paths below

        if fused and len(pending) > 1 and not shard_requested:
            if _fused_attempt() is not None:
                return results
            # not fusable: fall through to per-point evaluation

        if ctx.jobs(n_items=len(pending)) == 1:
            # serial point loop; a caller-supplied context provides the
            # cache (each point stores itself) and the opt-in run-level
            # pool — an owned one carries neither, so points keep
            # managing their own pools as before
            point_ctx = None if owned else ctx
            for i in pending:
                # the cache was probed above: pass the missed key on so
                # the point stores itself without a second lookup
                results[i] = evaluate_application(
                    apps[i], configs[i], context=point_ctx,
                    cache_key=keys[i] if keys else None)
            return results
        # workers must not nest pools: point configs go out serial
        computed = ctx.map(
            _evaluate_app_point,
            [(i, apps[i], configs[i].with_(n_jobs=1))
             for i in pending],
            [labels[i] for i in pending],
            policy=configs[0].retry_policy())
        for i, res in zip(pending, computed):
            results[i] = res
            if ctx.cache is not None:
                ctx.cache.put(keys[i], res)
        return results
    finally:
        if owned:
            ctx.close()


def map_load_points(graph: AndOrGraph, loads: Sequence[float],
                    config: RunConfig, n_jobs: int = 1,
                    context: Optional[ExecutionContext] = None,
                    fused: bool = True) -> List[EvaluationResult]:
    """Evaluate one application at several loads.

    Load points share the graph shape, so by default the whole sweep
    fuses into one array program — even the plain serial call with no
    context goes through the fused path now, which is what makes
    ``sweep_load`` fast without any pool at all.
    """
    apps = []
    for ld in loads:
        try:
            apps.append(application_with_load(graph, ld, config.n_processors))
        except Exception as exc:
            raise ParallelError(f"load={ld!r}", exc) from exc
    return map_evaluations(apps, config, n_jobs=n_jobs, context=context,
                           labels=[f"load={ld!r}" for ld in loads],
                           fused=fused)


def map_applications(apps: Sequence[Application], config: RunConfig,
                     n_jobs: int = 1,
                     context: Optional[ExecutionContext] = None,
                     fused: bool = True) -> List[EvaluationResult]:
    """Evaluate several pre-built applications (e.g. an α sweep)."""
    return map_evaluations(apps, config, n_jobs=n_jobs, context=context,
                           fused=fused)


def map_custom(fn: Callable, args_list: Sequence[Tuple],
               n_jobs: int = 1,
               context: Optional[ExecutionContext] = None) -> List:
    """Generic fan-out for ablation sweeps (fn must be picklable)."""
    if context is None:
        jobs = resolve_jobs(n_jobs, n_items=len(args_list))
        if jobs == 1:
            return [fn(*args) for args in args_list]
        with ExecutionContext(n_jobs=jobs) as ctx:
            return ctx.map(fn, args_list)
    if context.jobs(n_items=len(args_list)) == 1:
        return [fn(*args) for args in args_list]
    return context.map(fn, args_list)
