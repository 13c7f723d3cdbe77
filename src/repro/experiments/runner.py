"""Monte-Carlo evaluation of scheduling schemes on one application.

The unit of work is :func:`evaluate_application`: build the offline
plans once, then simulate ``n_runs`` paired realizations under every
requested scheme, returning per-run *normalized* (to NPM on the same
realization) energies plus bookkeeping counters.  Sweeps
(:mod:`repro.experiments.sweeps`) call it per x-value, optionally
fanning points out over a process pool (:mod:`repro.experiments.parallel`).

Determinism: one ``seed`` fixes the whole evaluation — realizations are
drawn from ``numpy.random.default_rng(seed)`` in run order, and the
schemes see identical realizations.

One evaluation always runs in the calling process: with the compiled
kernels a run costs tens of microseconds, so the profitable parallel
axes are the sweep points (:mod:`repro.experiments.parallel`) and the
fused run axis of a whole sweep (:mod:`repro.experiments.fused`), not
the runs inside one point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import SpeedPolicy
from ..core.registry import PAPER_SCHEMES, get_policy
from ..errors import ConfigError, InfeasibleError
from ..graph.andor import Application
from ..offline.plan import OfflinePlan, build_plan
from ..power.model import PowerModel, make_power_model
from ..power.overhead import NO_OVERHEAD, PAPER_OVERHEAD, OverheadModel
from ..sim.compiled import (
    CompiledKernel,
    compile_plan,
    run_dynamic_batch,
    run_fixed_batch,
    supports_dynamic_batch,
)
from ..sim.engine import simulate
from ..sim.realization import (
    Realization,
    RealizationBatch,
    sample_realization_batch,
)
from ..sim.sweepc import _stack_values


#: engines selectable via :attr:`RunConfig.engine`
ENGINES = ("compiled", "dict")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one Monte-Carlo evaluation."""

    schemes: Tuple[str, ...] = PAPER_SCHEMES
    power_model: str = "transmeta"
    n_processors: int = 2
    n_runs: int = 1000
    seed: int = 2002  # the paper's year; any fixed value works
    overhead: OverheadModel = PAPER_OVERHEAD
    sigma_fraction: float = 1.0 / 3.0
    idle_fraction: float = 0.05
    heuristic: str = "ltf"  # list-scheduling priority (paper: LTF)
    #: simulation kernel: "compiled" (integer-indexed section program,
    #: the default) or "dict" (the reference string-keyed engine);
    #: results are bit-identical either way
    engine: str = "compiled"
    #: re-dispatches per point/shard after a retryable failure (worker
    #: crash, hung task, transport failure) before degrading that item
    #: to serial execution in the parent
    max_retries: int = 2
    #: seconds one dispatched point/shard may run per attempt before it
    #: is considered hung and re-dispatched (0 = no timeout)
    chunk_timeout: float = 0.0
    #: whether exhausted retry budgets degrade to serial execution in
    #: the parent (with a warning) instead of raising ParallelError
    degrade: bool = True
    #: execution backend for the *sweep-point* fan-out: ``"local"``
    #: (fused/pooled, the default) or ``"dispatch"`` (the work-stealing
    #: executor fleet of :mod:`repro.experiments.dispatch`).  ``None``
    #: resolves to the session default (``REPRO_BACKEND``).  Execution
    #: knob — never part of the evaluation cache key.
    backend: Optional[str] = None
    #: executor-count request for the dispatch backend (clamped to the
    #: number of sweep points); ``None`` falls back to the sweep's job
    #: request.  Execution knob — never cached on.
    executors: Optional[int] = None
    #: dispatch rendezvous endpoint ``"host:port"`` the driver binds
    #: (``None`` = loopback, ephemeral port).  Execution knob — never
    #: part of the evaluation cache key.
    connect: Optional[str] = None
    #: shard request for the fused sweep path: ``None`` (resolve the
    #: ``REPRO_SHARDS`` session default; unset everywhere = monolithic),
    #: ``0`` (auto: effective cores, raised to fit ``shard_mem_mb``) or
    #: ``N >= 1`` explicit shards of the fused run axis, executed on the
    #: sweep's backend (pool workers or dispatch executors).  Sharded
    #: output is bit-identical to unsharded — execution knob, never part
    #: of the evaluation cache key.
    shards: Optional[int] = None
    #: peak-memory budget in MiB for one fused shard (0 = unbudgeted);
    #: only consulted by automatic shard selection (``shards=0``), which
    #: raises the shard count until the estimated per-shard footprint
    #: fits.  Execution knob — never part of the evaluation cache key.
    shard_mem_mb: int = 0

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        if self.n_processors < 1:
            raise ConfigError("n_processors must be >= 1")
        if not self.schemes:
            raise ConfigError("need at least one scheme")
        if self.engine not in ENGINES:
            raise ConfigError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.chunk_timeout < 0:
            raise ConfigError(
                f"chunk_timeout must be >= 0 (0 = no timeout), "
                f"got {self.chunk_timeout}")
        # hardcoded (not engine.BACKENDS) to keep runner import-light;
        # the registry test pins the two in sync
        if self.backend is not None and self.backend not in ("local",
                                                             "dispatch"):
            raise ConfigError(
                f"backend must be 'local' or 'dispatch', "
                f"got {self.backend!r}")
        if self.executors is not None and self.executors < 0:
            raise ConfigError(
                f"executors must be >= 0 (0 = all cores), "
                f"got {self.executors}")
        if self.connect is not None:
            from .dispatch import parse_endpoint
            parse_endpoint(self.connect)  # raises ConfigError when bad
        if self.shards is not None and self.shards < 0:
            raise ConfigError(
                f"shards must be >= 0 (0 = auto), got {self.shards}")
        if self.shard_mem_mb < 0:
            raise ConfigError(
                f"shard_mem_mb must be >= 0 (0 = unbudgeted), "
                f"got {self.shard_mem_mb}")

    def retry_policy(self):
        """The :class:`~repro.experiments.engine.RetryPolicy` this
        config asks dispatchers to apply (execution knob — never part
        of the evaluation cache key)."""
        from .engine import RetryPolicy
        return RetryPolicy(max_retries=self.max_retries,
                           chunk_timeout=self.chunk_timeout,
                           degrade=self.degrade)

    def with_(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def make_power(self) -> PowerModel:
        return make_power_model(self.power_model,
                                idle_fraction=self.idle_fraction)


@dataclass
class EvaluationResult:
    """Raw per-run outputs of one evaluation (one application, one config)."""

    app_name: str
    config: RunConfig
    #: scheme -> per-run energy normalized to NPM on the same realization
    normalized: Dict[str, np.ndarray] = field(default_factory=dict)
    #: scheme -> per-run absolute energy
    absolute: Dict[str, np.ndarray] = field(default_factory=dict)
    #: scheme -> per-run number of voltage/speed switches
    speed_changes: Dict[str, np.ndarray] = field(default_factory=dict)
    #: per-run NPM energy (the denominator)
    npm_energy: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: per-run executed path key (e.g. "0>2>5"); schemes share the
    #: realization, so one key per run describes every scheme's run
    path_keys: List[str] = field(default_factory=list)

    def mean_normalized(self) -> Dict[str, float]:
        return {k: float(v.mean()) for k, v in self.normalized.items()}

    def mean_speed_changes(self) -> Dict[str, float]:
        return {k: float(v.mean()) for k, v in self.speed_changes.items()}

    def conditional_normalized(self, scheme: str) -> Dict[str, np.ndarray]:
        """Per-run normalized energies grouped by executed path."""
        if scheme not in self.normalized:
            raise ConfigError(f"scheme {scheme!r} not in result")
        if len(self.path_keys) != self.normalized[scheme].size:
            raise ConfigError("path keys were not recorded for this run")
        groups: Dict[str, list] = {}
        for key, value in zip(self.path_keys, self.normalized[scheme]):
            groups.setdefault(key, []).append(float(value))
        return {k: np.asarray(v) for k, v in groups.items()}

    def path_frequencies(self) -> Dict[str, float]:
        """Observed fraction of runs per executed path.

        Occurrences are counted as integers and divided once, so each
        frequency is exactly ``count/n`` (no float accumulation drift)
        and the values sum to 1.0 up to at most one rounding error per
        path.
        """
        n = len(self.path_keys)
        if n == 0:
            raise ConfigError("path keys were not recorded for this run")
        counts: Dict[str, int] = {}
        for key in self.path_keys:
            counts[key] = counts.get(key, 0) + 1
        return {key: count / n for key, count in counts.items()}


def _path_key(structure, sim_result) -> str:
    """The executed path of a simulated run, as ExecutionPath.key()."""
    sids = [structure.root_id]
    sid = structure.root_id
    while True:
        exit_or = structure.section(sid).exit_or
        if exit_or is None:
            break
        branches = structure.branches(exit_or)
        if not branches:
            break
        if len(branches) == 1:
            sid = branches[0][0]
        else:
            sid = int(sim_result.path_choices[exit_or])
        sids.append(sid)
    return ">".join(str(s) for s in sids)


def build_plans(app: Application, config: RunConfig,
                power: Optional[PowerModel] = None
                ) -> Tuple[Optional[OfflinePlan], OfflinePlan]:
    """The (dynamic, static) offline plans an evaluation needs.

    The dynamic plan reserves per-task overhead room; the static plan is
    the plain canonical schedule used by NPM/SPM and the load metric.

    At loads so high that even the per-task overhead reserve does not
    fit (e.g. load = 1.0 exactly), a real scheduler cannot afford to
    visit power-management points at all: the dynamic plan is ``None``
    and the dynamic schemes degrade to running at ``S_max`` with DVS
    disabled (zero switches, zero overhead) — still meeting the
    deadline, still normalized against NPM.
    """
    power = power or config.make_power()
    reserve = config.overhead.per_task_reserve(power)
    plan_static = build_plan(app, config.n_processors, reserve=0.0,
                             heuristic=config.heuristic)
    try:
        plan_dyn: Optional[OfflinePlan] = build_plan(
            app, config.n_processors, reserve=reserve,
            structure=plan_static.structure,
            heuristic=config.heuristic)
    except InfeasibleError:
        plan_dyn = None
    return plan_dyn, plan_static


def _simulate_runs(plan_dyn: Optional[OfflinePlan],
                   plan_static: OfflinePlan,
                   scheme_names: Sequence[str],
                   power: PowerModel,
                   overhead: OverheadModel,
                   realizations: Sequence[Realization]):
    """Simulate a block of prebuilt realizations under every scheme
    with the dict engine, strictly in the order of ``realizations``.

    Returns ``(npm_energy, absolute, finish, changes, path_keys)``:
    NPM's per-run energy, then per scheme the per-run energy, finish
    time and switch count, and the per-run executed path key.
    """
    structure = plan_static.structure
    policies: Dict[str, SpeedPolicy] = {}
    for name in scheme_names:
        policy = get_policy(name)
        policies[policy.name] = policy

    n = len(realizations)
    npm_policy = get_policy("NPM")
    npm_energy = np.empty(n)
    absolute = {name: np.empty(n) for name in policies}
    finish = {name: np.empty(n) for name in policies}
    changes = {name: np.empty(n, dtype=float) for name in policies}
    path_keys: List[str] = []

    for i, rl in enumerate(realizations):
        npm_run = npm_policy.start_run(plan_static, power, NO_OVERHEAD,
                                       realization=rl)
        base = simulate(plan_static, npm_run, power, NO_OVERHEAD, rl)
        npm_energy[i] = base.total_energy
        path_keys.append(_path_key(structure, base))
        for name, policy in policies.items():
            if name == "NPM" or (policy.requires_reserve
                                 and plan_dyn is None):
                # NPM is the base; a dynamic scheme whose load leaves no
                # room for DVS runs like NPM (which never switches)
                res = base
            else:
                plan = plan_dyn if policy.requires_reserve else plan_static
                run = policy.start_run(plan, power, overhead,
                                       realization=rl)
                res = simulate(plan, run, power, overhead, rl)
            absolute[name][i] = res.total_energy
            finish[name][i] = res.finish_time
            changes[name][i] = res.n_speed_changes
    return npm_energy, absolute, finish, changes, path_keys


def _run_scalar(policy, probe, plan, prog, power: PowerModel,
                overhead: OverheadModel, rows, batch: RealizationBatch):
    """Per-run scalar compiled kernel for a scheme the batch kernels
    cannot replay (the oracle's per-realization probing, or a custom
    scheme outside the declared protocol).

    ``rows`` are the batch's actual-time rows; ``probe`` is the scheme's
    realization-free run, if it made one.  Returns per-run ``(energy,
    finish time, switch count)`` arrays.
    """
    n = len(rows)
    out = np.empty((3, n))
    choice_rows = batch.choice_rows()
    kernel = CompiledKernel(prog, power, overhead)
    # a run that *declares* it mutates nothing during a simulation
    # serves every run (never inferred from which hooks it overrides)
    shared = probe if probe is not None and probe.stateless else None
    for i in range(n):
        run = shared
        if run is None:
            rl = batch.realization(i) if policy.needs_realization else None
            run = policy.start_run(plan, power, overhead, realization=rl)
        res = kernel.run(run, rows[i], choice_rows[i])
        out[:, i] = res.total_energy, res.finish_time, res.n_speed_changes
    return out


class _RunSpec:
    """A duck-typed PolicyRun whose protocol attributes may be per-point.

    :func:`~repro.sim.compiled.run_dynamic_batch` consults only the
    declared protocol attributes (``floor_const``/``floor_step``/
    ``or_respec``) and never mutates the run, so a plain object carrying
    stacked values replays every point's probe exactly.
    """

    fixed_speed = None

    def __init__(self, name, floor_const, floor_step, or_respec):
        self.name = name
        self.floor_const = floor_const
        self.floor_step = floor_step
        self.or_respec = or_respec


def _stack_probes(name: str, probes) -> Optional[_RunSpec]:
    """Stack per-point dynamic probes into one run spec, or ``None``.

    The probes must agree on *which* protocol attributes they declare
    (all-constant floor, all-step floor, same ``or_respec``); the
    declared float values may differ per point and are stacked.
    """
    respec = probes[0].or_respec
    if any(p.or_respec != respec for p in probes[1:]):
        return None
    consts = [p.floor_const for p in probes]
    steps = [p.floor_step for p in probes]
    if all(c is not None for c in consts) and all(s is None for s in steps):
        return _RunSpec(name, _stack_values(consts), None, respec)
    if all(s is not None for s in steps) and all(c is None for c in consts):
        f_lo = _stack_values([s[0] for s in steps])
        f_hi = _stack_values([s[1] for s in steps])
        theta = _stack_values([s[2] for s in steps])
        return _RunSpec(name, None, (f_lo, f_hi, theta), respec)
    return None


def _scheme_spec(policy, name: str, plans, power, overhead):
    """How a scheme runs on the plans of one or more points.

    ``("fixed", speed)`` with the per-point speeds stacked, ``("dynamic",
    run spec)`` with the probes stacked, ``("scalar", probes)`` for the
    per-run scalar kernel (``probes`` is ``None`` for schemes that need
    the realization), or ``None`` when the points mix fixed and dynamic
    shapes, so no single kernel call covers them.
    """
    speeds = [policy.batch_fixed_speed(p, power, overhead) for p in plans]
    if all(s is not None for s in speeds):
        return "fixed", _stack_values(speeds)
    if any(s is not None for s in speeds):
        return None
    if policy.needs_realization:
        return "scalar", None
    probes = [policy.start_run(p, power, overhead) for p in plans]
    if all(supports_dynamic_batch(pr, power) for pr in probes):
        spec = _stack_probes(name, probes)
        if spec is not None:
            return "dynamic", spec
    return "scalar", probes


def _sort_schemes(scheme_names: Sequence[str], plans, power: PowerModel,
                  overhead: OverheadModel):
    """Sort schemes into batch-kernel calls and scalar fallbacks.

    ``plans`` maps ``requires_reserve`` to the plans (one per point) a
    scheme runs on; an empty list means no point has a dynamic plan, and
    the dynamic schemes then run like NPM.  Returns ``(calls, scalar)``:
    ``calls`` maps ``(kernel, reserve)`` to its ``(scheme, speed or run
    spec)`` pairs, NPM's base first in the static fixed call (at
    ``S_max`` nothing switches, so the call's overhead model never
    applies to it); ``scalar`` maps every other scheme to ``(policy,
    probes, reserve)``.  ``None`` when a scheme mixes fixed and dynamic
    shapes across points.
    """
    calls = {("fixed", False): [("NPM", power.s_max)]}
    scalar = {}
    for name in scheme_names:
        policy = get_policy(name)
        reserve = policy.requires_reserve
        if name == "NPM" or not plans[reserve]:
            continue
        how = _scheme_spec(policy, name, plans[reserve], power, overhead)
        if how is None:
            return None
        kind, run = how
        if kind == "scalar":
            scalar[name] = (policy, run, reserve)
        else:
            calls.setdefault((kind, reserve), []).append((name, run))
    return calls, scalar


def _simulate_runs_compiled(plan_dyn: Optional[OfflinePlan],
                            plan_static: OfflinePlan,
                            scheme_names: Sequence[str],
                            power: PowerModel,
                            overhead: OverheadModel,
                            batch: RealizationBatch):
    """The compiled-engine counterpart of :func:`_simulate_runs`.

    Bit-identical outputs (the same five-tuple), different execution
    strategy: the realization batch stays in the matrix form it was
    sampled as, and every scheme joins one batch-kernel call per kernel
    and program — NPM's base and any other batch-constant fixed speed
    (SPM) one :func:`run_fixed_batch` call, the protocol-declared
    dynamic schemes (GSS, SS1, SS2, AS, PS on a discrete power model)
    one :func:`run_dynamic_batch` call, so the kernels walk the batch's
    path trie once per call for all of them.  Anything else
    runs the scalar compiled kernel per run — no per-run dict
    materialization anywhere except for schemes that declare
    ``needs_realization`` (the oracle).  A doctored batch raises the
    fixed call's error before the dynamic call's, whatever the scheme
    order.
    """
    n = len(batch)
    # requires_reserve -> the plan (as a one-point list) and its program
    plans = {False: [plan_static],
             True: [plan_dyn] if plan_dyn is not None else []}
    progs = {reserve: compile_plan(ps[0]) for reserve, ps in plans.items()
             if ps}
    matrix = progs[False].realization_matrix(batch)
    groups, path_keys = progs[False].executed_paths(batch.choices, n)

    names = list(dict.fromkeys(get_policy(s).name for s in scheme_names))
    calls, scalar = _sort_schemes(names, plans, power, overhead)

    results = {}
    for (kind, reserve), specs in calls.items():
        kernel = run_fixed_batch if kind == "fixed" else run_dynamic_batch
        results.update(zip(
            (name for name, _run in specs),
            kernel(progs[reserve], power, overhead, matrix, groups,
                   path_keys, specs)))
    base = results["NPM"]
    npm_energy = base.total_energy
    rows = matrix.tolist() if scalar else None
    absolute: Dict[str, np.ndarray] = {}
    finish: Dict[str, np.ndarray] = {}
    changes: Dict[str, np.ndarray] = {}
    for name in names:
        res = results.get(name)
        if name in scalar:
            policy, probes, reserve = scalar[name]
            absolute[name], finish[name], changes[name] = _run_scalar(
                policy, probes and probes[0], plans[reserve][0],
                progs[reserve], power, overhead, rows, batch)
        elif name == "NPM" or res is None:
            # NPM is the base; a dynamic scheme whose load leaves no
            # room for DVS has no result and runs like NPM
            absolute[name] = npm_energy.copy()
            finish[name] = base.finish_time.copy()
            changes[name] = np.zeros(n)
        else:
            absolute[name] = res.total_energy
            finish[name] = res.finish_time
            changes[name] = np.full(n, res.n_speed_changes, dtype=float)
    return npm_energy, absolute, finish, changes, path_keys


def evaluate_application(app: Application,
                         config: RunConfig,
                         context=None,
                         cache_key: Optional[str] = None
                         ) -> EvaluationResult:
    """Simulate ``config.n_runs`` paired runs of every scheme on ``app``.

    The realization batch is sampled here from the config's seed and
    simulated in this process.  ``context`` is an optional
    :class:`~repro.experiments.engine.ExecutionContext` whose attached
    evaluation cache is consulted before computing and filled after;
    it never changes results.  A caller that has already looked the
    point up in that cache and missed passes the key it probed as
    ``cache_key``: the lookup is not repeated, and the result is stored
    under that key.
    """
    cache = context.cache if context is not None else None
    if cache is not None and cache_key is None:
        from .evalcache import evaluation_key
        cache_key = evaluation_key(app, config)
        cached = cache.get(cache_key, app.name, config)
        if cached is not None:
            return cached

    power = config.make_power()
    plan_dyn, plan_static = build_plans(app, config, power)

    # canonical scheme labels, preserving request order (aliases resolved)
    scheme_names = tuple(get_policy(name).name for name in config.schemes)

    rng = np.random.default_rng(config.seed)
    realizations = sample_realization_batch(
        plan_static.structure, rng, config.n_runs,
        sigma_fraction=config.sigma_fraction)
    simulate_runs = (_simulate_runs_compiled if config.engine == "compiled"
                     else _simulate_runs)
    npm_energy, absolute, _finish, changes, path_keys = simulate_runs(
        plan_dyn, plan_static, scheme_names, power, config.overhead,
        realizations)

    result = EvaluationResult(app_name=app.name, config=config,
                              npm_energy=npm_energy,
                              path_keys=list(path_keys))
    for name in scheme_names:
        result.absolute[name] = absolute[name]
        result.normalized[name] = absolute[name] / npm_energy
        result.speed_changes[name] = changes[name]

    if cache is not None:
        cache.put(cache_key, result)
    return result
