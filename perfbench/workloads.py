"""The four benchmark workloads.

Each workload is a closed loop: one caller issues its public calls back
to back from one process.  Call ``i`` draws its seed from
``(workload seed, i)``; call ``-1`` is the untimed warm-up.  Only
``fig5-sharded`` uses worker processes (one per schedulable core).

A workload object separates what the benchmark times from what it
only prepares or checks:

* ``inputs(i)`` builds call ``i``'s inputs (untimed),
* ``call(inputs)`` is the timed public call,
* ``after(inputs, out)`` cleans up after it (untimed),
* ``check(out)`` returns the output problems found (untimed),
* ``reference(inputs)`` recomputes the call on the serial dict engine
  and ``compare(out, ref)`` returns every bit-level difference,
* ``stats(out)`` is the simulated statistics two commits can diff.

Every knob is the library default except ``fig5-sharded``'s
``shards=0`` on an ``effective_cores()``-worker context, so the
benchmark measures whatever path the program picks by itself.
"""

from __future__ import annotations

import bisect
import random
import shutil
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: a normalized energy above this is a wrong result (DVS never costs
#: more than running at full speed, up to rounding)
NORMALIZED_MAX = 1.0 + 1e-9


def call_seed(seed: int, i: int) -> int:
    """The program seed of call ``i`` (``-1`` = warm-up) of a run."""
    return int(np.random.SeedSequence([seed, i + 1]).generate_state(1)[0])


def same_array(a, b) -> bool:
    """Bit-for-bit equality: dtype, shape and every byte."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def check_results(results, n_points: int, n_runs: int) -> List[str]:
    """Problems in a list of ``EvaluationResult``: finite, (0, 1]."""
    problems: List[str] = []
    if len(results) != n_points:
        problems.append(f"{len(results)} results for {n_points} points")
    for p, res in enumerate(results):
        npm = res.npm_energy
        if npm.shape != (n_runs,):
            problems.append(f"point {p}: {npm.shape} NPM runs, "
                            f"expected {n_runs}")
        if not (np.all(np.isfinite(npm)) and np.all(npm > 0)):
            problems.append(f"point {p}: NPM energy not finite and > 0")
        for scheme, absolute in res.absolute.items():
            norm = res.normalized[scheme]
            problems += _check_scheme(f"point {p}", scheme, absolute, norm)
    return problems


def _check_scheme(where: str, scheme: str, absolute, norm) -> List[str]:
    if not np.all(np.isfinite(absolute)):
        return [f"{where} {scheme}: non-finite energy"]
    if scheme == "NPM":
        if not np.all(norm == 1.0):
            return [f"{where} NPM: normalized energy != 1"]
    elif not np.all((norm > 0) & (norm <= NORMALIZED_MAX)):
        worst = float(np.max(norm)) if norm.size else 0.0
        return [f"{where} {scheme}: normalized energy outside (0, 1] "
                f"(max {worst!r})"]
    return []


def compare_results(got, ref) -> List[str]:
    """Every per-run difference between two lists of results."""
    if len(got) != len(ref):
        return [f"{len(got)} results vs {len(ref)} in the reference"]
    problems: List[str] = []
    for p, (a, b) in enumerate(zip(got, ref)):
        if not same_array(a.npm_energy, b.npm_energy):
            problems.append(f"point {p}: NPM energy differs")
        if list(a.path_keys) != list(b.path_keys):
            problems.append(f"point {p}: executed paths differ")
        if list(a.absolute) != list(b.absolute):
            problems.append(f"point {p}: scheme lists differ")
            continue
        for scheme in a.absolute:
            for field in ("absolute", "normalized", "speed_changes"):
                if not same_array(getattr(a, field)[scheme],
                                  getattr(b, field)[scheme]):
                    problems.append(f"point {p} {scheme}: {field} differs")
    return problems


def result_stats(results) -> Dict[str, Dict[str, float]]:
    """Per-scheme mean normalized energy and speed changes, all points."""
    schemes = list(results[0].absolute) if results else []
    return {
        "normalized": {s: float(np.mean(np.concatenate(
            [r.normalized[s] for r in results]))) for s in schemes},
        "speed_changes": {s: float(np.mean(np.concatenate(
            [r.speed_changes[s] for r in results]))) for s in schemes},
    }


class _Tap:
    """Keeps the last return value of ``owner.attr`` for the checks.

    Installed for the workload's lifetime around a function the timed
    call reaches but whose full output it drops (``sweep_load`` keeps
    only summaries; the checks want every run).
    """

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.original = vars(owner)[attr]
        self.last = None

        def tapped(*args, **kwargs):
            self.last = self.original(*args, **kwargs)
            return self.last

        setattr(owner, attr, tapped)

    def take(self):
        out, self.last = self.last, None
        return out

    def close(self) -> None:
        setattr(self.owner, self.attr, self.original)


class Workload:
    """Common shape; subclasses fill in the calls."""

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        #: the persistent context of the sweeps (``None``: per call)
        self.context = None
        #: counters of per-call contexts already closed
        self.closed = {"retries": 0, "pools_created": 0}

    def setup(self) -> None:
        """Imports and inputs shared by every call (counted in set-up)."""

    def after(self, inputs, out) -> None:
        """Untimed clean-up after one call."""

    def _count(self, ctx) -> Dict[str, int]:
        return {"retries": ctx.resilience_stats()["retries"],
                "pools_created": ctx.pools_created}

    def engine_counters(self) -> Dict[str, int]:
        """Retries and pools created so far, over every context this
        workload owned (public ``ExecutionContext`` counters)."""
        live = self._count(self.context) if self.context is not None \
            else {}
        return {k: v + live.get(k, 0) for k, v in self.closed.items()}

    def close(self) -> None:
        if self.context is not None:
            self.context.close()


class Fig5Sweep(Workload):
    """One Figure 5 sub-figure per call, default in-process fused path."""

    name = "fig5-sweep"
    shards: Optional[int] = None
    n_points = 10
    n_runs = 1000

    def setup(self) -> None:
        from repro.core.registry import PAPER_SCHEMES
        from repro.experiments import sweeps
        from repro.experiments.engine import ExecutionContext
        from repro.experiments.figures import ATR_ALPHA
        from repro.workloads.atr import AtrConfig, atr_graph

        self.sweeps = sweeps
        self.schemes = PAPER_SCHEMES
        # the widened ATR graph of repro.experiments.figures.figure5
        self.graph = atr_graph(AtrConfig(
            alpha=ATR_ALPHA, max_rois=6,
            roi_probs=(0.05, 0.15, 0.20, 0.20, 0.15, 0.15, 0.10)))
        self.context = ExecutionContext(n_jobs=self._jobs())
        self.tap = _Tap(sweeps, "map_load_points")

    def _jobs(self) -> int:
        return 1

    def inputs(self, i: int):
        from repro.experiments.runner import RunConfig
        # calls alternate the paper's two power models
        return RunConfig(schemes=self.schemes,
                         power_model=("transmeta", "xscale")[i % 2],
                         n_processors=6, n_runs=self.n_runs,
                         seed=call_seed(self.seed, i), shards=self.shards)

    def call(self, cfg):
        series = self.sweeps.sweep_load(
            self.graph, cfg, self.sweeps.DEFAULT_LOADS,
            name=f"figure5-{cfg.power_model}", context=self.context)
        return series, self.tap.take()

    def runs(self, out) -> int:
        return sum(int(r.npm_energy.size) for r in out[1])

    def check(self, out) -> List[str]:
        series, results = out
        problems = check_results(results, self.n_points, self.n_runs)
        if len(series.points) != self.n_points * len(self.schemes):
            problems.append(f"{len(series.points)} series points")
        return problems

    def stats(self, out):
        return result_stats(out[1])

    def reference(self, cfg):
        series = self.sweeps.sweep_load(
            self.graph, cfg.with_(engine="dict", shards=None),
            self.sweeps.DEFAULT_LOADS, name=f"figure5-{cfg.power_model}")
        return series, self.tap.take()

    def compare(self, out, ref) -> List[str]:
        problems = compare_results(out[1], ref[1])
        if out[0].points != ref[0].points:
            problems.append("series points differ")
        if out[0].meta.get("speed_changes") != \
                ref[0].meta.get("speed_changes"):
            problems.append("series speed changes differ")
        return problems

    def close(self) -> None:
        self.tap.close()
        super().close()


class Fig5Sharded(Fig5Sweep):
    """The same calls, auto-sharded over a warm one-per-core pool."""

    name = "fig5-sharded"
    shards = 0

    def _jobs(self) -> int:
        from repro.experiments.engine import effective_cores
        return effective_cores()


class ZooCold(Workload):
    """Eight fresh random applications per call, fresh cache directory."""

    name = "zoo-cold"
    n_runs = 200
    #: graph-size strata: octiles of the node count of default
    #: ``GraphGenConfig`` graphs (3000 draws).  Each call takes one
    #: fresh graph per stratum, so every call carries the same mix of
    #: small and large applications and a run's spread reflects the
    #: program rather than the luck of the draw
    size_edges = (5, 7, 38, 52, 61, 70, 82)
    n_graphs = len(size_edges) + 1
    max_draws = 10000

    def setup(self) -> None:
        from repro.experiments import parallel
        from repro.experiments.engine import ExecutionContext
        from repro.experiments.evalcache import EvaluationCache
        from repro.graph.random_gen import GraphGenConfig, random_graph
        from repro.workloads.scaling import application_with_load

        self.parallel = parallel
        self.ExecutionContext = ExecutionContext
        self.EvaluationCache = EvaluationCache
        self.GraphGenConfig = GraphGenConfig
        self.random_graph = random_graph
        self.application_with_load = application_with_load

    def inputs(self, i: int):
        from repro.experiments.runner import RunConfig
        seed = call_seed(self.seed, i)
        rng = random.Random(seed)
        graphs = [None] * self.n_graphs
        for draw in range(self.max_draws):
            graph = self.random_graph(rng, self.GraphGenConfig(),
                                      name=f"zoo{i}-{draw}")
            slot = bisect.bisect_left(self.size_edges, len(graph.node_names))
            if graphs[slot] is None:
                graphs[slot] = graph
                if all(g is not None for g in graphs):
                    break
        else:
            raise RuntimeError(f"{self.max_draws} draws left a graph-size "
                               "stratum empty")
        cfg = RunConfig(n_processors=4, n_runs=self.n_runs, seed=seed)
        return graphs, cfg, self.scratch / f"cache-call{i + 1}"

    def call(self, inputs):
        graphs, cfg, cache_dir = inputs
        with self.ExecutionContext(
                n_jobs=1, cache=self.EvaluationCache(cache_dir)) as ctx:
            apps = [self.application_with_load(g, 0.6, cfg.n_processors)
                    for g in graphs]
            results = self.parallel.map_evaluations(apps, cfg, context=ctx)
        for key, value in self._count(ctx).items():
            self.closed[key] += value
        return apps, results

    def after(self, inputs, out) -> None:
        shutil.rmtree(inputs[2], ignore_errors=True)

    def runs(self, out) -> int:
        return sum(int(r.npm_energy.size) for r in out[1])

    def check(self, out) -> List[str]:
        return check_results(out[1], self.n_graphs, self.n_runs)

    def stats(self, out):
        return result_stats(out[1])

    def reference(self, inputs):
        apps = [self.application_with_load(g, 0.6, inputs[1].n_processors)
                for g in inputs[0]]
        return apps, self.parallel.map_evaluations(
            apps, inputs[1].with_(engine="dict"))

    def compare(self, out, ref) -> List[str]:
        return compare_results(out[1], ref[1])


class OnlineStream(Workload):
    """One long Poisson stream on the Figure 3 graph per call."""

    name = "online-stream"

    def setup(self) -> None:
        from repro.core.registry import PAPER_SCHEMES
        from repro.experiments import online
        from repro.workloads.synthetic import figure3_graph

        self.online = online
        self.graph = figure3_graph()
        # the schemes and processor count of the `repro online` command
        self.schemes = ("NPM",) + PAPER_SCHEMES
        self.stream = online.OnlineConfig(arrival="poisson", rate=1.0,
                                          horizon=20000.0, load=0.7)

    def inputs(self, i: int):
        from repro.experiments.runner import RunConfig
        return RunConfig(schemes=self.schemes, n_processors=2,
                         seed=call_seed(self.seed, i))

    def call(self, cfg):
        return self.online.simulate_online(self.graph, cfg, self.stream)

    def runs(self, out) -> int:
        return out.n_arrivals

    def check(self, out) -> List[str]:
        problems: List[str] = []
        npm = out.npm_energy
        if npm.size != out.n_admitted:
            problems.append(f"{npm.size} NPM jobs for {out.n_admitted} "
                            "admitted")
        if not (np.all(np.isfinite(npm)) and np.all(npm > 0)):
            problems.append("NPM energy not finite and > 0")
        if list(out.per_scheme) != list(self.schemes):
            problems.append(f"schemes {list(out.per_scheme)}")
        for scheme, st in out.per_scheme.items():
            if st.job_energy.size != out.n_admitted:
                problems.append(f"{scheme}: {st.job_energy.size} jobs")
            problems += _check_scheme("stream", scheme, st.job_energy,
                                      st.job_normalized)
        return problems

    def stats(self, out):
        return {
            "arrivals": out.n_arrivals,
            "admitted": out.n_admitted,
            "missed": {s: st.n_missed for s, st in out.per_scheme.items()},
            "normalized": {s: st.mean_normalized()
                           for s, st in out.per_scheme.items()},
            "speed_changes": {s: float(st.job_changes.mean())
                              if st.job_changes.size else 0.0
                              for s, st in out.per_scheme.items()},
        }

    def reference(self, cfg):
        return self.online.simulate_online(self.graph,
                                           cfg.with_(engine="dict"),
                                           self.stream)

    def compare(self, out, ref) -> List[str]:
        problems: List[str] = []
        for field in ("arrivals", "admitted", "windows", "npm_energy"):
            if not same_array(getattr(out, field), getattr(ref, field)):
                problems.append(f"{field} differs")
        if out.path_keys != ref.path_keys:
            problems.append("executed paths differ")
        if list(out.per_scheme) != list(ref.per_scheme):
            return problems + ["scheme lists differ"]
        for scheme, st in out.per_scheme.items():
            other = ref.per_scheme[scheme]
            for field in ("job_energy", "job_normalized", "job_finish",
                          "job_miss", "job_changes"):
                if not same_array(getattr(st, field), getattr(other, field)):
                    problems.append(f"{scheme}: {field} differs")
        return problems


WORKLOADS = {w.name: w for w in (Fig5Sweep, Fig5Sharded, ZooCold,
                                 OnlineStream)}
