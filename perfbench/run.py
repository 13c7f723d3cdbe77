"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` interleaves traced and untraced calls and reports the
per-layer metrics (see ``perfbench/NOTES.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same numbers for people, plus the host record and the simulated
statistics.  Full records (per-call latencies and statistics, and the
spans of a traced run) go to ``.perfbench/`` in the checkout.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from reference import reference_job  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fewest timed calls of a run: the tail percentile needs ten beyond it
MIN_CALLS = 11
#: fresh-process set-ups measured per untraced run (median reported)
SETUP_PROBES = 3
#: a set-up probe that is not ready by then is killed
PROBE_TIMEOUT_S = 120.0

#: end-to-end metrics of ``BENCHMARK.json``, reported by every
#: untraced run.  ``runs_per_ref`` counts call time in reference jobs
#: (see ``reference.py``); the raw ``runs_per_s`` and the call
#: latencies (median and tail) are printed beside them but not gated:
#: on a shared host whose speed switches between levels for seconds to
#: minutes at a time they move with the host (``NOTES.md`` has the
#: spreads).
END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
)

#: per-layer metrics of a traced run; ``/call`` units are totals over
#: the traced calls divided by their number
PER_LAYER = (
    ("offline.calls", "count/call"),
    ("offline.self_s", "s/call"),
    ("offline.plan_cache_hit_ratio", "ratio"),
    ("compiled.calls", "count/call"),
    ("compiled.self_s", "s/call"),
    ("compiled.program_cache_hit_ratio", "ratio"),
    ("tape.calls", "count/call"),
    ("tape.self_s", "s/call"),
    ("tape.cache_hit_ratio", "ratio"),
    ("sweepc.calls", "count/call"),
    ("sweepc.self_s", "s/call"),
    ("realization.self_s", "s/call"),
    ("realization.runs", "count/call"),
    ("paths.self_s", "s/call"),
    ("paths.runs", "count/call"),
    ("paths.share", "ratio"),
    ("kernels.fixed_self_s", "s/call"),
    ("kernels.dynamic_self_s", "s/call"),
    ("kernels.scalar_self_s", "s/call"),
    ("kernels.calls", "count/call"),
    ("kernels.runs", "count/call"),
    ("kernels.us_per_run", "us"),
    ("kernels.scalar_runs", "count/call"),
    ("fused.self_s", "s/call"),
    ("fused.fallbacks", "count/call"),
    ("fused.shards", "count"),
    ("runner.calls", "count/call"),
    ("runner.self_s", "s/call"),
    ("engine.map_s", "s/call"),
    ("engine.tasks", "count/call"),
    ("engine.retries", "count/call"),
    ("engine.pools_created", "count/call"),
    ("engine.stderr_lines", "lines"),
    ("evalcache.get_s", "s/call"),
    ("evalcache.put_s", "s/call"),
    ("evalcache.hits", "count/call"),
    ("evalcache.misses", "count/call"),
    ("evalcache.bytes_written", "B/call"),
    ("online.self_s", "s/call"),
    ("online.admitted_miss_ratio", "ratio"),
    ("arrivals.self_s", "s/call"),
    ("arrivals.count", "count/call"),
    ("trace.wall_s", "s/call"),
    ("trace.unattributed_s", "s/call"),
    ("trace.overhead_ratio", "ratio"),
)


# ---------------------------------------------------------------------------
# host record and process-level measurements
# ---------------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (path and bytes), sorted by path:
    names the program version where the checkout is not a git repo."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(seed: int) -> Dict[str, object]:
    import numpy as np

    from repro.experiments.engine import effective_cores
    from repro.sim.kernels import resolve_kernel_tier
    return {
        "effective_cores": effective_cores(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_tier": resolve_kernel_tier(None),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _vm_hwm_kib(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids(pid: str) -> List[str]:
    out: List[str] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as fh:
                out += fh.read().split()
        except OSError:
            pass
    return out


def peak_rss_mb() -> float:
    """High-water RSS of this process plus each live descendant (MiB).

    Read from ``/proc`` so the set-up probes, which are reaped children
    too, never count; elsewhere falls back to ``getrusage`` (self plus
    the largest reaped child).
    """
    pids, todo = [], ["self"]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo += _child_pids(pid)
    kib = sum(_vm_hwm_kib(p) for p in pids)
    if kib == 0:
        import resource
        kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class StderrCapture:
    """Points file descriptor 2 at a file for the whole run.

    Worker processes inherit the descriptor, so their lines (pool and
    ``resource_tracker`` noise) land in the same file; :meth:`mark`
    and :meth:`lines` count what a phase wrote.  On exit the captured
    text is replayed to the real stderr.
    """

    def __init__(self, path: Path):
        self.path = path
        self._saved: Optional[int] = None

    def __enter__(self) -> "StderrCapture":
        sys.stderr.flush()
        self._saved = os.dup(2)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                     | os.O_APPEND, 0o644)
        os.dup2(fd, 2)
        os.close(fd)
        return self

    def mark(self) -> int:
        sys.stderr.flush()
        return os.fstat(2).st_size

    def lines(self, start: int, end: int) -> int:
        with open(self.path, "rb") as fh:
            fh.seek(start)
            return fh.read(end - start).count(b"\n")

    def __exit__(self, *exc_info) -> None:
        sys.stderr.flush()
        os.dup2(self._saved, 2)
        os.close(self._saved)
        with open(self.path, "rb") as fh:
            data = fh.read()
        self.path.unlink()
        if data:
            os.write(2, data)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def prepare(workload) -> List[str]:
    """Set a workload up and make its untimed warm-up call; returns the
    problems the warm-up output's checks found."""
    workload.setup()
    inputs = workload.inputs(-1)
    out = workload.call(inputs)
    workload.after(inputs, out)
    return workload.check(out)


def setup_probe_times(name: str, seed: int, n: int,
                      scratch: Path) -> List[float]:
    """Seconds from process start to ready, for ``n`` fresh processes.

    Each probe is this script with ``--setup-probe``: it imports the
    program, makes the inputs, starts its context and pool, makes the
    warm-up call, prints ``ready`` and exits.  Its stderr goes to a file
    in ``scratch``, so it never counts as the workload's stderr.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           name, "--seed", str(seed), "--setup-probe"]
    log = scratch / "probe-stderr.log"
    times = []
    for _ in range(n):
        start = time.perf_counter()
        with open(log, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            tail_text = log.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"set-up probe exited {code} before it was "
                               f"ready:\n{tail_text}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def _cache_misses() -> Dict[str, int]:
    """This process's plan/program/tape cache miss counters."""
    from repro.offline.plan import plan_cache_stats
    from repro.sim.compiled import program_cache_stats
    from repro.sim.kernels.tape import tape_cache_stats
    return {"offline": plan_cache_stats()["misses"],
            "compiled": program_cache_stats()["misses"],
            "tape": tape_cache_stats()["misses"]}


@dataclass
class Measurement:
    """What one timed phase saw."""

    latencies: List[float] = field(default_factory=list)
    runs: List[int] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    #: seconds of each reference job: one before the first call and one
    #: after every call, so call ``i`` sits between jobs ``i`` and ``i+1``
    ref_times: List[float] = field(default_factory=list)
    #: call index -> problems (an exception or failed checks)
    failures: Dict[int, List[str]] = field(default_factory=dict)
    #: call index -> simulated statistics (checked calls only)
    stats: Dict[int, object] = field(default_factory=dict)
    #: the first call whose output passed its checks: (index, in, out)
    first: Optional[Tuple[int, object, object]] = None
    cache_misses: Dict[str, int] = field(default_factory=dict)
    engine: Dict[str, int] = field(default_factory=dict)
    stderr_lines: int = 0
    tracer: Optional[tracing.Tracer] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(workload, seconds: float, trace: bool = False,
            capture: Optional[StderrCapture] = None,
            min_calls: int = MIN_CALLS) -> Measurement:
    """Issue calls back to back until ``seconds`` of call and
    reference-job time.

    Only the call itself and the reference job right after it are
    timed; inputs, checks and clean-up run between calls.  With
    ``trace`` every odd call runs traced (every wrapped name is restored
    right after it), so traced and untraced calls see the same
    conditions and their rates give the overhead.
    """
    meas = Measurement()
    tracer = tracing.Tracer() if trace else None
    meas.tracer = tracer
    engine_before = workload.engine_counters()
    misses_before: Dict[str, int] = {}
    stderr_start = capture.mark() if capture is not None else 0
    busy, checksum = reference_job()
    meas.ref_times.append(busy)
    i = 0
    while busy < seconds or i < min_calls:
        inputs = workload.inputs(i)
        traced = tracer is not None and i % 2 == 1
        out = None
        problems: List[str] = []
        if traced:
            before = _cache_misses()
            tracer.call = i
            tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                out = tracer.span("call", tracing.ROOT_LAYER,
                                  workload.call, inputs)
            else:
                out = workload.call(inputs)
        except Exception as exc:  # a failed call is counted, not fatal
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.restore()
                after = _cache_misses()
                for key, value in after.items():
                    misses_before[key] = (misses_before.get(key, 0)
                                          + value - before[key])
        ref_s, ref_sum = reference_job()
        if ref_sum != checksum:
            raise RuntimeError(f"reference job returned {ref_sum!r}, "
                               f"not {checksum!r}")
        meas.ref_times.append(ref_s)
        busy += elapsed + ref_s
        meas.latencies.append(elapsed)
        meas.traced.append(traced)
        runs = 0
        if not problems:
            try:
                runs = workload.runs(out)
                problems += workload.check(out)
                if not problems:
                    meas.stats[i] = workload.stats(out)
                    if meas.first is None:
                        meas.first = (i, inputs, out)
            except Exception as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        meas.runs.append(runs)
        if problems:
            meas.failures[i] = problems
        workload.after(inputs, out)
        i += 1
    meas.cache_misses = misses_before
    engine_after = workload.engine_counters()
    meas.engine = {k: engine_after[k] - engine_before[k]
                   for k in engine_after}
    if capture is not None:
        meas.stderr_lines = capture.lines(stderr_start, capture.mark())
    return meas


def verify_reference(workload, meas: Measurement) -> List[str]:
    """Recompute the first passing call on the serial dict engine and
    mark that call failed on any bit-level difference."""
    if meas.first is None:
        return ["no call passed its checks, so none was compared"]
    index, inputs, out = meas.first
    try:
        problems = workload.compare(out, workload.reference(inputs))
    except Exception as exc:
        problems = [f"reference raised {type(exc).__name__}: {exc}"]
    if problems:
        meas.failures.setdefault(index, []).extend(
            f"dict engine: {p}" for p in problems)
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies: List[float]) -> Tuple[float, float]:
    """The highest percentile with ten calls beyond it: (value, pct).

    Ten calls or fewer have no such percentile; their slowest call is
    reported as p100.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def admitted_miss_ratio(stats: Dict[int, object]) -> Optional[float]:
    """The worst scheme's share of admitted jobs that missed their
    deadline, pooled over the checked calls (``None``: not a stream)."""
    calls = [s for s in stats.values() if "missed" in s]
    if not calls:
        return None
    admitted = sum(s["admitted"] for s in calls)
    schemes = calls[0]["missed"]
    return max(sum(s["missed"][k] for s in calls) / admitted
               for k in schemes) if admitted else 0.0


def _passed(meas: Measurement,
            traced: bool) -> List[Tuple[int, float, float]]:
    """(runs, seconds, reference seconds) of the calls that passed,
    traced or untraced; every such call when none passed (the run then
    reads incorrect).  A call's reference seconds are the mean of the
    reference jobs just before and just after it."""
    calls = [(r, t, (meas.ref_times[i] + meas.ref_times[i + 1]) / 2,
              i not in meas.failures)
             for i, (r, t, tr) in enumerate(zip(meas.runs, meas.latencies,
                                                meas.traced))
             if tr == traced]
    passed = [(r, t, ref) for r, t, ref, ok in calls if ok]
    return passed or [(r, t, ref) for r, t, ref, _ok in calls]


def _rate(meas: Measurement, traced: bool) -> float:
    """Runs per second of call time over the passing (un)traced calls."""
    calls = _passed(meas, traced)
    busy = sum(t for _, t, _ in calls)
    return sum(r for r, _, _ in calls) / busy if busy > 0 else 0.0


def _ref_rate(meas: Measurement, traced: bool) -> float:
    """Runs per reference job over the passing (un)traced calls: each
    call's time is counted in the reference jobs around it."""
    calls = _passed(meas, traced)
    busy = sum(t / ref for _, t, ref in calls)
    return sum(r for r, _, _ in calls) / busy if busy > 0 else 0.0


def end_to_end_metrics(meas: Measurement, setup_s: float,
                       rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "runs_per_ref": _ref_rate(meas, traced=False),
        "peak_rss_mb": rss_mb,
    }


def per_layer_metrics(meas: Measurement) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced measurement."""
    totals = tracing.layer_summary(meas.tracer.spans)
    n_traced = max(1, sum(meas.traced))
    out: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit.endswith("/call"):
            out[name] = totals.get(name, 0.0) / n_traced

    def hit_ratio(layer: str) -> float:
        calls = totals.get(f"{layer}.calls", 0.0)
        misses = meas.cache_misses.get(layer, 0)
        return 1.0 - misses / calls if calls else 0.0

    wall = totals.get("trace.wall_s", 0.0)
    kernel_s = (totals.get("kernels.fixed_self_s", 0.0)
                + totals.get("kernels.dynamic_self_s", 0.0))
    kernel_runs = totals.get("kernels.runs", 0.0)
    passes = totals.get("fused.passes", 0.0) - totals.get("fused.fallbacks",
                                                          0.0)
    untraced = _ref_rate(meas, traced=False)
    out.update({
        "offline.plan_cache_hit_ratio": hit_ratio("offline"),
        "compiled.program_cache_hit_ratio": hit_ratio("compiled"),
        "tape.cache_hit_ratio": hit_ratio("tape"),
        "paths.share": totals.get("paths.self_s", 0.0) / wall if wall
        else 0.0,
        "kernels.us_per_run": 1e6 * kernel_s / kernel_runs if kernel_runs
        else 0.0,
        "fused.shards": totals.get("fused.shards", 0.0) / passes if passes
        else 0.0,
        "engine.retries": meas.engine["retries"] / meas.attempted,
        "engine.pools_created": meas.engine["pools_created"]
        / meas.attempted,
        "engine.stderr_lines": float(meas.stderr_lines),
        "online.admitted_miss_ratio": admitted_miss_ratio(meas.stats) or 0.0,
        "trace.overhead_ratio": _ref_rate(meas, traced=True) / untraced
        if untraced else 0.0,
    })
    return {name: out[name] for name, _unit in PER_LAYER}


def closure_error(metrics: Dict[str, float]) -> float:
    """|layer self times + unattributed - traced wall| per call."""
    layers = sum(v for k, v in metrics.items()
                 if k.endswith("_s") and not k.startswith("trace."))
    return abs(layers + metrics["trace.unattributed_s"]
               - metrics["trace.wall_s"])


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _fmt(value: float, unit: str) -> str:
    return f"{value:.6g} {unit}"


def run(args, out_dir: Path, capture: StderrCapture) -> Dict[str, object]:
    scratch = out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        start = time.perf_counter()
        warm_up = prepare(workload)
        in_process_setup = time.perf_counter() - start
        meas = measure(workload, args.seconds, trace=bool(args.trace),
                       capture=capture)
        rss = peak_rss_mb()
        reference = verify_reference(workload, meas)
    finally:
        workload.close()
    try:
        probes = [] if args.trace else setup_probe_times(
            args.workload, args.seed, SETUP_PROBES, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    host = host_record(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: closed loop, one "
          f"caller, {meas.attempted} calls in {sum(meas.latencies):.3f} s "
          f"of call time")
    failed = len(meas.failures)
    correct = failed == 0 and not reference and not warm_up
    if warm_up:
        print(f"FAILED warm-up call: {'; '.join(warm_up[:5])}")
    for index, problems in sorted(meas.failures.items()):
        print(f"FAILED call {index}: {'; '.join(problems[:5])}")
    if meas.first is not None and not reference:
        print(f"reference: call {meas.first[0]} is bit-identical to the "
              "serial dict engine")
    first_stats = meas.stats.get(meas.first[0]) if meas.first else None
    print(f"stats call {meas.first[0] if meas.first else '-'}: "
          + json.dumps(first_stats, sort_keys=True))
    print(f"failed_ratio {_fmt(failed / meas.attempted, 'ratio')} "
          f"({failed}/{meas.attempted} calls)")
    print(f"stderr: {meas.stderr_lines} lines during the timed calls")
    miss = admitted_miss_ratio(meas.stats)
    if miss is not None:
        print(f"admitted_miss_ratio {miss!r} ratio (worst scheme, "
              "admitted jobs past their deadline)")

    record: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "in_process_setup_s": in_process_setup,
        "latencies_s": meas.latencies, "runs": meas.runs,
        "traced": meas.traced, "reference_s": meas.ref_times,
        "failures": meas.failures,
        "stats": meas.stats, "admitted_miss_ratio": miss,
        "failed_ratio": failed / meas.attempted,
    }
    units = dict(PER_LAYER if args.trace else END_TO_END)
    if args.trace:
        metrics = per_layer_metrics(meas)
        error = closure_error(metrics)
        print(f"trace: layers + unattributed = traced wall within "
              f"{error:.3g} s per call; overhead ratio "
              f"{metrics['trace.overhead_ratio']:.4f} (traced/untraced "
              "runs_per_ref)")
        if error > 1e-6 * max(metrics["trace.wall_s"], 1.0):
            correct = False
            print("FAILED trace closure")
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        meas.tracer.dump(spans)
        print(f"spans: {spans.relative_to(ROOT)} "
              f"({len(meas.tracer.spans)} spans)")
    else:
        metrics = end_to_end_metrics(meas, statistics.median(probes), rss)
        latencies = [t for _, t, _ in _passed(meas, traced=False)]
        p50 = statistics.median(latencies)
        value, pct = tail(latencies)
        runs_per_s = _rate(meas, traced=False)
        record.update(setup_probes_s=probes, call_p50_s=p50,
                      call_tail_s=value, call_tail_percentile=pct,
                      runs_per_s=runs_per_s)
        print(f"setup: median of {len(probes)} fresh-process set-ups "
              f"{[round(t, 4) for t in probes]} s; in-process "
              f"{in_process_setup:.4g} s")
        print(f"reference job: median {statistics.median(meas.ref_times):.4g}"
              f" s of {len(meas.ref_times)}")
        print(f"runs_per_s {_fmt(runs_per_s, '1/s')} (not normalized)")
        print(f"call_p50_s {_fmt(p50, 's')} (of {len(latencies)} calls)")
        print(f"call_tail_s {_fmt(value, 's')} (p{pct:.4g} of "
              f"{len(latencies)} calls)")
    for name, value in metrics.items():
        print(f"{name} {_fmt(value, units[name])}")
    record["metrics"] = metrics
    path = out_dir / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": correct, "attempted": meas.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def probe(args) -> int:
    """``--setup-probe``: set up, warm up, report ready, exit."""
    workload = WORKLOADS[args.workload](
        args.seed, ROOT / ".perfbench" / f"scratch-{os.getpid()}")
    try:
        prepare(workload)
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(workload.scratch, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe(args)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with StderrCapture(out_dir / f"stderr-{os.getpid()}.log") as capture:
        result = run(args, out_dir, capture)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
