"""Tests of the benchmark harness itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import ROOT_LAYER, Span, Target, Tracer  # noqa: E402
from workloads import WORKLOADS, Fig5Sweep  # noqa: E402


def _span(sid, start, end, parent=None, layer="x", kind=""):
    return Span(sid, f"s{sid}", layer, kind, start, end, parent, 0, {})


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 5.0, 6.0, 1),
             _span(4, 5.25, 5.5, 3)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 7.0, 2: 2.0, 3: 0.75, 4: 0.25}


def test_self_time_counts_repeated_and_overlapping_children_once():
    # two overlapping children cover [1, 4]; a third repeats [1, 2]
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 2.0, 4.0, 1),
             _span(4, 1.0, 2.0, 1)]
    assert tracing.self_times(spans)[1] == pytest.approx(7.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(1, 0.0, 2.0), _span(2, 1.0, 5.0, 1)]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(4.0)


def test_layer_summary_closes_on_the_root_wall_time():
    spans = [_span(1, 0.0, 10.0, layer=ROOT_LAYER),
             _span(2, 1.0, 4.0, 1, layer="offline", kind="build_plan"),
             _span(3, 2.0, 3.0, 2, layer="offline", kind="build_plan"),
             _span(4, 5.0, 9.0, 1, layer="kernels", kind="fixed"),
             _span(5, 6.0, 7.0, 4, layer="tape", kind="build_tape")]
    summary = tracing.layer_summary(spans)
    layers = sum(v for k, v in summary.items()
                 if k.endswith("_s") and not k.startswith("trace."))
    assert summary["offline.self_s"] == pytest.approx(3.0)
    assert summary["kernels.fixed_self_s"] == pytest.approx(3.0)
    assert summary["offline.calls"] == 2
    assert layers + summary["trace.unattributed_s"] == \
        pytest.approx(summary["trace.wall_s"])


# ---------------------------------------------------------------------------
# wrapping and restoring
# ---------------------------------------------------------------------------

def _current(targets):
    return [vars(tracing._resolve_owner(t.owner))[t.attr] for t in targets]


@pytest.fixture(scope="module")
def fig5(tmp_path_factory):
    workload = Fig5Sweep(3, tmp_path_factory.mktemp("fig5"))
    assert run.prepare(workload) == []
    yield workload
    workload.close()


def test_traced_run_restores_every_wrapped_name(fig5):
    before = _current(tracing.TARGETS)
    meas = run.measure(fig5, seconds=0.0, trace=True, min_calls=2)
    assert _current(tracing.TARGETS) == before
    assert meas.traced == [False, True]
    metrics = run.per_layer_metrics(meas)
    assert set(metrics) == {name for name, _unit in run.PER_LAYER}
    assert metrics["kernels.calls"] > 0
    assert run.closure_error(metrics) < 1e-9


def test_failed_install_restores_what_it_wrapped():
    good = tracing.TARGETS[0]
    before = _current([good])
    tracer = Tracer([good, Target(good.owner, "no_such_function", "x")])
    with pytest.raises(KeyError):
        tracer.install()
    assert _current([good]) == before


def test_span_records_parent_and_call():
    tracer = Tracer([])
    tracer.call = 7
    tracer.span("outer", ROOT_LAYER, tracer.span, "inner", "offline", len,
                "abc")
    inner, outer = tracer.spans
    assert (inner.parent, outer.parent) == (outer.id, None)
    assert {inner.call, outer.call} == {7}


def test_span_of_a_raising_call_is_kept_and_re_raised():
    tracer = Tracer([])

    def boom():
        raise ValueError("boom")

    def note(args, kwargs, result):
        raise AssertionError("a failed call has nothing to note")

    with pytest.raises(ValueError):
        tracer.span("boom", "offline", boom, note=note)
    assert tracer.spans[0].info == {"raised": True}


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

class _Stub:
    """A workload whose call 2 fails its checks and call 3 raises."""

    def __init__(self, reference_offset=0.0):
        self.reference_offset = reference_offset

    def inputs(self, i):
        return i

    def call(self, i):
        if i == 3:
            raise ValueError("boom")
        return float(i)

    def runs(self, out):
        return 1

    def check(self, out):
        return ["doctored output"] if out == 2.0 else []

    def stats(self, out):
        return {"value": out}

    def after(self, inputs, out):
        pass

    def engine_counters(self):
        return {"retries": 0, "pools_created": 0}

    def reference(self, i):
        return float(i) + self.reference_offset

    def compare(self, out, ref):
        return [] if out == ref else ["differs"]


def test_failed_calls_are_counted():
    meas = run.measure(_Stub(), seconds=0.0, min_calls=5)
    assert meas.attempted == 5
    assert sorted(meas.failures) == [2, 3]
    assert len(run._passed(meas, traced=False)) == 3
    assert run.verify_reference(_Stub(), meas) == []
    assert len(meas.failures) / meas.attempted == pytest.approx(0.4)


def test_a_run_whose_calls_all_fail_still_reports_its_metrics():
    class AllFail(_Stub):
        def check(self, out):
            return ["doctored output"]

    meas = run.measure(AllFail(), seconds=0.0, min_calls=3)
    assert sorted(meas.failures) == [0, 1, 2]
    metrics = run.end_to_end_metrics(meas, setup_s=1.0, rss_mb=1.0)
    assert set(metrics) == {name for name, _unit in run.END_TO_END}
    assert metrics["runs_per_ref"] == pytest.approx(3 / sum(
        t / ((a + b) / 2) for t, a, b in zip(
            meas.latencies, meas.ref_times, meas.ref_times[1:])))


def test_runs_per_ref_counts_each_call_in_the_jobs_around_it():
    meas = run.Measurement(latencies=[2.0, 3.0, 5.0], runs=[10, 10, 10],
                           traced=[False, False, False],
                           ref_times=[1.0, 1.0, 2.0, 3.0],
                           failures={2: ["doctored output"]})
    # call 0: 2 s / 1 ref-s; call 1: 3 s / 1.5 ref-s; call 2 failed
    assert run._ref_rate(meas, traced=False) == pytest.approx(20 / 4.0)
    assert run._rate(meas, traced=False) == pytest.approx(20 / 5.0)


def test_measure_times_a_reference_job_around_every_call():
    meas = run.measure(_Stub(), seconds=0.0, min_calls=3)
    assert len(meas.ref_times) == meas.attempted + 1
    assert all(t > 0 for t in meas.ref_times)


def test_reference_mismatch_counts_as_a_failed_call():
    meas = run.measure(_Stub(reference_offset=1e-12), seconds=0.0,
                       min_calls=2)
    assert meas.failures == {}
    assert run.verify_reference(_Stub(reference_offset=1e-12), meas)
    assert list(meas.failures) == [0]


def test_doctored_program_output_fails_the_checks(fig5):
    cfg = fig5.inputs(0)
    out = fig5.call(cfg)
    assert fig5.check(out) == []
    series, results = out
    res = results[4]
    scheme = next(iter(res.normalized))
    norm = res.normalized[scheme].copy()
    doctored = norm.copy()
    doctored[0] = np.nextafter(doctored[0], 2.0)
    res.normalized[scheme] = doctored
    assert fig5.compare(out, (series, results)) == []
    ref = fig5.reference(cfg)
    assert any("normalized differs" in p for p in fig5.compare(out, ref))
    doctored[1] = 1.5
    assert any("outside (0, 1]" in p for p in fig5.check(out))
    res.normalized[scheme] = norm


# ---------------------------------------------------------------------------
# metrics and the benchmark contract
# ---------------------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0)
    assert run.tail(values[:10]) == (10.0, 100.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
