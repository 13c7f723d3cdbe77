"""Parallel fan-out failure paths and exact path frequencies.

The contract under test: a failing worker surfaces promptly as a
:class:`ParallelError` naming the failing item, and path frequencies
are exact integer fractions of the recorded runs.
"""

import pytest

from repro.errors import ConfigError, ParallelError
from repro.experiments import RunConfig
from repro.experiments.parallel import map_custom, map_load_points
from repro.experiments.runner import EvaluationResult
from repro.workloads import figure3_graph


def _fail_on(x):
    if x == "bad":
        raise RuntimeError("worker exploded")
    return x


class TestWorkerFailures:
    def test_custom_pool_failure_has_context(self):
        with pytest.raises(ParallelError, match="args=\\('bad',\\)") as ei:
            map_custom(_fail_on, [("ok",), ("bad",), ("ok",)], n_jobs=2)
        assert isinstance(ei.value.__cause__, RuntimeError)
        assert "worker exploded" in str(ei.value)

    def test_load_point_failure_names_the_point(self):
        cfg = RunConfig(schemes=("GSS",), n_runs=5, seed=1)
        # load > 1 is rejected inside the worker process
        with pytest.raises(ParallelError, match="load=1.5"):
            map_load_points(figure3_graph(), [0.5, 1.5], cfg, n_jobs=2)

    def test_failure_surfaces_promptly(self):
        import time
        start = time.monotonic()
        with pytest.raises(ParallelError):
            map_custom(_fail_on, [("bad",)] + [("ok",)] * 3, n_jobs=2)
        # fail-fast: nowhere near the time 4 sequential retries would take
        assert time.monotonic() - start < 30.0


class TestPathFrequencies:
    def test_exact_fractions(self):
        res = EvaluationResult(app_name="x", config=RunConfig(n_runs=7),
                               path_keys=["a", "b", "a", "c", "a", "b",
                                          "a"])
        freq = res.path_frequencies()
        assert freq == {"a": 4 / 7, "b": 2 / 7, "c": 1 / 7}

    def test_sum_is_exact_for_large_n(self):
        # the old 1/n accumulation drifted; counting must not
        keys = (["p"] * 333) + (["q"] * 334) + (["r"] * 333)
        res = EvaluationResult(app_name="x", config=RunConfig(n_runs=1000),
                               path_keys=keys)
        freq = res.path_frequencies()
        assert freq["p"] == 333 / 1000
        assert freq["q"] == 334 / 1000
        assert sum(freq.values()) == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        res = EvaluationResult(app_name="x", config=RunConfig(n_runs=1))
        with pytest.raises(ConfigError):
            res.path_frequencies()
