"""Edge cases of work partitioning: job resolution and cache keys.

The contract under test: worker counts are pure execution shape — a
request resolves to at least one and at most as many workers as there
is work, an empty map never pays for a pool, and none of the
resilience or dispatch knobs leak into the evaluation cache key.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments import ExecutionContext, RunConfig, evaluation_key
from repro.experiments.engine import resolve_jobs
from repro.workloads import application_with_load, figure3_graph


class TestResolveJobs:
    def test_none_and_zero_mean_all_cores(self):
        import os
        cores = os.cpu_count() or 1
        assert resolve_jobs(None) == cores
        assert resolve_jobs(0) == cores

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            resolve_jobs(-2)

    def test_clamped_to_available_work(self):
        assert resolve_jobs(32, n_items=3) == 3
        assert resolve_jobs(2, n_items=10) == 2

    def test_never_below_one(self):
        assert resolve_jobs(4, n_items=0) == 1


@pytest.fixture(scope="module")
def app():
    return application_with_load(figure3_graph(), 0.6, 2)


class TestParallelBoundary:
    def test_empty_map_returns_empty(self):
        with ExecutionContext(n_jobs=2) as ctx:
            assert ctx.map(sorted, []) == []
            assert ctx.pools_created == 0  # no work, no pool


class TestKeyInsulation:
    @pytest.mark.parametrize("change", [
        {"max_retries": 9},
        {"chunk_timeout": 2.5},
        {"degrade": False},
        {"max_retries": 0, "chunk_timeout": 0.5, "degrade": False},
    ])
    def test_resilience_knobs_do_not_change_evaluation_key(self, app,
                                                           change):
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3)
        assert evaluation_key(app, cfg) == \
            evaluation_key(app, cfg.with_(**change))

    @pytest.mark.parametrize("change", [
        {"backend": "dispatch"},
        {"executors": 4},
        {"connect": "127.0.0.1:9999"},
        {"backend": "dispatch", "executors": 0,
         "connect": "0.0.0.0:7070"},
    ])
    def test_dispatch_knobs_do_not_change_evaluation_key(self, app,
                                                         change):
        """Where a sweep executes must never decide whether it hits the
        cache — a dispatched sweep and a local one share entries."""
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3)
        assert evaluation_key(app, cfg) == \
            evaluation_key(app, cfg.with_(**change))
