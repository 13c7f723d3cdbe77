"""Shard planning and resolution edges for the sharded fused sweep.

The bit-identity of sharded execution lives in the property tier
(tests/property/test_fused_equivalence.py) and the chaos tier; these
tests pin the small deterministic parts — the run-range planner, the
memory estimate, shard-count resolution (explicit / config / session
default / auto), config validation, the shm result-block round-trip,
and the cache-key contract that sharding is an execution knob.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import RunConfig, evaluation_key
from repro.experiments import fused as fused_mod
from repro.experiments.fused import (
    _resolve_shard_count,
    default_shards,
)
from repro.sim.sweepc import FUSED_MEM_FACTOR, fused_bytes_estimate, plan_shards
from repro.workloads import application_with_load, figure3_graph


class TestPlanShards:
    def test_non_divisible_runs_spread_the_remainder_first(self):
        # 40 runs over 3 shards: 40 % 3 = 1 extra run on shard 0
        assert plan_shards(40, 3) == [(0, 14), (14, 27), (27, 40)]

    def test_more_shards_than_runs_clamps_to_one_run_each(self):
        assert plan_shards(5, 9) == [(i, i + 1) for i in range(5)]

    def test_single_shard_is_the_whole_axis(self):
        assert plan_shards(40, 1) == [(0, 40)]

    def test_zero_or_negative_request_clamps_to_one(self):
        assert plan_shards(10, 0) == [(0, 10)]
        assert plan_shards(10, -4) == [(0, 10)]

    @pytest.mark.parametrize("n_runs,shards", [
        (1, 1), (2, 3), (7, 2), (40, 3), (100, 7), (1000, 16),
    ])
    def test_ranges_tile_the_run_axis_exactly(self, n_runs, shards):
        ranges = plan_shards(n_runs, shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_runs
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, ordered, no gaps or overlaps
        sizes = [hi - lo for lo, hi in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_empty_run_axis_rejected(self):
        with pytest.raises(ValueError, match="n_runs"):
            plan_shards(0, 2)


class _StubProgram:
    """Duck-typed CompiledPlan/StackedProgram for the estimator."""

    def __init__(self, n_cols=4, n_slots=6):
        self.comp_names = [f"c{i}" for i in range(n_cols)]
        self.n_slots = n_slots


class TestBytesEstimate:
    def test_scales_linearly_with_the_run_axis(self):
        prog = _StubProgram()
        assert fused_bytes_estimate(prog, 200) == \
            2 * fused_bytes_estimate(prog, 100)
        assert fused_bytes_estimate(prog, 0) == 0

    def test_counts_columns_and_slots(self):
        per_run = fused_bytes_estimate(_StubProgram(n_cols=4, n_slots=6), 1)
        assert per_run == int(8.0 * (4 + 6) * FUSED_MEM_FACTOR)


class _StubBuild:
    """Just enough _FusedBuild surface for _resolve_shard_count."""

    def __init__(self, n_cols=4, n_slots=6):
        self.stacked_static = _StubProgram(n_cols, n_slots)


class TestResolveShardCount:
    def _cfgs(self, n=3, **kw):
        return [RunConfig(schemes=("GSS",), n_runs=40, seed=1, **kw)] * n

    def test_unset_everywhere_means_monolithic(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", None)
        assert _resolve_shard_count(_StubBuild(), self._cfgs(), None) == 1

    def test_explicit_argument_outranks_the_config(self):
        cfgs = self._cfgs(shards=2)
        assert _resolve_shard_count(_StubBuild(), cfgs, 5) == 5
        assert _resolve_shard_count(_StubBuild(), cfgs, None) == 2

    def test_session_default_applies_last(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", "4")
        assert _resolve_shard_count(_StubBuild(), self._cfgs(), None) == 4

    def test_clamped_to_the_run_count(self):
        assert _resolve_shard_count(_StubBuild(), self._cfgs(), 999) == 40

    def test_mixed_run_counts_refuse_to_shard(self):
        cfgs = [RunConfig(schemes=("GSS",), n_runs=40, seed=1),
                RunConfig(schemes=("GSS",), n_runs=30, seed=1)]
        assert _resolve_shard_count(_StubBuild(), cfgs, 3) == 1

    def test_auto_follows_effective_cores(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "effective_cores", lambda: 6)
        assert _resolve_shard_count(_StubBuild(), self._cfgs(), 0) == 6

    def test_auto_raised_by_the_memory_budget(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "effective_cores", lambda: 2)
        build = _StubBuild()
        cfgs = self._cfgs(shard_mem_mb=1)
        est = fused_bytes_estimate(build.stacked_static, 3 * 40)
        need = -(-est // (1 * 1024 * 1024))
        expect = max(1, min(max(2, need), 40))
        assert _resolve_shard_count(build, cfgs, 0) == expect

    def test_auto_budget_never_exceeds_the_run_count(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "effective_cores", lambda: 1)
        # a 1-byte budget demands more shards than there are runs
        big = _StubBuild(n_cols=64, n_slots=64)
        cfgs = self._cfgs(shard_mem_mb=1)
        for cfg in cfgs:
            assert cfg.n_runs == 40
        assert _resolve_shard_count(big, cfgs, 0) <= 40


class TestDefaultShards:
    def test_unset_and_empty_mean_no_request(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", None)
        assert default_shards() is None
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", "")
        assert default_shards() is None

    def test_parses_integers(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", "3")
        assert default_shards() == 3
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", "0")
        assert default_shards() == 0

    @pytest.mark.parametrize("bad", ["three", "1.5", "-2"])
    def test_rejects_malformed_values(self, monkeypatch, bad):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", bad)
        with pytest.raises(ConfigError, match="REPRO_SHARDS"):
            default_shards()


class TestRunConfigValidation:
    def test_negative_shards_rejected(self):
        with pytest.raises(ConfigError, match="shards"):
            RunConfig(shards=-1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="shard_mem_mb"):
            RunConfig(shard_mem_mb=-1)

    def test_zero_is_auto_not_an_error(self):
        cfg = RunConfig(shards=0, shard_mem_mb=0)
        assert cfg.shards == 0 and cfg.shard_mem_mb == 0


class TestKeyInsulation:
    """Sharding is pure execution: it must never split the cache."""

    @pytest.mark.parametrize("change", [
        {"shards": 4},
        {"shards": 0},
        {"shard_mem_mb": 64},
        {"shards": 3, "shard_mem_mb": 128},
    ])
    def test_shard_knobs_do_not_change_evaluation_key(self, change):
        app = application_with_load(figure3_graph(), 0.5, 2)
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3)
        assert evaluation_key(app, cfg) == \
            evaluation_key(app, cfg.with_(**change))


def _identity(x):
    return x


class TestWorkerKernelStats:
    """--cache-stats aggregation: probe every pool worker exactly once."""

    def test_no_live_pool_returns_nothing(self):
        from repro.experiments import ExecutionContext
        with ExecutionContext(n_jobs=2) as ctx:
            assert ctx.worker_kernel_stats() == []

    def test_each_live_worker_reports_once(self):
        from repro.experiments import ExecutionContext
        with ExecutionContext(n_jobs=2) as ctx:
            assert ctx.map(_identity, [(i,) for i in range(4)]) == \
                [0, 1, 2, 3]  # spins the persistent pool up
            stats = ctx.worker_kernel_stats()
        assert len(stats) == 2  # deduplicated by worker pid
        for counters in stats:
            assert set(counters) >= {"program_cache", "tape_cache",
                                     "stacked_cache"}
            for label in ("program_cache", "tape_cache", "stacked_cache"):
                assert counters[label]["hits"] >= 0
                assert counters[label]["misses"] >= 0


class TestShardBlockTransport:
    def test_matrix_round_trips_exactly(self):
        import pickle
        from repro.experiments.engine import ShardBlock
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(9, 120))
        block = ShardBlock.allocate(matrix.shape)
        if block is None:
            pytest.skip("shared memory unavailable on this platform")
        # the worker writes through an unpickled descriptor
        pickle.loads(pickle.dumps(block)).publish(matrix, key=0)
        out = block.take()
        assert np.array_equal(out, matrix)
        assert out.dtype == matrix.dtype

    def test_empty_matrix_is_not_published(self):
        from repro.experiments.engine import ShardBlock
        assert ShardBlock.allocate((0, 0)) is None

    def test_take_after_unlink_raises_transport_error(self):
        from repro.errors import TransportError
        from repro.experiments.engine import ShardBlock
        block = ShardBlock.allocate((2, 3))
        if block is None:
            pytest.skip("shared memory unavailable on this platform")
        block.publish(np.ones((2, 3)), key=0)
        block.take()  # consumes and unlinks the segment
        with pytest.raises(TransportError):
            block.take()
        with pytest.raises(TransportError):  # a late worker write
            block.publish(np.ones((2, 3)), key=0)
        block.release()  # idempotent

    def test_pickled_fallback_is_counted_and_exact(self):
        """A worker that cannot write its block ships the matrix
        pickled; the reduction still places it exactly and counts the
        fallback where the sweep reads resilience counters."""
        from repro.experiments import ExecutionContext
        from repro.experiments.engine import ShardBlock
        graph = figure3_graph()
        cfg = RunConfig(schemes=("GSS", "SPM"), n_runs=30, seed=4)
        apps = tuple(application_with_load(graph, load, 2)
                     for load in (0.4, 0.7))
        configs = (cfg, cfg)
        build = fused_mod._build_fused(apps, configs)
        ranges = [(0, 12), (12, 30)]
        blocks, results = [], []
        for s, (lo, hi) in enumerate(ranges):
            block = ShardBlock.allocate(fused_mod._shard_shape(
                len(build.scheme_names), len(apps), lo, hi))
            if block is None:
                pytest.skip("shared memory unavailable on this platform")
            if s == 1:
                block.release()  # the worker finds the segment gone
            task = fused_mod.ShardTask(s, len(ranges), lo, hi, apps,
                                       configs, block)
            results.append(fused_mod.run_shard(task))
            blocks.append(block)
        assert results[0].matrix is None and results[1].matrix is not None
        with ExecutionContext(n_jobs=1) as ctx:
            out = fused_mod._reduce_shards(build, configs, ranges, results,
                                           blocks, ctx)
            assert ctx.resilience["shm_fallbacks"] == 1
        mono = fused_mod._compute_fused(build, configs)
        assert np.array_equal(out[1], mono[1])
        for name in build.scheme_names:
            assert np.array_equal(out[2][name], mono[2][name])
            assert np.array_equal(out[3][name], mono[3][name])
        assert out[4] == list(mono[4])
