"""Unit tests for the distributed dispatcher's edge cases.

The chaos tier (tests/chaos/test_dispatch.py) drives whole sweeps
through real executor fleets; these tests pin the small parts — wire
framing, endpoint parsing, the dedup ledger, executor-count clamping,
config validation — plus the degenerate fleet shapes (empty sweep, one
point on many executors, more executors than points).
"""

import pickle
import socket
import struct

import numpy as np
import pytest

from repro.errors import ConfigError, DispatchError
from repro.experiments import (
    EvaluationCache,
    RunConfig,
    evaluate_application,
    evaluation_key,
)
from repro.experiments.dispatch import (
    DispatchWorker,
    FrameBuffer,
    PointLedger,
    dispatch_points,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.experiments.engine import (
    BACKENDS,
    ExecutionContext,
    resolve_backend,
    resolve_jobs,
)
from repro.experiments.sweeps import sweep_load
from tests.conftest import build_chain_graph


class TestEndpoint:
    def test_parse_roundtrip(self):
        assert parse_endpoint("127.0.0.1:7070") == ("127.0.0.1", 7070)
        assert parse_endpoint("example.org:0") == ("example.org", 0)

    @pytest.mark.parametrize("bad", ["nonsense", ":7070", "host:",
                                     "host:notaport", "host:70707"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_endpoint(bad)


class TestFraming:
    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = ("task", (1, 2), 2, {"arbitrary": [1, 2.5]}, None)
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_recv_frame_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_framebuffer_reassembles_split_frames(self):
        blob = pickle.dumps(("heartbeat",))
        wire = struct.pack(">I", len(blob)) + blob
        wire = wire * 2  # two messages back to back
        buf = FrameBuffer()
        messages = []
        for i in range(0, len(wire), 3):  # drip-feed 3 bytes at a time
            messages.extend(buf.feed(wire[i:i + 3]))
        assert messages == [("heartbeat",), ("heartbeat",)]

    def test_framebuffer_rejects_oversized_announcement(self):
        buf = FrameBuffer()
        with pytest.raises(DispatchError, match="oversized"):
            buf.feed(struct.pack(">I", (1 << 30) + 1))


class TestPointLedger:
    def test_duplicate_delivery_after_steal_is_deduped_by_key(self):
        """The thief and the straggler deliver the same cache key; the
        second delivery is rejected and counted, never double-stored."""
        ledger = PointLedger(3, keys=["k0", "k1", "k2"])
        assert ledger.accept(1, "thief-result") is True
        assert ledger.accept(1, "straggler-result") is False
        assert ledger.duplicates == 1
        assert ledger.results[1] == "thief-result"
        assert not ledger.all_done()
        assert ledger.pending() == [0, 2]

    def test_default_keys_are_per_index(self):
        ledger = PointLedger(2)
        assert ledger.accept(0, "a") and ledger.accept(1, "b")
        assert ledger.all_done() and ledger.duplicates == 0

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            PointLedger(2, keys=["only-one"])


class TestBackendResolution:
    def test_registry_matches_runconfig_validation(self):
        # RunConfig hardcodes the pair to stay import-light; this test
        # pins the two registries together
        assert BACKENDS == ("local", "dispatch")

    def test_resolve_backend(self):
        assert resolve_backend("local") == "local"
        assert resolve_backend("dispatch") == "dispatch"
        with pytest.raises(ConfigError):
            resolve_backend("bogus")

    @pytest.mark.parametrize("bad", [
        {"backend": "bogus"},
        {"executors": -1},
        {"connect": "nonsense"},
    ])
    def test_runconfig_rejects_bad_knobs(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**bad)

    def test_executors_clamped_like_resolve_jobs(self):
        """``--executors`` follows resolve_jobs semantics: 0 = all
        cores, clamped to the number of sweep points, never below 1."""
        ctx = ExecutionContext(n_jobs=1, backend="dispatch", executors=64)
        assert ctx.dispatch_jobs(n_items=3) == 3
        assert ctx.dispatch_jobs(n_items=100) == 64
        ctx0 = ExecutionContext(n_jobs=1, backend="dispatch", executors=0)
        # 0 = all cores, exactly as resolve_jobs defines it
        assert ctx0.dispatch_jobs(n_items=2) == resolve_jobs(0, n_items=2)
        assert ctx0.dispatch_jobs() == resolve_jobs(0)
        # no explicit request: falls back to the context's n_jobs, so
        # an n_jobs=1 context never engages the dispatcher
        assert ExecutionContext(n_jobs=1,
                                backend="dispatch").dispatch_jobs() == 1
        with pytest.raises(ConfigError):
            ExecutionContext(backend="dispatch", executors=-2)


class TestExecutorCacheProbe:
    """A (re)joining executor must skip work the fleet already did."""

    @pytest.fixture
    def point(self):
        from repro.workloads import application_with_load
        app = application_with_load(build_chain_graph(), 0.5, 2)
        cfg = RunConfig(schemes=("GSS",), n_runs=10, seed=3)
        return app, cfg

    def test_cache_hit_returns_without_computing(self, tmp_path, point,
                                                 monkeypatch):
        app, cfg = point
        cache = EvaluationCache(tmp_path)
        expected = evaluate_application(app, cfg)
        cache.put(evaluation_key(app, cfg), expected)
        worker = DispatchWorker("localhost", 1, cache_dir=str(tmp_path))
        import repro.experiments.parallel as parallel_mod

        def _boom(*args, **kwargs):
            raise AssertionError("computed despite a cache hit")

        monkeypatch.setattr(parallel_mod, "_evaluate_app_point", _boom)
        result = worker._evaluate(0, app, cfg)
        assert np.array_equal(result.npm_energy, expected.npm_energy)
        assert np.array_equal(result.absolute["GSS"],
                              expected.absolute["GSS"])

    def test_cache_miss_computes_and_fills_the_store(self, tmp_path,
                                                     point):
        app, cfg = point
        worker = DispatchWorker("localhost", 1, cache_dir=str(tmp_path))
        result = worker._evaluate(0, app, cfg)
        # the fresh result landed in the shared store: a second worker
        # (or this one, re-joining) now hits
        hit = EvaluationCache(tmp_path).get(
            evaluation_key(app, cfg), app.name, cfg)
        assert hit is not None
        assert np.array_equal(hit.npm_energy, result.npm_energy)

    def test_shard_tasks_bypass_the_probe(self, tmp_path, point,
                                          monkeypatch):
        """A shard is an execution slice, not an addressable point: it
        must neither probe nor fill the evaluation cache."""
        from repro.experiments import evalcache as evalcache_mod
        from repro.experiments.fused import ShardTask
        app, cfg = point
        task = ShardTask(0, 2, 0, 5, (app,), (cfg,))
        worker = DispatchWorker("localhost", 1, cache_dir=str(tmp_path))

        def _no_key(*args, **kwargs):
            raise AssertionError("shard task was keyed for the cache")

        monkeypatch.setattr(evalcache_mod, "evaluation_key", _no_key)
        result = worker._evaluate(0, task, cfg)
        assert result.n_points == 1  # a ShardResult, computed directly

    def test_no_cache_dir_stays_cache_blind(self, tmp_path, point):
        app, cfg = point
        worker = DispatchWorker("localhost", 1)
        assert worker._open_cache() is None
        result = worker._evaluate(0, app, cfg)
        expected = evaluate_application(app, cfg)
        assert np.array_equal(result.npm_energy, expected.npm_energy)


class TestFleetShapes:
    def test_empty_sweep_is_empty_without_a_fleet(self):
        with ExecutionContext(backend="dispatch", executors=4) as ctx:
            assert dispatch_points(ctx, [], []) == []
            assert ctx.dispatch_stats()["dispatched"] == 0

    def test_one_point_many_executors(self):
        """A single point on a wide request: the fleet is clamped to
        one executor and the sweep still matches the serial result."""
        graph = build_chain_graph()
        cfg = RunConfig(schemes=("GSS",), n_runs=10, seed=3)
        ref = sweep_load(graph, cfg, [0.5])
        with ExecutionContext(backend="dispatch", executors=8) as ctx:
            got = sweep_load(graph, cfg, [0.5], context=ctx)
            stats = ctx.dispatch_stats()
        assert got.points == ref.points
        assert stats["completed"] == 1
        assert len(stats["per_executor"]) == 1  # clamped: one executor

    def test_more_executors_than_points(self):
        graph = build_chain_graph()
        cfg = RunConfig(schemes=("GSS",), n_runs=10, seed=3)
        loads = [0.4, 0.8]
        ref = sweep_load(graph, cfg, loads)
        with ExecutionContext(backend="dispatch", executors=16) as ctx:
            got = sweep_load(graph, cfg, loads, context=ctx)
            stats = ctx.dispatch_stats()
        assert got.points == ref.points
        assert stats["completed"] == len(loads)
        assert sum(stats["per_executor"].values()) == len(loads)
        assert len(stats["per_executor"]) <= len(loads)
