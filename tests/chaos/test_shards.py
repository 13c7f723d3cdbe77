"""Chaos for the sharded fused sweep: kill a shard, get exact floats.

The ``shard-exec`` fault site fires at the start of one shard's
execution — on pool workers and dispatch executors alike, since the
shard travels through the same ``_evaluate_app_point`` task protocol.
Each scenario injects a failure into shard 1 of 3 mid-sweep and
asserts the recovered sweep equals the monolithic fused reference bit
for bit, with the fan-out still crossing process boundaries (the
recovery must not silently degrade the whole sweep to the inline
pass).  The autouse backend matrix runs every scenario against both
backends: a crashed pool worker re-dispatches after a pool rebuild, a
crashed executor's shard is re-dispatched to a survivor.
"""

import warnings

import pytest

from repro.experiments import ExecutionContext, RunConfig
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.fused import evaluate_points_fused, take_fused_meta
from repro.workloads import application_with_load, figure3_graph

LOADS = (0.3, 0.5, 0.8)


@pytest.fixture(scope="module")
def graph():
    return figure3_graph()


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(schemes=("GSS", "SPM", "AS"), n_runs=30, seed=11,
                     max_retries=4)


@pytest.fixture(scope="module")
def apps(graph, cfg):
    return [application_with_load(graph, ld, cfg.n_processors)
            for ld in LOADS]


@pytest.fixture(scope="module")
def reference(apps, cfg):
    # monolithic fused pass in this process: the fault-free reference
    results = evaluate_points_fused(apps, [cfg] * len(apps))
    take_fused_meta()
    return results


def _assert_identical(a, b):
    import numpy as np
    assert np.array_equal(a.npm_energy, b.npm_energy)
    assert a.path_keys == b.path_keys
    for scheme in a.normalized:
        assert np.array_equal(a.absolute[scheme], b.absolute[scheme])
        assert np.array_equal(a.speed_changes[scheme],
                              b.speed_changes[scheme])


class TestShardExecFaults:
    def test_injected_raise_is_retried_bit_identically(
            self, tmp_path, apps, cfg, reference):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        plan = FaultPlan(specs=(
            FaultSpec(site="shard-exec", action="raise", key=1),),
            scratch=str(scratch))
        with ExecutionContext(n_jobs=3, fault_plan=plan) as ctx:
            sharded = evaluate_points_fused(apps, [cfg] * len(apps),
                                            context=ctx, shards=3)
        meta = take_fused_meta()
        assert meta["shards"] == 3
        assert meta["transport"] != "inline"  # recovery stayed sharded
        for res, ref in zip(sharded, reference):
            _assert_identical(res, ref)

    def test_shard_executor_crash_mid_sweep_recovers(
            self, tmp_path, apps, cfg, reference):
        """The headline scenario: the process running shard 1 dies.

        On the local backend the pool breaks and is rebuilt (with a
        warning); on dispatch the driver sees the executor's EOF and
        re-dispatches the shard to a survivor.  Either way the reduced
        sweep must equal the monolithic reference exactly.
        """
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        plan = FaultPlan(specs=(
            FaultSpec(site="shard-exec", action="crash", key=1),),
            scratch=str(scratch))
        with warnings.catch_warnings():
            # "rebuilding the pool" fires locally, nothing on dispatch
            warnings.simplefilter("ignore", RuntimeWarning)
            with ExecutionContext(n_jobs=3, fault_plan=plan) as ctx:
                sharded = evaluate_points_fused(apps, [cfg] * len(apps),
                                                context=ctx, shards=3)
                recovered = (ctx.resilience["rebuilds"]
                             + ctx.resilience["retries"]
                             + ctx.dispatch_stats()["worker_deaths"])
        meta = take_fused_meta()
        assert meta["shards"] == 3
        assert meta["transport"] != "inline"
        assert recovered >= 1  # the crash really happened and was handled
        for res, ref in zip(sharded, reference):
            _assert_identical(res, ref)


class TestShardBlockAttachFault:
    def test_attach_failure_falls_back_to_pickle_bit_identically(
            self, tmp_path, monkeypatch, apps, cfg, reference):
        """Shard 1's worker cannot attach its result block: it ships the
        matrix pickled, the fallback is counted exactly once, and the
        reduced sweep equals the monolithic fused pass bit for bit.

        Result blocks are a local-pool transport, so the context is
        pinned to the local backend, and the size threshold is dropped
        so every shard's result travels through a block.
        """
        from repro.experiments import fused
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        plan = FaultPlan(specs=(
            FaultSpec(site="shm-attach", action="raise", key=1),),
            scratch=str(scratch))
        monkeypatch.setattr(fused, "SHARD_SHM_MIN_BYTES", 0)
        with ExecutionContext(n_jobs=3, fault_plan=plan,
                              backend="local") as ctx:
            sharded = evaluate_points_fused(apps, [cfg] * len(apps),
                                            context=ctx, shards=3)
            resilience = ctx.resilience_stats()
        meta = take_fused_meta()
        assert meta["shards"] == 3
        assert meta["transport"] == "pool"
        assert resilience["shm_fallbacks"] == 1
        assert resilience["retries"] == 0  # a transport switch, not a retry
        for res, ref in zip(sharded, reference):
            _assert_identical(res, ref)
