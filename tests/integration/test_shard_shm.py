"""Shard result blocks in shared memory: one owner, no leftovers.

A sharded sweep large enough for its shard results to travel through
shared memory runs in a fresh interpreter, so the resource tracker's
complaints (printed by a helper process at interpreter exit) land on
that process's stderr.  The parent owns every block from creation to
unlink, so the tracker has nothing to report and ``/dev/shm`` keeps no
segment of the run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[2] / "src"
SHM = Path("/dev/shm")

SCRIPT = """
from repro.core.registry import PAPER_SCHEMES
from repro.experiments import engine
from repro.experiments.engine import ExecutionContext
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import DEFAULT_LOADS, sweep_load
from repro.workloads import figure3_graph

allocated = []
allocate = engine.ShardBlock.allocate.__func__

def counting_allocate(cls, *args, **kwargs):
    block = allocate(cls, *args, **kwargs)
    allocated.append(block is not None)
    return block

engine.ShardBlock.allocate = classmethod(counting_allocate)
cfg = RunConfig(schemes=PAPER_SCHEMES, n_processors=2, n_runs=4000,
                seed=11, shards=2)
with ExecutionContext(n_jobs=2) as ctx:
    series = sweep_load(figure3_graph(), cfg, DEFAULT_LOADS, context=ctx)
fused = series.meta["fused"]
print(fused["transport"], fused["shards"], sum(allocated))
"""


def _segments():
    return {p.name for p in SHM.glob("psm_*")}


@pytest.mark.skipif(not SHM.is_dir(), reason="no POSIX shared memory dir")
def test_sharded_sweep_leaves_no_segments_and_no_tracker_noise():
    before = _segments()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    transport, shards, blocks = proc.stdout.split()
    # the run really used the shared-memory transport
    assert (transport, shards, blocks) == ("pool", "2", "2")
    noise = [line for line in proc.stderr.splitlines()
             if "resource_tracker" in line]
    assert noise == []
    assert _segments() - before == set()
