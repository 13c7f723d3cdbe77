"""Memory guards for the ``numpy`` tier's batch kernels.

The prefix-trie kernels keep per-run state in whole-batch arrays and
size every other buffer per section.  Two regressions are easy to make
there and invisible to the equivalence suites: a reference cycle that
keeps a call's arrays alive until the cyclic collector runs, and a
whole-batch scratch buffer that multiplies the peak.  Both are measured
with ``tracemalloc`` on one fused Figure 5 view: the widened ATR graph,
m=6, ten load points of 1000 runs each.  At 400 runs per point the four
dynamic schemes share one walk of 16000 rows (the scheme axis), whose
peak is bounded per row of the walk-row cap, not per scheme.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.registry import PAPER_SCHEMES
from repro.experiments import fused, sweeps
from repro.experiments.figures import ATR_ALPHA
from repro.experiments.runner import RunConfig
from repro.sim.kernels import interp
from repro.workloads.atr import AtrConfig, atr_graph

#: every point keeps a dynamic plan, so both views span ten points
LOADS = tuple(np.round(np.linspace(0.1, 0.82, 10), 2))
N_RUNS = 1000
#: one kernel call's traced peak on that view
PEAK_LIMIT = 6 * 2**20
#: less than one float per run of the batch: freed-object free lists
#: may keep a few hundred bytes, a leaked per-run array cannot hide
RETAINED_LIMIT = 8 * N_RUNS
#: runs per point at which the four dynamic schemes fit one walk
N_RUNS_STACKED = 400
#: a walk's traced peak, from the cap on its rows (runs x schemes): the
#: 1000-run view's limit per row of a walk, times the cap
STACKED_PEAK_LIMIT = PEAK_LIMIT * interp._WALK_ROWS // (len(LOADS) * N_RUNS)


def _record(n_runs):
    """The first fixed and dynamic kernel call of one fused sweep, as
    ``{name: (kernel, args, kwargs)}``."""
    graph = atr_graph(AtrConfig(
        alpha=ATR_ALPHA, max_rois=6,
        roi_probs=(0.05, 0.15, 0.20, 0.20, 0.15, 0.15, 0.10)))
    cfg = RunConfig(schemes=PAPER_SCHEMES, n_processors=6, n_runs=n_runs,
                    seed=5, kernel_tier="numpy")
    calls = {}
    saved = {}
    for name in ("run_fixed_batch", "run_dynamic_batch"):
        kernel = saved[name] = getattr(fused, name)

        def record(*args, _kernel=kernel, _name=name, **kwargs):
            calls.setdefault(_name, (_kernel, args, kwargs))
            return _kernel(*args, **kwargs)
        setattr(fused, name, record)
    try:
        sweeps.sweep_load(graph, cfg, LOADS, name="memory")
    finally:
        for name, kernel in saved.items():
            setattr(fused, name, kernel)
    assert set(calls) == set(saved)
    for _kernel, args, _kwargs in calls.values():
        assert args[3].shape[0] == len(LOADS) * n_runs
    return calls


@pytest.fixture(scope="module")
def kernel_calls():
    return _record(N_RUNS)


@pytest.fixture(scope="module")
def stacked_call():
    """The dynamic call at ``N_RUNS_STACKED``: every scheme in one walk."""
    kernel, args, kwargs = _record(N_RUNS_STACKED)["run_dynamic_batch"]
    specs = args[6]
    assert len(specs) == 4
    assert len(specs) * args[3].shape[0] <= interp._WALK_ROWS
    return kernel, args, kwargs


@pytest.fixture
def traced():
    """Cyclic GC off and tracemalloc on for the test body."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", ["run_fixed_batch", "run_dynamic_batch"])
def test_kernel_retains_nothing(kernel_calls, traced, name):
    kernel, args, kwargs = kernel_calls[name]
    kernel(*args, **kwargs)  # warm: per-program caches are allowed
    before = tracemalloc.get_traced_memory()[0]
    result = kernel(*args, **kwargs)
    del result
    retained = tracemalloc.get_traced_memory()[0] - before
    assert retained < RETAINED_LIMIT, f"{retained} bytes retained"


@pytest.mark.parametrize("name", ["run_fixed_batch", "run_dynamic_batch"])
def test_kernel_peak_stays_bounded(kernel_calls, traced, name):
    kernel, args, kwargs = kernel_calls[name]
    kernel(*args, **kwargs)
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = kernel(*args, **kwargs)
    peak = tracemalloc.get_traced_memory()[1] - before
    del result
    assert peak <= PEAK_LIMIT, f"peak {peak / 2**20:.2f} MB"


def test_stacked_walk_retains_nothing(stacked_call, traced):
    kernel, args, kwargs = stacked_call
    kernel(*args, **kwargs)
    before = tracemalloc.get_traced_memory()[0]
    result = kernel(*args, **kwargs)
    del result
    retained = tracemalloc.get_traced_memory()[0] - before
    assert retained < RETAINED_LIMIT, f"{retained} bytes retained"


def test_stacked_walk_peak_follows_the_row_cap(stacked_call, traced):
    kernel, args, kwargs = stacked_call
    kernel(*args, **kwargs)
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = kernel(*args, **kwargs)
    peak = tracemalloc.get_traced_memory()[1] - before
    del result
    assert peak <= STACKED_PEAK_LIMIT, f"peak {peak / 2**20:.2f} MB"
