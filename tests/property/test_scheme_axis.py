"""The scheme axis of the tape kernels: one walk, many schemes.

The tape kernels run every scheme of a kernel call in one walk of the
path trie (up to the ``_WALK_ROWS`` row cap).  Stacking must change
no float: a stacked walk's energies, finish times and switch counts
equal, bit for bit, those of one single-scheme walk per scheme — for
any subset and order of the dynamic schemes (so SS2's step and AS/PS
re-speculation share a walk), for NPM's base beside SPM, on fused
stacks with per-point floors and the dynamic view's row subset, under
both power models, and with a tiny row cap that splits the schemes
over several walks.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ALL_SCHEMES, get_policy
from repro.experiments import RunConfig, build_plans, fused
from repro.experiments.fused import evaluate_points_fused
from repro.graph import GraphGenConfig, random_graph
from repro.sim import sample_realization_batch, supports_dynamic_batch
from repro.sim.compiled import compile_plan
from repro.sim.kernels import interp
from repro.workloads import application_with_load

DYNAMIC = ("GSS", "SS1", "SS2", "AS", "PS")

#: row caps: one scheme per walk, two schemes per walk for the batches
#: drawn below (the split path), and every scheme in one walk
CAPS = st.sampled_from(["one", "two", "all"])


def _cap(name: str, rows: int) -> int:
    return {"one": 1, "two": 2 * max(rows, 1), "all": 1 << 40}[name]


def _graph(seed, or_depth):
    return random_graph(
        random.Random(seed),
        GraphGenConfig(or_depth=or_depth, p_branch=0.9, p_continue=0.8,
                       max_tasks=3, max_width=2))


def _assert_stacked_equals_singles(kernel, args, specs, cap, **kwargs):
    """One call over ``specs`` under row cap ``cap`` == one k=1 walk per
    spec, bit for bit."""
    rows = args[3].shape[0]
    with mock.patch.object(interp, "_WALK_ROWS", _cap(cap, rows)):
        stacked = kernel(*args, specs, **kwargs)
    singles = [kernel(*args, [spec], **kwargs)[0] for spec in specs]
    assert [res.scheme for res in stacked] == [name for name, _ in specs]
    for got, want in zip(stacked, singles):
        assert got.scheme == want.scheme
        assert got.path_keys == want.path_keys
        assert np.array_equal(got.total_energy, want.total_energy), got.scheme
        assert np.array_equal(got.finish_time, want.finish_time), got.scheme
        assert np.array_equal(np.asarray(got.n_speed_changes),
                              np.asarray(want.n_speed_changes)), got.scheme


def _batch_inputs(seed, or_depth, n_runs, m, load, model):
    app = application_with_load(_graph(seed, or_depth), load, m)
    cfg = RunConfig(n_processors=m, power_model=model)
    power = cfg.make_power()
    plan_dyn, plan_static = build_plans(app, cfg, power)
    batch = sample_realization_batch(
        plan_static.structure, np.random.default_rng(seed), n_runs)
    prog_static = compile_plan(plan_static)
    matrix = prog_static.realization_matrix(batch)
    groups, keys = prog_static.executed_paths(batch.choices, n_runs)
    return cfg, power, plan_dyn, plan_static, matrix, groups, keys


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(0, 3),
       n_runs=st.integers(1, 40),
       m=st.integers(2, 4),
       load=st.floats(0.3, 0.9),
       model=st.sampled_from(["transmeta", "xscale"]),
       cap=CAPS,
       data=st.data())
def test_dynamic_walk_equals_one_walk_per_scheme(seed, or_depth, n_runs, m,
                                                 load, model, cap, data):
    cfg, power, plan_dyn, _ps, matrix, groups, keys = _batch_inputs(
        seed, or_depth, n_runs, m, load, model)
    assume(plan_dyn is not None)
    names = data.draw(st.permutations(DYNAMIC).flatmap(
        lambda perm: st.integers(1, len(perm)).map(lambda k: perm[:k])))
    specs = [(name, get_policy(name).start_run(plan_dyn, power,
                                               cfg.overhead))
             for name in names]
    assert all(supports_dynamic_batch(run, power) for _n, run in specs)
    _assert_stacked_equals_singles(
        interp.run_dynamic_tape,
        (compile_plan(plan_dyn), power, cfg.overhead, matrix, groups, keys),
        specs, cap)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(0, 3),
       n_runs=st.integers(1, 40),
       m=st.integers(2, 4),
       load=st.floats(0.3, 0.9),
       model=st.sampled_from(["transmeta", "xscale"]),
       cap=CAPS)
def test_npm_base_stacks_with_spm(seed, or_depth, n_runs, m, load, model,
                                  cap):
    cfg, power, _pd, plan_static, matrix, groups, keys = _batch_inputs(
        seed, or_depth, n_runs, m, load, model)
    spm = get_policy("SPM").batch_fixed_speed(plan_static, power,
                                              cfg.overhead)
    specs = [("NPM", power.s_max), ("SPM", spm)]
    _assert_stacked_equals_singles(
        interp.run_fixed_tape,
        (compile_plan(plan_static), power, cfg.overhead, matrix, groups,
         keys), specs, cap)


def _fused_calls(apps, cfg):
    """Every kernel call of one fused pass, as ``(kernel, args,
    kwargs)`` with the specs split off the positional arguments."""
    calls = []
    saved = {name: getattr(fused, name)
             for name in ("run_fixed_batch", "run_dynamic_batch")}

    def recorder(kernel):
        def record(*args, **kwargs):
            calls.append((kernel, args[:6], args[6], kwargs))
            return kernel(*args, **kwargs)
        return record

    with mock.patch.multiple(fused, **{name: recorder(kernel)
                                       for name, kernel in saved.items()}):
        assert evaluate_points_fused(apps, [cfg] * len(apps)) is not None
    return calls


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(0, 3),
       n_runs=st.integers(1, 25),
       model=st.sampled_from(["transmeta", "xscale"]),
       with_full_load=st.booleans(),
       cap=CAPS)
def test_fused_walks_equal_one_walk_per_scheme(seed, or_depth, n_runs,
                                               model, with_full_load, cap):
    """Fused stacks carry per-point speeds, floors and steps; a load-1.0
    point has no dynamic plan, so the dynamic call runs on the row
    subset of the points that have one."""
    graph = _graph(seed, or_depth)
    loads = (0.5, 1.0, 0.8) if with_full_load else (0.5, 0.65, 0.8)
    apps = [application_with_load(graph, ld, 2) for ld in loads]
    cfg = RunConfig(schemes=ALL_SCHEMES, n_runs=n_runs, n_processors=2,
                    power_model=model, seed=seed % 100_000)
    power = cfg.make_power()
    n_dyn = sum(build_plans(app, cfg, power)[0] is not None for app in apps)
    calls = _fused_calls(apps, cfg)
    assert len(calls) == 1 + (n_dyn > 0)
    for kernel, args, specs, kwargs in calls:
        if kernel is fused.run_dynamic_batch:
            assert [name for name, _run in specs] == list(DYNAMIC)
            assert args[3].shape[0] == n_dyn * n_runs
        _assert_stacked_equals_singles(kernel, args, list(specs), cap,
                                       **kwargs)
