"""The prefix-trie tape kernels and vectorized path grouping, fuzzed.

The ``numpy`` tier runs each OR-path prefix once for every run below it
and groups runs by integer path ids.  Small random batches (1-40 runs
over random multi-OR graphs) stress what that changes most: many
one-run path groups, deep paths that share long prefixes, and fused
stacks where some points have no dynamic plan.  Every result must equal
the serial dict engine bit for bit, the vectorized grouping must equal a
run-by-run walk (group order, run indices, keys), and a bad branch
choice must raise for the first offending run in run order.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ALL_SCHEMES
from repro.errors import SimulationError
from repro.experiments import RunConfig, build_plans, evaluate_application
from repro.experiments.fused import evaluate_points_fused
from repro.graph import GraphGenConfig, random_graph
from repro.offline import build_plan
from repro.sim import sample_realization_batch
from repro.sim.compiled import compile_plan, path_groups
from repro.workloads import application_with_load


def _graph(seed, or_depth):
    # frequent, chained ORs with few tasks per section: deep paths and
    # many distinct prefixes even at a handful of runs
    return random_graph(
        random.Random(seed),
        GraphGenConfig(or_depth=or_depth, p_branch=0.9, p_continue=0.8,
                       max_tasks=3, max_width=2))


def _assert_identical(a, b):
    assert a.path_keys == b.path_keys
    assert np.array_equal(a.npm_energy, b.npm_energy)
    assert set(a.absolute) == set(b.absolute)
    for scheme in a.absolute:
        assert np.array_equal(a.absolute[scheme], b.absolute[scheme]), scheme
        assert np.array_equal(a.normalized[scheme],
                              b.normalized[scheme]), scheme
        assert np.array_equal(a.speed_changes[scheme],
                              b.speed_changes[scheme]), scheme


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(0, 3),
       n_runs=st.integers(1, 40),
       m=st.integers(2, 4),
       load=st.floats(0.3, 0.95),
       model=st.sampled_from(["transmeta", "xscale"]))
def test_numpy_tier_equals_dict_engine(seed, or_depth, n_runs, m, load,
                                       model):
    app = application_with_load(_graph(seed, or_depth), load, m)
    cfg = RunConfig(schemes=ALL_SCHEMES, n_runs=n_runs, n_processors=m,
                    power_model=model, seed=seed % 100_000)
    r_dict = evaluate_application(app, cfg.with_(engine="dict"))
    r_tape = evaluate_application(app, cfg.with_(kernel_tier="numpy"))
    _assert_identical(r_tape, r_dict)


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(1, 3),
       n_runs=st.integers(1, 40),
       model=st.sampled_from(["transmeta", "xscale"]))
def test_fused_stack_with_a_point_without_dynamic_plan(seed, or_depth,
                                                       n_runs, model):
    """A load-1.0 point has no dynamic plan, so the dynamic schemes run
    on a sub-view of the stack whose path groups are sliced from the
    static view's — per point, still the dict engine's floats."""
    graph = _graph(seed, or_depth)
    cfg = RunConfig(schemes=ALL_SCHEMES, n_runs=n_runs, n_processors=2,
                    power_model=model, seed=seed % 100_000,
                    kernel_tier="numpy")
    apps = [application_with_load(graph, ld, 2) for ld in (0.6, 1.0, 0.8)]
    power = cfg.make_power()
    has_dyn = [build_plans(app, cfg, power)[0] is not None for app in apps]
    assume(has_dyn[0] and not has_dyn[1])
    fused = evaluate_points_fused(apps, [cfg] * len(apps))
    assert fused is not None
    for app, res in zip(apps, fused):
        _assert_identical(res, evaluate_application(
            app, cfg.with_(engine="dict")))


def _walk_run_by_run(prog, choices, n):
    """The reference grouping: walk every run's path on its own."""
    by_path = {}
    keys = []
    for i in range(n):
        sid = prog.root_sid
        path = [sid]
        while True:
            sec = prog.sections[sid]
            if sec.exit_or is None or not sec.branch_ids:
                break
            if sec.forced_target is not None:
                sid = sec.forced_target
            else:
                if sec.exit_or not in choices:
                    raise SimulationError(
                        f"realization has no branch choice for OR node "
                        f"{sec.exit_or!r}")
                sid = int(choices[sec.exit_or][i])
                if sid not in sec.branch_set:
                    raise SimulationError(
                        f"realization chose section {sid} at "
                        f"{sec.exit_or!r}, not a successor path")
            path.append(sid)
        by_path.setdefault(tuple(path), []).append(i)
        keys.append(">".join(str(s) for s in path))
    return [(p, np.asarray(r)) for p, r in by_path.items()], keys


def _outcome(fn, *args):
    try:
        groups, keys = fn(*args)
    except SimulationError as exc:
        return "error", str(exc)
    return [(p, idx.tolist()) for p, idx in groups], keys


def _batch(seed, or_depth, n_runs):
    plan = build_plan(application_with_load(_graph(seed, or_depth), 0.7, 2),
                      2)
    batch = sample_realization_batch(
        plan.structure, np.random.default_rng(seed), n_runs)
    return compile_plan(plan), batch


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(0, 3),
       n_runs=st.integers(1, 40),
       data=st.data())
def test_vectorized_paths_match_run_by_run_walk(seed, or_depth, n_runs,
                                                data):
    prog, batch = _batch(seed, or_depth, n_runs)
    choices = {k: v.copy() for k, v in batch.choices.items()}
    names = sorted(choices)
    mode = data.draw(st.sampled_from(["clean", "foreign", "missing"]))
    if mode == "foreign" and names:
        # a foreign section id that encodes its run, so the message
        # names exactly which run raised
        for name in data.draw(st.lists(st.sampled_from(names),
                                       min_size=1, unique=True)):
            runs = data.draw(st.lists(st.integers(0, n_runs - 1),
                                      min_size=1, unique=True))
            for r in runs:
                choices[name][r] = 10_000 + r
    elif mode == "missing" and names:
        for name in data.draw(st.lists(st.sampled_from(names),
                                       min_size=1, unique=True)):
            del choices[name]
    got = _outcome(prog.executed_paths, choices, n_runs)
    assert got == _outcome(_walk_run_by_run, prog, choices, n_runs)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(1, 3),
       n_runs=st.integers(1, 40),
       data=st.data())
def test_sliced_path_ids_regroup_like_a_fresh_walk(seed, or_depth, n_runs,
                                                   data):
    prog, batch = _batch(seed, or_depth, n_runs)
    groups, _keys = prog.executed_paths(batch.choices, n_runs)
    path_id = np.empty(n_runs, dtype=np.intp)
    for g, (_path, idx) in enumerate(groups):
        path_id[idx] = g
    sel = np.asarray(sorted(data.draw(st.lists(
        st.integers(0, n_runs - 1), min_size=1, unique=True))))
    sliced = path_groups([p for p, _idx in groups], path_id[sel])
    fresh = prog.executed_paths(
        {k: v[sel] for k, v in batch.choices.items()}, sel.size)
    assert _outcome(lambda: sliced) == _outcome(lambda: fresh)


@pytest.mark.parametrize("n_runs", [0, 1])
def test_tiny_batches_group(n_runs):
    prog, batch = _batch(7, 2, max(n_runs, 1))
    batch = batch[:n_runs]
    assert (_outcome(prog.executed_paths, batch.choices, n_runs)
            == _outcome(_walk_run_by_run, prog, batch.choices, n_runs))
