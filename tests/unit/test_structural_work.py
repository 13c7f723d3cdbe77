"""Structural work is done once per graph, not once per call.

Spies count the expensive graph-level steps — serializing a graph for
its fingerprint, decomposing it into sections, building an offline
plan — across public calls that should only look them up.  A hypothesis
property checks that the shared deadline-independent stage changes no
plan field.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.registry import PAPER_SCHEMES
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import DEFAULT_LOADS, sweep_load
from repro.graph import GraphGenConfig, random_graph
from repro.graph import serialize
from repro.graph.andor import Application
from repro.graph.sections import SectionStructure
from repro.offline import build_plan, clear_plan_cache
from repro.offline.plan import OfflinePlan
from repro.workloads import (atr_graph, average_case_length, figure3_graph,
                             worst_case_length)


@pytest.fixture
def spies(monkeypatch):
    """Counters for graph_to_dict, SectionStructure and OfflinePlan."""
    counts = {"graph_to_dict": 0, "SectionStructure": 0, "OfflinePlan": 0}
    to_dict = serialize.graph_to_dict

    def counting_to_dict(graph):
        counts["graph_to_dict"] += 1
        return to_dict(graph)

    monkeypatch.setattr(serialize, "graph_to_dict", counting_to_dict)
    for cls in (SectionStructure, OfflinePlan):
        init = cls.__init__

        def counting_init(self, *args, _init=init, _name=cls.__name__,
                          **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def test_repeat_sweep_redoes_no_graph_work(spies):
    graph = atr_graph()
    cfg = RunConfig(schemes=PAPER_SCHEMES, n_processors=2, n_runs=20,
                    seed=5)
    assert len(DEFAULT_LOADS) == 10
    first = sweep_load(graph, cfg, DEFAULT_LOADS)
    spies.update(graph_to_dict=0, SectionStructure=0)
    second = sweep_load(graph, cfg, DEFAULT_LOADS)
    assert spies["graph_to_dict"] == 0
    assert spies["SectionStructure"] == 0
    assert first.points == second.points


def test_length_probes_build_no_plan(spies):
    clear_plan_cache()  # cold: the probe builds a stage, still no plan
    graph = figure3_graph()
    t_worst = worst_case_length(graph, 2)
    t_avg = average_case_length(graph, 2)
    assert spies["OfflinePlan"] == 0
    plan = build_plan(Application(graph, deadline=t_worst), 2)
    assert (plan.t_worst, plan.t_avg) == (t_worst, t_avg)
    assert spies["OfflinePlan"] == 1


def _fields(plan):
    return {
        "t_worst": plan.t_worst,
        "t_avg": plan.t_avg,
        "branch_stats": plan.branch_stats,
        "sections": {
            sid: (sp.worst_after, sp.avg_after, sp.shift, sp.lst,
                  sp.finish_bound, sp.length_wc, sp.length_ac,
                  sp.dispatch_order, sp.preds_within)
            for sid, sp in plan.sections.items()},
    }


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 100_000), m=st.sampled_from([1, 2, 3]),
       loads=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=5))
def test_cached_plan_equals_uncached_at_every_deadline(seed, m, loads):
    graph = random_graph(random.Random(seed), GraphGenConfig())
    # both reserves share one graph, so a stage served under the wrong
    # key shows up as a field mismatch
    for reserve in (0.0, 0.05):
        t_worst = worst_case_length(graph, m, reserve)
        for load in loads:
            app = Application(graph, deadline=t_worst / load)
            cached = build_plan(app, m, reserve=reserve)
            cold = build_plan(app, m, reserve=reserve, use_cache=False)
            assert _fields(cached) == _fields(cold)
