"""The graph-instance fingerprint memo, and validation after mutation.

The fingerprint is memoized on the graph keyed on ``(name, version)``;
these tests pin that every way a graph's content can change invalidates
it, that copies and unpickled graphs never inherit a stale value, and
that validating, mutating and validating again sees the new graph.
"""

import gc
import hashlib
import json
import pickle
import weakref

import pytest

from repro.errors import GraphError, ValidationError
from repro.graph import AndOrGraph, validate_graph
from repro.graph.serialize import graph_to_dict
from repro.offline import graph_fingerprint
from repro.workloads import figure3_graph


def _fresh_digest(graph):
    payload = json.dumps(graph_to_dict(graph), sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def _chain():
    g = AndOrGraph("chain")
    g.add_computation("A", 4.0, 2.0)
    g.add_computation("B", 3.0, 1.0)
    g.add_computation("C", 5.0, 2.5)
    g.add_edge("A", "B")
    g.add_edge("B", "C")
    return g


def _branching():
    """A -> O -> {B, C}: one branching OR at even odds."""
    g = AndOrGraph("branching")
    g.add_computation("A", 4.0, 2.0)
    g.add_or("O")
    g.add_computation("B", 3.0, 1.0)
    g.add_computation("C", 5.0, 2.5)
    g.add_edge("A", "O")
    g.add_edge("O", "B")
    g.add_edge("O", "C")
    g.set_branch_probability("O", "B", 0.5)
    g.set_branch_probability("O", "C", 0.5)
    return g


class TestFingerprintInvalidation:
    def test_add_node_changes_fingerprint(self):
        g = _chain()
        before = graph_fingerprint(g)
        g.add_computation("D", 1.0, 0.5)
        assert graph_fingerprint(g) != before
        assert graph_fingerprint(g) == _fresh_digest(g)

    def test_add_edge_changes_fingerprint(self):
        g = _chain()
        before = graph_fingerprint(g)
        g.add_edge("A", "C")
        assert graph_fingerprint(g) != before
        assert graph_fingerprint(g) == _fresh_digest(g)

    def test_set_branch_probability_changes_fingerprint(self):
        g = _branching()
        before = graph_fingerprint(g)
        g.set_branch_probability("O", "B", 0.25)
        g.set_branch_probability("O", "C", 0.75)
        assert graph_fingerprint(g) != before
        assert graph_fingerprint(g) == _fresh_digest(g)

    def test_rename_changes_fingerprint(self):
        g = _chain()
        before = graph_fingerprint(g)
        g.name = "renamed"
        assert graph_fingerprint(g) != before
        assert graph_fingerprint(g) == _fresh_digest(g)

    def test_every_mutator_bumps_version(self):
        g = AndOrGraph("v")
        versions = [g.version]
        for mutate in (lambda: g.add_computation("A", 2.0, 1.0),
                       lambda: g.add_or("O"),
                       lambda: g.add_and("J"),
                       lambda: g.add_edge("A", "O"),
                       lambda: g.add_edge("O", "J"),
                       lambda: g.set_branch_probability("O", "J", 1.0)):
            mutate()
            versions.append(g.version)
        assert versions == sorted(set(versions))

    def test_rejected_mutation_keeps_the_memo(self):
        g = _chain()
        before = graph_fingerprint(g)
        version = g.version
        with pytest.raises(GraphError):
            g.add_edge("A", "B")  # duplicate edge
        assert g.version == version
        assert graph_fingerprint(g) == before


class TestValidationAfterMutation:
    def test_validated_graph_is_freed_without_gc(self):
        """A validated, fingerprinted graph that is dropped is freed by
        reference counting alone: nothing it memoizes points back at it,
        so discarded graphs cannot pile up until a cyclic collection."""
        g = _chain()
        validate_graph(g)
        graph_fingerprint(g)
        graph_ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert graph_ref() is None
        finally:
            gc.enable()

    def test_cycle_after_successful_validation_raises(self):
        g = _chain()
        validate_graph(g)
        g.add_edge("C", "A")
        with pytest.raises(ValidationError):
            validate_graph(g)

    def test_failed_validation_then_repair_validates(self):
        g = AndOrGraph("empty")
        with pytest.raises(ValidationError):
            validate_graph(g)
        g.add_computation("A", 1.0, 0.5)
        assert validate_graph(g).graph is g

    def test_mutation_is_seen_by_the_next_validation(self):
        g = _chain()
        validate_graph(g)
        g.add_computation("D", 1.0, 0.5)
        g.add_edge("C", "D")
        assert "D" in validate_graph(g).section_of


class TestCopiesStartFresh:
    def test_unpickled_graph_fingerprints_its_content(self):
        g = figure3_graph()
        bare = pickle.dumps(g)
        graph_fingerprint(g)
        # memos do not travel with the graph
        assert pickle.dumps(g) == bare
        clone = pickle.loads(pickle.dumps(g))
        assert graph_fingerprint(clone) == _fresh_digest(clone)
        assert graph_fingerprint(clone) == graph_fingerprint(g)
        assert validate_graph(clone).graph is clone

    def test_pickled_memo_does_not_outlive_a_mutation(self):
        g = _chain()
        graph_fingerprint(g)
        clone = pickle.loads(pickle.dumps(g))
        clone.add_computation("D", 1.0, 0.5)
        assert graph_fingerprint(clone) == _fresh_digest(clone)
        assert graph_fingerprint(clone) != graph_fingerprint(g)

    def test_copy_fingerprints_its_content(self):
        g = figure3_graph()
        graph_fingerprint(g)
        dup = g.copy()
        assert graph_fingerprint(dup) == _fresh_digest(dup)
        assert graph_fingerprint(dup) == graph_fingerprint(g)
        assert validate_graph(dup).graph is dup
        renamed = g.copy(name="other")
        assert graph_fingerprint(renamed) == _fresh_digest(renamed)
        assert graph_fingerprint(renamed) != graph_fingerprint(g)
