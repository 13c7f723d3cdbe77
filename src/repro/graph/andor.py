"""The AND/OR graph container and the Application wrapper.

:class:`AndOrGraph` is a mutable DAG of :class:`~repro.graph.nodes.Node`
vertices with adjacency kept in insertion order (deterministic iteration
matters: list scheduling breaks ties by queue insertion).  Branch
probabilities are attached to the out-edges of OR nodes that have more
than one successor.

:class:`Application` pairs a validated graph with its deadline — the unit
the offline phase and the simulator operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple, TypeVar)

from ..errors import GraphError
from .nodes import Node, NodeKind, and_node, computation, or_node

_PROB_TOL = 1e-6

T = TypeVar("T")


class AndOrGraph:
    """A directed acyclic AND/OR task graph.

    Every mutator (:meth:`add_node`, :meth:`add_edge`,
    :meth:`set_branch_probability`) bumps :attr:`version`, so values
    derived from the graph's content can be memoized on the instance
    with :meth:`derived` and go stale exactly when the graph changes.
    """

    def __init__(self, name: str = "app"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._succs: Dict[str, List[str]] = {}
        self._preds: Dict[str, List[str]] = {}
        self._branch_probs: Dict[str, Dict[str, float]] = {}
        self._version = 0
        #: tag -> ((name, version) it was computed at, value)
        self._derived: Dict[str, Tuple[Tuple[str, int], Any]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._succs[node.name] = []
        self._preds[node.name] = []
        self._version += 1
        return node

    def add_computation(self, name: str, wcet: float, acet: float) -> Node:
        return self.add_node(computation(name, wcet, acet))

    def add_and(self, name: str) -> Node:
        return self.add_node(and_node(name))

    def add_or(self, name: str) -> Node:
        return self.add_node(or_node(name))

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._nodes:
            raise GraphError(f"edge source {src!r} not in graph")
        if dst not in self._nodes:
            raise GraphError(f"edge target {dst!r} not in graph")
        if src == dst:
            raise GraphError(f"self-loop on {src!r}")
        if dst in self._succs[src]:
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        self._succs[src].append(dst)
        self._preds[dst].append(src)
        self._version += 1

    def set_branch_probability(self, or_name: str, succ: str,
                               probability: float) -> None:
        """Attach the probability of taking ``succ`` after OR node ``or_name``."""
        node = self.node(or_name)
        if not node.is_or:
            raise GraphError(
                f"branch probabilities only apply to OR nodes, {or_name!r} "
                f"is {node.kind}")
        if succ not in self._succs[or_name]:
            raise GraphError(
                f"{succ!r} is not a successor of OR node {or_name!r}")
        if not (0.0 < probability <= 1.0 + _PROB_TOL):
            raise GraphError(
                f"branch probability must be in (0, 1], got {probability}")
        self._branch_probs.setdefault(or_name, {})[succ] = min(probability, 1.0)
        self._version += 1

    # ------------------------------------------------------------------
    # content-derived memos
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter: bumped by every structural or timing change."""
        return self._version

    def derived(self, tag: str, compute: Callable[["AndOrGraph"], T]) -> T:
        """``compute(self)``, memoized on this instance under ``tag``.

        The memo is keyed on ``(name, version)``: any mutation or a
        rename recomputes it.  A ``compute`` that raises memoizes
        nothing.  Memos are per instance — :meth:`copy` and unpickling
        start empty — and must hold only values derived from the graph
        itself that hold no reference back to it (no plans, programs or
        structures), so a dropped graph is still freed by reference
        counting.
        """
        key = (self.name, self._version)
        hit = self._derived.get(tag)
        if hit is not None and hit[0] == key:
            return hit[1]
        value = compute(self)
        self._derived[tag] = (key, value)
        return value

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_derived"] = {}
        return state

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    def nodes(self, kind: Optional[NodeKind] = None) -> List[Node]:
        if kind is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if n.kind is kind]

    def computation_nodes(self) -> List[Node]:
        return self.nodes(NodeKind.COMPUTATION)

    def or_nodes(self) -> List[Node]:
        return self.nodes(NodeKind.OR)

    def and_nodes(self) -> List[Node]:
        return self.nodes(NodeKind.AND)

    def successors(self, name: str) -> List[str]:
        self.node(name)
        return list(self._succs[name])

    def predecessors(self, name: str) -> List[str]:
        self.node(name)
        return list(self._preds[name])

    def out_degree(self, name: str) -> int:
        return len(self._succs[name])

    def in_degree(self, name: str) -> int:
        return len(self._preds[name])

    def roots(self) -> List[str]:
        return [n for n in self._nodes if not self._preds[n]]

    def sinks(self) -> List[str]:
        return [n for n in self._nodes if not self._succs[n]]

    def edges(self) -> List[Tuple[str, str]]:
        return [(u, v) for u, vs in self._succs.items() for v in vs]

    def branch_probabilities(self, or_name: str) -> Dict[str, float]:
        """Probability per successor of an OR node.

        Single-successor OR nodes (pure merges/continuations) implicitly
        take their only path with probability 1.
        """
        node = self.node(or_name)
        if not node.is_or:
            raise GraphError(f"{or_name!r} is not an OR node")
        succs = self._succs[or_name]
        if len(succs) == 1 and or_name not in self._branch_probs:
            return {succs[0]: 1.0}
        probs = dict(self._branch_probs.get(or_name, {}))
        return probs

    def is_branching_or(self, name: str) -> bool:
        node = self.node(name)
        return node.is_or and len(self._succs[name]) > 1

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Kahn topological sort; raises :class:`GraphError` on cycles.

        Ties are broken by insertion order so results are deterministic.
        """
        indeg = {n: len(ps) for n, ps in self._preds.items()}
        frontier = [n for n in self._nodes if indeg[n] == 0]
        out: List[str] = []
        while frontier:
            n = frontier.pop(0)
            out.append(n)
            for s in self._succs[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    frontier.append(s)
        if len(out) != len(self._nodes):
            cyclic = sorted(n for n, d in indeg.items() if d > 0)
            raise GraphError(f"graph contains a cycle through {cyclic[:5]}")
        return out

    def is_dag(self) -> bool:
        try:
            self.topological_order()
            return True
        except GraphError:
            return False

    def descendants(self, name: str) -> List[str]:
        """All nodes reachable from ``name`` (excluding itself)."""
        seen: Dict[str, None] = {}
        stack = list(self._succs[name])
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen[n] = None
            stack.extend(self._succs[n])
        return list(seen)

    def total_wcet(self) -> float:
        """Sum of worst-case execution times over all computation nodes."""
        return sum(n.wcet for n in self.computation_nodes())

    def total_acet(self) -> float:
        return sum(n.acet for n in self.computation_nodes())

    def copy(self, name: Optional[str] = None) -> "AndOrGraph":
        g = AndOrGraph(name or self.name)
        for node in self:
            g.add_node(node)
        for u, v in self.edges():
            g.add_edge(u, v)
        for o, probs in self._branch_probs.items():
            for s, p in probs.items():
                g.set_branch_probability(o, s, p)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AndOrGraph({self.name!r}, nodes={len(self._nodes)}, "
                f"edges={len(self.edges())}, or={len(self.or_nodes())})")


@dataclass
class Application:
    """A validated AND/OR graph together with its timing constraint.

    ``deadline`` is the paper's ``D``; the offline phase fails if the
    canonical worst-case finish time exceeds it.
    """

    graph: AndOrGraph
    deadline: float
    name: str = ""
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise GraphError(f"deadline must be positive, got {self.deadline}")
        if not self.name:
            self.name = self.graph.name

    def with_deadline(self, deadline: float) -> "Application":
        """A copy of this application with a different deadline."""
        return Application(graph=self.graph, deadline=deadline,
                           name=self.name, meta=dict(self.meta))


def iter_computation_names(graph: AndOrGraph) -> Iterable[str]:
    for node in graph.computation_nodes():
        yield node.name
