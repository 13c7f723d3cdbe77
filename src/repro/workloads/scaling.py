"""Load parameterization of applications.

The paper defines *load* as "the length of the canonical schedule for
the longest path over the deadline", so sweeping load means solving for
the deadline: ``D = T_worst / load``.  ``T_worst`` depends on the number
of processors (it is a list-schedule length), so an application instance
is tied to the processor count it was scaled for.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..graph.andor import AndOrGraph, Application
# ``build_plan`` stays bound here although this module builds no plan:
# perfbench's layer tracer wraps it at this lookup site.
from ..offline.plan import build_plan, canonical_lengths  # noqa: F401


def worst_case_length(graph: AndOrGraph, n_processors: int,
                      reserve: float = 0.0) -> float:
    """Canonical worst-case finish time of the longest path."""
    return canonical_lengths(graph, n_processors, reserve)[0]


def average_case_length(graph: AndOrGraph, n_processors: int) -> float:
    """Probability-weighted average-case finish time (the profile's a)."""
    return canonical_lengths(graph, n_processors)[1]


def application_with_load(graph: AndOrGraph, load: float,
                          n_processors: int,
                          name: str = "") -> Application:
    """Attach the deadline that yields the requested load.

    ``load`` must be in (0, 1]: load 1 leaves zero static slack, smaller
    loads stretch the deadline proportionally.
    """
    if not (0 < load <= 1.0):
        raise ConfigError(f"load must be in (0, 1], got {load}")
    # validation happens in the canonical stage (or happened for an
    # equal graph whose stage is cached)
    t_worst = worst_case_length(graph, n_processors)
    deadline = t_worst / load
    return Application(graph=graph, deadline=deadline,
                       name=name or graph.name,
                       meta={"load": load, "n_processors": n_processors,
                             "t_worst": t_worst})
