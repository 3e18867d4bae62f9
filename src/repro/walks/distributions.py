"""Distribution-level helpers for random-walk analysis."""

from __future__ import annotations

import math
from typing import Mapping

from ..graphs.graph import Graph, Vertex
from .lazy_walk import MassVector


def stationary_distribution(graph: Graph) -> MassVector:
    """π(v) = deg(v) / Vol(V), the lazy walk's stationary distribution."""
    total = graph.total_volume()
    if total == 0:
        raise ValueError("graph has zero volume")
    return {v: graph.degree(v) / total for v in graph.vertices() if graph.degree(v) > 0}


def total_variation_distance(p: Mapping[Vertex, float], q: Mapping[Vertex, float]) -> float:
    """TV(p, q) = (1/2) Σ |p(v) - q(v)|."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(v, 0.0) - q.get(v, 0.0)) for v in keys)


def entropy(p: Mapping[Vertex, float]) -> float:
    """Shannon entropy of a (sub-)probability vector, in nats."""
    return -sum(mass * math.log(mass) for mass in p.values() if mass > 0.0)
