"""Prefix-sweep machinery shared by Nibble and ApproximateNibble.

Both algorithms order the support of the truncated walk vector by
ρ̃_t(v) = p̃_t(v)/deg(v) (ties broken by vertex identifier, as the paper
allows) and then examine prefixes π̃_t(1..j).  This module materialises the
ordering once per time step and exposes prefix volume, prefix cut size, and
prefix conductance incrementally, so a full sweep costs O(Vol(support)).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..graphs.graph import Graph, Vertex


@dataclass
class SweepState:
    """Incremental statistics of the prefixes of one ordering."""

    graph: Graph
    order: list[Vertex]
    rho: dict[Vertex, float]
    total_volume: int
    prefix_volume: list[int]
    prefix_cut: list[int]

    @property
    def jmax(self) -> int:
        """Largest prefix index (1-based) with positive truncated mass."""
        return len(self.order)

    def volume(self, j: int) -> int:
        """Vol(π̃(1..j)); ``j`` is 1-based, j = 0 gives 0."""
        return self.prefix_volume[j]

    def cut_size(self, j: int) -> int:
        """|∂(π̃(1..j))| in the graph."""
        return self.prefix_cut[j]

    def conductance(self, j: int) -> float:
        """Φ(π̃(1..j)) = cut / min(volume, total - volume)."""
        vol = self.prefix_volume[j]
        denom = min(vol, self.total_volume - vol)
        if denom <= 0:
            return float("inf")
        return self.prefix_cut[j] / denom

    def rho_at(self, j: int) -> float:
        """ρ̃ of the j-th vertex in the ordering (1-based)."""
        return self.rho[self.order[j - 1]]

    def prefix(self, j: int) -> set[Vertex]:
        """The prefix set π̃(1..j)."""
        return set(self.order[:j])


def build_sweep(graph: Graph, mass: Mapping[Vertex, float]) -> SweepState:
    """Order the support of ``mass`` by ρ̃ and precompute prefix statistics.

    The conductance is measured in ``graph`` (which, in the decomposition, is
    already the degree-preserving subgraph G{U}).
    """
    adj = graph._adj
    loops = graph._loops
    rho = {
        v: m / (len(adj[v]) + loops[v])
        for v, m in mass.items()
        if m > 0.0 and (len(adj[v]) + loops[v]) > 0
    }
    order = sorted(rho, key=lambda v: (-rho[v], repr(v)))
    total_volume = graph.total_volume()
    prefix_volume, prefix_cut = graph.prefix_cut_profile(order)
    return SweepState(
        graph=graph,
        order=order,
        rho=rho,
        total_volume=total_volume,
        prefix_volume=prefix_volume,
        prefix_cut=prefix_cut,
    )


def candidate_indices(state: SweepState, phi: float) -> list[int]:
    """The geometric candidate sequence (j_x) of ApproximateNibble.

    j_1 = 1 and j_i = max(j_{i-1}+1, largest j with
    Vol(π̃(1..j)) ≤ (1+φ) · Vol(π̃(1..j_{i-1}))), stopping once j_max is
    reached.  There are O(φ⁻¹ log Vol) candidates.
    """
    return candidate_indices_from_profile(state.prefix_volume, phi)


def candidate_indices_from_profile(
    prefix_volume: Sequence[int], phi: float
) -> list[int]:
    """Candidate prefixes from a prefix-volume profile alone.

    ``prefix_volume[j]`` is Vol(π̃(1..j)) with ``prefix_volume[0] = 0``, as
    produced by both :func:`build_sweep` and the CSR backend's
    :meth:`repro.graphs.csr.WalkWorkspace.build_sweep`; both scans build
    their candidates here.

    Each "largest j with Vol(π̃(1..j)) ≤ (1+φ)·Vol(π̃(1..j_prev))" is found
    by :func:`bisect.bisect_right` over a plain Python list — the profile
    is non-decreasing, the elements are exact ints, and int-vs-float
    comparison in Python is exact, so the result equals the linear scan
    this replaced while doing O(log jmax) C-level comparisons per
    candidate instead of O(jmax) interpreted iterations per time step
    (the single biggest pure-Python cost of the CSR ApproximateNibble on
    deep-recursion components before PR 8).
    """
    jmax = len(prefix_volume) - 1
    if jmax <= 0:
        return []
    volumes = (
        prefix_volume.tolist()
        if hasattr(prefix_volume, "tolist")
        else list(prefix_volume)
    )
    candidates = [1]
    while candidates[-1] < jmax:
        prev = candidates[-1]
        threshold = (1.0 + phi) * volumes[prev]
        j = bisect_right(volumes, threshold, lo=prev, hi=jmax + 1) - 1
        nxt = max(prev + 1, j)
        candidates.append(min(nxt, jmax))
    return candidates
