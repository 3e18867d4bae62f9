"""Triangle enumeration workloads (the paper's Theorem 2 application).

Three layers, mirroring the paper's storyline:

* :mod:`~repro.triangles.oriented` — the exact degeneracy-oriented
  enumerator (vectorized over a CSR snapshot), the repository's scalable
  triangle ground truth;
* :mod:`~repro.triangles.workload` — Theorem 2 proper:
  decompose → per-cluster wedge closing → recurse on the removed edges,
  self-verifying against the oriented enumerator;
* :mod:`~repro.triangles.baseline` — the CPZ-style degeneracy-ordered
  baseline with reference round accounting, the comparison point the
  paper improves on.
"""

from .baseline import BaselineResult, cpz_baseline_enumeration
from .oriented import (
    forward_wedge_count,
    oriented_triangle_count,
    oriented_triangles,
)
from .workload import (
    BASE_CASE_EDGE_LIMIT,
    TriangleLevel,
    TriangleWorkloadResult,
    decomposition_triangle_enumeration,
)

__all__ = [
    "BASE_CASE_EDGE_LIMIT",
    "BaselineResult",
    "TriangleLevel",
    "TriangleWorkloadResult",
    "cpz_baseline_enumeration",
    "decomposition_triangle_enumeration",
    "forward_wedge_count",
    "oriented_triangle_count",
    "oriented_triangles",
]
