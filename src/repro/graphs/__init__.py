"""Graph substrate: the self-loop aware graph, its vectorized CSR twin, generators, metrics, spectral tools."""

from .csr import CSRGraph
from .graph import Graph
from .peel import PeeledCSR
from .metrics import (
    EXACT_ENUMERATION_LIMIT,
    CutResult,
    balance,
    brute_force_triangles,
    conductance,
    cut_size,
    degeneracy,
    degeneracy_order,
    estimate_conductance,
    estimate_mixing_time,
    graph_conductance_exact,
    mixing_time_bounds,
    most_balanced_sparse_cut_exact,
    triangle_count,
    volume,
)
from .spectral import (
    SpectralCertificate,
    SweepCut,
    certify_conductance,
    cheeger_bounds,
    conductance_lower_bound,
    effective_conductance,
    is_expander,
    spectral_gap,
    sweep_cut,
    sweep_cut_conductance,
)
from . import csr, generators, peel

__all__ = [
    "CSRGraph",
    "EXACT_ENUMERATION_LIMIT",
    "Graph",
    "PeeledCSR",
    "csr",
    "peel",
    "CutResult",
    "SpectralCertificate",
    "SweepCut",
    "balance",
    "brute_force_triangles",
    "certify_conductance",
    "cheeger_bounds",
    "conductance",
    "conductance_lower_bound",
    "cut_size",
    "degeneracy",
    "degeneracy_order",
    "effective_conductance",
    "estimate_conductance",
    "estimate_mixing_time",
    "generators",
    "graph_conductance_exact",
    "is_expander",
    "mixing_time_bounds",
    "most_balanced_sparse_cut_exact",
    "spectral_gap",
    "sweep_cut",
    "sweep_cut_conductance",
    "triangle_count",
    "volume",
]
