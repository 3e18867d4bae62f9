"""Parameter schedules for the Nibble family (paper Appendix A, "Terminology").

The paper fixes, for a target conductance φ and a graph with |E| edges:

    ℓ     = ⌈log₂ |E|⌉
    t₀    = 49 ln(|E| e²) / φ²
    f(φ)  = φ³ / (144 ln²(|E| e⁴))
    γ     = 5 φ / (7 · 7 · 8 · ln(|E| e⁴))
    ε_b   = φ / (7 · 8 · ln(|E| e⁴) · t₀ · 2^b)

These constants exist to make the *proofs* go through; they are hopeless for
actually running the algorithm (t₀ is tens of thousands of walk steps even on
toy graphs).  Following the usual practice for Spielman–Teng-style local
clustering codes we therefore expose two modes:

* ``ParameterMode.PAPER`` — the formulas above, verbatim.  Used in tests that
  check the formulas themselves and in experiments on very small graphs.
* ``ParameterMode.PRACTICAL`` — the same functional forms with small leading
  constants and t₀ ∝ log(m)/φ (enough for the well-mixing components used in
  the benchmarks).  This preserves every structural property the algorithms
  rely on (the role of each parameter, the monotonicity between levels) while
  keeping runs tractable; the trade-off is that the w.h.p. guarantees become
  best-effort, which EXPERIMENTS.md discusses.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph


class ParameterMode(enum.Enum):
    """Which constant regime to use when deriving walk parameters."""

    PAPER = "paper"
    PRACTICAL = "practical"


def graph_stats(graph) -> tuple[int, int]:
    """``(num_edges, total_volume)`` of a ``Graph`` or a peeled/CSR view.

    ``Graph.total_volume`` is a method while ``CSRGraph`` /
    :class:`~repro.graphs.peel.PeeledCSR` expose an integer attribute; this
    shim lets the parameter schedules accept any of them, so a batch on a
    peeled working view derives exactly the integers the dict path derives
    from the materialised ``G{U}``.
    """
    total_volume = graph.total_volume
    if callable(total_volume):
        total_volume = total_volume()
    return int(graph.num_edges), int(total_volume)


@dataclass(frozen=True)
class NibbleParameters:
    """All scalar parameters a single Nibble/ApproximateNibble run needs."""

    phi: float
    num_edges: int
    volume: int
    ell: int
    t0: int
    gamma: float
    f_phi: float
    truncation_scale: float
    mode: ParameterMode

    # ------------------------------------------------------------------
    def epsilon_b(self, b: int) -> float:
        """Truncation threshold ε_b for scale ``b``."""
        if b < 1:
            raise ValueError("b must be at least 1")
        return self.truncation_scale / float(2**b)

    def min_cut_volume(self, b: int) -> float:
        """(5/7)·2^{b-1}, the lower bound of condition (C.3)."""
        return (5.0 / 7.0) * 2.0 ** (b - 1)

    @property
    def max_cut_volume_fraction(self) -> float:
        """Upper bound of (C.3): cut volume at most 5/6 of the total."""
        return 5.0 / 6.0

    @property
    def relaxed_max_cut_volume_fraction(self) -> float:
        """Upper bound of (C.3*): 11/12 of the total."""
        return 11.0 / 12.0

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, graph: Graph, phi: float) -> "NibbleParameters":
        """The verbatim constants of Appendix A."""
        num_edges, volume = graph_stats(graph)
        m = max(num_edges, 2)
        log_e2 = math.log(m * math.e**2)
        log_e4 = math.log(m * math.e**4)
        t0 = int(math.ceil(49.0 * log_e2 / (phi * phi)))
        gamma = 5.0 * phi / (7.0 * 7.0 * 8.0 * log_e4)
        f_phi = phi**3 / (144.0 * log_e4**2)
        truncation_scale = phi / (7.0 * 8.0 * log_e4 * t0)
        return cls(
            phi=phi,
            num_edges=m,
            volume=volume,
            ell=max(1, math.ceil(math.log2(m))),
            t0=t0,
            gamma=gamma,
            f_phi=f_phi,
            truncation_scale=truncation_scale,
            mode=ParameterMode.PAPER,
        )

    @classmethod
    def practical(
        cls,
        graph: Graph,
        phi: float,
        walk_constant: float = 6.0,
        t0_override: int | None = None,
        max_t0: int = 400,
    ) -> "NibbleParameters":
        """Scaled-down constants that keep the algorithm runnable.

        ``t0 ≈ walk_constant · ln(m) / φ`` (capped at ``max_t0``): enough
        steps for the walk to mix inside any component whose internal mixing
        time is O(log n / φ), which covers every planted instance used in the
        benchmarks.  γ and ε_b keep the paper's functional dependence on φ and
        t₀ with constant 1.  ``t0_override`` replaces the formula (cap
        included) and must be an int ≥ 1: a walk of no steps certifies
        nothing, which would read as a "no sparse cut" certificate.
        """
        if t0_override is not None and not (
            isinstance(t0_override, numbers.Integral) and t0_override >= 1
        ):
            raise ValueError(
                f"t0_override must be None or an int >= 1, got {t0_override!r}"
            )
        num_edges, volume = graph_stats(graph)
        m = max(num_edges, 2)
        log_m = math.log(m + math.e)
        if t0_override is not None:
            t0 = int(t0_override)
        else:
            t0 = int(math.ceil(walk_constant * log_m / max(phi, 1e-9)))
            t0 = max(4, min(t0, max_t0))
        gamma = phi / (8.0 * log_m)
        f_phi = phi / (4.0 * log_m)
        truncation_scale = phi / (8.0 * log_m * t0)
        return cls(
            phi=phi,
            num_edges=m,
            volume=volume,
            ell=max(1, math.ceil(math.log2(m))),
            t0=t0,
            gamma=gamma,
            f_phi=f_phi,
            truncation_scale=truncation_scale,
            mode=ParameterMode.PRACTICAL,
        )

    @classmethod
    def for_mode(
        cls, graph: Graph, phi: float, mode: ParameterMode, **kwargs
    ) -> "NibbleParameters":
        """Dispatch to :meth:`paper` or :meth:`practical`."""
        if mode is ParameterMode.PAPER:
            return cls.paper(graph, phi)
        return cls.practical(graph, phi, **kwargs)


# ----------------------------------------------------------------------
# the f / h re-parameterisation between Theorem 3 and Section 2
# ----------------------------------------------------------------------
def f_function(phi: float, num_edges: int, mode: ParameterMode = ParameterMode.PAPER) -> float:
    """f(φ): the conductance a planted cut may have for Nibble to find it."""
    m = max(num_edges, 2)
    if mode is ParameterMode.PAPER:
        return phi**3 / (144.0 * math.log(m * math.e**4) ** 2)
    return phi / (4.0 * math.log(m + math.e))


def f_inverse(theta: float, num_edges: int, mode: ParameterMode = ParameterMode.PAPER) -> float:
    """The φ for which ``f(φ) = theta`` (the Theorem 3 re-parameterisation)."""
    m = max(num_edges, 2)
    if mode is ParameterMode.PAPER:
        return (144.0 * theta * math.log(m * math.e**4) ** 2) ** (1.0 / 3.0)
    return min(1.0, 4.0 * theta * math.log(m + math.e))


def h_function(theta: float, num_vertices: int, mode: ParameterMode = ParameterMode.PAPER,
               constant: float = 1.0) -> float:
    """h(θ) = Θ(θ^{1/3} log^{5/3} n): output conductance of the sparse cut algorithm.

    Section 2 uses ``h`` to chain levels: running the nearly most balanced
    sparse cut with parameter θ yields (when non-empty) a cut of conductance
    at most h(θ).  In practical mode the log power is dropped to keep the
    level schedule in a runnable range; the monotone "each level is coarser
    than the previous" structure is preserved.
    """
    n = max(num_vertices, 2)
    if mode is ParameterMode.PAPER:
        return constant * theta ** (1.0 / 3.0) * math.log(n) ** (5.0 / 3.0)
    return min(1.0, constant * theta ** (1.0 / 3.0) * math.log(n) ** (1.0 / 3.0))


def h_inverse(theta: float, num_vertices: int, mode: ParameterMode = ParameterMode.PAPER,
              constant: float = 1.0) -> float:
    """h^{-1}(θ) = Θ(θ³ / log⁵ n): the next-level conductance parameter φ_i."""
    n = max(num_vertices, 2)
    if mode is ParameterMode.PAPER:
        return (theta / (constant * math.log(n) ** (5.0 / 3.0))) ** 3
    return (theta / (constant * math.log(n) ** (1.0 / 3.0))) ** 3


def sample_scale(rng, ell: int) -> int:
    """Sample the truncation scale b ∈ {1..ℓ} with P[b = i] ∝ 2^{-i}.

    One RandomNibble instance consumes exactly two draws from its stream —
    a degree-proportional start and this scale — so the draw lives next to
    the parameter schedule it indexes into, where both the sequential
    driver (:mod:`repro.decomposition.sparse_cut`) and the parallel
    executors (:mod:`repro.parallel`) can reach it without importing each
    other.
    """
    weights = np.array([2.0 ** (-i) for i in range(1, ell + 1)])
    return int(rng.choice(np.arange(1, ell + 1), p=weights / weights.sum()))
