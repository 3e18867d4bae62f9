"""Shared utilities: round accounting and RNG handling."""

from .rng import (
    SeedLike,
    ensure_rng,
    sample_by_degree,
    sample_index_by_weight,
    spawn,
)
from .rounds import RoundReport, parallel_rounds

__all__ = [
    "RoundReport",
    "SeedLike",
    "ensure_rng",
    "parallel_rounds",
    "sample_by_degree",
    "sample_index_by_weight",
    "spawn",
]
