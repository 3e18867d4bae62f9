"""Lazy and truncated random-walk machinery (the engine behind Nibble)."""

from .distributions import (
    entropy,
    stationary_distribution,
    total_variation_distance,
)
from .lazy_walk import (
    MassVector,
    degree_distribution,
    lazy_walk_step,
    point_mass,
    support,
    truncate,
    truncated_walk_sequence,
    truncated_walk_step,
)

__all__ = [
    "MassVector",
    "degree_distribution",
    "entropy",
    "lazy_walk_step",
    "point_mass",
    "stationary_distribution",
    "support",
    "total_variation_distance",
    "truncate",
    "truncated_walk_sequence",
    "truncated_walk_step",
]
