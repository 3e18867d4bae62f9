"""Lazy and truncated random-walk machinery (the engine behind Nibble)."""

from .lazy_walk import (
    MassVector,
    lazy_walk_step,
    point_mass,
    support,
    truncate,
    truncated_walk_sequence,
    truncated_walk_step,
)

__all__ = [
    "MassVector",
    "lazy_walk_step",
    "point_mass",
    "support",
    "truncate",
    "truncated_walk_sequence",
    "truncated_walk_step",
]
