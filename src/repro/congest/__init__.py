"""CONGEST simulator and distributed primitives."""

from .message import BandwidthViolation, Message, payload_words
from .network import CongestNetwork, SimulationResult
from .nibble_program import (
    DistributedNibbleResult,
    distributed_nibble,
    distributed_random_nibble,
)
from .node import NodeProgram
from .primitives import (
    BfsTree,
    BfsTreeProgram,
    ConvergecastSumProgram,
    DiffusionProgram,
    FloodMinProgram,
    LeaderDisagreement,
    build_bfs_tree,
    convergecast_sum,
    degree_proportional_sampling,
    distributed_truncated_walk,
    elect_leader,
    id_total_order_key,
)

__all__ = [
    "BandwidthViolation",
    "BfsTree",
    "BfsTreeProgram",
    "CongestNetwork",
    "ConvergecastSumProgram",
    "DiffusionProgram",
    "DistributedNibbleResult",
    "FloodMinProgram",
    "LeaderDisagreement",
    "Message",
    "NodeProgram",
    "SimulationResult",
    "build_bfs_tree",
    "convergecast_sum",
    "degree_proportional_sampling",
    "distributed_nibble",
    "distributed_random_nibble",
    "distributed_truncated_walk",
    "elect_leader",
    "id_total_order_key",
    "payload_words",
]
