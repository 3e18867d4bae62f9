"""Node programs: the per-vertex code executed by the CONGEST simulator.

A node program corresponds to the local algorithm run by one device.  The
simulator calls :meth:`NodeProgram.initialize` once before round 1, then
:meth:`NodeProgram.receive` once per round with the messages delivered that
round.  Both return a dictionary mapping neighbor ids to payloads (the
messages to send at the *start of the next round*).  A node may perform
unlimited local computation and owns its private random generator, matching
the model's "unlimited local computation and local randomness" assumption.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Optional

import numpy as np

Outbox = dict[Hashable, Any]


class NodeProgram:
    """Base class for per-vertex CONGEST programs.

    Parameters
    ----------
    node_id:
        This vertex's identifier (distinct, playing the role of the
        Θ(log n)-bit ID the model provides).
    neighbors:
        Identifiers of adjacent vertices; the only destinations this node can
        address in the plain CONGEST model.
    rng:
        Private random generator (local randomness only).
    """

    def __init__(
        self,
        node_id: Hashable,
        neighbors: tuple[Hashable, ...],
        rng: np.random.Generator,
    ) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self.rng = rng
        self._terminated = False
        self._output: Any = None

    # ------------------------------------------------------------------
    # lifecycle hooks (override these)
    # ------------------------------------------------------------------
    def initialize(self) -> Outbox:
        """Messages to send in round 1.  Default: send nothing."""
        return {}

    def receive(self, round_number: int, inbox: Mapping[Hashable, Any]) -> Outbox:
        """Handle the messages delivered in ``round_number``; return the outbox.

        ``inbox`` maps each sending neighbor to the payload it sent this round
        (neighbors that sent nothing are absent).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # termination / results
    # ------------------------------------------------------------------
    def terminate(self, output: Any = None) -> None:
        """Mark this node as locally finished with the given output."""
        self._terminated = True
        self._output = output

    @property
    def terminated(self) -> bool:
        """Whether the node has locally terminated."""
        return self._terminated

    @property
    def output(self) -> Any:
        """The node's declared output (None until :meth:`terminate`)."""
        return self._output

    # ------------------------------------------------------------------
    # conveniences for subclasses
    # ------------------------------------------------------------------
    def broadcast(self, payload: Any) -> Outbox:
        """An outbox that sends the same payload to every neighbor."""
        return {nbr: payload for nbr in self.neighbors}

    @property
    def degree(self) -> int:
        """Number of incident communication edges."""
        return len(self.neighbors)
