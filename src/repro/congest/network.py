"""The synchronous CONGEST network simulator.

The simulator owns the communication graph, instantiates one
:class:`~repro.congest.node.NodeProgram` per vertex, and then executes
synchronous rounds: in each round every message produced at the end of the
previous round is delivered, every (non-terminated) node runs its local
computation, and the new outboxes are collected.  Bandwidth is accounted per
edge per direction per round; exceeding it either raises (strict mode) or is
recorded as a violation (reporting mode).

The cost that matters — and what every experiment reports — is
``SimulationResult.rounds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

import numpy as np

from ..graphs.graph import Graph
from ..utils.rng import SeedLike, ensure_rng
from .message import BandwidthViolation, Message, payload_words
from .node import NodeProgram

ProgramFactory = Callable[[Hashable, tuple, np.random.Generator], NodeProgram]


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    rounds: int
    messages_sent: int
    words_sent: int
    outputs: dict[Hashable, Any]
    terminated: bool
    violations: list[BandwidthViolation] = field(default_factory=list)
    max_words_per_edge_round: int = 0


class CongestNetwork:
    """Synchronous message-passing simulator over a :class:`Graph`.

    Parameters
    ----------
    graph:
        The communication topology.  Self loops are ignored for communication.
    bandwidth_words:
        Per-edge, per-direction, per-round budget in O(log n)-bit words.
    strict_bandwidth:
        If True, a message over budget raises :class:`BandwidthViolation`;
        otherwise the violation is recorded in the result.
    """

    def __init__(
        self,
        graph: Graph,
        bandwidth_words: int = 4,
        strict_bandwidth: bool = False,
    ) -> None:
        if bandwidth_words < 1:
            raise ValueError("bandwidth_words must be at least 1")
        self.graph = graph
        self.bandwidth_words = bandwidth_words
        self.strict_bandwidth = strict_bandwidth

    # ------------------------------------------------------------------
    def run(
        self,
        program_factory: ProgramFactory,
        max_rounds: int = 10_000,
        seed: SeedLike = None,
        stop_when_all_terminated: bool = True,
        min_rounds: int = 0,
    ) -> SimulationResult:
        """Instantiate one program per vertex and run until quiescence.

        The run stops when (a) every node has terminated and no messages are
        in flight, (b) no node sent a message and none terminated this round
        (deadlock/quiescence), or (c) ``max_rounds`` is reached.

        ``min_rounds`` disables the quiescence stop (b) for the first that
        many rounds.  Fixed-round-budget algorithms (flood-min, diffusion)
        legitimately go silent mid-run — every message is already delivered
        but nodes still count rounds toward their termination condition —
        and would otherwise be cut off before any node terminates.
        """
        rng = ensure_rng(seed)
        vertices = sorted(self.graph.vertices(), key=repr)
        streams = rng.bit_generator.seed_seq.spawn(len(vertices))
        programs: dict[Hashable, NodeProgram] = {}
        for v, stream in zip(vertices, streams):
            neighbors = tuple(sorted(self.graph.neighbors(v), key=repr))
            programs[v] = program_factory(v, neighbors, np.random.default_rng(stream))

        violations: list[BandwidthViolation] = []
        messages_sent = 0
        words_sent = 0
        max_words = 0

        # round 0: initialization
        pending: dict[Hashable, dict[Hashable, Any]] = {v: {} for v in vertices}
        for v, prog in programs.items():
            outbox = prog.initialize() or {}
            for target, payload in outbox.items():
                self._check_target(v, target)
            msg_count, word_count, max_w = self._account(v, outbox, 0, violations)
            messages_sent += msg_count
            words_sent += word_count
            max_words = max(max_words, max_w)
            for target, payload in outbox.items():
                pending[target][v] = payload

        rounds_executed = 0
        for round_number in range(1, max_rounds + 1):
            inboxes = pending
            pending = {v: {} for v in vertices}
            any_message = False
            any_progress = False
            for v, prog in programs.items():
                inbox = inboxes[v]
                if prog.terminated and not inbox:
                    continue
                was_terminated = prog.terminated
                outbox = prog.receive(round_number, inbox) or {}
                if outbox:
                    any_message = True
                if inbox or outbox or (prog.terminated and not was_terminated):
                    any_progress = True
                for target in outbox:
                    self._check_target(v, target)
                msg_count, word_count, max_w = self._account(
                    v, outbox, round_number, violations
                )
                messages_sent += msg_count
                words_sent += word_count
                max_words = max(max_words, max_w)
                for target, payload in outbox.items():
                    pending[target][v] = payload
            rounds_executed = round_number
            all_done = all(p.terminated for p in programs.values())
            in_flight = any(pending[v] for v in vertices)
            if stop_when_all_terminated and all_done and not in_flight:
                break
            if (
                round_number >= min_rounds
                and not any_message
                and not any_progress
                and not in_flight
            ):
                break

        return SimulationResult(
            rounds=rounds_executed,
            messages_sent=messages_sent,
            words_sent=words_sent,
            outputs={v: p.output for v, p in programs.items()},
            terminated=all(p.terminated for p in programs.values()),
            violations=violations,
            max_words_per_edge_round=max_words,
        )

    # ------------------------------------------------------------------
    def _check_target(self, sender: Hashable, target: Hashable) -> None:
        """Only adjacent vertices may be addressed in plain CONGEST."""
        if target not in self.graph.neighbors(sender):
            raise ValueError(
                f"node {sender!r} attempted to message non-neighbor {target!r}"
            )

    def _account(
        self,
        sender: Hashable,
        outbox: dict[Hashable, Any],
        round_number: int,
        violations: list[BandwidthViolation],
    ) -> tuple[int, int, int]:
        """Count messages/words and flag any over-budget payloads."""
        msg_count = 0
        word_count = 0
        max_w = 0
        for target, payload in outbox.items():
            words = payload_words(payload)
            msg_count += 1
            word_count += words
            max_w = max(max_w, words)
            if words > self.bandwidth_words:
                violation = BandwidthViolation(
                    Message(sender, target, payload, round_number), self.bandwidth_words
                )
                if self.strict_bandwidth:
                    raise violation
                violations.append(violation)
        return msg_count, word_count, max_w
