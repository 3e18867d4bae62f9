"""Round-complexity accounting for CONGEST algorithms.

The CONGEST model's cost measure is the number of synchronous rounds, not
wall-clock time.  Algorithms in this library either

* run on the message-passing simulator (:mod:`repro.congest`), in which case
  the simulator counts rounds directly, or
* run as *reference implementations* on a shared-memory graph while charging
  rounds according to the paper's own complexity analysis (Lemmas 9-11 and 21,
  and the Phase-1/Phase-2 accounting in Section 2).

``RoundReport`` is the common currency: every algorithm returns one (possibly
nested) so benchmarks can report round counts and their breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class RoundReport:
    """A hierarchical tally of CONGEST rounds.

    Attributes
    ----------
    label:
        Human-readable name of the (sub)routine the rounds belong to.
    rounds:
        Rounds charged directly at this node (excluding children).
    messages:
        Number of O(log n)-bit messages sent, when known (0 if untracked).
    children:
        Sub-reports of nested invocations.
    """

    label: str
    rounds: float = 0.0
    messages: int = 0
    children: list["RoundReport"] = field(default_factory=list)

    # ------------------------------------------------------------------
    def charge(self, rounds: float, messages: int = 0) -> None:
        """Add rounds (and optionally messages) at this node."""
        if rounds < 0 or messages < 0:
            raise ValueError("cannot charge negative cost")
        self.rounds += rounds
        self.messages += messages

    def add_child(self, child: "RoundReport") -> "RoundReport":
        """Attach a nested report and return it for chaining."""
        self.children.append(child)
        return child

    def subreport(self, label: str) -> "RoundReport":
        """Create, attach, and return a new child report."""
        return self.add_child(RoundReport(label))

    # ------------------------------------------------------------------
    @property
    def total_rounds(self) -> float:
        """Rounds including all descendants."""
        return self.rounds + sum(c.total_rounds for c in self.children)

    @property
    def total_messages(self) -> int:
        """Messages including all descendants."""
        return self.messages + sum(c.total_messages for c in self.children)

    def walk(self) -> Iterator[tuple[int, "RoundReport"]]:
        """Depth-first iteration yielding ``(depth, report)`` pairs."""
        stack: list[tuple[int, RoundReport]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def find(self, label: str) -> Optional["RoundReport"]:
        """First descendant (or self) with the given label, if any."""
        for _, node in self.walk():
            if node.label == label:
                return node
        return None

    def summary(self, max_depth: int = 3) -> str:
        """Indented text summary of the round breakdown."""
        lines = []
        for depth, node in self.walk():
            if depth > max_depth:
                continue
            lines.append(
                f"{'  ' * depth}{node.label}: "
                f"{node.total_rounds:.0f} rounds"
                + (f", {node.total_messages} msgs" if node.total_messages else "")
            )
        return "\n".join(lines)

    def __add__(self, other: "RoundReport") -> "RoundReport":
        combined = RoundReport("combined")
        combined.children = [self, other]
        return combined


def parallel_rounds(reports: list[RoundReport], label: str = "parallel") -> RoundReport:
    """Combine reports of routines that run *simultaneously*.

    In CONGEST, k routines run in parallel cost max(rounds) rounds (provided
    congestion is bounded, which the callers are responsible for arguing);
    messages add up.
    """
    combined = RoundReport(label)
    if reports:
        combined.rounds = max(r.total_rounds for r in reports)
        combined.messages = sum(r.total_messages for r in reports)
    return combined
