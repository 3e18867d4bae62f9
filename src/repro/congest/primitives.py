"""Standard distributed primitives implemented as CONGEST node programs.

These are the communication building blocks the paper's algorithms lean on:

* BFS tree construction (used for broadcasts, convergecasts, and the subtree
  volume counters ``s(v)`` of Lemma 10);
* flooding / leader election by minimum identifier;
* convergecast aggregation up a BFS tree;
* degree-proportional token dropping (the "generation of ApproximateNibble
  instances" of Lemma 10);
* distributed truncated lazy-random-walk diffusion (the inner loop of the
  distributed Nibble implementation, Lemma 9).

Each primitive has a program class plus a convenience driver that builds a
network, runs it, and returns the decoded result together with the exact
number of rounds the simulator used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Optional

import numpy as np

from ..graphs.graph import Graph
from ..utils.rng import SeedLike, ensure_rng
from .network import CongestNetwork, SimulationResult
from .node import NodeProgram, Outbox


# ----------------------------------------------------------------------
# BFS tree
# ----------------------------------------------------------------------
class BfsTreeProgram(NodeProgram):
    """Builds a BFS tree rooted at ``root`` by distance flooding.

    Each node's output is ``(parent, depth)``; the root reports
    ``(None, 0)``.
    """

    def __init__(self, node_id, neighbors, rng, root: Hashable) -> None:
        super().__init__(node_id, neighbors, rng)
        self.root = root
        self.parent: Optional[Hashable] = None
        self.depth: Optional[int] = None

    def initialize(self) -> Outbox:
        if self.node_id == self.root:
            self.depth = 0
            self.terminate((None, 0))
            return self.broadcast(0)
        return {}

    def receive(self, round_number: int, inbox: Mapping[Hashable, Any]) -> Outbox:
        if self.depth is not None:
            return {}
        best = None
        for sender, sender_depth in inbox.items():
            if best is None or sender_depth < best[1]:
                best = (sender, sender_depth)
        if best is None:
            return {}
        self.parent = best[0]
        self.depth = best[1] + 1
        self.terminate((self.parent, self.depth))
        return self.broadcast(self.depth)


@dataclass
class BfsTree:
    """A rooted BFS tree with its construction cost."""

    root: Hashable
    parent: dict[Hashable, Optional[Hashable]]
    depth: dict[Hashable, int]
    rounds: int

    @property
    def height(self) -> int:
        """Tree height (max depth of a reached vertex)."""
        return max(self.depth.values(), default=0)

    def children(self) -> dict[Hashable, list[Hashable]]:
        """Map each vertex to its tree children."""
        kids: dict[Hashable, list[Hashable]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                kids[p].append(v)
        return kids

    def reached(self) -> set[Hashable]:
        """Vertices reached by the tree (the root's connected component)."""
        return set(self.parent)


def build_bfs_tree(
    graph: Graph, root: Hashable, seed: SeedLike = None, max_rounds: int = 100_000
) -> BfsTree:
    """Run the BFS-tree program and decode the result."""
    network = CongestNetwork(graph, bandwidth_words=2)
    result = network.run(
        lambda node_id, nbrs, rng: BfsTreeProgram(node_id, nbrs, rng, root=root),
        max_rounds=max_rounds,
        seed=seed,
    )
    parent: dict[Hashable, Optional[Hashable]] = {}
    depth: dict[Hashable, int] = {}
    for v, out in result.outputs.items():
        if out is None:
            continue  # unreachable vertex never terminated
        parent[v] = out[0]
        depth[v] = out[1]
    return BfsTree(root=root, parent=parent, depth=depth, rounds=result.rounds)


# ----------------------------------------------------------------------
# flooding / leader election
# ----------------------------------------------------------------------
def id_total_order_key(identifier: Hashable) -> tuple:
    """A total order over mixed-type node identifiers.

    Numeric ids (ints, floats, bools) compare numerically; everything else
    compares by ``(type name, repr)``, with all numerics ordered before all
    non-numerics.  Unlike bare ``<`` (undefined across types) or per-pair
    ``repr`` fallbacks (not transitive when mixed with native comparisons),
    this key yields one transitive order every node agrees on.
    """
    if isinstance(identifier, (bool, int, float)):
        # Compare the number itself: int/float cross-comparison is exact in
        # Python, whereas coercing through float() overflows on big ints.
        return (0, "", identifier, repr(identifier))
    return (1, type(identifier).__name__, 0, repr(identifier))


class LeaderDisagreement(RuntimeError):
    """Raised when leader election ends with nodes disagreeing on the leader."""

    def __init__(self, leaders: set) -> None:
        super().__init__(
            "leader election did not converge: nodes reported "
            f"{len(leaders)} distinct leaders {sorted(leaders, key=id_total_order_key)!r} "
            "(disconnected graph or insufficient rounds budget)"
        )
        self.leaders = leaders


class FloodMinProgram(NodeProgram):
    """Every node learns the minimum identifier in its connected component.

    Runs for a fixed number of rounds (an upper bound on the diameter) and
    then terminates with the smallest id seen; the classic leader election.
    "Smallest" is measured by :func:`id_total_order_key`, a single transitive
    order shared by all nodes even when identifiers mix types.
    """

    def __init__(self, node_id, neighbors, rng, rounds_budget: int) -> None:
        super().__init__(node_id, neighbors, rng)
        self.rounds_budget = rounds_budget
        self.best = node_id

    def initialize(self) -> Outbox:
        return self.broadcast(self.best)

    def receive(self, round_number: int, inbox: Mapping[Hashable, Any]) -> Outbox:
        improved = False
        best_key = id_total_order_key(self.best)
        for value in inbox.values():
            key = id_total_order_key(value)
            if key < best_key:
                self.best = value
                best_key = key
                improved = True
        if round_number >= self.rounds_budget:
            self.terminate(self.best)
            return {}
        return self.broadcast(self.best) if improved or round_number == 1 else {}


def elect_leader(graph: Graph, seed: SeedLike = None) -> tuple[Hashable, int]:
    """Return (leader id, rounds used) for the whole graph.

    Raises
    ------
    LeaderDisagreement
        If nodes disagree on who the leader is (e.g. the graph is
        disconnected).  Disagreement used to be papered over by picking an
        arbitrary reported leader, which silently returned garbage on any
        disconnected input.
    """
    budget = max(1, graph.num_vertices)
    network = CongestNetwork(graph, bandwidth_words=2)
    result = network.run(
        lambda node_id, nbrs, rng: FloodMinProgram(node_id, nbrs, rng, rounds_budget=budget),
        max_rounds=budget + 2,
        seed=seed,
        # The flood goes quiet once the minimum has spread, but nodes only
        # terminate at round ``budget``; without the floor the simulator's
        # quiescence stop would end the run with every output still None.
        min_rounds=budget,
    )
    leaders = {out for out in result.outputs.values() if out is not None}
    if len(leaders) != 1:
        raise LeaderDisagreement(leaders)
    return next(iter(leaders)), result.rounds


# ----------------------------------------------------------------------
# convergecast (aggregate a value up a BFS tree)
# ----------------------------------------------------------------------
class ConvergecastSumProgram(NodeProgram):
    """Sums per-node values up a pre-built BFS tree.

    Every node outputs the sum over its subtree; the root therefore outputs
    the global sum.  This is exactly the ``s(v)`` computation of Lemma 10.
    """

    def __init__(
        self,
        node_id,
        neighbors,
        rng,
        parent: Optional[Hashable],
        children: tuple[Hashable, ...],
        value: float,
        height: int,
    ) -> None:
        super().__init__(node_id, neighbors, rng)
        self.parent = parent
        self.children = tuple(children)
        self.value = float(value)
        self.height = height
        self.pending = set(self.children)
        self.subtotal = float(value)

    def initialize(self) -> Outbox:
        if not self.children:
            self.terminate(self.subtotal)
            if self.parent is not None:
                return {self.parent: self.subtotal}
        return {}

    def receive(self, round_number: int, inbox: Mapping[Hashable, Any]) -> Outbox:
        if self.terminated:
            return {}
        for sender, amount in inbox.items():
            if sender in self.pending:
                self.pending.discard(sender)
                self.subtotal += float(amount)
        if not self.pending:
            self.terminate(self.subtotal)
            if self.parent is not None:
                return {self.parent: self.subtotal}
        return {}


def convergecast_sum(
    graph: Graph,
    tree: BfsTree,
    values: Mapping[Hashable, float],
    seed: SeedLike = None,
) -> tuple[dict[Hashable, float], int]:
    """Aggregate ``values`` up ``tree``; returns (subtree sums, rounds used)."""
    children = tree.children()
    network = CongestNetwork(graph, bandwidth_words=2)

    def factory(node_id, nbrs, rng):
        return ConvergecastSumProgram(
            node_id,
            nbrs,
            rng,
            parent=tree.parent.get(node_id),
            children=tuple(children.get(node_id, ())),
            value=float(values.get(node_id, 0.0)),
            height=tree.height,
        )

    result = network.run(factory, max_rounds=2 * tree.height + graph.num_vertices + 5, seed=seed)
    sums = {v: out for v, out in result.outputs.items() if out is not None}
    return sums, result.rounds


# ----------------------------------------------------------------------
# distributed truncated lazy random walk diffusion (Lemma 9's inner loop)
# ----------------------------------------------------------------------
class DiffusionProgram(NodeProgram):
    """Distributed computation of the truncated lazy-walk vectors p̃_t.

    Each node v keeps its own probability mass p(v).  In each of ``steps``
    rounds it sends ``p(v) / (2 deg(v))`` to every neighbor, keeps the rest,
    adds what it receives, and then truncates to zero if the total falls below
    ``2 * epsilon * deg(v)``.  Output: the list of p̃_t(v) for t = 0..steps.
    """

    def __init__(
        self,
        node_id,
        neighbors,
        rng,
        initial_mass: float,
        epsilon: float,
        steps: int,
        degree_in_walk: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, neighbors, rng)
        self.mass = float(initial_mass)
        self.epsilon = float(epsilon)
        self.steps = steps
        self.degree_in_walk = degree_in_walk if degree_in_walk is not None else max(1, len(neighbors))
        self.history = [self.mass]

    def _truncate(self) -> None:
        if self.mass < 2.0 * self.epsilon * self.degree_in_walk:
            self.mass = 0.0

    def _outgoing(self) -> Outbox:
        if self.mass <= 0.0 or not self.neighbors:
            return {}
        share = self.mass / (2.0 * self.degree_in_walk)
        # Mass retained: lazy half plus the share of any self loops.
        sent = share * len(self.neighbors)
        self.mass -= sent
        return {nbr: share for nbr in self.neighbors}

    def initialize(self) -> Outbox:
        # p̃_0 = χ_v is not truncated (truncation applies to [M p̃_{t-1}]_ε only).
        self.history[0] = self.mass
        if self.steps == 0:
            self.terminate(tuple(self.history))
            return {}
        return self._outgoing()

    def receive(self, round_number: int, inbox: Mapping[Hashable, Any]) -> Outbox:
        if self.terminated:
            return {}
        self.mass += sum(float(x) for x in inbox.values())
        self._truncate()
        self.history.append(self.mass)
        if round_number >= self.steps:
            self.terminate(tuple(self.history))
            return {}
        return self._outgoing()


def distributed_truncated_walk(
    graph: Graph,
    start: Hashable,
    epsilon: float,
    steps: int,
    seed: SeedLike = None,
) -> tuple[list[dict[Hashable, float]], int]:
    """Run the distributed diffusion and return ([p̃_0, ..., p̃_steps], rounds)."""
    network = CongestNetwork(graph, bandwidth_words=2)

    def factory(node_id, nbrs, rng):
        return DiffusionProgram(
            node_id,
            nbrs,
            rng,
            initial_mass=1.0 if node_id == start else 0.0,
            epsilon=epsilon,
            steps=steps,
            degree_in_walk=graph.degree(node_id),
        )

    # min_rounds: the walk may truncate to nothing (no messages) well before
    # round ``steps``, but p̃_t is defined for every t up to the budget, so
    # nodes must keep counting rounds until they terminate with full history.
    result = network.run(factory, max_rounds=steps + 2, seed=seed, min_rounds=steps)
    vectors: list[dict[Hashable, float]] = [dict() for _ in range(steps + 1)]
    for v, history in result.outputs.items():
        if history is None:
            continue
        for t, mass in enumerate(history):
            if mass > 0:
                vectors[t][v] = mass
    return vectors, result.rounds


# ----------------------------------------------------------------------
# degree-proportional token dropping (Lemma 10, "generation of instances")
# ----------------------------------------------------------------------
def degree_proportional_sampling(
    graph: Graph,
    tree: BfsTree,
    num_tokens: int,
    seed: SeedLike = None,
) -> tuple[dict[Hashable, int], int]:
    """Distribute ``num_tokens`` tokens so each lands on v with prob deg(v)/Vol(V).

    Mirrors the paper's down-the-BFS-tree token walk: the root holds all
    tokens; at each tree vertex a token stops with probability deg(v)/s(v)
    and otherwise descends to a child with probability proportional to the
    child's subtree volume.  Only token *counts* travel along each edge, so
    the message size stays O(log n) regardless of ``num_tokens``.

    Returns (tokens per vertex, rounds charged).  The rounds charged are the
    paper's O(D + log n): one convergecast to compute s(v) plus one downward
    sweep, both of depth ``tree.height``.
    """
    rng = ensure_rng(seed)
    degrees = {v: graph.degree(v) for v in tree.reached()}
    subtree_volume, up_rounds = convergecast_sum(graph, tree, degrees, seed=rng)
    children = tree.children()
    tokens = {v: 0 for v in tree.reached()}
    queue = [(tree.root, num_tokens)]
    while queue:
        vertex, count = queue.pop()
        if count <= 0:
            continue
        s_v = subtree_volume.get(vertex, degrees.get(vertex, 1))
        stop_probability = degrees.get(vertex, 0) / s_v if s_v > 0 else 1.0
        stopped = int(rng.binomial(count, min(1.0, stop_probability)))
        tokens[vertex] += stopped
        remaining = count - stopped
        kid_list = children.get(vertex, [])
        if remaining and kid_list:
            weights = np.array(
                [subtree_volume.get(c, degrees.get(c, 1)) for c in kid_list], dtype=float
            )
            if weights.sum() <= 0:
                weights = np.ones(len(kid_list))
            split = rng.multinomial(remaining, weights / weights.sum())
            for child, share in zip(kid_list, split):
                queue.append((child, int(share)))
        elif remaining:
            tokens[vertex] += remaining
    down_rounds = tree.height + 1
    return tokens, up_rounds + down_rounds
