"""Searches as generators of batch requests, and the one loop that runs them.

The paper's recursion searches every component of a level at once, and a
ParallelNibble batch costs its level max-of-instances rounds (Lemma 10).
This module lets the driver do the same: a sparse-cut search is a
generator that *yields* each ParallelNibble batch as a
:class:`BatchRequest` and receives that batch's ``(instance, scale, cut)``
triples, and a recursion subtree is a generator of *rounds* — lists of
the requests of every search live inside it.  :func:`run_together` runs
sibling generators as one, concatenating their rounds; :func:`run_rounds`
is the loop at the top that hands each round to
:meth:`~repro.parallel.executor.Executor.run_batches`, which may run the
round's small batches as the rows of one fused lockstep call.

Nothing here can move an output: every batch's draws are addressed by
``(root, batch_index, instance)`` (:mod:`repro.utils.rng`), every search's
state is its own, and which batches share a round only decides which
run side by side.  An expired deadline inside a round interrupts every
search of that round: :func:`run_rounds` throws
:class:`~repro.resilience.deadline.DeadlineExpired` into the round's
generators, and each search turns it into an interrupted result.
"""

from __future__ import annotations

from typing import Generator, NamedTuple

from ..resilience.deadline import DeadlineExpired


class BatchRequest(NamedTuple):
    """One ParallelNibble batch a search asks to have run.

    The batch's ``num_instances`` instances run on ``view`` with
    ``params``; instance ``i`` draws from the stream addressed by
    ``(root, batch_index, i)``, so where and beside what the batch runs
    never reaches its triples.
    """

    view: object
    params: object
    root: int
    batch_index: int
    num_instances: int


#: A generator of rounds: it yields lists of :class:`BatchRequest`\ s,
#: receives one triple list per request, and returns its result.
Rounds = Generator[list, list, object]


def run_rounds(rounds: Rounds, executor) -> object:
    """Run ``rounds`` to its return value, each round through ``executor``.

    ``executor.run_batches`` answers a round with one triple list per
    request.  A round cut short by an expired deadline is thrown back
    into the generator as :class:`DeadlineExpired`.
    """
    try:
        requests = next(rounds)
        while True:
            try:
                results = executor.run_batches(requests)
            except DeadlineExpired as expired:
                requests = rounds.throw(expired)
            else:
                requests = rounds.send(results)
    except StopIteration as stop:
        return stop.value


def one_per_round(search: Generator) -> Rounds:
    """A search that yields one :class:`BatchRequest` at a time, as rounds of one."""
    try:
        request = next(search)
        while True:
            try:
                (triples,) = yield [request]
            except DeadlineExpired as expired:
                request = search.throw(expired)
            else:
                request = search.send(triples)
    except StopIteration as stop:
        return stop.value


def run_together(members: list) -> Rounds:
    """Advance sibling round generators as one; return their values in order.

    Every member runs until it yields its first round; the members' rounds,
    concatenated in member order, make one round, and each member gets its
    own slice of the answer.  A member that returns leaves; the rest keep
    going.  A :class:`DeadlineExpired` thrown in reaches every member with
    requests in the interrupted round.
    """
    values = [None] * len(members)
    pending: dict[int, list] = {}

    def advance(i, move, *argument):
        try:
            pending[i] = move(*argument)
        except StopIteration as stop:
            pending.pop(i, None)
            values[i] = stop.value

    for i, member in enumerate(members):
        advance(i, member.send, None)
    while pending:
        live = sorted(pending)
        try:
            results = yield [request for i in live for request in pending[i]]
        except DeadlineExpired as expired:
            for i in live:
                advance(i, members[i].throw, expired)
        else:
            at = 0
            for i in live:
                size = len(pending[i])
                advance(i, members[i].send, results[at : at + size])
                at += size
    return values
