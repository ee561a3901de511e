"""Request intake: the concurrent active pool, meal splitting, and requeue.

Submission and requeue may run concurrently with the matching engine; the
pool guarantees linearizable insert/drain through a single lock. Arrival
sequences are assigned here, at the server side, one per stored request: they
replace wall-clock submit times as the final tie-break, and split meal pieces
are ordered among themselves by their fresh sequences.
Deciding that a match failed (rejection or expiry) is the engine's job; the
pool only returns a failed match's requests.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import replace
from typing import Container, Iterable

from .model import (
    DonationRequest,
    Match,
    Request,
    RequestId,
    RequirementRequest,
    Thresholds,
    VolunteerRequest,
)

# the most meals one donation may split into: a larger amount is refused
# before a piece is built
MAX_MEALS = 10**6


class ActivePool:
    """Queue of active, unmatched requests keyed by arrival order.

    Each request id is present at most once. The pool also keeps a registry
    of every request object it has ever accepted, so rejected matches can be
    requeued by id later.
    """

    def __init__(self) -> None:
        # arrival sequence numbers, 1 upwards; advanced only under the lock
        self._arrivals = itertools.count(1)
        self._queued: dict[RequestId, Request] = {}
        self._registry: dict[RequestId, Request] = {}
        self._lock = threading.Lock()

    def lookup(self, request_id: RequestId) -> Request:
        return self._registry[request_id]

    def registered(self) -> Iterable[Request]:
        """Every request the pool has accepted, in first-submission order."""
        return self._registry.values()

    def queued_ids(self) -> set[RequestId]:
        with self._lock:
            return set(self._queued)

    def submit(self, pieces: list[Request], raw_id: RequestId) -> list[RequestId]:
        """Atomically sequence and enqueue the pieces of one raw submission."""
        with self._lock:
            # a raw id is taken once it is registered whole or split (its
            # first meal piece is registered)
            if raw_id in self._registry or RequestId(raw_id.agent_id, raw_id.request_seq, 1) in self._registry:
                raise ValueError(f"duplicate request {raw_id}")
            for piece in pieces:
                if piece.id in self._registry:
                    raise ValueError(f"duplicate request {piece.id}")
            for piece in pieces:
                piece.arrival = next(self._arrivals)
                self._queued[piece.id] = piece
                self._registry[piece.id] = piece
        return [piece.id for piece in pieces]

    def readd(self, request: Request) -> None:
        """Re-queue a previously registered request, keeping its arrival; a
        request already queued stays queued once."""
        with self._lock:
            self._queued.setdefault(request.id, request)

    def drain(self) -> list[Request]:
        """Hand all queued requests to the current iteration, arrival-ordered.

        Requests submitted after the drain are only seen by the next one.
        """
        with self._lock:
            batch = list(self._queued.values())
            self._queued.clear()
        batch.sort(key=lambda r: r.arrival)
        return batch


def split_into_meals(raw: DonationRequest, t_m: int) -> list[DonationRequest]:
    """Chop a donation into meal pieces of the healthy-meal threshold.

    Donations under twice the threshold stay whole. Otherwise the donation
    becomes k = floor(amount / t_m) pieces: the first k-1 at exactly t_m
    grams and the last absorbing the remainder, so every piece lands in
    [t_m, 2*t_m). More than MAX_MEALS pieces raise ValueError.
    """
    if raw.amount < 2 * t_m:
        return [raw]
    k = raw.amount // t_m
    if k > MAX_MEALS:
        raise ValueError(f"donation {raw.id} splits into more than {MAX_MEALS} meals")
    amounts = [t_m] * (k - 1) + [raw.amount - t_m * (k - 1)]
    return [
        replace(raw, id=RequestId(raw.id.agent_id, raw.id.request_seq, seq), amount=amount)
        for seq, amount in enumerate(amounts, start=1)
    ]


def submit_request(raw: Request, pool: ActivePool, thresholds: Thresholds) -> list[RequestId]:
    """Queue one raw agent request, splitting donations into meals.

    Returns the ids of the stored requests (one per meal piece for a split
    donation). Raises ValueError for duplicate ids or invalid amounts.
    """
    if isinstance(raw, DonationRequest):
        pieces: list[Request] = list(split_into_meals(raw, thresholds.t_m))
    elif isinstance(raw, (RequirementRequest, VolunteerRequest)):
        pieces = [raw]
    else:
        raise TypeError(f"unclassifiable request type {type(raw).__name__}")
    return pool.submit(pieces, raw.id)


def requeue_rejected(
    match: Match,
    pool: ActivePool,
    already_active: Container[RequestId] = frozenset(),
) -> None:
    """Return every request involved in a failed match to the pool.

    The caller vouches that the match's group was rejected or expired.
    Undoes the match's delivery: the volunteer gets its payload back and the
    receiver gets its requirement back. Requests listed in already_active
    (still live in the engine's carry lists) only have their amounts
    restored, they are not enqueued twice. A receiver whose other meals
    still cover its requirement is not enqueued at all.
    """
    if match.requeued:
        raise ValueError(f"illegal requeue: match of {match.donor} already requeued")
    match.requeued = True

    if match.donor not in already_active:
        pool.readd(pool.lookup(match.donor))

    if match.volunteer is not None:
        volunteer = pool.lookup(match.volunteer)
        volunteer.remaining_payload += match.delivered_amount
        if match.volunteer not in already_active:
            pool.readd(volunteer)

    if match.receiver is not None:
        receiver = pool.lookup(match.receiver)
        receiver.remaining_amount += match.delivered_amount
        if receiver.remaining_amount > 0 and match.receiver not in already_active:
            pool.readd(receiver)
