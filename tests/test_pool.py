"""Intake: meal splitting, drain semantics, requeue."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from foodmatch.model import (
    DonationRequest,
    FoodType,
    Location,
    Match,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)
from foodmatch.pool import (
    ActivePool,
    requeue_rejected,
    split_into_meals,
    submit_request,
)

TH = Thresholds()


def donation(agent=1, amount=1500, seq=1):
    return DonationRequest(
        id=RequestId(agent, seq), arrival=-1, location=Location(1, 1),
        food=FoodType.FRESHLY_COOKED, amount=amount, window=TimeWindow(600, 720),
    )

def requirement(agent=50, amount=1000):
    return RequirementRequest(
        id=RequestId(agent, 1), arrival=-1, location=Location(2, 2),
        food=FoodType.FRESHLY_COOKED, amount=amount, window=TimeWindow(700, 900),
    )

def volunteer(agent=90, payload=10_000):
    return VolunteerRequest(
        id=RequestId(agent, 1), arrival=-1, route_start=Location(0, 0), route_end=Location(5, 5),
        motored=True, ac=False, payload_capacity=payload, window=TimeWindow(500, 800),
    )


class TestSplitting:
    def test_just_under_double_threshold_unsplit(self):
        ids = submit_request(donation(amount=1999), ActivePool(), TH)
        assert ids == [RequestId(1, 1, 0)]

    def test_exact_double_threshold_splits(self):
        pool = ActivePool()
        ids = submit_request(donation(amount=2000), pool, TH)
        assert ids == [RequestId(1, 1, 1), RequestId(1, 1, 2)]
        assert [pool.lookup(i).amount for i in ids] == [1000, 1000]

    def test_remainder_absorbed_by_last_piece(self):
        pool = ActivePool()
        ids = submit_request(donation(amount=3500), pool, TH)
        assert [pool.lookup(i).amount for i in ids] == [1000, 1000, 1500]

    def test_pieces_get_fresh_increasing_arrivals(self):
        pool = ActivePool()
        ids = submit_request(donation(amount=3500), pool, TH)
        arrivals = [pool.lookup(i).arrival for i in ids]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == 3

    @given(st.integers(min_value=1, max_value=12_000))
    def test_split_conserves_mass_and_bounds(self, amount):
        pieces = split_into_meals(donation(amount=amount), TH.t_m)
        assert sum(p.amount for p in pieces) == amount
        if amount >= 2 * TH.t_m:
            assert all(TH.t_m <= p.amount < 2 * TH.t_m for p in pieces)
        else:
            assert len(pieces) == 1

    def test_requirement_and_volunteer_unsplit(self):
        pool = ActivePool()
        assert submit_request(requirement(), pool, TH) == [RequestId(50, 1)]
        assert submit_request(volunteer(), pool, TH) == [RequestId(90, 1)]

    def test_duplicate_submission_rejected(self):
        pool = ActivePool()
        submit_request(donation(), pool, TH)
        with pytest.raises(ValueError, match="duplicate request"):
            submit_request(donation(), pool, TH)

    @pytest.mark.parametrize("first, second", [(3500, 1500), (1500, 3500)])
    def test_raw_id_taken_whole_or_split(self, first, second):
        """A raw id stays taken whether it was stored whole or as meal pieces,
        and whether or not the resubmission would be split."""
        pool = ActivePool()
        stored = submit_request(donation(amount=first), pool, TH)
        with pytest.raises(ValueError, match=r"^duplicate request 1\.1$"):
            submit_request(donation(amount=second), pool, TH)
        assert [r.id for r in pool.drain()] == stored

    def test_invalid_amount_rejected(self):
        with pytest.raises(ValueError, match="invalid amount"):
            submit_request(donation(amount=-5), ActivePool(), TH)


class TestDrain:
    def test_empty_pool(self):
        assert ActivePool().drain() == []

    def test_arrival_order(self):
        pool = ActivePool()
        submit_request(donation(agent=1), pool, TH)
        submit_request(requirement(agent=50), pool, TH)
        drained = pool.drain()
        assert [r.arrival for r in drained] == sorted(r.arrival for r in drained)

    def test_drain_clears_queue(self):
        pool = ActivePool()
        submit_request(donation(), pool, TH)
        assert len(pool.drain()) == 1
        assert pool.drain() == []

    def test_submit_during_drain_lands_in_next_snapshot(self):
        pool = ActivePool()
        for agent in range(1, 101):
            submit_request(donation(agent=agent, amount=900), pool, TH)
        seen: list[int] = []
        stop = threading.Event()

        def submitter():
            agent = 1000
            while not stop.is_set():
                submit_request(donation(agent=agent, amount=900), pool, TH)
                agent += 1

        thread = threading.Thread(target=submitter)
        thread.start()
        try:
            for _ in range(50):
                seen.extend(r.id.agent_id for r in pool.drain())
        finally:
            stop.set()
            thread.join()
        seen.extend(r.id.agent_id for r in pool.drain())
        assert len(seen) == len(set(seen))  # nothing drained twice, nothing lost mid-drain

    def test_concurrent_submits_number_arrivals_once_each(self):
        pool = ActivePool()

        def submitter(agent):
            for seq in range(1, 201):
                submit_request(donation(agent=agent, amount=900, seq=seq), pool, TH)

        threads = [threading.Thread(target=submitter, args=(agent,)) for agent in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        requests = list(pool.registered())
        assert sorted(r.arrival for r in requests) == list(range(1, 1601))
        # each submitter's requests are numbered in its own submission order
        for agent in range(1, 9):
            arrivals = [r.arrival for r in requests if r.id.agent_id == agent]
            assert arrivals == sorted(arrivals) and len(arrivals) == 200


class TestRequeue:
    def _accepted_setup(self):
        pool = ActivePool()
        d_id = submit_request(donation(agent=1, amount=1000), pool, TH)[0]
        v_id = submit_request(volunteer(agent=90), pool, TH)[0]
        r_id = submit_request(requirement(agent=50, amount=1000), pool, TH)[0]
        pool.drain()
        v = pool.lookup(v_id)
        r = pool.lookup(r_id)
        v.remaining_payload -= 1000
        r.remaining_amount -= 1000
        match = Match(donor=d_id, volunteer=v_id, receiver=r_id, vicinity=20.0, delivered_amount=1000)
        return pool, match, v, r

    def test_full_triple_requeued(self):
        pool, match, v, r = self._accepted_setup()
        requeue_rejected(match, pool)
        assert pool.queued_ids() == {match.donor, match.volunteer, match.receiver}
        assert v.remaining_payload == 10_000
        assert r.remaining_amount == 1000

    def test_volunteerless_match_requeues_two(self):
        pool = ActivePool()
        d_id = submit_request(donation(agent=1, amount=1000), pool, TH)[0]
        r_id = submit_request(requirement(agent=50, amount=1000), pool, TH)[0]
        pool.drain()
        pool.lookup(r_id).remaining_amount = 0
        match = Match(donor=d_id, volunteer=None, receiver=r_id, vicinity=5.0, delivered_amount=1000)
        requeue_rejected(match, pool)
        assert pool.queued_ids() == {d_id, r_id}

    def test_double_requeue_errors(self):
        pool, match, _, _ = self._accepted_setup()
        requeue_rejected(match, pool)
        with pytest.raises(ValueError, match="illegal requeue"):
            requeue_rejected(match, pool)

    def test_already_active_requests_not_duplicated(self):
        pool, match, _, r = self._accepted_setup()
        pool.readd(r)
        requeue_rejected(match, pool)
        assert [q.id for q in pool.drain()] == [match.donor, match.volunteer, match.receiver]
        assert r.remaining_amount == 1000  # amount restored regardless

    def test_carried_requests_only_restored(self):
        pool, match, v, r = self._accepted_setup()
        requeue_rejected(match, pool, already_active={match.volunteer, match.receiver})
        assert pool.queued_ids() == {match.donor}
        assert v.remaining_payload == 10_000
        assert r.remaining_amount == 1000

    def test_requeued_requests_keep_arrival(self):
        pool, match, v, _ = self._accepted_setup()
        before = v.arrival
        requeue_rejected(match, pool)
        assert pool.lookup(match.volunteer).arrival == before
