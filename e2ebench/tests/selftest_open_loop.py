"""Open-loop accounting: latency runs from the due time, stalls included."""

import asyncio

import _paths  # noqa: F401
import pytest

from serve import corpus, open_loop, schedule


class FakeSender:
    """Answers instantly, except that item ``stall_at`` takes ``stall``."""

    def __init__(self, stall_at, stall):
        self.stall_at, self.stall = stall_at, stall
        self.resets = 0

    async def send(self, item):
        if item["id"] == self.stall_at:
            await asyncio.sleep(self.stall)
        return 200, {"id": item["id"]}

    async def reset(self):
        self.resets += 1


def items(dues):
    return [{"id": i, "due": due, "texts": []} for i, due in enumerate(dues)]


def test_a_stalled_request_delays_the_ones_queued_behind_it():
    dues = [0.0, 0.02, 0.04, 0.3]
    records = asyncio.run(
        open_loop(items(dues), [FakeSender(stall_at=0, stall=0.2)], lead=0.0)
    )
    latency = [r["done"] - r["due"] for r in records]
    assert latency[0] == pytest.approx(0.2, abs=0.05)
    # Due at 20 ms and 40 ms but sent only after the stall ends at ~200 ms.
    assert latency[1] == pytest.approx(0.18, abs=0.05)
    assert latency[2] == pytest.approx(0.16, abs=0.05)
    assert records[1]["sent"] >= records[0]["done"]
    # The generator itself was on time; the wait was in the queue.
    assert max(r["late"] for r in records) < 0.05
    assert latency[3] < 0.05  # due after the stall cleared


def test_a_second_connection_absorbs_the_stall():
    dues = [0.0, 0.02, 0.04]
    senders = [FakeSender(stall_at=0, stall=0.2), FakeSender(None, 0.0)]
    records = asyncio.run(open_loop(items(dues), senders, lead=0.0))
    assert [r["done"] - r["due"] < 0.05 for r in records] == [
        False, True, True]


def test_a_timeout_is_a_failed_record_and_resets_the_connection():
    sender = FakeSender(stall_at=0, stall=1.0)
    records = asyncio.run(
        open_loop(items([0.0, 0.01]), [sender], timeout=0.1, lead=0.0)
    )
    assert records[0]["status"] is None and records[1]["status"] == 200
    assert sender.resets == 1


def test_schedule_work_does_not_depend_on_the_seed():
    first, second = schedule(1, 10.0), schedule(2, 10.0)
    assert len(first) == len(second)
    for plan in (first, second):
        dues = [item["due"] for item in plan]
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] <= 10.0

    def counts(plan):
        tally = {}
        for item in plan:
            for text in item["texts"]:
                tally[text] = tally.get(text, 0) + 1
        return tally

    # Texts are dealt from whole seeded permutations of the corpus, so a
    # text's count varies only within the last, partial permutation (the
    # corpus repeats some texts, as ``batch_queries`` traffic does).
    multiplicity = {}
    for text in corpus():
        multiplicity[text] = multiplicity.get(text, 0) + 1
    first_counts, second_counts = counts(first), counts(second)
    assert sum(first_counts.values()) == sum(second_counts.values())
    assert set(first_counts) == set(second_counts) == set(multiplicity)
    for text, copies in multiplicity.items():
        assert abs(first_counts[text] - second_counts[text]) <= copies
    assert [i["due"] for i in first] != [i["due"] for i in second]
