"""Tests for MPI-style matching."""

from hypothesis import given, settings, strategies as st

from repro.core.matching import MatchQueue, match
from repro.core.message import ANY_SOURCE, ANY_TAG


def test_exact_match():
    assert match(3, 7, 1, 3, 7, 1)
    assert not match(3, 7, 1, 4, 7, 1)
    assert not match(3, 7, 1, 3, 8, 1)
    assert not match(3, 7, 1, 3, 7, 2)


def test_wildcards():
    assert match(ANY_SOURCE, 7, 1, 99, 7, 1)
    assert match(3, ANY_TAG, 1, 3, 42, 1)
    assert match(ANY_SOURCE, ANY_TAG, 1, 5, 5, 1)
    # Context never wildcards.
    assert not match(ANY_SOURCE, ANY_TAG, 1, 5, 5, 2)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2))
@settings(max_examples=50)
def test_wildcard_is_superset_of_exact(src, tag, context):
    if match(src, tag, context, src, tag, context):
        assert match(ANY_SOURCE, tag, context, src, tag, context)
        assert match(src, ANY_TAG, context, src, tag, context)


def test_pop_first_match_fifo():
    queue = MatchQueue()
    queue.append("a", 1, 7, 0)
    queue.append("b", 1, 7, 0)
    assert queue.pop_first_match(1, 7, 0) == "a"
    assert queue.pop_first_match(1, 7, 0) == "b"
    assert queue.pop_first_match(1, 7, 0) is None


def test_pop_first_match_with_stored_wildcards():
    queue = MatchQueue()
    queue.append("wild", ANY_SOURCE, ANY_TAG, 0)
    assert queue.pop_first_match(9, 9, 0) == "wild"


def test_pop_by_probe_with_probe_wildcards():
    queue = MatchQueue()
    queue.append("m1", 2, 5, 0)
    queue.append("m2", 3, 5, 0)
    assert queue.pop_first_match_by_probe(ANY_SOURCE, 5, 0) == "m1"
    assert queue.pop_first_match_by_probe(3, ANY_TAG, 0) == "m2"


def test_an_untouched_queue_holds_no_deque_and_answers_like_an_empty_one():
    queue = MatchQueue()
    assert queue._entries == () and len(queue) == 0
    assert list(queue) == [] and queue.entries() == []
    assert queue.pop_first_match(0, 0, 0) is None
    assert queue.pop_first_match_by_probe(ANY_SOURCE, ANY_TAG, 0) is None
    assert queue.pop_first_match_where(0, 0, 0, lambda entry: True) is None
    assert queue.peek_first_match(0, 0, 0) is None
    assert not queue.remove("nothing")
    assert queue._entries == ()             # none of that allocated
    queue.append("a", 0, 0, 0)
    drained = queue._entries
    assert queue.pop_first_match(0, 0, 0) == "a" and len(queue) == 0
    queue.append("b", 0, 0, 0)
    assert queue._entries is drained        # one deque, kept once built


def test_non_matching_entries_skipped():
    queue = MatchQueue()
    queue.append("wrong-tag", 1, 8, 0)
    queue.append("right", 1, 7, 0)
    assert queue.pop_first_match(1, 7, 0) == "right"
    assert len(queue) == 1


def test_peek_does_not_remove():
    queue = MatchQueue()
    queue.append("x", 1, 1, 0)
    assert queue.peek_first_match(1, 1, 0) == "x"
    assert len(queue) == 1


def test_remove_specific_entry():
    queue = MatchQueue()
    queue.append("a", 1, 1, 0)
    queue.append("b", 1, 1, 0)
    assert queue.remove("b")
    assert not queue.remove("b")
    assert queue.entries() == ["a"]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=20))
@settings(max_examples=50)
def test_fifo_order_preserved_per_key(pairs):
    """Entries with the same key pop in insertion order."""
    queue = MatchQueue()
    for index, (src, tag) in enumerate(pairs):
        queue.append((index, src, tag), src, tag, 0)
    popped = []
    while True:
        entry = queue.pop_first_match_by_probe(ANY_SOURCE, ANY_TAG, 0)
        if entry is None:
            break
        popped.append(entry[0])
    assert popped == sorted(popped)
