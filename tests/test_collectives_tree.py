"""Tests for the collective spanning trees."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.tree import (
    binomial_children,
    binomial_parent,
    dimension_order_children,
    dimension_order_parent,
    dimension_order_tree,
    tree_depth,
)
from repro.errors import TopologyError
from repro.topology import Torus
from repro.topology.torus import Direction

DIMS = st.sampled_from([(4,), (8,), (3, 3), (4, 4), (2, 4, 4), (4, 8, 8)])


@given(DIMS, st.data())
@settings(max_examples=40, deadline=None)
def test_every_node_reaches_root(dims, data):
    torus = Torus(dims)
    root = data.draw(st.integers(min_value=0, max_value=torus.size - 1))
    for rank in torus.ranks():
        node = rank
        hops = 0
        while node != root:
            node = dimension_order_parent(torus, root, node)
            hops += 1
            assert hops <= torus.diameter()


@given(DIMS, st.data())
@settings(max_examples=40, deadline=None)
def test_children_inverse_of_parent(dims, data):
    torus = Torus(dims)
    root = data.draw(st.integers(min_value=0, max_value=torus.size - 1))
    for rank in torus.ranks():
        for child in dimension_order_children(torus, root, rank):
            assert dimension_order_parent(torus, root, child) == rank


@given(DIMS)
@settings(max_examples=20, deadline=None)
def test_tree_is_spanning(dims):
    torus = Torus(dims)
    root = 0
    covered = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in dimension_order_children(torus, root, node):
            assert child not in covered
            covered.add(child)
            frontier.append(child)
    assert covered == set(torus.ranks())


def _parent_per_call(torus, root, rank):
    """The tree as it was derived before the table: one rank at a time,
    straight from the geometry."""
    if rank == root:
        return None
    offset = torus.offset(rank, root)
    axis = max(a for a, delta in enumerate(offset) if delta != 0)
    return torus.neighbor(
        rank, Direction(axis, 1 if offset[axis] > 0 else -1))


def _children_per_call(torus, root, rank):
    children = [neighbor for _direction, neighbor in torus.neighbors(rank)
                if neighbor != rank
                and _parent_per_call(torus, root, neighbor) == rank]
    children.sort(key=lambda n: (-torus.distance(root, n), n))
    return list(dict.fromkeys(children))    # extent-2 axes list one twice


@given(st.sampled_from([(4,), (2, 2), (3, 3), (2, 4, 4), (2, 2, 2), (3, 4, 5),
                        (4, 8, 8)]), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_the_table_is_the_per_call_derivation(dims, wrap, data):
    torus = Torus(dims, wrap=wrap)
    root = data.draw(st.integers(min_value=0, max_value=torus.size - 1))
    parents, children = dimension_order_tree(torus, root)
    assert list(parents) == [_parent_per_call(torus, root, rank)
                             for rank in torus.ranks()]
    assert [list(below) for below in children] == [
        _children_per_call(torus, root, rank) for rank in torus.ranks()]
    for rank in torus.ranks():
        assert dimension_order_parent(torus, root, rank) == parents[rank]
        assert dimension_order_children(torus, root, rank) is children[rank]


def test_the_table_is_built_once_and_lives_on_its_torus():
    torus = Torus((4, 4, 8))
    tree = dimension_order_tree(torus, 5)
    misses = torus.cache_stats["misses"]
    for _ in range(3):
        assert dimension_order_tree(torus, 5) is tree
        assert tree_depth(torus, 5) == 2 + 2 + 4
    assert torus.cache_stats["misses"] == misses      # no geometry asked
    assert dimension_order_tree(torus, 6) is not tree
    assert set(torus._tree_cache) == {5, 6}
    # An equal torus is another object with its own (empty) table, and
    # nobody can edit the shared one through what they were handed.
    assert Torus((4, 4, 8))._tree_cache == {}
    assert isinstance(tree[0], tuple) and isinstance(tree[1], tuple)
    assert all(isinstance(below, tuple) for below in tree[1])


def test_ranks_outside_the_torus_are_refused():
    torus = Torus((3, 3))
    for rank in (-1, 9):
        with pytest.raises(TopologyError):
            dimension_order_parent(torus, 0, rank)
        with pytest.raises(TopologyError):
            dimension_order_children(torus, 0, rank)
        with pytest.raises(TopologyError):
            dimension_order_tree(torus, rank)
    assert torus._tree_cache.keys() == {0}


def test_depth_matches_paper_formula():
    # ceil(4/2) + ceil(8/2) + ceil(8/2) = 10 steps on the 4x8x8.
    assert tree_depth(Torus((4, 8, 8)), 0) == 10
    assert tree_depth(Torus((8, 8)), 0) == 8


def test_parent_axis_ordering():
    # The tree fills x first, then y, then z: a node differing only in
    # x hangs off the x line; differing in z receives along z.
    torus = Torus((4, 4, 4))
    x_node = torus.rank((1, 0, 0))
    z_node = torus.rank((2, 3, 1))
    assert dimension_order_parent(torus, 0, x_node) == torus.rank((0, 0, 0))
    assert dimension_order_parent(torus, 0, z_node) == torus.rank((2, 3, 0))


def test_binomial_roundtrip():
    size = 13
    for root in (0, 5):
        for rank in range(size):
            for child in binomial_children(size, root, rank):
                assert binomial_parent(size, root, child) == rank


def test_binomial_spanning():
    size, root = 16, 3
    covered = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in binomial_children(size, root, node):
            assert child not in covered
            covered.add(child)
            frontier.append(child)
    assert covered == set(range(size))


def test_binomial_root_has_log_children():
    assert len(binomial_children(16, 0, 0)) == 4
    assert binomial_parent(16, 0, 0) is None
