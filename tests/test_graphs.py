"""Graph type, generators, and the text exchange format."""

import pytest

from skewlab.graphs import (
    Graph,
    Partition,
    all_loops,
    as_partition,
    complete_multipartite,
    path,
    skew_alphabet,
)


def assert_symmetric(g: Graph):
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            assert g.adjacent(u, v) == g.adjacent(v, u)


def test_path_shapes():
    p1 = path(1)
    assert p1.vertex_count == 1 and p1.edges() == []
    p2 = path(2)
    assert p2.edges() == [(0, 1)]
    p4 = path(4)
    assert len(p4.edges()) == 3
    assert sorted(p4.neighbors(v).bit_count() for v in range(4)) == [1, 1, 2, 2]
    assert not any(p4.adjacent(v, v) for v in range(4))
    with pytest.raises(ValueError):
        path(0)


def test_complete_multipartite_shapes():
    k2 = complete_multipartite((1, 1))
    assert k2.edges() == [(0, 1)]
    k22 = complete_multipartite((2, 2))
    assert k22.vertex_count == 4 and len(k22.edges()) == 4
    assert not k22.adjacent(0, 1) and not k22.adjacent(2, 3)  # stable pairs
    triangle = complete_multipartite((1, 1, 1))
    assert len(triangle.edges()) == 3
    # edge count of a bipartite instance is the product of the part sizes
    for m, n in ((1, 3), (2, 5), (4, 4)):
        assert len(complete_multipartite((m, n)).edges()) == m * n


def test_all_loops():
    g = all_loops(3)
    assert g.edges() == [(0, 0), (1, 1), (2, 2)]
    for u in range(3):
        for v in range(3):
            assert g.adjacent(u, v) == (u == v)
    assert all_loops(1).adjacent(0, 0)


def test_skew_alphabet():
    g = skew_alphabet()
    assert g.vertex_count == 2
    assert g.adjacent(1, 1)
    assert not g.adjacent(0, 1)
    assert not g.adjacent(0, 0)
    assert g.edges() == [(1, 1)]


def test_generators_symmetric():
    for g in (path(6), complete_multipartite((2, 3, 1)), all_loops(4), skew_alphabet()):
        assert_symmetric(g)


def test_partition_validation():
    assert Partition((2, 2)).total == 4
    assert len(Partition((1, 1, 1))) == 3
    assert as_partition([3, 1]).parts == (3, 1)
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(4097)
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 0)])


def test_text_round_trip():
    for g in (path(5), all_loops(3), skew_alphabet(), Graph(4, [(0, 2), (1, 1)])):
        text = f"{g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        assert Graph.from_text(text) == g
    lone = Graph.from_text("1\n")
    assert lone.vertex_count == 1 and lone.edges() == []


def test_text_parser_rejects_bad_input():
    for text in ("", "x\n", "3\n0 1 2\n", "3\n0\n", "3\n0 9\n", "2\na b\n"):
        with pytest.raises(ValueError):
            Graph.from_text(text)


def test_neighbors_bitset():
    g = path(3)
    assert g.neighbors(0) == 0b010
    assert g.neighbors(1) == 0b101
    assert all_loops(2).neighbors(1) == 0b10
