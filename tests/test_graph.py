import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynvc import Graph, GraphError


def test_add_first_edge():
    g = Graph(3)
    assert g.add_edge(1, 2) == 0
    assert g.m == 1
    assert g.edges() == [(1, 2)]


def test_add_duplicate_rejected(triangle):
    before = triangle.edges()
    with pytest.raises(GraphError, match="duplicate"):
        triangle.add_edge(1, 2)
    with pytest.raises(GraphError, match="duplicate"):
        triangle.add_edge(2, 1)  # unordered pair
    assert triangle.edges() == before


def test_add_self_loop_rejected():
    g = Graph(3)
    with pytest.raises(GraphError, match="self-loop"):
        g.add_edge(2, 2)
    assert g.m == 0


def test_add_universe_full():
    g = Graph(4, m_max=2)
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    with pytest.raises(GraphError, match="full"):
        g.add_edge(1, 3)
    assert g.m == 2


def test_add_closes_triangle(p3):
    before = set(p3.edges())
    idx = p3.add_edge(1, 3)
    assert idx == 2
    assert set(p3.edges()) == before | {(1, 3)}
    assert p3.edges()[:2] == [(1, 2), (2, 3)]  # existing slots unchanged


def test_add_bad_vertex():
    g = Graph(3)
    with pytest.raises(GraphError, match="out of range"):
        g.add_edge(0, 1)
    with pytest.raises(GraphError, match="out of range"):
        g.add_edge(1, 4)


def test_remove_swaps_last_into_hole(triangle):
    remap = triangle.remove_edge(0)
    assert remap == {2: 0}
    assert triangle.m == 2
    assert triangle.edges() == [(1, 3), (2, 3)]


def test_remove_last_slot():
    g = Graph(2)
    g.add_edge(1, 2)
    assert g.remove_edge(0) == {}
    assert g.m == 0
    assert g.edges() == []


def test_remove_invalid_index(p3):
    with pytest.raises(GraphError, match="out of range"):
        p3.remove_edge(7)
    assert p3.m == 2


def test_add_remove_restores_pair_set(p3):
    before = set(p3.edges())
    idx = p3.add_edge(1, 3)
    p3.remove_edge(idx)
    assert set(p3.edges()) == before


def test_incident_edges(triangle, p3):
    assert sorted(triangle.endpoints(i) for i in triangle.incident_edges(1)) \
        == [(1, 2), (1, 3)]
    assert sorted(p3.incident_edges(2)) == [0, 1]
    g = Graph(4)
    g.add_edge(1, 2)
    assert g.incident_edges(4) == []
    with pytest.raises(GraphError, match="out of range"):
        g.incident_edges(5)


def test_weights_validated():
    with pytest.raises(GraphError, match=">= 1"):
        Graph(2, vertex_weight={1: 0})
    with pytest.raises(GraphError, match="too large"):
        Graph(2, vertex_weight={1: 2**62, 2: 2**62})
    g = Graph(2, vertex_weight={2: 5})
    assert g.vertex_weight(1) == 1
    assert g.vertex_weight(2) == 5
    assert g.w_max == 5
    assert g.w_total == 6


def test_random_operation_sequences_keep_slots_dense():
    rng = np.random.default_rng(404)
    for _ in range(20):
        n = int(rng.integers(2, 33))
        g = Graph(n)
        mirror: set[tuple[int, int]] = set()
        for _ in range(1000):
            if mirror and (g.m >= g.m_max or rng.random() < 0.45):
                g.remove_edge(int(rng.integers(g.m)))
            else:
                u = int(rng.integers(1, n + 1))
                v = int(rng.integers(1, n + 1))
                try:
                    g.add_edge(u, v)
                except GraphError:
                    continue
            mirror = set(g.edges())
            # slots 0..m-1 exactly, no duplicates, normalized pairs
            assert g.m == len(mirror)
            assert all(u < v for u, v in mirror)
            assert {g.edge_index(u, v) for u, v in mirror} == set(range(g.m))
            assert g.incidence_lists() == scanned_incidence(g)


def scanned_incidence(g):
    """Reference incidence lists: one scan over all slots."""
    inc = [[] for _ in range(g.n + 1)]
    for i, (u, v) in enumerate(g.edges()):
        inc[u].append(i)
        inc[v].append(i)
    return inc


def test_free_pair_matches_enumeration():
    rng = np.random.default_rng(405)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        g = Graph(n)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        for k in rng.permutation(len(pairs))[:int(rng.integers(len(pairs) + 1))]:
            g.add_edge(*pairs[int(k)])
        for j in rng.permutation(g.m)[:int(rng.integers(g.m + 1))]:
            if j < g.m:
                g.remove_edge(int(j))
        free = [p for p in pairs if not g.has_edge(*p)]
        assert [g.free_pair(k) for k in range(len(free))] == free
        with pytest.raises(GraphError, match="absent pair"):
            g.free_pair(len(free))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=40),
       st.randoms(use_true_random=False))
def test_interleaved_ops_match_reference_set(pairs, pyrng):
    g = Graph(8)
    mirror: set[tuple[int, int]] = set()
    for u, v in pairs:
        if mirror and pyrng.random() < 0.3:
            victim = pyrng.choice(sorted(mirror))
            g.remove_edge(g.edge_index(*victim))
            mirror.discard(victim)
        if u != v:
            key = (min(u, v), max(u, v))
            if key in mirror:
                continue
            g.add_edge(u, v)
            mirror.add(key)
        assert set(g.edges()) == mirror


def test_text_round_trip():
    g = Graph(4, m_max=5, vertex_weight={2: 3, 4: 7})
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    g.add_edge(1, 4)
    g.remove_edge(0)  # exercise non-canonical slot order
    text = g.to_text()
    assert Graph.from_text(text) == g
    assert Graph.from_text(text).to_text() == text


def test_text_parse_comments_and_errors():
    g = Graph.from_text("# header\n\ngraph 3 3\nvw 2 4  # heavy\ne 1 2\ne 2 3\n")
    assert g.n == 3 and g.m == 2 and g.vertex_weight(2) == 4
    with pytest.raises(GraphError, match="missing graph header"):
        Graph.from_text("e 1 2\n")
    with pytest.raises(GraphError, match="line 2"):
        Graph.from_text("graph 3 3\nxyz 1 2\n")
    with pytest.raises(GraphError, match="line 3"):
        Graph.from_text("graph 3 3\ne 1 2\ne 1 2\n")
    with pytest.raises(GraphError, match="line 2"):
        Graph.from_text("graph 2 1\nvw 1 nope\n")


def test_copy_is_independent(triangle):
    g2 = triangle.copy()
    g2.remove_edge(0)
    assert triangle.m == 3 and g2.m == 2
    assert triangle != g2
    assert triangle.incidence_lists() == scanned_incidence(triangle)
    assert g2.incidence_lists() == scanned_incidence(g2)
    assert g2.free_pair(0) == (1, 2)
