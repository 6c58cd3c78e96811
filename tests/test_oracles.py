from itertools import combinations, product

import numpy as np
import pytest

from dynvc import Graph
from dynvc.oracles import (DUAL_MAX_M, DUAL_MAX_W, VC_MAX_N, OracleError,
                           dual_feasible, dual_maximal, exact_min_vc, gap_G,
                           gap_Gstar, is_2_approx, is_matching,
                           is_maximal_matching, max_dual_value)

from conftest import random_graph


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def dual(*vals):
    return np.array(vals, dtype=np.int64)


def brute_min_vc(g):
    """Independent oracle: the minimum cover weight over all 2^n subsets."""
    return min(sum(g.vertex_weight(v) for v in comb)
               for r in range(g.n + 1)
               for comb in combinations(range(1, g.n + 1), r)
               if all(u in comb or v in comb for u, v in g.edges()))


def all_feasible_duals(g):
    """Every nonnegative integer dual within the vertex capacities."""
    caps = [min(g.vertex_weight(u), g.vertex_weight(v)) for u, v in g.edges()]
    for vals in product(*(range(c + 1) for c in caps)):
        s = np.array(vals, dtype=np.int64)
        if dual_feasible(s, g):
            yield s


def test_is_matching_examples(triangle):
    assert is_matching(bits("100"), triangle)
    assert not is_matching(bits("110"), triangle)
    assert is_matching(bits("000"), triangle)
    assert is_matching(bits("010"), triangle)


def test_is_maximal_matching_examples(triangle, p3):
    assert is_maximal_matching(bits("100"), triangle)
    assert is_maximal_matching(bits("10"), p3)
    assert not is_maximal_matching(bits("00"), p3)
    assert is_maximal_matching(np.zeros(0, dtype=np.uint8), Graph(2))


def test_exact_min_vc_examples(triangle, p3w):
    assert exact_min_vc(triangle)[0] == 2
    assert exact_min_vc(p3w) == (2, frozenset({2}))
    assert exact_min_vc(Graph(1)) == (0, frozenset())


def test_exact_min_vc_size_cap():
    with pytest.raises(OracleError, match=str(VC_MAX_N)):
        exact_min_vc(Graph(VC_MAX_N + 1))


def test_exact_min_vc_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(60):
        g = random_graph(rng, n_max=9, w_max=4)
        weight, cover = exact_min_vc(g)
        assert weight == brute_min_vc(g)
        assert all(u in cover or v in cover for u, v in g.edges())
        assert sum(g.vertex_weight(v) for v in cover) == weight


def test_exact_min_vc_cover_is_minimal():
    rng = np.random.default_rng(29)
    for _ in range(40):
        g = random_graph(rng, n_max=9, w_max=3)
        weight, cover = exact_min_vc(g)
        assert all(u in cover or v in cover for u, v in g.edges())
        for drop in cover:
            smaller = cover - {drop}
            assert not all(u in smaller or v in smaller for u, v in g.edges())


def test_is_2_approx_examples(triangle, p3w, p3):
    assert is_2_approx({1, 2}, triangle)
    assert is_2_approx({1, 2, 3}, p3w)  # weight 4 vs OPT 2
    assert not is_2_approx({1}, p3)  # e(2,3) uncovered


def test_dual_feasible_examples(p3w):
    assert dual_feasible(dual(1, 1), p3w)
    assert not dual_feasible(dual(1, 2), p3w)
    assert dual_feasible(dual(0, 0), p3w)


def test_dual_maximal_examples(p3w):
    assert dual_maximal(dual(1, 1), p3w)
    assert not dual_maximal(dual(1, 0), p3w)
    assert dual_maximal(np.zeros(0, dtype=np.int64), Graph(3))
    with pytest.raises(OracleError, match="feasible"):
        dual_maximal(dual(9, 9), p3w)


def test_gap_G_examples(p3w):
    assert gap_G(dual(1, 1), p3w) == 0
    assert gap_G(dual(1, 0), p3w) == 1
    assert gap_G(dual(0, 0), p3w) == 2


def test_gap_Gstar_examples(p3w):
    assert max_dual_value(p3w) == 2
    assert gap_Gstar(dual(1, 1), p3w) == 0
    assert gap_Gstar(dual(0, 0), p3w) == 2


def test_gap_caps_enforced():
    big = Graph(20)
    for i in range(1, 15):
        big.add_edge(i, i + 1)
    with pytest.raises(OracleError, match="enumeration"):
        gap_G(np.zeros(big.m, dtype=np.int64), big)
    heavy = Graph(2, vertex_weight={1: DUAL_MAX_W + 1, 2: 1})
    heavy.add_edge(1, 2)
    with pytest.raises(OracleError, match="enumeration"):
        gap_Gstar(np.zeros(1, dtype=np.int64), heavy)
    ok = Graph(2)
    ok.add_edge(1, 2)
    with pytest.raises(OracleError, match="feasible"):
        gap_G(dual(5), ok)


def test_gap_zero_iff_maximal_and_gstar_dominates():
    rng = np.random.default_rng(31)
    for _ in range(8):
        g = random_graph(rng, n_max=5, w_max=3)
        if g.m > 6:
            continue
        memo = {}
        for s in all_feasible_duals(g):
            gg = gap_G(s, g, memo)
            assert (gg == 0) == dual_maximal(s, g)
            assert gap_Gstar(s, g) >= gg >= 0


def test_weak_duality_of_max_dual():
    rng = np.random.default_rng(37)
    for _ in range(40):
        g = random_graph(rng, n_max=6, w_max=4)
        if g.m > DUAL_MAX_M:
            continue
        assert max_dual_value(g) <= exact_min_vc(g)[0]


def test_matching_size_mismatch(p3):
    with pytest.raises(ValueError, match="mismatch"):
        is_matching(bits("1"), p3)
