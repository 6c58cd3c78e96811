import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynvc import (Graph, fitness_classic, cover_set, mutate_global,
                   mutate_local, step_classic, spawn_rng)
from dynvc.classic import empty_solution, format_solution, parse_solution
from dynvc.engine import _ClassicEngine
from dynvc.harness import greedy_maximal_matching
from dynvc.oracles import is_2_approx, is_maximal_matching

from conftest import ForcedRng, flip_mask_draws, random_graph
from scalars import classic_components, scalar_classic


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def test_cover_set_examples(triangle):
    assert cover_set(bits("000"), triangle) == set()
    assert cover_set(bits("100"), triangle) == {1, 2}
    assert cover_set(bits("110"), triangle) == {1, 2, 3}


def test_cover_set_length_mismatch(triangle):
    with pytest.raises(ValueError, match="length"):
        cover_set(bits("10"), triangle)


def test_fitness_examples(triangle):
    assert fitness_classic(bits("000"), triangle) == (0, 3, 0)
    assert scalar_classic(bits("000"), triangle) == 12
    assert fitness_classic(bits("100"), triangle) == (0, 0, 2)
    assert scalar_classic(bits("100"), triangle) == 2
    # e(1,2) and e(2,3) share v2
    assert fitness_classic(bits("110"), triangle) == (1, 0, 3)
    with pytest.raises(ValueError, match="length"):
        fitness_classic(bits("1101"), triangle)


def test_fitness_components_match_naive_scan():
    rng = np.random.default_rng(11)
    for _ in range(300):
        g = random_graph(rng, n_max=9)
        sol = (rng.random(g.m) < 0.4).astype(np.uint8)
        pairs, unc, size = fitness_classic(sol, g)
        ordered, unc2, size2 = classic_components(sol, g)
        assert (2 * pairs, unc, size) == (ordered, unc2, size2)


def test_mutate_global_forced_outcomes():
    s = bits("000")
    same = mutate_global(s, ForcedRng(geometric=flip_mask_draws([], 3)))
    assert np.array_equal(same, s)
    flipped = mutate_global(s, ForcedRng(geometric=flip_mask_draws([0], 3)))
    assert np.array_equal(flipped, bits("100"))
    both = mutate_global(s, ForcedRng(geometric=flip_mask_draws([0, 2], 3)))
    assert np.array_equal(both, bits("101"))


def test_mutate_global_empty_is_noop():
    s = np.zeros(0, dtype=np.uint8)
    out = mutate_global(s, spawn_rng(0, 0))
    assert out.shape == (0,)


def test_mutate_global_mean_flips():
    rng = spawn_rng(123, 0)
    s = np.zeros(100, dtype=np.uint8)
    flips = 0
    for _ in range(10**5):
        flips += int(np.count_nonzero(mutate_global(s, rng)))
    assert 0.97 <= flips / 10**5 <= 1.03


def test_mutate_local_single_choice():
    s = np.zeros(1, dtype=np.uint8)
    out = mutate_local(s, spawn_rng(5, 0))
    assert out[0] == 1


def test_mutate_local_uniform_frequencies():
    rng = spawn_rng(99, 0)
    s = np.zeros(10, dtype=np.uint8)
    counts = np.zeros(10)
    for _ in range(10**5):
        counts[np.nonzero(mutate_local(s, rng))[0][0]] += 1
    assert ((counts / 10**5 >= 0.08) & (counts / 10**5 <= 0.12)).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32))
def test_mutate_local_hamming_distance_one(m, seed):
    rng = spawn_rng(seed, 0)
    s = (spawn_rng(seed, 1).random(m) < 0.5).astype(np.uint8)
    out = mutate_local(s, rng)
    assert int(np.count_nonzero(out != s)) == 1


def test_step_accepts_improvement(triangle):
    # forced mutant 100 from 110: (0,0,2) <= (1,0,3)
    rng = ForcedRng(geometric=flip_mask_draws([1], 3))
    out = step_classic(bits("110"), triangle, "ea", rng)
    assert np.array_equal(out, bits("100"))


def test_step_rejects_worse(triangle):
    # forced mutant 110 from 100: (1,0,3) > (0,0,2)
    rng = ForcedRng(geometric=flip_mask_draws([1], 3))
    out = step_classic(bits("100"), triangle, "ea", rng)
    assert np.array_equal(out, bits("100"))


def test_step_accepts_tie(triangle):
    rng = ForcedRng(geometric=flip_mask_draws([], 3))
    s = bits("100")
    out = step_classic(s, triangle, "ea", rng)
    assert np.array_equal(out, s)


def test_step_empty_graph():
    g = Graph(3)
    s = empty_solution(g)
    out = step_classic(s, g, "ea", spawn_rng(1, 0))
    assert out.shape == (0,)


def test_step_unknown_variant(triangle):
    with pytest.raises(ValueError, match="variant"):
        step_classic(bits("000"), triangle, "spicy", spawn_rng(0, 0))


def test_scalar_and_lexicographic_order_agree():
    rng = np.random.default_rng(21)
    for _ in range(400):
        g = random_graph(rng, n_max=12)
        a = (rng.random(g.m) < 0.4).astype(np.uint8)
        b = (rng.random(g.m) < 0.4).astype(np.uint8)
        lex = fitness_classic(a, g), fitness_classic(b, g)
        sca = scalar_classic(a, g), scalar_classic(b, g)
        assert (lex[0] < lex[1]) == (sca[0] < sca[1])
        assert (lex[0] == lex[1]) == (sca[0] == sca[1])


def test_matching_preserved_and_uncovered_monotone():
    # long accepted-step histories never break the matching property and
    # never raise the uncovered count
    rng = np.random.default_rng(31)
    total_steps = 0
    while total_steps < 10**6:
        g = random_graph(rng, n_max=12, min_edges=3)
        eng = _ClassicEngine(g, greedy_maximal_matching(g, rng))
        # knock a few edges out to leave room for progress
        for j in range(g.m):
            if eng.bits[j] and rng.random() < 0.7:
                eng._flip(j)
        assert eng.pairs == 0
        last_unc = eng.uncovered
        run_rng = spawn_rng(int(rng.integers(2**32)), 0)
        for _ in range(20000):
            eng.step("ea" if rng.random() < 0.5 else "rls", run_rng)
            assert eng.pairs == 0
            assert eng.uncovered <= last_unc
            last_unc = eng.uncovered
        total_steps += 20000


def test_maximal_matching_induces_2_approximation():
    rng = np.random.default_rng(41)
    for _ in range(60):
        g = random_graph(rng, n_max=16)
        sol = greedy_maximal_matching(g, rng)
        assert is_maximal_matching(sol, g)
        cover = cover_set(sol, g)
        for u, v in g.edges():
            assert u in cover or v in cover
        assert is_2_approx(cover, g)


def test_solution_text_round_trip():
    s = bits("0110")
    assert format_solution(s) == "sol classic 0110\n"
    assert np.array_equal(parse_solution("sol classic 0110"), s)
    with pytest.raises(ValueError):
        parse_solution("sol classic 01x0")
    with pytest.raises(ValueError):
        parse_solution("sol weighted 1 2")
