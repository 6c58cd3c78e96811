"""Stateful tests: the run engines under interleaved steps and edge changes.

After every operation each engine must agree with the from-scratch fitness
and vertex room of its own solution, and with the reference path run on a
mirrored graph: the pure step functions and ``apply_change`` on solution
arrays. Its index of accepting slots must hold exactly the slots whose
single move changes the state under the pure one-move step, and no dual -1
may change it. The dual engine's index of free slots must hold exactly the
slots F that a step must hit to change the state, and the classic engine's
``mate`` a selected slot at every vertex that has one.

The drawn start is mapped into the region the searches keep to (a matching,
a feasible dual), since the engines model that region only; the pure step
functions are tested on the whole domain elsewhere.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from dynvc import (AddEdge, Graph, GraphError, RemoveEdge, apply_change,
                   fitness_classic, fitness_weighted, greedy_maximal_matching,
                   step_classic, step_weighted, target_reached)
from dynvc.engine import _ClassicEngine, _DualEngine

from conftest import (ForcedRng, assert_mates, engine_fitness, engine_step, free_slots,
                      in_region, random_graph, room)

N = 7
PAIRS = [(u, v) for u in range(1, N + 1) for v in range(u + 1, N + 1)]


class _EngineMachine(RuleBasedStateMachine):
    problem = ""
    engine_cls = None
    dtype = None
    max_entry = 1
    w_max = 1

    @initialize(data=st.data())
    def build(self, data):
        weights = {v: data.draw(st.integers(1, self.w_max)) for v in range(1, N + 1)}
        g = Graph(N, vertex_weight=weights)
        for pair in data.draw(st.lists(st.sampled_from(PAIRS), max_size=15, unique=True)):
            g.add_edge(*pair)
        entries = data.draw(st.lists(st.integers(0, self.max_entry),
                                     min_size=g.m, max_size=g.m))
        self.sol = in_region(self.problem, np.array(entries, dtype=self.dtype), g)
        self.mirror = g.copy()
        self.g = g
        self.engine = self.engine_cls(g, self.sol.copy())

    def _fitness(self, sol, g):
        return (fitness_classic if self.problem == "classic" else fitness_weighted)(sol, g)

    @precondition(lambda self: self.g.m > 0)
    @rule(variant=st.sampled_from(["ea", "rls"]), seed=st.integers(0, 2**32 - 1),
          count=st.integers(1, 30))
    def steps(self, variant, seed, count):
        step = step_classic if self.problem == "classic" else step_weighted
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(count):
            self.sol = step(self.sol, self.mirror, variant, rng_a)
            engine_step(self.engine, variant, rng_b)

    @precondition(lambda self: self.g.m < len(PAIRS))
    @rule(data=st.data())
    def add(self, data):
        change = AddEdge(*data.draw(st.sampled_from(
            [p for p in PAIRS if not self.g.has_edge(*p)])))
        assert apply_change(self.g, self.engine, change) is self.engine
        self.sol = apply_change(self.mirror, self.sol, change)

    @precondition(lambda self: self.g.m > 0)
    @rule(data=st.data(), which=st.sampled_from(["any", "positive", "last"]))
    def remove(self, data, which):
        positive = np.nonzero(self.sol)[0].tolist()
        if which == "positive" and positive:
            index = data.draw(st.sampled_from(positive))
        elif which == "last":
            index = self.g.m - 1
        else:
            index = data.draw(st.integers(0, self.g.m - 1))
        change = RemoveEdge(index)
        apply_change(self.g, self.engine, change)
        self.sol = apply_change(self.mirror, self.sol, change)

    @rule()
    def remove_missing_slot(self):
        with pytest.raises(GraphError):
            self.engine.remove_edge(self.g.m)
        with pytest.raises(GraphError, match="invalid change"):
            apply_change(self.g, self.engine, RemoveEdge(-1))
        with pytest.raises(ValueError, match="does not own"):
            apply_change(self.mirror, self.engine, RemoveEdge(0))

    @invariant()
    def agrees_with_reference(self):
        sol = self.engine.solution()
        assert sol.dtype == self.sol.dtype
        assert np.array_equal(sol, self.sol)
        assert self.g == self.mirror
        assert engine_fitness(self.engine) == tuple(self._fitness(sol, self.g))
        assert self.engine.room == room(self.problem, sol, self.g)
        assert self.engine.at_target() == target_reached(sol, self.g, self.problem)
        assert self.engine.m == self.g.m

    @invariant()
    def index_holds_the_accepting_moves(self):
        step = step_classic if self.problem == "classic" else step_weighted
        coins = [[]] if self.problem == "classic" else [[0], [1]]
        want = set()
        for j in range(self.g.m):
            for coin in coins:
                after = step(self.sol, self.mirror, "rls", ForcedRng(integers=[j] + coin))
                if not np.array_equal(after, self.sol):
                    assert coin != [1]  # a dual -1 alone is never accepted
                    want.add(j)
        accepting, where = self.engine.accepting, self.engine.where
        assert sorted(accepting) == sorted(want)
        assert len(where) == self.g.m
        assert all(where[j] == p for p, j in enumerate(accepting))
        assert sum(p >= 0 for p in where) == len(accepting)

class ClassicEngineMachine(_EngineMachine):
    problem = "classic"
    engine_cls = _ClassicEngine
    dtype = np.uint8

    @invariant()
    def mate_is_a_selected_slot_at_each_vertex(self):
        assert_mates(self.engine.mate, self.sol, self.mirror)


class DualEngineMachine(_EngineMachine):
    problem = "weighted"
    engine_cls = _DualEngine
    dtype = np.int64
    max_entry = 3
    w_max = 4

    @invariant()
    def free_index_holds_the_free_slots(self):
        free, fwhere = self.engine.free, self.engine.fwhere
        assert sorted(free) == sorted(free_slots(self.sol, self.mirror))
        assert len(fwhere) == self.g.m
        assert all(fwhere[j] == p for p, j in enumerate(free))
        assert sum(p >= 0 for p in fwhere) == len(free)
        assert set(self.engine.accepting) <= set(free)


_SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestClassicEngine = ClassicEngineMachine.TestCase
TestClassicEngine.settings = _SETTINGS
TestDualEngine = DualEngineMachine.TestCase
TestDualEngine.settings = _SETTINGS


def test_classic_engine_is_the_dual_engine_at_unit_capacities():
    # a matching is a feasible dual at unit weights: from the same greedy
    # matching and under the same accepting moves and edge changes, the two
    # engines keep the same room, total, accepting slots and solution
    rng = np.random.default_rng(83)
    moves = 0
    for _ in range(50):
        g = random_graph(rng, n_max=9, min_edges=2)
        sol = greedy_maximal_matching(g, rng)
        for j in np.nonzero(sol)[0].tolist():  # keep about half, to leave accepting slots
            sol[j] = rng.random() < 0.5
        classic, dual = _ClassicEngine(g, sol), _DualEngine(g.copy(), sol.astype(np.int64))
        for _ in range(40):
            if classic.accepting and rng.random() < 0.5:
                j = classic.accepting[int(rng.integers(len(classic.accepting)))]
                classic.apply(j)
                dual.apply(j)
                moves += 1
            elif classic.m and rng.random() < 0.5:
                change = RemoveEdge(int(rng.integers(classic.m)))
                apply_change(classic.g, classic, change)
                apply_change(dual.g, dual, change)
            elif classic.m < g.m_max:
                change = AddEdge(*g.free_pair(int(rng.integers(g.m_max - classic.m))))
                apply_change(classic.g, classic, change)
                apply_change(dual.g, dual, change)
            assert classic.room == dual.room
            assert classic.total == dual.total
            assert set(classic.accepting) == set(dual.accepting)
            assert np.array_equal(classic.solution(), dual.solution())
    assert moves > 200  # not vacuous (301 at this seed)
