"""Stateful tests: the run engines under interleaved steps and edge changes.

After every operation each engine must agree with the from-scratch fitness
of its own solution, and with the reference path run on a mirrored graph:
the pure step functions and ``apply_change`` on solution arrays.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from dynvc import (AddEdge, Graph, GraphError, RemoveEdge, apply_change,
                   fitness_classic, fitness_weighted, step_classic,
                   step_weighted, target_reached)
from dynvc.engine import _ClassicEngine, _DualEngine

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
        self.sol = np.array(entries, dtype=self.dtype)
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
            self.engine.step(variant, rng_b)

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
        assert self.engine.fitness() == tuple(self._fitness(sol, self.g))
        assert self.engine.at_target() == target_reached(sol, self.g, self.problem)
        assert self.engine.m == self.g.m


class ClassicEngineMachine(_EngineMachine):
    problem = "classic"
    engine_cls = _ClassicEngine
    dtype = np.uint8


class DualEngineMachine(_EngineMachine):
    problem = "weighted"
    engine_cls = _DualEngine
    dtype = np.int64
    max_entry = 3
    w_max = 4


_SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestClassicEngine = ClassicEngineMachine.TestCase
TestClassicEngine.settings = _SETTINGS
TestDualEngine = DualEngineMachine.TestCase
TestDualEngine.settings = _SETTINGS
