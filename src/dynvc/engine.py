"""Incremental run engines: the search state behind :func:`dynvc.harness.run_once`.

An engine owns its graph. It reads the graph's live endpoint and incidence
lists, and edge changes go through its ``add_edge``/``remove_edge``, which
update the graph and the engine state together in O(deg). A mutation
touches only the flipped edges and their endpoints' incidence lists, so a
step costs O(hits) instead of O(m + n). The pure step functions in
:mod:`dynvc.classic` and :mod:`dynvc.weighted` and the array path of
:func:`dynvc.dynamics.apply_change` define the semantics; the engines
replicate them draw-for-draw and are differentially tested against them.
"""

from __future__ import annotations

import numpy as np

from .classic import _flip_positions
from .graph import Graph, GraphError


def _swap_pop(index: int, *lists: list) -> None:
    """Drop entry ``index`` by moving the last entry into it, as Graph.remove_edge does."""
    for lst in lists:
        lst[index] = lst[-1]
        lst.pop()


class _ClassicEngine:
    """Selection state with O(touched) updates; semantics of fitness_classic."""

    __slots__ = ("g", "m", "eu", "ev", "inc", "bits", "deg", "covcnt",
                 "pairs", "uncovered", "cover_size", "selected")

    def __init__(self, g: Graph, sol: np.ndarray):
        self.g = g
        self.m = g.m
        self.eu, self.ev = g.endpoint_lists()
        self.inc = g.incidence_lists()
        self.bits = [0] * g.m
        self.deg = [0] * (g.n + 1)
        self.covcnt = [0] * g.m
        self.pairs = 0
        self.uncovered = g.m
        self.cover_size = 0
        self.selected = 0
        for j in range(g.m):
            if sol[j]:
                self._flip(j)

    def _flip(self, j: int) -> None:
        deg, inc, covcnt = self.deg, self.inc, self.covcnt
        if self.bits[j]:
            self.bits[j] = 0
            self.selected -= 1
            for x in (self.eu[j], self.ev[j]):
                d = deg[x] - 1
                deg[x] = d
                self.pairs -= d
                if d == 0:
                    self.cover_size -= 1
                    for e in inc[x]:
                        c = covcnt[e] - 1
                        covcnt[e] = c
                        if c == 0:
                            self.uncovered += 1
        else:
            self.bits[j] = 1
            self.selected += 1
            for x in (self.eu[j], self.ev[j]):
                d = deg[x]
                deg[x] = d + 1
                self.pairs += d
                if d == 0:
                    self.cover_size += 1
                    for e in inc[x]:
                        c = covcnt[e]
                        covcnt[e] = c + 1
                        if c == 0:
                            self.uncovered -= 1

    def add_edge(self, u: int, v: int) -> int:
        """Add edge {u, v} to the graph, unselected; return its slot."""
        j = self.g.add_edge(u, v)
        c = (self.deg[u] > 0) + (self.deg[v] > 0)
        self.bits.append(0)
        self.covcnt.append(c)
        self.m += 1
        if c == 0:
            self.uncovered += 1
        return j

    def remove_edge(self, index: int) -> None:
        """Remove the edge at ``index``, deselecting it first."""
        if not 0 <= index < self.m:
            raise GraphError(f"edge index {index} out of range 0..{self.m - 1}")
        if self.bits[index]:
            self._flip(index)
        if self.covcnt[index] == 0:
            self.uncovered -= 1
        self.g.remove_edge(index)
        _swap_pop(index, self.bits, self.covcnt)
        self.m -= 1

    def fitness(self) -> tuple[int, int, int]:
        return (self.pairs, self.uncovered, self.cover_size)

    def at_target(self) -> bool:
        return self.pairs == 0 and self.uncovered == 0

    def trace_sample(self) -> tuple[int, int]:
        return (self.uncovered, self.selected)

    def step(self, variant: str, rng: np.random.Generator) -> None:
        m = self.m
        if m == 0:
            return
        if variant == "rls":
            pos = [int(rng.integers(m))]
        else:
            pos = _flip_positions(rng, m, 1.0 / m)
            if not pos:
                return  # mutant equals parent: tie accepted, state unchanged
        cur = (self.pairs, self.uncovered, self.cover_size)
        for j in pos:
            self._flip(j)
        if (self.pairs, self.uncovered, self.cover_size) <= cur:
            return
        for j in reversed(pos):
            self._flip(j)

    def solution(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)


class _DualEngine:
    """Dual-weight state with O(touched) updates; semantics of fitness_weighted."""

    __slots__ = ("g", "m", "eu", "ev", "inc", "w", "s", "load", "covcnt",
                 "violations", "uncovered", "total")

    def __init__(self, g: Graph, sol: np.ndarray):
        self.g = g
        self.m = g.m
        self.eu, self.ev = g.endpoint_lists()
        self.inc = g.incidence_lists()
        self.w = [int(x) for x in g.weights]
        self.s = [int(x) for x in sol]
        load = [0] * (g.n + 1)
        for j in range(g.m):
            load[self.eu[j]] += self.s[j]
            load[self.ev[j]] += self.s[j]
        self.load = load
        self.violations = sum(1 for v in range(1, g.n + 1) if load[v] > self.w[v])
        covered = [load[v] >= self.w[v] for v in range(g.n + 1)]
        covered[0] = False
        self.covcnt = [int(covered[self.eu[j]]) + int(covered[self.ev[j]])
                       for j in range(g.m)]
        self.uncovered = sum(1 for c in self.covcnt if c == 0)
        self.total = sum(self.s)

    def _delta(self, j: int, d: int) -> bool:
        """Add ``d`` to edge j's weight; False when that would go below zero."""
        sj = self.s[j] + d
        if sj < 0:
            return False
        self.s[j] = sj
        self.total += d
        load, w, inc, covcnt = self.load, self.w, self.inc, self.covcnt
        for x in (self.eu[j], self.ev[j]):
            old = load[x]
            new = old + d
            load[x] = new
            wx = w[x]
            if d > 0:
                if old <= wx < new:
                    self.violations += 1
                if old < wx <= new:  # x becomes covered
                    for e in inc[x]:
                        c = covcnt[e]
                        covcnt[e] = c + 1
                        if c == 0:
                            self.uncovered -= 1
            else:
                if new <= wx < old:
                    self.violations -= 1
                if new < wx <= old:  # x stops being covered
                    for e in inc[x]:
                        c = covcnt[e] - 1
                        covcnt[e] = c
                        if c == 0:
                            self.uncovered += 1
        return True

    def add_edge(self, u: int, v: int) -> int:
        """Add edge {u, v} to the graph with weight 0; return its slot."""
        j = self.g.add_edge(u, v)
        load, w = self.load, self.w
        c = (load[u] >= w[u]) + (load[v] >= w[v])
        self.s.append(0)
        self.covcnt.append(c)
        self.m += 1
        if c == 0:
            self.uncovered += 1
        return j

    def remove_edge(self, index: int) -> None:
        """Remove the edge at ``index``, taking its weight off its endpoints first."""
        if not 0 <= index < self.m:
            raise GraphError(f"edge index {index} out of range 0..{self.m - 1}")
        if self.s[index]:
            self._delta(index, -self.s[index])
        if self.covcnt[index] == 0:
            self.uncovered -= 1
        self.g.remove_edge(index)
        _swap_pop(index, self.s, self.covcnt)
        self.m -= 1

    def fitness(self) -> tuple[int, int, int]:
        return (self.violations, self.uncovered, self.total)

    def _key(self) -> tuple[int, int, int]:
        return (-self.violations, -self.uncovered, self.total)

    def at_target(self) -> bool:
        return self.violations == 0 and self.uncovered == 0

    def trace_sample(self) -> tuple[int, int]:
        return (self.uncovered, self.total)

    def step(self, variant: str, rng: np.random.Generator) -> None:
        m = self.m
        if m == 0:
            return
        if variant == "rls":
            j = int(rng.integers(m))
            b = int(rng.integers(2))
            moves = [(j, 1 if b == 0 else -1)]
        else:
            pos = _flip_positions(rng, m, 1.0 / m)
            if not pos:
                return  # identical mutant is never strictly better
            dirs = rng.integers(0, 2, size=len(pos))
            moves = [(j, 1 if b == 0 else -1) for j, b in zip(pos, dirs)]
        cur = self._key()
        applied = [(j, d) for j, d in moves if self._delta(j, d)]
        if not applied:
            return
        if self._key() > cur:
            return
        for j, d in reversed(applied):
            self._delta(j, -d)

    def solution(self) -> np.ndarray:
        return np.array(self.s, dtype=np.int64)


def _make_engine(problem: str, g: Graph, sol: np.ndarray):
    return _ClassicEngine(g, sol) if problem == "classic" else _DualEngine(g, sol)
