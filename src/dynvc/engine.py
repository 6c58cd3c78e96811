"""Incremental run engines: the search state behind :func:`dynvc.harness.run_once`.

An engine owns its graph. It reads the graph's live endpoint and incidence
lists, and edge changes go through its ``add_edge``/``remove_edge``, which
update the graph and the engine state together in O(deg). The constructor
builds the state and its indexes in one vectorised numpy pass over the
graph's cached edge arrays, and hands every list to the step loop as Python
ints.

The index ``accepting`` holds the accepting single moves: the moves that one
step would make, and keep, if it drew that move alone. A classic move is an
edge slot j (flip bit j); a dual move is 2j for +1 and 2j + 1 for -1 on edge
j. The classic engine also keeps ``mate``: per vertex x, a selected slot at
x when x has one, else -1. The dual engine also indexes the slots F with
s[j] > 0 or whose +1 is accepting (no tight endpoint). All of these are
repaired on the incidence walks that an accepted move or an edge change
pays, in O(1) per touched edge, and an index gives O(1) membership and
uniform sampling. A one-move step is decided by one lookup, and a step of
k >= 2 moves in O(k) from the first fitness component (and, for a dual step
that changes no vertex's covered status, from the total); only a tie there
applies the moves and reverts them on rejection, in O(k deg).

The run loop jumps over the steps that cannot change the state. Each
engine names the events that hold every step that can (``ea_rate``,
``ea_event``; RLS draws one move of ``accepting``), by these lemmas.

Classic lemma, at a matching M (no selected pair shares a vertex). For an
unselected slot t let mu(t) be the selected slot at t's first endpoint that
has one, if any, and let E'_t be the event "t is hit, and so is mu(t) when
it exists". A step whose hit set H lies outside every E'_t leaves the state
as it is: if H holds only selected slots, each becomes uncovered; otherwise
some hit t keeps its selected neighbour mu(t), so the pairs rise from 0.
The classic EA starts at a matching and no accepted step raises the pairs,
so it stays at one.

Dual lemma: a step whose hits all miss F leaves the state as it is. Each -1
meets s[j] == 0 and is clamped away, and each +1 has a tight endpoint that
the +1s push over its weight while no load falls, so the mutant equals its
parent or has more violations. Every accepting single move lies in F.

The pure step functions in :mod:`dynvc.classic` and :mod:`dynvc.weighted`
and the array path of :func:`dynvc.dynamics.apply_change` define the
semantics; :meth:`step` replicates them draw-for-draw and is differentially
tested against them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .classic import _flip_positions
from .graph import Graph, GraphError
from .weighted import loads


def _swap_pop(index: int, *lists: list) -> None:
    """Drop entry ``index`` by moving the last entry into it, as Graph.remove_edge does."""
    for lst in lists:
        lst[index] = lst[-1]
        lst.pop()


def _mark(items: list[int], where: list[int], item: int, flag: bool) -> None:
    """Put ``item`` in the index ``items`` (positions ``where``) or take it
    out, swapping the last entry in."""
    p = where[item]
    if flag:
        if p < 0:
            where[item] = len(items)
            items.append(item)
    elif p >= 0:
        last = items.pop()
        if last != item:
            items[p] = last
            where[last] = p
        where[item] = -1


def _index(flags: np.ndarray) -> tuple[list[int], list[int]]:
    """The index of the entries whose flag is set, in ascending order, and
    its position list, from a bool array."""
    items = flags.nonzero()[0]
    where = np.full(len(flags), -1, dtype=np.int64)
    where[items] = np.arange(len(items))
    return items.tolist(), where.tolist()


@functools.lru_cache(maxsize=128)
def _hit_law(m: int) -> tuple[float, float]:
    """For the EA's hits k ~ Bin(m, 1/m), m >= 2: P(k = 1) and log(1 - 1/m),
    the log of the chance that a given slot is missed."""
    miss = math.log1p(-1.0 / m)
    return math.exp((m - 1) * miss), miss


def _hit_count(n: int, m: int, miss: float, u: float, least: int) -> int:
    """The hits among ``n`` slots, k ~ Bin(n, 1/m) given k >= ``least``
    (0 or 1), by the inverse transform of the uniform ``u``."""
    p0 = math.exp(n * miss)
    if least:
        u *= -math.expm1(n * miss)
        k, term = 1, p0 * n / (m - 1)
    else:
        k, term = 0, p0
    while u >= term and k < n:
        u -= term
        term *= (n - k) / ((k + 1) * (m - 1))
        k += 1
    return k


def _drop(items: list[int], where: list[int], per: int, index: int) -> None:
    """Unindex the ``per`` entries of slot ``index`` and rename the last
    slot's entries to it, as the swap-remove of the graph renames that edge."""
    for r in range(per):
        _mark(items, where, index * per + r, False)
    last = len(where) - per
    if index * per != last:
        for r in range(per):
            p = where[last + r]
            where[index * per + r] = p
            if p >= 0:
                items[p] = index * per + r
    del where[last:]


class _Engine:
    """The accepting-move index, the step that reads it and the RLS event
    law; the subclasses define the moves (``moves_at``, ``_refresh``,
    ``apply``, ``try_moves``) and the EA event law (``ea_rate``,
    ``ea_event``)."""

    __slots__ = ("g", "m", "eu", "ev", "inc", "accepting", "where")
    PER_EDGE = 1  # moves per edge slot

    def _drop_slot(self, index: int) -> None:
        _drop(self.accepting, self.where, self.PER_EDGE, index)

    def rls_rate(self) -> float:
        """The chance that an RLS step draws an accepting move."""
        return len(self.accepting) / len(self.where) if self.m else 0.0

    def rls_event(self, uniform, coin) -> None:
        """Make one accepting move, uniform over the index."""
        self.apply(self.accepting[int(uniform() * len(self.accepting))])

    def step(self, variant: str, rng: np.random.Generator) -> None:
        """One step of the pure ``step_*``, with its draws: a single move is
        kept iff it is indexed, and k >= 2 moves go to ``try_moves``."""
        m = self.m
        if m == 0:
            return

        def coin() -> int:
            return int(rng.integers(2))

        if variant == "rls":
            moves = self.moves_at([int(rng.integers(m))], coin)
        else:
            moves = self.moves_at(_flip_positions(rng, m, 1.0 / m), coin)
        if len(moves) > 1:
            self.try_moves(moves)
        elif moves and self.where[moves[0]] >= 0:
            self.apply(moves[0])


class _ClassicEngine(_Engine):
    """Selection state with O(touched) updates; semantics of fitness_classic.

    Flipping edge j = (u, v) alone, with d = deg[u] + deg[v], is accepted
    iff selecting it keeps the pairs (d == 0; edge j then covers itself) or
    deselecting it drops d - 2 > 0 pairs (at d == 2 it would uncover edge j).
    """

    __slots__ = ("bits", "deg", "mate", "covcnt", "pairs", "uncovered",
                 "cover_size", "selected")

    def __init__(self, g: Graph, sol: np.ndarray):
        self.g = g
        self.m = g.m
        self.eu, self.ev = g.endpoint_lists()
        self.inc = g.incidence_lists()
        eu, ev = g.edge_arrays()
        sel = sol != 0
        deg = (np.bincount(eu[sel], minlength=g.n + 1)
               + np.bincount(ev[sel], minlength=g.n + 1))
        touched = deg > 0
        covcnt = touched[eu].astype(np.int64) + touched[ev]
        ds = deg[eu] + deg[ev]
        chosen = sel.nonzero()[0]
        mate = np.full(g.n + 1, -1, dtype=np.int64)
        mate[eu[chosen]] = chosen
        mate[ev[chosen]] = chosen  # off a matching, any selected slot at x will do
        self.bits = sol.tolist()
        self.deg = deg.tolist()
        self.mate = mate.tolist()
        self.covcnt = covcnt.tolist()
        self.pairs = int((deg * (deg - 1) // 2).sum())
        self.uncovered = int(np.count_nonzero(covcnt == 0))
        self.cover_size = int(np.count_nonzero(touched))
        self.selected = int(sol.sum())
        self.accepting, self.where = _index(np.where(sel, ds > 2, ds == 0))

    def moves_at(self, slots: list[int], coin) -> list[int]:
        """The moves that hit ``slots``; a classic move draws no coin."""
        return slots

    def _refresh(self, e: int) -> None:
        d = self.deg[self.eu[e]] + self.deg[self.ev[e]]
        flag = d > 2 if self.bits[e] else d == 0
        if flag != (self.where[e] >= 0):
            _mark(self.accepting, self.where, e, flag)

    def _flip(self, j: int) -> None:
        # a move at edge e depends on deg at its endpoints only through
        # "deg == 0" (unselected e) and "deg <= 1" (selected e), so the index
        # changes only at endpoints whose degree crosses 0-1 or 1-2
        bits, deg, mate, inc, covcnt, refresh = (self.bits, self.deg, self.mate,
                                                 self.inc, self.covcnt, self._refresh)
        if bits[j]:
            bits[j] = 0
            self.selected -= 1
            for x in (self.eu[j], self.ev[j]):
                d = deg[x] - 1
                deg[x] = d
                self.pairs -= d
                if d == 0:
                    mate[x] = -1
                    self.cover_size -= 1
                    for e in inc[x]:
                        c = covcnt[e] - 1
                        covcnt[e] = c
                        if c == 0:
                            self.uncovered += 1
                        refresh(e)
                else:
                    if mate[x] == j:  # off a matching: another selected slot stands in
                        mate[x] = next(e for e in inc[x] if bits[e])
                    if d == 1:
                        for e in inc[x]:
                            refresh(e)
        else:
            bits[j] = 1
            self.selected += 1
            for x in (self.eu[j], self.ev[j]):
                d = deg[x]
                deg[x] = d + 1
                self.pairs += d
                if d == 0:
                    mate[x] = j
                    self.cover_size += 1
                    for e in inc[x]:
                        c = covcnt[e]
                        covcnt[e] = c + 1
                        if c == 0:
                            self.uncovered -= 1
                        refresh(e)
                elif d == 1:
                    for e in inc[x]:
                        refresh(e)
        refresh(j)

    apply = _flip

    def _mu(self, t: int) -> int:
        """The selected slot at the first endpoint of slot t that has one, or -1."""
        x = self.mate[self.eu[t]]
        return x if x >= 0 else self.mate[self.ev[t]]

    def ea_rate(self) -> float:
        """The chance that an EA step is a proposal: Lambda = a/m + r/m^2, the
        sum of P(E'_t) over the a accepting slots and the r other unselected
        ones. It holds at a matching, where the classic EA stays."""
        m = self.m
        if not m:
            return 0.0
        a = len(self.accepting)
        return (a + (m - self.selected - a) / m) / m

    def ea_event(self, uniform, coin) -> None:
        """One proposal, by the union sampler of Karp, Luby and Madras: pick t
        with chance P(E'_t) / Lambda, draw a step's hit set H given E'_t, and
        keep it with chance 1/c(H), c(H) the number of events E'_t' that H
        satisfies; a kept H comes with exactly its chance P(H) per step."""
        m, accepting, bits, where = self.m, self.accepting, self.bits, self.where
        a = len(accepting)
        r = m - self.selected - a
        if uniform() * (a * m + r) < a * m:  # P(E'_t) = 1/m: t is accepting
            hits = [accepting[int(uniform() * a)]]
        else:  # P(E'_t) = 1/m^2: an unselected t with a selected neighbour mu(t)
            t = int(uniform() * m)
            while bits[t] or where[t] >= 0:
                t = int(uniform() * m)
            hits = [t, self._mu(t)]
        rest = m - len(hits)
        if rest:  # every other slot is hit with chance 1/m: distinct uniform slots
            want = len(hits) + _hit_count(rest, m, _hit_law(m)[1], uniform(), 0)
            while len(hits) < want:
                j = int(uniform() * m)
                if j not in hits:
                    hits.append(j)
        if len(hits) == 1:
            self.apply(hits[0])
            return
        c = sum(1 for j in hits
                if not bits[j] and (where[j] >= 0 or self._mu(j) in hits))
        if c == 1 or uniform() * c < 1:
            self.try_moves(hits)

    def try_moves(self, moves: list[int]) -> None:
        """Flip the distinct slots ``moves`` iff the fitness does not worsen."""
        deg, eu, ev, bits = self.deg, self.eu, self.ev, self.bits
        shift: dict[int, int] = {}
        for j in moves:
            s = -1 if bits[j] else 1
            for x in (eu[j], ev[j]):
                shift[x] = shift.get(x, 0) + s
        # twice the rise in pairs: pairs is the sum of C(deg, 2) over vertices
        rise = 0
        for x, s in shift.items():
            d = deg[x]
            rise += (d + s) * (d + s - 1) - d * (d - 1)
        if rise > 0:
            return
        if rise == 0:  # a tie on pairs: compare uncovered and cover size
            cur = (self.uncovered, self.cover_size)
            for j in moves:
                self._flip(j)
            if (self.uncovered, self.cover_size) > cur:
                for j in moves:
                    self._flip(j)
            return
        for j in moves:
            self._flip(j)

    def add_edge(self, u: int, v: int) -> int:
        """Add edge {u, v} to the graph, unselected; return its slot."""
        j = self.g.add_edge(u, v)
        c = (self.deg[u] > 0) + (self.deg[v] > 0)
        self.bits.append(0)
        self.covcnt.append(c)
        self.where.append(-1)
        self.m += 1
        if c == 0:
            self.uncovered += 1
        self._refresh(j)
        return j

    def remove_edge(self, index: int) -> None:
        """Remove the edge at ``index``, deselecting it first."""
        if not 0 <= index < self.m:
            raise GraphError(f"edge index {index} out of range 0..{self.m - 1}")
        if self.bits[index]:
            self._flip(index)
        if self.covcnt[index] == 0:
            self.uncovered -= 1
        last = self.m - 1
        self.g.remove_edge(index)
        if self.bits[last]:  # the last slot, now named index, stays its ends' mate
            for x in (self.eu[index], self.ev[index]):
                if self.mate[x] == last:
                    self.mate[x] = index
        _swap_pop(index, self.bits, self.covcnt)
        self._drop_slot(index)
        self.m -= 1

    def fitness(self) -> tuple[int, int, int]:
        return (self.pairs, self.uncovered, self.cover_size)

    def at_target(self) -> bool:
        return self.pairs == 0 and self.uncovered == 0

    def trace_sample(self) -> tuple[int, int]:
        return (self.uncovered, self.selected)

    def solution(self) -> np.ndarray:
        return np.frombuffer(bytes(self.bits), np.uint8).copy()


def _band(excess: int) -> int:
    """Where a load stands against its weight, as far as any move can tell:
    below (-1), tight (0), one over (1) or more (2)."""
    return -1 if excess < 0 else min(excess, 2)


class _DualEngine(_Engine):
    """Dual-weight state with O(touched) updates; semantics of fitness_weighted.

    A +1 on edge j = (u, v) alone is accepted iff neither endpoint is tight
    (load == weight), since otherwise it makes a violation; a -1 is accepted
    iff s[j] > 0 and an endpoint has load == weight + 1, since it then ends a
    violation and otherwise lowers the total without lowering uncovered.
    """

    __slots__ = ("w", "s", "load", "covcnt", "violations", "uncovered", "total",
                 "free", "fwhere", "law")
    PER_EDGE = 2

    def __init__(self, g: Graph, sol: np.ndarray):
        self.g = g
        self.m = g.m
        self.eu, self.ev = g.endpoint_lists()
        self.inc = g.incidence_lists()
        eu, ev = g.edge_arrays()
        load = loads(sol, g)
        ex = load - g.weights  # vertex 0 has weight 0, no edge
        exu, exv = ex[eu], ex[ev]
        covcnt = (exu >= 0).astype(np.int64) + (exv >= 0)
        up = (exu != 0) & (exv != 0)
        positive = sol > 0
        down = positive & ((exu == 1) | (exv == 1))
        self.w = g.weights.tolist()
        self.s = sol.tolist()
        self.load = load.tolist()
        self.covcnt = covcnt.tolist()
        self.violations = int(np.count_nonzero(ex > 0))
        self.uncovered = int(np.count_nonzero(covcnt == 0))
        self.total = int(sol.sum())
        moves = np.empty(2 * self.m, dtype=bool)  # +1 of slot j at 2j, -1 at 2j + 1
        moves[0::2], moves[1::2] = up, down
        self.accepting, self.where = _index(moves)
        self.free, self.fwhere = _index(positive | up)
        self.law = (0.0, 0.0, 0, 0.0)  # set by ea_rate

    def moves_at(self, slots: list[int], coin) -> list[int]:
        """The moves that hit ``slots``, each with a fair ``coin()``: 0 means +1."""
        return [2 * j + coin() for j in slots]

    def _drop_slot(self, index: int) -> None:
        super()._drop_slot(index)
        _drop(self.free, self.fwhere, 1, index)

    def ea_rate(self) -> float:
        """The chance q that an EA step may change the state: q = P(k = 1) a/M
        + P(k >= 2, k_F >= 1) = P(k = 1) a/M + 1 - (1 - 1/m)^f
        - (f/m)(1 - 1/m)^(m-1) for |F| = f, with k ~ Bin(m, 1/m) hits. Kept
        in ``law`` for the next ``ea_event`` with its part p2 from k >= 2,
        f and log(1 - 1/m)."""
        m = self.m
        if m <= 1:  # a step on one slot hits it alone
            q, p2, f, miss = self.rls_rate(), 0.0, 0, 0.0
        else:
            p1, miss = _hit_law(m)
            f = len(self.free)
            p2 = -math.expm1(f * miss) - f / m * p1
            q = p2 + p1 * len(self.accepting) / len(self.where)
        self.law = (q, p2, f, miss)
        return q

    def ea_event(self, uniform, coin) -> None:
        """One event at the law of the last ``ea_rate``: k_F ~ Bin(f, 1/m)
        given k_F >= 1 and k_R ~ Bin(m - f, 1/m), again until k_F + k_R >= 2,
        on distinct uniform slots of F and of the rest, with chance p2/q;
        else one accepting move."""
        q, p2, f, miss = self.law
        if not (p2 and uniform() * q < p2):
            accepting = self.accepting
            self.apply(accepting[int(uniform() * len(accepting))])
            return
        m, free, fwhere = self.m, self.free, self.fwhere
        kf = kr = 0
        while kf + kr < 2:
            kf = _hit_count(f, m, miss, uniform(), 1)
            kr = _hit_count(m - f, m, miss, uniform(), 0)
        pos: list[int] = []
        while len(pos) < kf:
            j = free[int(uniform() * f)]
            if j not in pos:
                pos.append(j)
        while len(pos) < kf + kr:
            j = int(uniform() * m)
            if fwhere[j] < 0 and j not in pos:
                pos.append(j)
        self.try_moves(self.moves_at(pos, coin))

    def _refresh(self, e: int) -> None:
        load, w = self.load, self.w
        u, v = self.eu[e], self.ev[e]
        bu, bv = load[u] - w[u], load[v] - w[v]
        accepting, where, positive = self.accepting, self.where, self.s[e] > 0
        up = bu != 0 and bv != 0
        if up != (where[2 * e] >= 0):
            _mark(accepting, where, 2 * e, up)
        flag = positive and (bu == 1 or bv == 1)
        if flag != (where[2 * e + 1] >= 0):
            _mark(accepting, where, 2 * e + 1, flag)
        flag = positive or up
        if flag != (self.fwhere[e] >= 0):
            _mark(self.free, self.fwhere, e, flag)

    def _delta(self, j: int, d: int) -> None:
        """Add ``d`` to edge j's weight; callers keep it at zero or above."""
        self.s[j] += d
        self.total += d
        load, w, inc, covcnt, refresh = self.load, self.w, self.inc, self.covcnt, self._refresh
        for x in (self.eu[j], self.ev[j]):
            old = load[x]
            load[x] = old + d
            before, after = _band(old - w[x]), _band(old + d - w[x])
            if before == after:
                continue  # no move at x, violation or cover changes
            self.violations += (after > 0) - (before > 0)
            cov = (after >= 0) - (before >= 0)  # +1: x becomes covered
            for e in inc[x]:
                if cov:
                    c = covcnt[e]
                    covcnt[e] = c + cov
                    if c == 0:
                        self.uncovered -= 1
                    elif c + cov == 0:
                        self.uncovered += 1
                refresh(e)
        refresh(j)

    def apply(self, move: int) -> None:
        self._delta(move >> 1, -1 if move & 1 else 1)

    def _key(self) -> tuple[int, int, int]:
        return (-self.violations, -self.uncovered, self.total)

    def try_moves(self, moves: list[int]) -> None:
        """Apply the moves of distinct edges iff the fitness strictly improves;
        a -1 at weight 0 is clamped away."""
        s, eu, ev, load, w = self.s, self.eu, self.ev, self.load, self.w
        steps = []
        shift: dict[int, int] = {}
        for move in moves:
            j, d = move >> 1, -1 if move & 1 else 1
            if d < 0 and not s[j]:
                continue
            steps.append((j, d))
            for x in (eu[j], ev[j]):
                shift[x] = shift.get(x, 0) + d
        if not steps:
            return  # the mutant equals the parent, which is never strictly better
        gain = 0  # fall in violations
        cover_changes = False  # does some vertex change covered status?
        for x, d in shift.items():
            old = load[x] - w[x]
            gain += (old > 0) - (old + d > 0)
            cover_changes = cover_changes or (old >= 0) != (old + d >= 0)
        if gain < 0:
            return
        if gain == 0:
            if cover_changes:  # a tie on violations: compare uncovered, then total
                cur = self._key()
                for j, d in steps:
                    self._delta(j, d)
                if self._key() <= cur:
                    for j, d in steps:
                        self._delta(j, -d)
                return
            if sum(d for _, d in steps) <= 0:
                return
        for j, d in steps:
            self._delta(j, d)

    def add_edge(self, u: int, v: int) -> int:
        """Add edge {u, v} to the graph with weight 0; return its slot."""
        j = self.g.add_edge(u, v)
        load, w = self.load, self.w
        c = (load[u] >= w[u]) + (load[v] >= w[v])
        self.s.append(0)
        self.covcnt.append(c)
        self.where += (-1, -1)
        self.fwhere.append(-1)
        self.m += 1
        if c == 0:
            self.uncovered += 1
        self._refresh(j)
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
        self._drop_slot(index)
        self.m -= 1

    def fitness(self) -> tuple[int, int, int]:
        return (self.violations, self.uncovered, self.total)

    def at_target(self) -> bool:
        return self.violations == 0 and self.uncovered == 0

    def trace_sample(self) -> tuple[int, int]:
        return (self.uncovered, self.total)

    def solution(self) -> np.ndarray:
        return np.array(self.s, dtype=np.int64)


def _make_engine(problem: str, g: Graph, sol: np.ndarray):
    return _ClassicEngine(g, sol) if problem == "classic" else _DualEngine(g, sol)
