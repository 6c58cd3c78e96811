"""Incremental run engines: the search state behind :func:`dynvc.harness.run_once`.

An engine owns its graph. It reads the graph's live endpoint and incidence
lists, and edge changes go through its ``add_edge``/``remove_edge``, which
update the graph and the engine state together in O(deg). The constructor
builds the state and its indexes in one vectorised numpy pass over the
graph's cached edge arrays, and hands every list to the step loop as Python
ints.

Region lemma. The classic search stays at a matching (no two selected
slots share a vertex) and the dual search at a feasible dual (no load above
its vertex's weight). Starts: the zero vector lies in both regions, the
greedy starts are a maximal matching and a feasible dual, and an engine
refuses any other start with ``ValueError``. Steps: the fitness puts the
adjacent selected pairs (classic) or the violations (dual) first, and they
are 0 in the region, so an accepted mutant has none and lies in the region.
Edge changes: a deletion first deselects its slot or lowers its weight to
0, which leaves a sub-matching or lower loads, and an addition appends a
slot at 0, which selects nothing and loads nothing. So each engine models
the region only.

In the region a vertex is covered iff it is matched (``mate``, per vertex
the selected slot there, else -1) or tight (load == weight). An edge is
then uncovered iff neither endpoint is, and that is exactly when its single
accepting move exists: selecting it, or its +1. No other single move is
accepted: a deselection uncovers its own slot, and a -1 lowers the total
without covering anything. The index ``accepting`` holds those slots, so
it also counts the uncovered edges; an index gives O(1) membership and
uniform sampling, and it is repaired on the incidence walks that an
accepted move or an edge change pays, in O(1) per touched edge. A one-move
step is decided by one lookup. A step of k >= 2 moves is decided in O(k)
when it leaves the region, and when it keeps every cover status (dual);
otherwise ``try_moves`` applies it and reverts it on rejection, in
O(k deg). It applies the removals (deselections, -1s) before the additions
and reverts in the reverse order, so every state it passes through lies in
the region: the removals leave a sub-matching or lower loads, and each
addition moves toward the mutant, which the O(k) check found in the region.

The run loop jumps over the steps that cannot change the state. Each
engine names the events that hold every step that can (``ea_rate``,
``ea_event``; RLS draws one move of ``accepting``), by these lemmas.

Classic lemma, at a matching. For an unselected slot t let mu(t) be the
selected slot at t's first endpoint that has one, if any, and let E'_t be
the event "t is hit, and so is mu(t) when it exists". A step whose hit set
H lies outside every E'_t leaves the state as it is: if H holds only
selected slots, each becomes uncovered; otherwise some hit t keeps its
selected neighbour mu(t), so the pairs rise from 0.

Dual lemma, at a feasible dual, for the slots F with s[j] > 0 or whose +1
is accepting: a step whose hits all miss F leaves the state as it is. Each
-1 meets s[j] == 0 and is clamped away, and each +1 has a tight endpoint
that the +1s push over its weight while no load falls, so the mutant equals
its parent or has more violations. Every accepting single move lies in F.

The pure step functions in :mod:`dynvc.classic` and :mod:`dynvc.weighted`
and the array path of :func:`dynvc.dynamics.apply_change` define the
semantics; :meth:`step` replicates them draw-for-draw on the region and is
differentially tested against them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .classic import _flip_positions
from .graph import Graph, GraphError
from .weighted import loads


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


def _drop(items: list[int], where: list[int], index: int) -> None:
    """Unindex slot ``index`` and rename the last slot to it, as the
    swap-remove of the graph renames that edge."""
    _mark(items, where, index, False)
    p = where.pop()
    if index < len(where):
        where[index] = p
        if p >= 0:
            items[p] = index


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


class _Engine:
    """The index of accepting slots, the step that reads it and the RLS
    event law; the subclasses define the moves (``moves_at``, ``_refresh``,
    ``apply`` for the accepting move of a slot, ``try_move`` for one drawn
    move, ``try_moves``) and the EA event law (``ea_rate``, ``ea_event``)."""

    __slots__ = ("g", "m", "eu", "ev", "inc", "accepting", "where")

    def rls_rate(self) -> float:
        """The chance that an RLS step draws an accepting move."""
        return len(self.accepting) / self.m if self.m else 0.0

    def rls_event(self, uniform, coin) -> None:
        """Make one accepting move, uniform over the index."""
        self.apply(self.accepting[int(uniform() * len(self.accepting))])

    def step(self, variant: str, rng: np.random.Generator) -> None:
        """One step of the pure ``step_*``, with its draws: a single move is
        kept iff it is accepting, and k >= 2 moves go to ``try_moves``."""
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
        elif moves:
            self.try_move(moves[0])

    def at_target(self) -> bool:
        return not self.accepting


class _ClassicEngine(_Engine):
    """A matching with O(touched) updates; semantics of fitness_classic.

    Selecting slot j alone is accepted iff both its endpoints are free.
    """

    __slots__ = ("bits", "mate", "selected")

    def __init__(self, g: Graph, sol: np.ndarray):
        self.g = g
        self.m = g.m
        self.eu, self.ev = g.endpoint_lists()
        self.inc = g.incidence_lists()
        eu, ev = g.edge_arrays()
        chosen = sol.nonzero()[0]
        mate = np.full(g.n + 1, -1, dtype=np.int64)
        mate[eu[chosen]] = chosen
        mate[ev[chosen]] = chosen
        free = mate < 0
        if np.count_nonzero(~free) < 2 * len(chosen):
            raise ValueError("the classic engine must start at a matching, "
                             "but its start selects adjacent edges")
        self.bits = sol.tolist()
        self.mate = mate.tolist()
        self.selected = len(chosen)
        self.accepting, self.where = _index(free[eu] & free[ev])

    def moves_at(self, slots: list[int], coin) -> list[int]:
        """The moves that hit ``slots``; a classic move draws no coin."""
        return slots

    def _refresh(self, e: int) -> None:
        flag = self.mate[self.eu[e]] < 0 and self.mate[self.ev[e]] < 0
        if flag != (self.where[e] >= 0):
            _mark(self.accepting, self.where, e, flag)

    def _flip(self, j: int) -> None:
        """Select or deselect slot j; the caller keeps the state a matching."""
        bits, mate, inc, refresh = self.bits, self.mate, self.inc, self._refresh
        if bits[j]:
            bits[j], sel = 0, -1
            self.selected -= 1
        else:
            bits[j], sel = 1, j
            self.selected += 1
        for x in (self.eu[j], self.ev[j]):
            mate[x] = sel
            for e in inc[x]:
                refresh(e)

    apply = _flip

    def try_move(self, j: int) -> None:
        if self.where[j] >= 0:
            self._flip(j)

    def _mu(self, t: int) -> int:
        """The selected slot at the first endpoint of slot t that has one, or -1."""
        x = self.mate[self.eu[t]]
        return x if x >= 0 else self.mate[self.ev[t]]

    def ea_rate(self) -> float:
        """The chance that an EA step is a proposal: Lambda = a/m + r/m^2, the
        sum of P(E'_t) over the a accepting slots and the r other unselected
        ones."""
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
        """Flip the distinct slots ``moves`` iff the fitness does not worsen:
        iff no vertex ends with two selected slots, and then the flips do not
        raise (uncovered, cover size)."""
        bits, mate, eu, ev = self.bits, self.mate, self.eu, self.ev
        ends: dict[int, int] = {}  # selected slots at each touched vertex after
        for j in moves:
            s = -1 if bits[j] else 1
            for x in (eu[j], ev[j]):
                ends[x] = ends.get(x, mate[x] >= 0) + s
        if max(ends.values()) > 1:
            return
        order = [j for j in moves if bits[j]] + [j for j in moves if not bits[j]]
        cur = (len(self.accepting), self.selected)  # uncovered, half the cover size
        for j in order:
            self._flip(j)
        if (len(self.accepting), self.selected) > cur:
            for j in reversed(order):
                self._flip(j)

    def add_edge(self, u: int, v: int) -> int:
        """Add edge {u, v} to the graph, unselected; return its slot."""
        j = self.g.add_edge(u, v)
        self.bits.append(0)
        self.where.append(-1)
        self.m += 1
        self._refresh(j)
        return j

    def remove_edge(self, index: int) -> None:
        """Remove the edge at ``index``, deselecting it first."""
        if not 0 <= index < self.m:
            raise GraphError(f"edge index {index} out of range 0..{self.m - 1}")
        if self.bits[index]:
            self._flip(index)
        last = self.m - 1
        self.g.remove_edge(index)
        if self.bits[last]:  # the last slot, now named index, is its ends' mate
            self.mate[self.eu[index]] = self.mate[self.ev[index]] = index
        self.bits[index] = self.bits[last]
        self.bits.pop()
        _drop(self.accepting, self.where, index)
        self.m -= 1

    def fitness(self) -> tuple[int, int, int]:
        return (0, len(self.accepting), 2 * self.selected)

    def trace_sample(self) -> tuple[int, int]:
        return (len(self.accepting), self.selected)

    def solution(self) -> np.ndarray:
        return np.frombuffer(bytes(self.bits), np.uint8).copy()


class _DualEngine(_Engine):
    """A feasible dual with O(touched) updates; semantics of fitness_weighted.

    A +1 on edge j alone is accepted iff neither endpoint is tight; moves
    are 2j for the +1 and 2j + 1 for the -1 on edge j, and the index holds
    the slots whose +1 is accepting.
    """

    __slots__ = ("w", "s", "load", "total", "free", "fwhere", "law")

    def __init__(self, g: Graph, sol: np.ndarray):
        self.g = g
        self.m = g.m
        self.eu, self.ev = g.endpoint_lists()
        self.inc = g.incidence_lists()
        eu, ev = g.edge_arrays()
        load = loads(sol, g)
        slack = g.weights - load  # vertex 0 has weight 0, no edge
        over = int(np.count_nonzero(slack < 0))
        if over:
            raise ValueError("the dual engine must start at a feasible dual, "
                             f"but its start overloads {over} vertices")
        up = (slack[eu] > 0) & (slack[ev] > 0)
        self.w = g.weights.tolist()
        self.s = sol.tolist()
        self.load = load.tolist()
        self.total = int(sol.sum())
        self.accepting, self.where = _index(up)
        self.free, self.fwhere = _index((sol > 0) | up)
        self.law = (0.0, 0.0, 0, 0.0)  # set by ea_rate

    def moves_at(self, slots: list[int], coin) -> list[int]:
        """The moves that hit ``slots``, each with a fair ``coin()``: 0 means +1."""
        return [2 * j + coin() for j in slots]

    def rls_rate(self) -> float:
        """The chance a/(2m) that an RLS step draws the +1 of an accepting slot."""
        return len(self.accepting) / (2 * self.m) if self.m else 0.0

    def ea_rate(self) -> float:
        """The chance q that an EA step may change the state: q = P(k = 1) a/2m
        + P(k >= 2, k_F >= 1) = P(k = 1) a/2m + 1 - (1 - 1/m)^f
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
            q = p2 + p1 * len(self.accepting) / (2 * m)
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
        up = load[u] < w[u] and load[v] < w[v]
        if up != (self.where[e] >= 0):
            _mark(self.accepting, self.where, e, up)
        flag = up or self.s[e] > 0
        if flag != (self.fwhere[e] >= 0):
            _mark(self.free, self.fwhere, e, flag)

    def _delta(self, j: int, d: int) -> None:
        """Add ``d`` to edge j's weight; callers keep it at zero or above and
        every load at most its weight."""
        self.s[j] += d
        self.total += d
        load, w, inc, refresh = self.load, self.w, self.inc, self._refresh
        for x in (self.eu[j], self.ev[j]):
            old = load[x]
            load[x] = old + d
            if (old == w[x]) != (old + d == w[x]):  # x turns tight or slack
                for e in inc[x]:
                    refresh(e)
        refresh(j)

    def apply(self, j: int) -> None:
        self._delta(j, 1)

    def try_move(self, move: int) -> None:
        if not move & 1 and self.where[move >> 1] >= 0:
            self.apply(move >> 1)

    def try_moves(self, moves: list[int]) -> None:
        """Apply the moves of distinct edges iff the fitness strictly improves;
        a -1 at weight 0 is clamped away. That holds iff no load passes its
        weight and then (-uncovered, total) rises."""
        s, eu, ev, load, w = self.s, self.eu, self.ev, self.load, self.w
        steps = ([(mv >> 1, -1) for mv in moves if mv & 1 and s[mv >> 1]]
                 + [(mv >> 1, 1) for mv in moves if not mv & 1])  # -1s first
        if not steps:
            return  # the mutant equals the parent, which is never strictly better
        shift: dict[int, int] = {}
        for j, d in steps:
            for x in (eu[j], ev[j]):
                shift[x] = shift.get(x, 0) + d
        cover_changes = False  # does some vertex turn tight or slack?
        for x, d in shift.items():
            old = load[x] - w[x]
            if old + d > 0:
                return  # a violation
            cover_changes = cover_changes or (old == 0) != (old + d == 0)
        if cover_changes:  # compare uncovered, then total
            cur = (len(self.accepting), -self.total)
            for j, d in steps:
                self._delta(j, d)
            if (len(self.accepting), -self.total) >= cur:
                for j, d in reversed(steps):
                    self._delta(j, -d)
        elif sum(d for _, d in steps) > 0:
            for j, d in steps:
                self._delta(j, d)

    def add_edge(self, u: int, v: int) -> int:
        """Add edge {u, v} to the graph with weight 0; return its slot."""
        j = self.g.add_edge(u, v)
        self.s.append(0)
        self.where.append(-1)
        self.fwhere.append(-1)
        self.m += 1
        self._refresh(j)
        return j

    def remove_edge(self, index: int) -> None:
        """Remove the edge at ``index``, taking its weight off its endpoints first."""
        if not 0 <= index < self.m:
            raise GraphError(f"edge index {index} out of range 0..{self.m - 1}")
        if self.s[index]:
            self._delta(index, -self.s[index])
        self.g.remove_edge(index)
        self.s[index] = self.s[-1]
        self.s.pop()
        _drop(self.accepting, self.where, index)
        _drop(self.free, self.fwhere, index)
        self.m -= 1

    def fitness(self) -> tuple[int, int, int]:
        return (0, len(self.accepting), self.total)

    def trace_sample(self) -> tuple[int, int]:
        return (len(self.accepting), self.total)

    def solution(self) -> np.ndarray:
        return np.array(self.s, dtype=np.int64)


def _make_engine(problem: str, g: Graph, sol: np.ndarray):
    return _ClassicEngine(g, sol) if problem == "classic" else _DualEngine(g, sol)
