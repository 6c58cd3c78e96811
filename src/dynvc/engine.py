"""Incremental run engines: the search state behind :func:`dynvc.harness.run_once`.

An engine owns its graph. It reads the graph's live endpoint and incidence
lists, and edge changes go through its ``add_edge``/``remove_edge``, which
update the graph and the engine state together in O(deg). The constructor
builds the state and its indexes in one vectorised numpy pass over the
graph's cached edge arrays, and hands every list to the step loop as Python
ints.

One model serves both searches, in slack terms. Slot j holds s[j] >= 0 (a
0/1 selection, or a dual weight), and a vertex's ``room`` is its capacity
minus its load, the sum of s over its slots; the capacity is 1 for the
classic search and the vertex weight for the dual (0 at vertex 0, which is
no vertex). A matching is a feasible dual at unit capacities, and a matched
vertex a tight one.

Region lemma. Each search keeps room >= 0 at every vertex (a matching, a
feasible dual). The zero vector and the greedy starts have it, and an
engine refuses any other start with ``ValueError``. The fitness puts the
adjacent selected pairs or the violations first, and they are 0 exactly
there, so an accepted mutant keeps it. An edge deletion first lowers its
slot to 0, which only adds room, and an addition appends a slot at 0.

In the region a vertex is covered iff its room is 0, and a slot is
accepting iff both its endpoints have room: its edge is uncovered, and its
+1 (selecting it) is the one single move accepted there. A -1 (a
deselection) alone uncovers its own slot or lowers the total without
covering anything. The index ``accepting`` holds those slots, so it also
counts the uncovered edges; it gives O(1) membership and uniform sampling,
and is repaired in O(1) per edge on the incidence walks that an accepted
move or an edge change pays. A step of k >= 2 moves is decided in O(k)
when it takes some room below 0, and when it turns no vertex covered or
uncovered: uncovered then stays and the total moves by the sum of the
steps. Otherwise ``try_moves`` applies it, removals (-1s) first, and
reverts it in the reverse order on rejection, in O(k deg); every state it
passes through lies in the region, since the removals only add room and
each addition moves toward the mutant, which the O(k) check found there.

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
semantics. The test helper ``conftest.engine_step`` replays their draws on
an engine (a single move is kept iff it is accepting, and k >= 2 moves go
to ``try_moves``), and the engines are differentially tested against them
through it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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
    """The region state of both searches: slot values ``s``, ``room`` per
    vertex, ``total`` and the index of accepting slots, with its moves, edge
    changes and RLS event law. A subclass sets the capacity, decodes a
    step's hits into (slot, +-1) steps and defines its EA event law.
    ``SIGN`` and ``STRICT`` set the acceptance rule: keep a step iff
    (uncovered, SIGN * total) falls, or stays and ``STRICT`` is off."""

    __slots__ = ("g", "m", "eu", "ev", "inc", "s", "room", "total", "accepting", "where")
    SIGN = 1
    STRICT = False

    def __init__(self, g: Graph, sol: np.ndarray, room: np.ndarray):
        self.g = g
        self.m = g.m
        self.eu, self.ev = g.endpoint_lists()
        self.inc = g.incidence_lists()
        eu, ev = g.edge_arrays()
        self.s = sol.tolist()
        self.room = room.tolist()
        self.total = int(sol.sum())
        self.accepting, self.where = _index((room[eu] > 0) & (room[ev] > 0))

    def rls_rate(self) -> float:
        """The chance that an RLS step draws an accepting move."""
        return len(self.accepting) / self.m if self.m else 0.0

    def rls_event(self, uniform, coin) -> None:
        """Make one accepting move, uniform over the index."""
        self.apply(self.accepting[int(uniform() * len(self.accepting))])

    def at_target(self) -> bool:
        return not self.accepting

    def trace_sample(self) -> tuple[int, int]:
        return (len(self.accepting), self.total)

    def _refresh(self, e: int) -> None:
        room = self.room
        flag = room[self.eu[e]] > 0 and room[self.ev[e]] > 0
        if flag != (self.where[e] >= 0):
            _mark(self.accepting, self.where, e, flag)

    def _delta(self, j: int, d: int) -> None:
        """Add ``d`` to slot j's value; callers keep it at zero or above and
        every room at zero or above."""
        self.s[j] += d
        self.total += d
        room, inc, refresh = self.room, self.inc, self._refresh
        for x in (self.eu[j], self.ev[j]):
            old = room[x]
            room[x] = old - d
            if (old == 0) != (old == d):  # x turns covered or uncovered
                for e in inc[x]:
                    refresh(e)
        refresh(j)

    def apply(self, j: int) -> None:
        """Make the accepting move of slot j: its +1."""
        self._delta(j, 1)

    def try_moves(self, steps: list[tuple[int, int]]) -> None:
        """Apply the (slot, +-1) steps, on distinct slots with the removals
        first, iff the acceptance rule keeps the result. It leaves the region
        iff some vertex loses more room than it has. Otherwise, when no vertex
        turns covered or uncovered, uncovered stays and total moves by the
        sum of the steps, decided in O(k); else the steps are applied in
        order and reverted in the reverse order on rejection."""
        room, eu, ev = self.room, self.eu, self.ev
        shift: dict[int, int] = {}
        for j, d in steps:
            for x in (eu[j], ev[j]):
                shift[x] = shift.get(x, 0) + d
        cover_changes = False
        for x, d in shift.items():
            old = room[x]
            if d > old:
                return  # out of the region: adjacent selected slots, or a violation
            cover_changes = cover_changes or (old == 0) != (old == d)
        if cover_changes:
            cur = (len(self.accepting), self.SIGN * self.total)
            for j, d in steps:
                self._delta(j, d)
            new = (len(self.accepting), self.SIGN * self.total)
            if new > cur or self.STRICT and new == cur:
                for j, d in reversed(steps):
                    self._delta(j, -d)
        else:
            fall = self.SIGN * sum(d for _, d in steps)
            if fall < 0 or not self.STRICT and fall == 0:
                for j, d in steps:
                    self._delta(j, d)

    def add_edge(self, u: int, v: int) -> int:
        """Add edge {u, v} to the graph at value 0; return its slot."""
        j = self.g.add_edge(u, v)
        self.s.append(0)
        self.where.append(-1)
        self.m += 1
        _Engine._refresh(self, j)  # a subclass's own index grows in its add_edge
        return j

    def remove_edge(self, index: int) -> None:
        """Remove the edge at ``index``, taking its value off its endpoints
        first; the last slot moves into ``index``, as in the graph."""
        if not 0 <= index < self.m:
            raise GraphError(f"edge index {index} out of range 0..{self.m - 1}")
        if self.s[index]:
            self._delta(index, -self.s[index])
        self.g.remove_edge(index)
        self.s[index] = self.s[-1]
        self.s.pop()
        _drop(self.accepting, self.where, index)
        self.m -= 1


class _ClassicEngine(_Engine):
    """A matching with O(touched) updates; semantics of fitness_classic.

    Every vertex has capacity 1, so a selected slot's endpoints have no room
    and selecting slot j alone is accepted iff both its endpoints are free.
    ``mate`` holds per vertex its selected slot, else -1.
    """

    __slots__ = ("mate",)

    def __init__(self, g: Graph, sol: np.ndarray):
        eu, ev = g.edge_arrays()
        chosen = sol.nonzero()[0]
        mate = np.full(g.n + 1, -1, dtype=np.int64)
        mate[eu[chosen]] = chosen
        mate[ev[chosen]] = chosen
        free = mate < 0
        if np.count_nonzero(~free) < 2 * len(chosen):
            raise ValueError("the classic engine must start at a matching, "
                             "but its start selects adjacent edges")
        free[0] = False  # vertex 0 is no vertex: capacity 0, as in g.weights
        super().__init__(g, sol, free.astype(np.int64))
        self.mate = mate.tolist()

    def _delta(self, j: int, d: int) -> None:
        """Select (d = 1) or deselect (d = -1) slot j."""
        mate = self.mate
        mate[self.eu[j]] = mate[self.ev[j]] = j if d > 0 else -1
        _Engine._delta(self, j, d)

    def flips(self, hits: list[int]) -> list[tuple[int, int]]:
        """The steps that flip the distinct slots ``hits``, deselections first."""
        s = self.s
        return [(j, -1) for j in hits if s[j]] + [(j, 1) for j in hits if not s[j]]

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
        return (a + (m - self.total - a) / m) / m

    def ea_event(self, uniform, coin) -> None:
        """One proposal, by the union sampler of Karp, Luby and Madras: pick t
        with chance P(E'_t) / Lambda, draw a step's hit set H given E'_t, and
        keep it with chance 1/c(H), c(H) the number of events E'_t' that H
        satisfies; a kept H comes with exactly its chance P(H) per step."""
        m, accepting, s, where = self.m, self.accepting, self.s, self.where
        a = len(accepting)
        r = m - self.total - a
        if uniform() * (a * m + r) < a * m:  # P(E'_t) = 1/m: t is accepting
            hits = [accepting[int(uniform() * a)]]
        else:  # P(E'_t) = 1/m^2: an unselected t with a selected neighbour mu(t)
            t = int(uniform() * m)
            while s[t] or where[t] >= 0:
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
                if not s[j] and (where[j] >= 0 or self._mu(j) in hits))
        if c == 1 or uniform() * c < 1:
            self.try_moves(self.flips(hits))

    def remove_edge(self, index: int) -> None:
        super().remove_edge(index)
        if index < self.m and self.s[index]:  # the last slot, now named index
            self.mate[self.eu[index]] = self.mate[self.ev[index]] = index

    def solution(self) -> np.ndarray:
        return np.frombuffer(bytes(self.s), np.uint8).copy()


class _DualEngine(_Engine):
    """A feasible dual with O(touched) updates; semantics of fitness_weighted.

    Every vertex has its weight as capacity, so a tight vertex has no room,
    and a +1 on slot j alone is accepted iff neither endpoint is tight. The
    index ``free`` (positions ``fwhere``) holds the slots F.
    """

    __slots__ = ("free", "fwhere", "law")
    SIGN = -1
    STRICT = True

    def __init__(self, g: Graph, sol: np.ndarray):
        room = g.weights - loads(sol, g)  # vertex 0 has weight 0, no edge
        over = int(np.count_nonzero(room < 0))
        if over:
            raise ValueError("the dual engine must start at a feasible dual, "
                             f"but its start overloads {over} vertices")
        super().__init__(g, sol, room)
        eu, ev = g.edge_arrays()
        self.free, self.fwhere = _index((sol > 0) | (room[eu] > 0) & (room[ev] > 0))
        self.law = (0.0, 0.0, 0, 0.0)  # set by ea_rate

    def signs(self, pos: list[int], coin) -> list[tuple[int, int]]:
        """The steps of the distinct slots ``pos``, each with a fair ``coin()``
        for a -1, -1s first; a -1 at value 0 is clamped away."""
        s = self.s
        downs, ups = [], []
        for j in pos:
            if not coin():
                ups.append((j, 1))
            elif s[j]:
                downs.append((j, -1))
        return downs + ups

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
        self.try_moves(self.signs(pos, coin))

    def _refresh(self, e: int) -> None:
        # the base refresh, inlined: calling it cost about 6 % of the time
        # of weighted-EA sweeps (in-process, shared 2-core Linux host)
        room = self.room
        up = room[self.eu[e]] > 0 and room[self.ev[e]] > 0
        if up != (self.where[e] >= 0):
            _mark(self.accepting, self.where, e, up)
        flag = up or self.s[e] > 0
        if flag != (self.fwhere[e] >= 0):
            _mark(self.free, self.fwhere, e, flag)

    def add_edge(self, u: int, v: int) -> int:
        j = super().add_edge(u, v)
        self.fwhere.append(-1)
        self._refresh(j)
        return j

    def remove_edge(self, index: int) -> None:
        super().remove_edge(index)
        _drop(self.free, self.fwhere, index)

    def solution(self) -> np.ndarray:
        return np.array(self.s, dtype=np.int64)


def _make_engine(problem: str, g: Graph, sol: np.ndarray):
    return _ClassicEngine(g, sol) if problem == "classic" else _DualEngine(g, sol)
