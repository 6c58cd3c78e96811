"""Dynamic undirected graphs with positive integer vertex weights.

Vertices are fixed for the lifetime of an instance and numbered 1..n.
Edges are dynamic and live in dense slots 0..m-1: a new edge is appended
at slot m, and removing a slot swaps the last edge into the hole so the
slot range stays contiguous. Solution vectors indexed by slot can then be
compacted with the remap returned by :meth:`Graph.remove_edge`.

Every vertex keeps the sorted slots of its incident edges, repaired in
O(deg) on each mutation, so incidence queries never scan all m slots.

Two slot-order caches spare a run its O(m) conversions. Both are built on
first use and then kept current: an added edge appends its entry and a
removal swap-removes it, as it does the endpoint lists. The endpoint arrays
of :meth:`Graph.edge_arrays` are read-only row views into one (2, capacity)
buffer; a buffer that views were handed out of is never written again,
so the first mutation after a hand-out copies it once, and appends grow it
by doubling. The serialized ``e u v`` lines serve :meth:`Graph.to_text`.
:meth:`Graph.copy` fills both caches on its source and hands them to the
copy (the arrays shared, the lines copied), so the copies of one instance
build them once.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

# Σw(v) must leave room for the (m+1)·(Σw+1) penalty products that the
# scalar fitness forms build, so weight sums are capped well below 2**63.
_MAX_WEIGHT_SUM = 2**61


class GraphError(ValueError):
    """Invalid graph construction or mutation (the graph is left untouched)."""


class Graph:
    """Undirected simple graph with weighted vertices and a bounded edge universe.

    ``m_max`` caps how many edges may exist simultaneously; the universe of
    candidate edges is all unordered pairs of distinct vertices.
    """

    def __init__(self, n: int, m_max: int | None = None,
                 vertex_weight: dict[int, int] | None = None):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        total_pairs = n * (n - 1) // 2
        if m_max is None:
            m_max = total_pairs
        if m_max < 0:
            raise GraphError(f"m_max must be nonnegative, got {m_max}")
        self.n = n
        self.m_max = min(m_max, total_pairs) if n else 0
        self._w = np.ones(n + 1, dtype=np.int64)
        self._w[0] = 0
        total = n
        if vertex_weight:
            for v, w in vertex_weight.items():
                self._check_vertex(v)
                if w < 1:
                    raise GraphError(f"vertex weight must be >= 1, got w({v})={w}")
                if w > _MAX_WEIGHT_SUM:
                    raise GraphError("vertex weight too large for safe 64-bit sums")
                total += w - 1  # exact: python ints, no wraparound
                self._w[v] = w
        if total > _MAX_WEIGHT_SUM:
            raise GraphError("total vertex weight too large for safe 64-bit sums")
        self._us: list[int] = []
        self._vs: list[int] = []
        self._slot: dict[tuple[int, int], int] = {}
        self._inc: list[list[int]] = [[] for _ in range(n + 1)]
        # edges whose smaller endpoint is v: the taken pairs of row v in the
        # lexicographic pair order that free_pair walks
        self._upper: list[int] = [0] * (n + 1)
        # the (2, capacity >= m) endpoint buffer, built on first use, and the
        # read-only views of its first m slots while handed out
        self._buf: np.ndarray | None = None
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._lines: list[str] | None = None  # "e u v\n" per slot, once built

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        """Current number of edges."""
        return len(self._us)

    def vertex_weight(self, v: int) -> int:
        self._check_vertex(v)
        return int(self._w[v])

    @property
    def weights(self) -> np.ndarray:
        """Vertex weights as an int64 array indexed 1..n (index 0 unused)."""
        return self._w

    @property
    def w_max(self) -> int:
        return int(self._w[1:].max()) if self.n else 1

    @property
    def w_total(self) -> int:
        return int(self._w[1:].sum())

    def endpoints(self, index: int) -> tuple[int, int]:
        self._check_slot(index)
        return self._us[index], self._vs[index]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._slot

    def edge_index(self, u: int, v: int) -> int | None:
        return self._slot.get((min(u, v), max(u, v)))

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in slot order."""
        return list(zip(self._us, self._vs))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (eu, ev) in slot order; the same objects until the
        next mutation, shared with copies, read-only, and never written."""
        if self._arrays is None:
            if self._buf is None:
                self._buf = np.array((self._us, self._vs), dtype=np.intp)
            arrays = self._buf[:, :self.m]
            arrays.flags.writeable = False
            self._arrays = (arrays[0], arrays[1])
        return self._arrays

    def _writable_buffer(self, size: int) -> np.ndarray | None:
        """The endpoint buffer, safe to write slots below ``size`` in, or
        None if never built; a mutation calls it before changing the lists.
        A buffer that views were handed out of, or one too short, is first
        copied into one of twice ``size``. Either way the views are dropped."""
        buf = self._buf
        if buf is not None and (self._arrays is not None or buf.shape[1] < size):
            self._buf = np.empty((2, 2 * size), dtype=np.intp)
            self._buf[:, :self.m] = buf[:, :self.m]
            buf = self._buf
        self._arrays = None
        return buf

    def endpoint_lists(self) -> tuple[list[int], list[int]]:
        """Live endpoint lists (us, vs) in slot order, with us[i] < vs[i].

        The lists are updated in place by every mutation; callers must not
        modify them.
        """
        return self._us, self._vs

    def incident_edges(self, v: int) -> list[int]:
        """Slots of all edges containing v, ascending."""
        self._check_vertex(v)
        return list(self._inc[v])

    def incidence_lists(self) -> list[list[int]]:
        """Live incident edge slots for every vertex, ascending, indexed 1..n.

        The lists are updated in place by every mutation; callers must not
        modify them.
        """
        return self._inc

    def free_pair(self, k: int) -> tuple[int, int]:
        """The ``k``-th absent pair (u, v), u < v, in lexicographic order.

        Walks the per-row counts of absent pairs, then the sorted taken
        columns of the chosen row: O(n + deg) instead of listing all pairs.
        """
        n = self.n
        if not 0 <= k < n * (n - 1) // 2 - self.m:
            raise GraphError(f"no absent pair number {k}")
        u = 1
        while True:
            row = n - u - self._upper[u]
            if k < row:
                break
            k -= row
            u += 1
        us, vs = self._us, self._vs
        v = u + 1 + k
        for taken in sorted(vs[e] for e in self._inc[u] if us[e] == u):
            if taken > v:
                break
            v += 1
        return u, v

    # -- mutation ----------------------------------------------------------

    def add_edge(self, u: int, v: int) -> int:
        """Append edge {u, v} at the next slot and return that slot.

        Rejects self-loops, duplicate pairs, and additions beyond m_max
        without modifying the graph.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) not allowed")
        if u > v:
            u, v = v, u
        key = (u, v)
        if key in self._slot:
            raise GraphError(f"duplicate edge ({u},{v})")
        slot = len(self._us)
        if slot >= self.m_max:
            raise GraphError(f"edge universe full (m_max={self.m_max})")
        if self._buf is not None:
            buf = self._writable_buffer(slot + 1)
            buf[0, slot], buf[1, slot] = u, v
        self._us.append(u)
        self._vs.append(v)
        self._slot[key] = slot
        self._inc[u].append(slot)
        self._inc[v].append(slot)
        self._upper[u] += 1
        if self._lines is not None:
            self._lines.append(f"e {u} {v}\n")
        return slot

    def remove_edge(self, index: int) -> dict[int, int]:
        """Remove the edge at ``index`` by swapping the last slot into it.

        Returns the slot remap produced by the swap: ``{old_slot: new_slot}``
        for the one edge that moved (empty when the last slot was removed).
        All other slots are unchanged.
        """
        self._check_slot(index)
        last = self.m - 1
        buf = self._writable_buffer(last + 1)
        key = (self._us[index], self._vs[index])
        del self._slot[key]
        for x in key:
            inc = self._inc[x]
            del inc[bisect_left(inc, index)]
        self._upper[key[0]] -= 1
        remap: dict[int, int] = {}
        if index != last:
            moved = (self._us[last], self._vs[last])
            self._us[index], self._vs[index] = moved
            self._slot[moved] = index
            if buf is not None:
                buf[0, index], buf[1, index] = moved
            for x in moved:
                inc = self._inc[x]
                inc.pop()  # the last slot is the largest in every list
                insort(inc, index)
            remap[last] = index
        self._us.pop()
        self._vs.pop()
        if self._lines is not None:
            self._lines[index] = self._lines[-1]
            self._lines.pop()
        return remap

    # -- misc ---------------------------------------------------------------

    def copy(self) -> Graph:
        """An independent graph with the same slots, sharing this graph's
        edge arrays and a copy of its edge lines, both built here if absent."""
        g = Graph.__new__(Graph)
        g.n = self.n
        g.m_max = self.m_max
        g._w = self._w.copy()
        g._us = list(self._us)
        g._vs = list(self._vs)
        g._slot = dict(self._slot)
        g._inc = [list(inc) for inc in self._inc]
        g._upper = list(self._upper)
        g._arrays = self.edge_arrays()
        g._buf = self._buf
        g._lines = list(self._edge_lines())
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.m_max == other.m_max
                and np.array_equal(self._w, other._w)
                and self._us == other._us and self._vs == other._vs)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, m_max={self.m_max})"

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise GraphError(f"vertex id {v} out of range 1..{self.n}")

    def _check_slot(self, index: int) -> None:
        if not 0 <= index < self.m:
            raise GraphError(f"edge index {index} out of range 0..{self.m - 1}")

    # -- text format ---------------------------------------------------------

    def _edge_lines(self) -> list[str]:
        """The ``e u v`` line of every slot, in slot order, built on first use."""
        if self._lines is None:
            self._lines = [f"e {u} {v}\n" for u, v in zip(self._us, self._vs)]
        return self._lines

    def to_text(self) -> str:
        """Serialize to the line-oriented graph format (round-trips exactly)."""
        w = self._w.tolist()
        head = [f"graph {self.n} {self.m_max}\n"]
        head.extend(f"vw {v} {w[v]}\n" for v in range(1, self.n + 1) if w[v] != 1)
        return "".join(head + self._edge_lines())

    @classmethod
    def from_text(cls, text: str) -> Graph:
        """Parse the text format: ``graph n m_max``, ``vw v w``, ``e u v`` lines.

        ``#`` starts a comment; blank lines are ignored; vertices are 1-indexed;
        edge slots follow file order.
        """
        g: Graph | None = None
        weights: dict[int, int] = {}
        edges: list[tuple[int, int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "graph":
                    if g is not None:
                        raise GraphError("duplicate graph header")
                    if len(parts) != 3:
                        raise GraphError("expected: graph <n> <m_max>")
                    g = (int(parts[1]), int(parts[2]))  # defer construction
                elif parts[0] == "vw":
                    if len(parts) != 3:
                        raise GraphError("expected: vw <v> <w>")
                    v = int(parts[1])
                    if v in weights:
                        raise GraphError(f"duplicate vw for vertex {v}")
                    weights[v] = int(parts[2])
                elif parts[0] == "e":
                    if len(parts) != 3:
                        raise GraphError("expected: e <u> <v>")
                    edges.append((lineno, int(parts[1]), int(parts[2])))
                else:
                    raise GraphError(f"unknown record {parts[0]!r}")
            except ValueError as exc:
                raise GraphError(f"line {lineno}: {exc}") from None
        if g is None:
            raise GraphError("missing graph header")
        out = cls(g[0], g[1], weights or None)
        for lineno, u, v in edges:
            try:
                out.add_edge(u, v)
            except GraphError as exc:
                raise GraphError(f"line {lineno}: {exc}") from None
        return out
