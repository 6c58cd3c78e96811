"""Brute-force ground truth for small instances.

Everything here trades speed for certainty: exact minimum weight vertex
covers by branch and bound with simple pruning, exhaustive dual maximization,
and the two gap measures that certify how far a dual solution is from
maximality (gap_g) and from the maximum (gap_gstar). Size caps keep every
call fast; they gate property tests, not experiments.
"""

from __future__ import annotations

import numpy as np

from .classic import fitness_classic
from .graph import Graph
from .weighted import fitness_weighted, loads

VC_MAX_N = 24        # exact_min_vc enumeration cap
DUAL_MAX_M = 12      # dual enumeration caps
DUAL_MAX_W = 8


class OracleError(ValueError):
    """Instance too large for an oracle, or an oracle precondition failed."""


def is_matching(sol: np.ndarray, g: Graph) -> bool:
    """No two selected edges share an endpoint."""
    return fitness_classic(sol, g).pairs == 0


def is_maximal_matching(sol: np.ndarray, g: Graph) -> bool:
    """A matching whose endpoints touch every edge (no edge can be added)."""
    return fitness_classic(sol, g)[:2] == (0, 0)  # no pairs, no uncovered edge


def _cover_bb(n: int, edges: list[tuple[int, int]], w: list[int]) -> tuple[int, int]:
    """Minimum cover (weight, vertex bit mask) by branch and bound.

    Branches on a max-uncovered-degree vertex: either it joins the cover or
    all its uncovered neighbours do. A greedy matching bound prunes.
    """
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = [sum(w[1:]) + 1, 0]

    def matching_lb(mask: int) -> int:
        used = 0
        total = 0
        for u, v in edges:
            bu, bv = 1 << u, 1 << v
            if mask & (bu | bv) or used & (bu | bv):
                continue
            used |= bu | bv
            total += min(w[u], w[v])
        return total

    def rec(mask: int, cur: int) -> None:
        if cur + matching_lb(mask) >= best[0]:
            return
        pick, pick_deg = 0, 0
        for v in range(1, n + 1):
            if mask & (1 << v):
                continue
            d = sum(1 for x in adj[v] if not mask & (1 << x))
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg == 0:  # every edge covered, and cur is the mask's weight
            best[:] = [cur, mask]
            return
        rec(mask | (1 << pick), cur + w[pick])
        nm, add = mask, 0
        for x in adj[pick]:
            if not nm & (1 << x):
                nm |= 1 << x
                add += w[x]
        rec(nm, cur + add)

    rec(0, 0)
    return best[0], best[1]


def exact_min_vc(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact minimum weight vertex cover (weight, cover) for n <= 24.

    The cover is one minimum-weight cover; which one among ties is not
    specified.
    """
    if g.n > VC_MAX_N:
        raise OracleError(f"exact_min_vc supports n <= {VC_MAX_N}, got n={g.n}")
    edges = g.edges()
    w = [0] + [g.vertex_weight(v) for v in range(1, g.n + 1)]
    if not edges:
        return 0, frozenset()
    weight, mask = _cover_bb(g.n, edges, w)
    return weight, frozenset(v for v in range(1, g.n + 1) if mask >> v & 1)


def is_2_approx(cover: set[int], g: Graph) -> bool:
    """Does ``cover`` cover every edge at no more than twice the optimal weight?"""
    for u, v in g.edges():
        if u not in cover and v not in cover:
            return False
    opt, _ = exact_min_vc(g)
    return sum(g.vertex_weight(v) for v in cover) <= 2 * opt


def dual_feasible(sol: np.ndarray, g: Graph) -> bool:
    """Every vertex load stays within its weight."""
    return fitness_weighted(sol, g).violations == 0


def dual_maximal(sol: np.ndarray, g: Graph) -> bool:
    """No single edge weight can grow: every edge has a zero-slack endpoint."""
    violations, uncovered, _ = fitness_weighted(sol, g)
    if violations:
        raise OracleError("dual_maximal requires a feasible solution")
    return uncovered == 0


def _check_dual_caps(g: Graph) -> None:
    if g.m > DUAL_MAX_M or g.w_max > DUAL_MAX_W:
        raise OracleError(
            f"dual enumeration supports m <= {DUAL_MAX_M} and weights <= "
            f"{DUAL_MAX_W}, got m={g.m}, w_max={g.w_max}")


def max_dual_value(g: Graph) -> int:
    """Maximum total edge weight over all feasible integer duals (exhaustive)."""
    _check_dual_caps(g)
    edges = g.edges()
    m = len(edges)
    slack = [int(x) for x in g.weights]
    # per-edge headroom of the untouched remainder, for an additive bound
    best = [0]

    def remaining_bound(i: int, sl: list[int]) -> int:
        return sum(min(sl[u], sl[v]) for u, v in edges[i:])

    def rec(i: int, total: int, sl: list[int]) -> None:
        if total + remaining_bound(i, sl) <= best[0]:
            return
        if i == m:
            best[0] = max(best[0], total)
            return
        u, v = edges[i]
        for x in range(min(sl[u], sl[v]), -1, -1):
            sl[u] -= x
            sl[v] -= x
            rec(i + 1, total + x, sl)
            sl[u] += x
            sl[v] += x

    rec(0, 0, slack)
    return best[0]


def gap_G(sol: np.ndarray, g: Graph,
          memo: dict[tuple[int, ...], int] | None = None) -> int:
    """Largest total weight addable to ``sol`` before hitting a maximal dual.

    Exhaustive DFS over single +1 increments with feasibility pruning,
    memoized on the residual slack vector; 0 exactly when ``sol`` is maximal.
    A ``memo`` dict may be shared between calls on the same graph.
    """
    _check_dual_caps(g)
    if not dual_feasible(sol, g):
        raise OracleError("gap_G requires a feasible solution")
    edges = g.edges()
    slack0 = g.weights - loads(sol, g)
    if memo is None:
        memo = {}

    def rec(sl: tuple[int, ...]) -> int:
        hit = memo.get(sl)
        if hit is not None:
            return hit
        best = 0
        grown = False
        for u, v in edges:
            if sl[u] > 0 and sl[v] > 0:
                grown = True
                nxt = list(sl)
                nxt[u] -= 1
                nxt[v] -= 1
                best = max(best, 1 + rec(tuple(nxt)))
        memo[sl] = best if grown else 0
        return memo[sl]

    return rec(tuple(int(x) for x in slack0))


def gap_Gstar(sol: np.ndarray, g: Graph) -> int:
    """Distance in total weight from ``sol`` to the maximum dual solution."""
    _check_dual_caps(g)
    if not dual_feasible(sol, g):
        raise OracleError("gap_Gstar requires a feasible solution")
    return max_dual_value(g) - int(sol.sum())
