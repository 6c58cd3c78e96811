"""Output checks that do not use the program's own oracles.

Every check reads a run record's ``final_graph_text`` and ``final_solution``
with the parser below and tests the certificate the search is meant to
reach: a maximal matching for the classic search, a feasible dual with a
tight endpoint on every edge for the weighted search. Each check returns
``None`` when the output is right and a short reason when it is not.
"""

from __future__ import annotations

import numpy as np

OPT_MAX_N = 24  # the weighted cover is also compared with an exact OPT up to here


def parse_graph(text: str) -> tuple[int, list[int], list[tuple[int, int]]]:
    """Vertex count, weights indexed 0..n (index 0 unused) and edges in file order."""
    n = None
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind, a, b = parts[0], int(parts[1]), int(parts[2])
        if kind == "graph":
            n = a
        elif kind == "vw":
            weights[a] = b
        elif kind == "e":
            key = (min(a, b), max(a, b))
            if a == b or key in seen or n is None or not 1 <= key[0] < key[1] <= n:
                raise ValueError(f"bad edge {a} {b}")
            seen.add(key)
            edges.append((a, b))
        else:
            raise ValueError(f"unknown record {kind!r}")
    if n is None:
        raise ValueError("missing graph header")
    return n, [0] + [weights.get(v, 1) for v in range(1, n + 1)], edges


def check_matching(n: int, edges: list[tuple[int, int]], sol) -> str | None:
    """``sol`` selects a matching whose endpoints touch every edge."""
    if len(sol) != len(edges):
        return f"solution has {len(sol)} entries for {len(edges)} edges"
    deg = [0] * (n + 1)
    for (u, v), bit in zip(edges, sol):
        if bit not in (0, 1):
            return f"entry {bit} is not a bit"
        if bit:
            deg[u] += 1
            deg[v] += 1
    if max(deg, default=0) > 1:
        return "two selected edges share an endpoint"
    if any(not deg[u] and not deg[v] for u, v in edges):
        return "an edge has no matched endpoint"
    return None


def _loads(n: int, edges: list[tuple[int, int]], sol) -> list[int]:
    load = [0] * (n + 1)
    for (u, v), x in zip(edges, sol):
        load[u] += x
        load[v] += x
    return load


def check_dual(n: int, w: list[int], edges: list[tuple[int, int]], sol) -> str | None:
    """``sol`` is a feasible dual, every edge has a tight endpoint, and the
    tight vertices weigh at most twice the dual's value."""
    if len(sol) != len(edges):
        return f"solution has {len(sol)} entries for {len(edges)} edges"
    if any(x < 0 for x in sol):
        return "negative dual value"
    load = _loads(n, edges, sol)
    if any(load[v] > w[v] for v in range(1, n + 1)):
        return "a vertex is overloaded"
    if any(load[u] < w[u] and load[v] < w[v] for u, v in edges):
        return "an edge has no tight endpoint"
    if tight_weight(n, w, edges, sol) > 2 * sum(sol):
        return "tight cover weighs more than twice the dual"
    return None


def tight_weight(n: int, w: list[int], edges: list[tuple[int, int]], sol) -> int:
    """Weight of the vertices whose load reaches their weight."""
    load = _loads(n, edges, sol)
    return sum(w[v] for v in range(1, n + 1) if load[v] >= w[v])


def min_cover_weight(n: int, w: list[int], edges: list[tuple[int, int]]) -> int:
    """Exact minimum weight vertex cover as a 0/1 integer program (HiGHS)."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    if not edges:
        return 0
    m = len(edges)
    rows = np.repeat(np.arange(m), 2)
    cols = np.asarray(edges).ravel() - 1
    a = csr_array((np.ones(2 * m), (rows, cols)), shape=(m, n))
    res = milp(c=np.asarray(w[1:], dtype=float),
               constraints=LinearConstraint(a, lb=1, ub=np.inf),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return int(round(res.fun))


def check_changes(rec, n: int, m_final: int, changes: str) -> str | None:
    """The record's change counts and spans fit its workload.

    ``changes`` is ``"one-deletion"`` (one deletion at step 0, so its span is
    the whole run) or ``"churn"`` (any number of single-edge changes).
    """
    if n != rec.n:
        return f"final graph has {n} vertices, record says {rec.n}"
    if len(rec.reopt_spans) != rec.n_changes or any(s < 0 for s in rec.reopt_spans):
        return f"{rec.n_changes} changes but spans {rec.reopt_spans[:4]}"
    if changes == "one-deletion":
        if rec.n_changes != 1 or rec.reopt_spans != [rec.steps_to_target]:
            return f"expected one change at step 0, got {rec.n_changes}"
        if m_final != rec.m - 1:
            return f"final graph has {m_final} edges, expected {rec.m - 1}"
    elif changes == "churn":
        drift = m_final - rec.m
        if rec.n_changes < 1 or abs(drift) > rec.n_changes or (drift - rec.n_changes) % 2:
            return f"{rec.n_changes} changes cannot move m from {rec.m} to {m_final}"
    else:
        raise ValueError(f"unknown change kind {changes!r}")
    return None


def check_record(rec, changes: str) -> tuple[str | None, tuple | None]:
    """Check one run record.

    Returns the reason it fails (or ``None``) and, for a weighted run small
    enough for the exact comparison, ``(graph_text, tight_weight)``.
    """
    if rec.error is not None:
        return f"run error: {rec.error}", None
    if not rec.target_reached or rec.steps_to_target > rec.budget:
        return "target not reached within budget", None
    n, w, edges = parse_graph(rec.final_graph_text)
    sol = rec.final_solution.tolist()
    if rec.problem == "classic":
        why = check_matching(n, edges, sol)
    else:
        why = check_dual(n, w, edges, sol)
    why = why or check_changes(rec, n, len(edges), changes)
    if why or rec.problem != "weighted" or n > OPT_MAX_N:
        return why, None
    return None, (rec.final_graph_text, tight_weight(n, w, edges, sol))


def check_against_opt(graph_text: str, weight: int) -> str | None:
    """The tight cover weighs at most twice the exact optimum."""
    n, w, edges = parse_graph(graph_text)
    opt = min_cover_weight(n, w, edges)
    if weight > 2 * opt:
        return f"tight cover weight {weight} > 2*OPT = {2 * opt}"
    return None
