"""Dynamic edge changes and the two scheduling models.

A change is a single edge addition or deletion. Changes arrive either once
at a fixed step (one-time setting) or per step with probability ``p_d``
(probabilistic setting). A change fires at the step boundary, before that
step's mutation, and does not consume a fitness evaluation.

Added edges enter the current solution with bit/weight 0; deleted edges
drop out of the solution, which is compacted with the graph's swap-remove
remap so slot i keeps meaning edge i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError


@dataclass(frozen=True)
class AddEdge:
    u: int
    v: int


@dataclass(frozen=True)
class RemoveEdge:
    index: int


Change = AddEdge | RemoveEdge


@dataclass(frozen=True)
class OneTime:
    """A single change at step ``at_step``; quiet afterwards."""

    at_step: int = 0


@dataclass(frozen=True)
class Probabilistic:
    """Independent chance ``p_d`` of a change at every step."""

    p_d: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_d <= 1.0:
            raise ValueError(f"p_d must be in [0, 1], got {self.p_d}")


DynamicSetting = OneTime | Probabilistic


@dataclass(frozen=True)
class ChangePolicy:
    """How a fired change is realized.

    ``add_fraction`` is the chance of choosing addition when both addition
    and deletion are possible; the concrete edge is uniform among candidates.
    With ``prefer_positive_deletion`` deletions target edges carrying a
    nonzero solution entry (the adversarial case: deleting a matched or
    weighted edge), falling back to any edge when none is positive.
    """

    add_fraction: float = 0.5
    prefer_positive_deletion: bool = False


UNIFORM_POLICY = ChangePolicy()
DELETE_POSITIVE_POLICY = ChangePolicy(add_fraction=0.0,
                                      prefer_positive_deletion=True)


def poll_change(setting: DynamicSetting, t: int, rng: np.random.Generator) -> bool:
    """Does a change fire at step ``t``?"""
    if isinstance(setting, OneTime):
        return t == setting.at_step
    return rng.random() < setting.p_d


def _sample_non_edge(g: Graph, rng: np.random.Generator) -> tuple[int, int] | None:
    total_pairs = g.n * (g.n - 1) // 2
    free = total_pairs - g.m
    if free <= 0:
        return None
    if g.m * 2 < total_pairs:
        # sparse: rejection sampling terminates quickly
        while True:
            u = int(rng.integers(1, g.n + 1))
            v = int(rng.integers(1, g.n + 1))
            if u != v and not g.has_edge(u, v):
                return (min(u, v), max(u, v))
    # dense: uniform over the absent pairs in lexicographic order
    return g.free_pair(int(rng.integers(free)))


def sample_change(g: Graph, rng: np.random.Generator,
                  policy: ChangePolicy = UNIFORM_POLICY,
                  sol: np.ndarray | None = None) -> Change | None:
    """Draw a random valid change, or None when the graph admits none."""
    can_add = g.m < g.m_max and g.m < g.n * (g.n - 1) // 2
    can_del = g.m > 0
    if not can_add and not can_del:
        return None
    if can_add and can_del:
        add = rng.random() < policy.add_fraction
    else:
        add = can_add
    if add:
        pair = _sample_non_edge(g, rng)
        if pair is None:
            return None
        return AddEdge(*pair)
    if policy.prefer_positive_deletion and sol is not None:
        positive = np.nonzero(sol)[0]
        if positive.shape[0]:
            return RemoveEdge(int(positive[int(rng.integers(positive.shape[0]))]))
    return RemoveEdge(int(rng.integers(g.m)))


def apply_change(g: Graph, sol, change: Change):
    """Apply ``change`` to the graph in place and return the updated solution.

    ``sol`` is either a solution array or a search engine that owns ``g``.
    An array is the reference path: a compacted copy is returned, in which
    additions append a 0 entry and deletions drop the entry and move the
    last entry into the hole, mirroring :meth:`Graph.remove_edge`. An engine
    (``add_edge(u, v)``/``remove_edge(index)``) updates the graph and its own
    state in O(deg) and is returned itself.
    """
    is_array = isinstance(sol, np.ndarray)
    if is_array and sol.shape[0] != g.m:
        raise ValueError(f"solution length {sol.shape[0]} != edge count {g.m}")
    if not is_array and sol.g is not g:
        raise ValueError("engine does not own the given graph")
    if isinstance(change, AddEdge):
        if not is_array:
            sol.add_edge(change.u, change.v)
            return sol
        g.add_edge(change.u, change.v)
        return np.append(sol, sol.dtype.type(0))
    if not 0 <= change.index < g.m:
        raise GraphError(f"invalid change: no edge at index {change.index}")
    if not is_array:
        sol.remove_edge(change.index)
        return sol
    remap = g.remove_edge(change.index)
    out = sol.copy()
    for old, new in remap.items():
        out[new] = out[old]
    return out[:-1]


@dataclass(frozen=True)
class ScriptedChange:
    at_step: int
    op: str  # "add" | "del"
    u: int
    v: int


def parse_change_script(text: str) -> list[ScriptedChange]:
    """Parse ``at <t> add|del <u> <v>`` lines; steps must strictly increase."""
    out: list[ScriptedChange] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5 or parts[0] != "at" or parts[2] not in ("add", "del"):
            raise ValueError(f"line {lineno}: expected 'at <t> add|del <u> <v>'")
        try:
            t, u, v = int(parts[1]), int(parts[3]), int(parts[4])
        except ValueError:
            raise ValueError(f"line {lineno}: bad integer") from None
        if out and t <= out[-1].at_step:
            raise ValueError(f"line {lineno}: steps must strictly increase")
        out.append(ScriptedChange(t, parts[2], u, v))
    return out


def scripted_change(g: Graph, sc: ScriptedChange) -> Change:
    """Resolve a scripted record against the current graph."""
    if sc.op == "add":
        return AddEdge(sc.u, sc.v)
    idx = g.edge_index(sc.u, sc.v)
    if idx is None:
        raise GraphError(f"invalid change: edge ({sc.u},{sc.v}) not present")
    return RemoveEdge(idx)


# -- change-rate thresholds, computed from instance parameters ---------------

def pd_threshold_classic(m: int) -> float:
    """Safe per-step change rate for the classical bit-flip search: 1/(2000*e*m)."""
    return 1.0 / (2000.0 * math.e * max(m, 1))


def pd_threshold_weighted_rls(w_max: int, m: int) -> float:
    """Safe rate for the single-edge weight search: 1/(5*w_max*e*m)."""
    return 1.0 / (5.0 * w_max * math.e * max(m, 1))


def pd_threshold_weighted_ea(opt: int, m: int, eps: float = 0.1) -> float:
    """Safe rate for the global weight search: 1/((1+eps)*(2e*OPT*m + 10e^2*m^2))."""
    m = max(m, 1)
    phase = 2.0 * math.e * opt * m + 10.0 * math.e ** 2 * m * m
    return 1.0 / ((1.0 + eps) * phase)


def ea_phase_length(opt: int, m: int) -> int:
    """Step budget of one re-optimization phase for the global weight search."""
    return math.ceil(2.0 * math.e * opt * max(m, 1)
                     + 10.0 * math.e ** 2 * max(m, 1) ** 2)
