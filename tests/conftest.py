"""Shared fixtures and stubs for the test suite."""

import numpy as np
import pytest

from dynvc import Graph
from dynvc.classic import _flip_positions
from dynvc.engine import _ClassicEngine
from dynvc.weighted import loads


class ForcedRng:
    """Generator stand-in that replays scripted draws.

    Used to force specific mutation outcomes: flip masks are steered through
    ``geometric`` gaps, coin flips and indices through ``integers``, and
    change polls through ``random``.
    """

    def __init__(self, geometric=(), integers=(), random=()):
        self._geo = list(geometric)
        self._int = list(integers)
        self._rnd = list(random)

    def geometric(self, p):
        return self._geo.pop(0)

    def integers(self, low, high=None, size=None):
        if size is None:
            return self._int.pop(0)
        return np.array([self._int.pop(0) for _ in range(size)], dtype=np.int64)

    def random(self):
        return self._rnd.pop(0)


def free_slots(sol, g):
    """The dual's slots F by their definition: the slots with a positive
    weight and those with no tight endpoint."""
    eu, ev = g.endpoint_lists()
    excess = (loads(sol, g) - g.weights).tolist()
    return {j for j in range(g.m) if sol[j] > 0 or (excess[eu[j]] and excess[ev[j]])}


def in_region(problem, sol, g):
    """``sol`` mapped into the region the searches keep to, by one scan in
    slot order: a classic slot stays selected only while both its endpoints
    are free, and a dual entry is lowered to its endpoints' remaining slack.
    Engines refuse starts outside it."""
    eu, ev = g.endpoint_lists()
    out = sol.copy()
    if problem == "classic":
        free = [True] * (g.n + 1)
        for j in range(g.m):
            if out[j] and free[eu[j]] and free[ev[j]]:
                free[eu[j]] = free[ev[j]] = False
            else:
                out[j] = 0
    else:
        slack = g.weights.tolist()
        for j in range(g.m):
            out[j] = min(int(out[j]), slack[eu[j]], slack[ev[j]])
            slack[eu[j]] -= int(out[j])
            slack[ev[j]] -= int(out[j])
    return out


def engine_step(engine, variant, rng):
    """One step of the pure ``step_*`` on ``engine``, with its draws: the hit
    slots (one uniform slot for RLS, each slot with chance 1/m for the EA),
    and for the dual a fair coin per hit, 1 for a -1. A single move is kept
    iff it is accepting, and k >= 2 moves go to ``try_moves``."""
    m = engine.m
    if m == 0:
        return
    hits = [int(rng.integers(m))] if variant == "rls" else _flip_positions(rng, m, 1.0 / m)
    if isinstance(engine, _ClassicEngine):
        steps = engine.flips(hits)
    else:
        steps = engine.signs(hits, lambda: int(rng.integers(2)))
    if len(hits) > 1:
        engine.try_moves(steps)
    elif steps and steps[0][1] > 0 and engine.where[hits[0]] >= 0:  # an accepting +1
        engine.apply(hits[0])


def engine_fitness(engine):
    """The pure fitness triple that an engine's ``trace_sample`` stands for in
    its region: no adjacent selected pairs or violations, and for the
    classic search two cover vertices per selected slot."""
    uncovered, total = engine.trace_sample()
    return (0, uncovered, 2 * total if isinstance(engine, _ClassicEngine) else total)


def room(problem, sol, g):
    """Per vertex, capacity minus load by their definition: the capacity is
    the vertex weight for the dual, and at most 1 for the classic search."""
    cap = g.weights if problem == "weighted" else np.minimum(g.weights, 1)
    return (cap - loads(sol, g)).tolist()


def assert_mates(mate, sol, g):
    """The classic engine's ``mate``: per vertex, -1 when no selected slot
    touches it, else one of the selected slots that do."""
    eu, ev = g.endpoint_lists()
    at = [[] for _ in range(g.n + 1)]
    for j in np.nonzero(sol)[0].tolist():
        at[eu[j]].append(j)
        at[ev[j]].append(j)
    assert len(mate) == g.n + 1
    for x, slots in enumerate(at):
        assert mate[x] in slots if slots else mate[x] == -1, x


def mate_events(sol, g):
    """The slot sets of the classic events E'_t by their definition, at a
    matching: per unselected slot t, t and the matched slot at t's first
    endpoint that has one, if any."""
    eu, ev = g.endpoint_lists()
    matched = {}
    for j in np.nonzero(sol)[0].tolist():
        matched[eu[j]] = matched[ev[j]] = j
    return {t: {t} | ({matched[x]} if x in matched else set())
            for t in range(g.m) if not sol[t]
            for x in [eu[t] if eu[t] in matched else ev[t]]}


def flip_mask_draws(positions, m):
    """Geometric draws that make the Bernoulli scan hit exactly ``positions``."""
    draws = []
    prev = -1
    for j in sorted(positions):
        draws.append(j - prev)
        prev = j
    draws.append(m + 1)  # overshoot terminates the scan
    return draws


@pytest.fixture
def triangle():
    g = Graph(3)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    return g


@pytest.fixture
def p3():
    """Unweighted path on 3 vertices: e0=(1,2), e1=(2,3)."""
    g = Graph(3)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    return g


@pytest.fixture
def p3w():
    """Weighted path, w=(1,2,1): e0=(1,2), e1=(2,3)."""
    g = Graph(3, vertex_weight={1: 1, 2: 2, 3: 1})
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    return g


def random_graph(rng, n_max=10, w_max=1, min_edges=1):
    """Small random instance for property tests."""
    n = int(rng.integers(2, n_max + 1))
    weights = None
    if w_max > 1:
        weights = {v: int(rng.integers(1, w_max + 1)) for v in range(1, n + 1)}
    g = Graph(n, vertex_weight=weights)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    total = len(pairs)
    m = int(rng.integers(min(min_edges, total), total + 1))
    for k in rng.permutation(total)[:m]:
        g.add_edge(*pairs[int(k)])
    return g
