"""Edge-selection representation for vertex cover search.

A candidate solution is a 0/1 vector over the graph's edge slots; the
induced cover is the set of endpoints of all selected edges. Quality is
the triple (adjacent selected pairs, uncovered edges, cover size), minimized
lexicographically: the penalty hierarchy drives the search toward maximal
matchings, whose endpoint sets 2-approximate the minimum vertex cover.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import Graph


class ClassicFitness(NamedTuple):
    """Lexicographic fitness, minimized; tuple order is the comparison order."""

    pairs: int        # unordered pairs of selected edges sharing an endpoint
    uncovered: int    # edges with no endpoint in the induced cover
    cover_size: int   # number of vertices in the induced cover


def empty_solution(g: Graph) -> np.ndarray:
    """All-zero selection vector for the graph's current edges."""
    return np.zeros(g.m, dtype=np.uint8)


def _check_len(sol: np.ndarray, g: Graph) -> None:
    if sol.shape[0] != g.m:
        raise ValueError(f"solution length mismatch: {sol.shape[0]} entries "
                         f"for {g.m} edges")


def cover_set(sol: np.ndarray, g: Graph) -> set[int]:
    """Vertices on either side of any selected edge."""
    _check_len(sol, g)
    eu, ev = g.edge_arrays()
    mask = sol != 0
    return set(map(int, eu[mask])) | set(map(int, ev[mask]))


def _stats(sol: np.ndarray, eu: np.ndarray, ev: np.ndarray,
           n: int) -> tuple[int, int, int]:
    m = sol.shape[0]
    if m == 0:
        return 0, 0, 0
    mask = sol != 0
    deg = (np.bincount(eu[mask], minlength=n + 1)
           + np.bincount(ev[mask], minlength=n + 1))
    # two distinct edges share at most one endpoint, so summing C(d,2) per
    # vertex counts each adjacent pair exactly once
    pairs = int((deg * (deg - 1) // 2).sum())
    covered = deg > 0
    uncovered = m - int(np.count_nonzero(covered[eu] | covered[ev]))
    return pairs, uncovered, int(np.count_nonzero(covered))


def fitness_classic(sol: np.ndarray, g: Graph) -> ClassicFitness:
    """Evaluate the lexicographic triple for ``sol`` on ``g``."""
    _check_len(sol, g)
    eu, ev = g.edge_arrays()
    return ClassicFitness(*_stats(sol, eu, ev, g.n))


def _flip_positions(rng: np.random.Generator, m: int, p: float) -> list[int]:
    """Indices hit by independent Bernoulli(p) trials over 0..m-1.

    Sampled by geometric gaps, which is distribution-identical to flipping
    a coin per index but costs O(number of hits).
    """
    out: list[int] = []
    i = int(rng.geometric(p)) - 1
    while i < m:
        out.append(i)
        i += int(rng.geometric(p))
    return out


def mutate_global(sol: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability 1/m (no-op when m = 0)."""
    out = sol.copy()
    m = out.shape[0]
    if m == 0:
        return out
    for j in _flip_positions(rng, m, 1.0 / m):
        out[j] ^= 1
    return out


def mutate_local(sol: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip exactly one uniformly chosen bit (no-op when m = 0)."""
    out = sol.copy()
    m = out.shape[0]
    if m == 0:
        return out
    j = int(rng.integers(m))
    out[j] ^= 1
    return out


def step_classic(sol: np.ndarray, g: Graph, variant: str,
                 rng: np.random.Generator,
                 fitness: ClassicFitness | None = None) -> np.ndarray:
    """One mutate-and-select step; the mutant is kept iff its fitness is <=.

    ``variant`` is ``"ea"`` (independent bit flips) or ``"rls"`` (single bit).
    Exactly one mutant evaluation is performed. Passing the precomputed
    ``fitness`` of ``sol`` avoids re-evaluating the parent.
    """
    if variant == "ea":
        mutant = mutate_global(sol, rng)
    elif variant == "rls":
        mutant = mutate_local(sol, rng)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if fitness is None:
        fitness = fitness_classic(sol, g)
    if fitness_classic(mutant, g) <= fitness:
        return mutant
    return sol


def format_solution(sol: np.ndarray) -> str:
    """Serialize as ``sol classic <bitstring>`` (slot i = graph-file edge i)."""
    return "sol classic " + "".join("1" if b else "0" for b in sol) + "\n"


def parse_solution(text: str) -> np.ndarray:
    parts = text.split()
    if len(parts) < 2 or parts[0] != "sol" or parts[1] != "classic":
        raise ValueError("expected: sol classic <bitstring>")
    bits = parts[2] if len(parts) == 3 else ""
    if len(parts) > 3 or any(c not in "01" for c in bits):
        raise ValueError(f"bad bitstring in {text.strip()!r}")
    return np.array([int(c) for c in bits], dtype=np.uint8)
