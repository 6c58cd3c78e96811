"""Distribution gate: the event-jumping run loop against a per-step loop.

``run_once`` jumps over the steps that cannot change the state and so reads
the random stream differently from a loop that calls ``engine_step`` once
per step. Both must sample the same Markov chain: a two-sample KS test on
``steps_to_target`` (and ``n_changes`` under churn), 300 runs a side on the
same instances, must give p >= 0.001. The seeds are fixed; a failing seed is
a distribution bug, not a seed to re-pick. A KS test on whole runs is blind
to small shifts in rare events, so the law of the loop's multi-hit events
is also checked on its own against Bin(m, 1/m): classic, on the union of
the events the engine samples from, enumerated hit set by hit set; dual,
as thinned to the steps that hit the engine's free slots.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dynvc import ExperimentConfig, OneTime, harness
from dynvc.dynamics import UNIFORM_POLICY
from dynvc.engine import _ClassicEngine, _DualEngine
from dynvc.harness import RunTask, build_tasks, make_instance, run_once

from conftest import engine_step, free_slots, mate_events

RUNS = 300
ALPHA = 0.001


def _reference_run(task):
    """The per-step loop ``run_once`` replaced: every step calls engine_step."""
    g = harness._instance(task.source).copy()
    rng = harness.spawn_rng(task.master_seed, task.run_index)
    if task.init == "greedy":
        sol = (harness.greedy_maximal_matching(g, rng) if task.problem == "classic"
               else harness.greedy_maximal_dual(g, rng))
    else:
        sol = np.zeros(g.m, dtype=np.uint8 if task.problem == "classic" else np.int64)
    engine = harness._make_engine(task.problem, g, sol)
    sched = task.schedule
    due, rate, last_step = sched.due(), sched.rate, sched.last_step()

    def sample():
        current = engine.solution() if task.policy.prefer_positive_deletion else None
        return harness.sample_change(g, rng, task.policy, current)

    def fire(change):
        if change is None:
            return 0
        harness.apply_change(g, engine, change)
        return 1

    k, n_changes, evaluations = 0, 0, 0
    while True:
        if k < len(due) and evaluations == due[k]:
            n_changes += fire(sched.change(k, g, sample))
            k += 1
        if rate and rng.random() < rate:
            n_changes += fire(sample())
        if evaluations % task.stride == 0 and engine.at_target() \
                and evaluations >= last_step:
            return evaluations, n_changes
        if evaluations >= task.budget:
            return evaluations, n_changes
        engine_step(engine, task.algo, rng)
        evaluations += 1


def _ks_pvalue(a, b):
    """Asymptotic two-sample Kolmogorov-Smirnov p-value (conservative on ties)."""
    a, b = sorted(a), sorted(b)
    na, nb = len(a), len(b)
    i = j = 0
    d = 0.0
    while i < na and j < nb:
        x = min(a[i], b[j])
        while i < na and a[i] == x:
            i += 1
        while j < nb and b[j] == x:
            j += 1
        d = max(d, abs(i / na - j / nb))
    en = math.sqrt(na * nb / (na + nb))
    lam = (en + 0.12 + 0.11 / en) * d
    if lam < 0.2:
        return 1.0
    p = 2 * sum((-1) ** (r - 1) * math.exp(-2 * r * r * lam * lam) for r in range(1, 101))
    return min(max(p, 0.0), 1.0)


_REOPT = dict(family="gnp", setting="onetime", policy="delete_positive", reps=RUNS)
CASES = {
    "classic-ea-reopt": dict(_REOPT, sizes=(32,), problem="classic", algo="ea", seed=71),
    "classic-rls-reopt": dict(_REOPT, sizes=(32,), problem="classic", algo="rls", seed=72),
    "weighted-ea-reopt": dict(_REOPT, sizes=(16,), problem="weighted", algo="ea",
                              wmax=4, seed=73),
    "weighted-rls-reopt": dict(_REOPT, sizes=(16,), problem="weighted", algo="rls",
                               wmax=4, seed=74),
    "classic-ea-churn": dict(family="gnp", sizes=(32,), problem="classic", algo="ea",
                             setting="prob", pd=0.05, reps=RUNS, seed=75),
    # a 6-cycle: most of its accepted multi-hit events are swaps (select t,
    # deselect the matched slot next to it), and they end about a fifth of
    # the runs that do not start at target
    "classic-ea-reopt-swaps": dict(_REOPT, family="cycle", sizes=(6,), problem="classic",
                                   algo="ea", init="greedy", seed=76),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_loop_matches_step_loop_in_distribution(case):
    tasks = build_tasks(ExperimentConfig(**CASES[case]))
    jumped = [run_once(t) for t in tasks]
    stepped = [_reference_run(replace(t, master_seed=1000 + t.master_seed)) for t in tasks]
    assert all(r.target_reached for r in jumped)
    p = _ks_pvalue([r.steps_to_target for r in jumped], [s for s, _ in stepped])
    assert p >= ALPHA, f"steps_to_target differ in distribution: p = {p:.2g}"
    if case.endswith("churn"):
        p = _ks_pvalue([r.n_changes for r in jumped], [c for _, c in stepped])
        assert p >= ALPHA, f"n_changes differ in distribution: p = {p:.2g}"


def _recorded_events(monkeypatch, engine_cls, family, m, wmax, budget):
    """The hit sets of an EA run's multi-hit events, with their coins for the
    dual (1 for a -1), held at its greedy start because the step decoding
    (``flips``, ``signs``) only records them and decodes no step, and that
    start's solution."""
    hits, states = [], set()

    def record(self, pos, coin=None):
        hits.append(list(pos) if coin is None else [(j, int(coin())) for j in pos])
        states.add(tuple(self.solution().tolist()))
        return []

    problem = "classic" if engine_cls is _ClassicEngine else "weighted"
    monkeypatch.setattr(engine_cls, "flips" if problem == "classic" else "signs", record)
    run_once(RunTask(run_index=0, master_seed=9, problem=problem, algo="ea",
                     family=family, wmax=wmax, source=(family, m, wmax, 0),
                     schedule=OneTime(budget), policy=UNIFORM_POLICY, init="greedy",
                     budget=budget, stride=1, want_trace=False))
    (state,) = states
    return hits, np.array(state)


def test_multi_hit_events_follow_the_binomial_law(monkeypatch):
    # at a maximal matching no single move is accepted, so every classic
    # event is a step of k >= 2 hits in the union of the events E'_t (t hit,
    # and its matched neighbour slot too). Per step, each hit set H of that
    # union must come with its chance under Bin(m, 1/m) hits, m^-|H|
    # (1 - 1/m)^(m - |H|), and no other H may come; checked against all 2^m
    # hit sets. On the star, every E'_t holds the one matched slot.
    m, budget = 10, 200_000
    for family in ("star", "path"):
        hits, sol = _recorded_events(monkeypatch, _ClassicEngine, family, m, 1, budget)
        events = list(mate_events(sol, make_instance(family, m)).values())
        union = {}
        for k in range(2, m + 1):
            for subset in itertools.combinations(range(m), k):
                if any(e <= set(subset) for e in events):
                    union[frozenset(subset)] = m ** -k * (1 - 1 / m) ** (m - k)
        assert all(len(e) == 2 for e in events)  # no accepting slot
        assert sum(sol) == 1 if family == "star" else sum(sol) > 1
        p = sum(union.values())
        assert abs(len(hits) - budget * p) < 4 * math.sqrt(budget * p * (1 - p)), family
        assert all(len(set(moves)) == len(moves) for moves in hits)  # distinct slots
        seen = Counter(frozenset(moves) for moves in hits)
        assert set(seen) <= set(union)
        for key in sorted(union, key=union.get)[-10:]:  # the ten likeliest hit sets
            want = budget * union[key]
            assert abs(seen[key] - want) < 4 * math.sqrt(want), (family, sorted(key))


def test_dual_multi_hit_events_follow_the_thinned_binomial_law(monkeypatch):
    # at a maximal dual no single move is accepted and F is the positive
    # slots, so every dual event is an EA step of k >= 2 hits, k_F >= 1 of
    # them in F: one must come with chance P(k >= 2, k_F >= 1) per step, with
    # (k_F, k - k_F) ~ Bin(f, 1/m) x Bin(m - f, 1/m) given both, on distinct
    # uniform slots of F and of the rest, each with a fair coin
    m, budget = 10, 200_000

    def pmf(n, i):
        return math.comb(n, i) * m ** -i * (1 - 1 / m) ** (n - i)

    for family in ("star", "path"):
        moves, sol = _recorded_events(monkeypatch, _DualEngine, family, m, 3, budget)
        hits = [[j for j, _ in mvs] for mvs in moves]
        free = set(np.nonzero(sol)[0].tolist())
        assert free == free_slots(sol, make_instance(family, m, wmax=3))
        f = len(free)
        assert 0 < f < m
        law = {(i, r): pmf(f, i) * pmf(m - f, r)
               for i in range(1, f + 1) for r in range(m - f + 1) if i + r >= 2}
        p = sum(law.values())
        assert abs(len(hits) - budget * p) < 4 * math.sqrt(budget * p * (1 - p))
        assert all(len(set(slots)) == len(slots) for slots in hits)  # distinct slots
        split = Counter((len(set(slots) & free), len(set(slots) - free)) for slots in hits)
        assert set(split) <= set(law)
        for key in sorted(law, key=law.get)[-4:]:  # the four likeliest splits
            want = len(hits) * law[key] / p
            assert abs(split[key] - want) < 4 * math.sqrt(want), (family, key)
        # slots of F are hit equally often, and so are the others
        slots = np.bincount([j for h in hits for j in h], minlength=m)
        for group in (sorted(free), [j for j in range(m) if j not in free]):
            if len(group) > 1:
                counts = slots[group]
                assert counts.max() - counts.min() < 8 * math.sqrt(counts.mean())
        downs = sum(c for mvs in moves for _, c in mvs)
        total = sum(map(len, moves))
        assert abs(downs - total / 2) < 4 * math.sqrt(total / 4)  # fair coins
