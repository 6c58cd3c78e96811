"""Distribution gate: the event-jumping run loop against a per-step loop.

``run_once`` jumps over the steps that cannot change the state and so reads
the random stream differently from a loop that calls ``engine.step`` once
per step. Both must sample the same Markov chain: a two-sample KS test on
``steps_to_target`` (and ``n_changes`` under churn), 300 runs a side on the
same instances, must give p >= 0.001. The seeds are fixed; a failing seed is
a distribution bug, not a seed to re-pick. A KS test on whole runs is blind
to small shifts in rare events, so the law of the loop's multi-hit events
is also checked on its own against Bin(m, 1/m).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dynvc import ExperimentConfig, OneTime, harness
from dynvc.dynamics import UNIFORM_POLICY
from dynvc.engine import _ClassicEngine
from dynvc.harness import RunTask, build_tasks, run_once

RUNS = 300
ALPHA = 0.001


def _reference_run(task):
    """The per-step loop ``run_once`` replaced: every step calls engine.step."""
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
        engine.step(task.algo, rng)
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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_loop_matches_step_loop_in_distribution(case):
    tasks = build_tasks(ExperimentConfig(keep_final=False, **CASES[case]))
    jumped = [run_once(t) for t in tasks]
    stepped = [_reference_run(replace(t, master_seed=1000 + t.master_seed)) for t in tasks]
    assert all(r.target_reached for r in jumped)
    p = _ks_pvalue([r.steps_to_target for r in jumped], [s for s, _ in stepped])
    assert p >= ALPHA, f"steps_to_target differ in distribution: p = {p:.2g}"
    if case.endswith("churn"):
        p = _ks_pvalue([r.n_changes for r in jumped], [c for _, c in stepped])
        assert p >= ALPHA, f"n_changes differ in distribution: p = {p:.2g}"


def test_multi_hit_events_follow_the_binomial_law(monkeypatch):
    # a star held at its maximal matching accepts no single move, so every
    # event is an EA step of k >= 2 hits: one must come with chance
    # P(k >= 2) per step, with k ~ Bin(m, 1/m) given k >= 2
    hits = []
    monkeypatch.setattr(_ClassicEngine, "try_moves", lambda self, moves: hits.append(moves))
    m, budget = 10, 200_000
    run_once(RunTask(run_index=0, master_seed=9, problem="classic", algo="ea",
                     family="star", wmax=1, source=("star", m, 1, 0),
                     schedule=OneTime(budget), policy=UNIFORM_POLICY, init="greedy",
                     budget=budget, stride=1, want_trace=False, keep_final=False))
    pmf = [math.comb(m, k) * m ** -k * (1 - 1 / m) ** (m - k) for k in range(m + 1)]
    p2 = sum(pmf[2:])
    assert abs(len(hits) - budget * p2) < 4 * math.sqrt(budget * p2 * (1 - p2))
    sizes = [len(set(moves)) for moves in hits]
    assert sizes == [len(moves) for moves in hits]  # distinct slots
    for k in range(2, 6):
        want = len(hits) * pmf[k] / p2
        assert abs(sizes.count(k) - want) < 4 * math.sqrt(want)
    assert max(sizes) <= m
    # every slot is hit equally often
    slots = np.bincount([j for moves in hits for j in moves], minlength=m)
    assert slots.max() - slots.min() < 8 * math.sqrt(slots.mean())
