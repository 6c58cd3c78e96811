import math
from dataclasses import replace

import numpy as np
import pytest

from dynvc import (AddEdge, ExperimentConfig, Graph, GraphError, OneTime,
                   Probabilistic, RemoveEdge, Scripted, apply_change,
                   fitness_weighted, harness, run_sweep, sample_change,
                   spawn_rng)
from dynvc.dynamics import (DELETE_POSITIVE_POLICY, UNIFORM_POLICY,
                            _sample_non_edge,
                            ea_phase_length,
                            parse_change_script, pd_threshold_classic,
                            pd_threshold_weighted_ea,
                            pd_threshold_weighted_rls)
from dynvc.oracles import dual_feasible, is_matching
from dynvc.harness import (RunTask, greedy_maximal_dual,
                           greedy_maximal_matching, make_instance, run_once)

from conftest import random_graph


def test_apply_add_keeps_dual_state(p3w):
    s = np.array([1, 1], dtype=np.int64)
    out = apply_change(p3w, s, AddEdge(1, 3))
    assert np.array_equal(out, [1, 1, 0])
    f = fitness_weighted(out, p3w)
    # v1 and v3 are already tight, so the new edge arrives covered
    assert f == (0, 0, 2)


def test_apply_remove_compacts_classic(triangle):
    s = np.array([1, 0, 0], dtype=np.uint8)
    out = apply_change(triangle, s, RemoveEdge(0))
    assert triangle.m == 2
    assert np.array_equal(out, [0, 0])
    assert fitness_weighted(np.array(out, dtype=np.int64), triangle).uncovered == 2


def test_apply_add_existing_pair_is_invalid(triangle):
    s = np.zeros(3, dtype=np.uint8)
    with pytest.raises(GraphError, match="duplicate"):
        apply_change(triangle, s, AddEdge(2, 1))
    assert triangle.m == 3


def test_apply_remove_bad_index(p3):
    with pytest.raises(GraphError, match="invalid change"):
        apply_change(p3, np.zeros(2, dtype=np.uint8), RemoveEdge(5))


def _schedule_task(schedule, budget, seed=1):
    """A classic run from zeros whose target is checked only at steps 0 and
    ``budget``, so it lasts its whole budget. On the one-edge path it selects
    the edge at step 1 and stays there, so it certifies at ``budget``."""
    return RunTask(run_index=0, master_seed=seed, problem="classic", algo="ea",
                   family="path", wmax=1, source=("path", 1, 1, 5),
                   schedule=schedule, policy=UNIFORM_POLICY, init="zeros",
                   budget=budget, stride=budget, want_trace=False)


def _firing_steps(monkeypatch, schedule, budget, seed=1):
    """The boundaries at which ``run_once`` draws a change under ``schedule``.

    The stand-in sampler always draws a change, and the stand-in applier
    leaves it off the graph. Each change's span then ends at the
    certified target at ``budget``, so the change fired at ``budget - span``."""
    monkeypatch.setattr(harness, "sample_change", lambda *args: RemoveEdge(0))
    monkeypatch.setattr(harness, "apply_change", lambda *args: None)
    rec = run_once(_schedule_task(schedule, budget, seed))
    assert rec.target_reached and rec.steps_to_target == budget
    assert rec.n_changes == len(rec.reopt_spans)
    return [budget - span for span in rec.reopt_spans]


def test_schedule_firing_degenerate_rates(monkeypatch):
    n = 10**4
    assert _firing_steps(monkeypatch, Probabilistic(0.0), n) == []
    assert _firing_steps(monkeypatch, Probabilistic(1.0), n) == list(range(n + 1))
    assert _firing_steps(monkeypatch, OneTime(3), 10) == [3]
    # the forced change at step 0 comes on top of that step's poll
    assert _firing_steps(monkeypatch, Probabilistic(1.0, initial=True), 5) == [0, 0, 1, 2, 3, 4, 5]
    assert _firing_steps(monkeypatch, Probabilistic(0.0, initial=True), 5) == [0]


def test_schedule_firing_frequency(monkeypatch):
    n = 10**5
    hits = len(_firing_steps(monkeypatch, Probabilistic(0.5), n, seed=2))
    assert 0.49 <= hits / (n + 1) <= 0.51


def test_step_zero_poll_hit_draws_from_the_changed_graph():
    # the forced change and a poll hit at step 0 are drawn one after the
    # other; the second must see the first, or it may name an edge the first
    # deletion moved or a pair the first addition took
    cfg = ExperimentConfig(family="path", sizes=(8,), setting="prob", pd=0.5,
                           initial_change=True, reps=200, seed=3)
    records = run_sweep(cfg)
    assert [r.error for r in records if r.error] == []
    assert sum(r.n_changes for r in records) > 0


def test_zero_rate_draws_no_poll():
    # at rate 0 no poll is drawn, so the run's stream feeds the search alone:
    # a Probabilistic(0.0) run equals a run whose schedule has no change at all
    for problem in ("classic", "weighted"):
        for seed in range(5):
            task = replace(_schedule_task(Probabilistic(0.0), 300, seed=seed),
                           problem=problem, family="gnp", source=("gnp", 30, 4, seed),
                           stride=7, want_trace=True)
            a, b = run_once(task), run_once(replace(task, schedule=Scripted(())))
            assert (a.steps_to_target, a.target_reached, a.n_changes, a.trace) == \
                (b.steps_to_target, b.target_reached, b.n_changes, b.trace)
            assert np.array_equal(a.final_solution, b.final_solution)


def test_probabilistic_rate_validated():
    with pytest.raises(ValueError, match="p_d"):
        Probabilistic(1.5)


def test_schedule_last_step_and_label():
    script = tuple(parse_change_script("at 0 del 1 2\nat 5 add 1 3\n"))
    assert Scripted(script).last_step() == 5
    assert Scripted(script[:1]).last_step() == 0
    assert Scripted(()).last_step() == 0
    assert OneTime(7).last_step() == 7
    assert Probabilistic(0.25, initial=True).last_step() == 0
    assert Scripted(script).label() == ("script", "script")
    assert OneTime(7).label() == ("onetime", "7")
    assert Probabilistic(0.25).label() == ("prob", "0.25")


def test_schedule_steps_validated():
    with pytest.raises(ValueError, match="at_step"):
        OneTime(-3)
    script = tuple(parse_change_script("at 2 del 1 2\nat 5 add 1 3\n"))
    with pytest.raises(ValueError, match="strictly increase"):
        Scripted(script[::-1])
    with pytest.raises(ValueError, match=">= 0"):
        Scripted((replace(script[0], at_step=-1),))


def test_sample_change_only_option():
    rng = spawn_rng(3, 0)
    empty = Graph(4)
    for _ in range(50):
        assert isinstance(sample_change(empty, rng), AddEdge)
    full = Graph(3)
    for u, v in [(1, 2), (1, 3), (2, 3)]:
        full.add_edge(u, v)
    for _ in range(50):
        assert isinstance(sample_change(full, rng), RemoveEdge)
    assert sample_change(Graph(1), rng) is None


def test_sample_change_add_fraction_balanced():
    rng = spawn_rng(4, 0)
    g = Graph(6)  # 15 pairs in the universe
    for u, v in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5)]:
        g.add_edge(u, v)  # about half full
    adds = sum(isinstance(sample_change(g, rng), AddEdge) for _ in range(10**5))
    assert 0.48 <= adds / 10**5 <= 0.52


def test_dense_addition_draws_as_pair_enumeration():
    # the dense branch picks the same pair, with the same one draw, as
    # listing every absent pair in lexicographic order
    rng = np.random.default_rng(15)
    for seed in range(300):
        n = int(rng.integers(3, 14))
        g = Graph(n)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        m = int(rng.integers((len(pairs) + 1) // 2, len(pairs)))
        for k in rng.permutation(len(pairs))[:m]:
            g.add_edge(*pairs[int(k)])
        if seed % 2:  # reorder slots through swap-removes
            g.remove_edge(0)
            g.add_edge(*g.free_pair(0))
        free = [p for p in pairs if not g.has_edge(*p)]
        rng_a, rng_b = spawn_rng(seed, 1), spawn_rng(seed, 1)
        assert _sample_non_edge(g, rng_a) == free[int(rng_b.integers(len(free)))]
        assert rng_a.random() == rng_b.random()


def test_sampled_changes_are_valid():
    rng = np.random.default_rng(5)
    crng = spawn_rng(6, 0)
    for _ in range(200):
        g = random_graph(rng, n_max=8)
        c = sample_change(g, crng)
        if isinstance(c, AddEdge):
            assert not g.has_edge(c.u, c.v) and c.u != c.v
        else:
            assert 0 <= c.index < g.m


def test_delete_positive_policy_targets_selected():
    rng = np.random.default_rng(7)
    crng = spawn_rng(8, 0)
    for _ in range(100):
        g = random_graph(rng, n_max=8)
        sol = greedy_maximal_matching(g, rng)
        c = sample_change(g, crng, DELETE_POSITIVE_POLICY, sol)
        assert isinstance(c, RemoveEdge)
        if sol.any():
            assert sol[c.index] == 1


def test_changes_preserve_dual_feasibility():
    # valid changes never create violations
    rng = np.random.default_rng(9)
    crng = spawn_rng(10, 0)
    for _ in range(300):
        g = random_graph(rng, n_max=8, w_max=4)
        sol = greedy_maximal_dual(g, rng)
        assert fitness_weighted(sol, g).violations == 0
        for _ in range(4):
            c = sample_change(g, crng)
            if c is None:
                break
            sol = apply_change(g, sol, c)
            assert fitness_weighted(sol, g).violations == 0
            assert dual_feasible(sol, g)


def test_changes_preserve_matchings():
    rng = np.random.default_rng(11)
    crng = spawn_rng(12, 0)
    for _ in range(300):
        g = random_graph(rng, n_max=8)
        sol = greedy_maximal_matching(g, rng)
        for _ in range(4):
            c = sample_change(g, crng)
            if c is None:
                break
            sol = apply_change(g, sol, c)
            assert is_matching(sol, g)


def test_add_then_remove_round_trips_up_to_remap():
    rng = np.random.default_rng(13)
    for _ in range(100):
        g = random_graph(rng, n_max=8, w_max=3)
        sol = rng.integers(0, 3, size=g.m).astype(np.int64)
        before = {(g.endpoints(j)): int(sol[j]) for j in range(g.m)}
        if g.m == g.n * (g.n - 1) // 2:
            continue
        pair = None
        for u in range(1, g.n + 1):
            for v in range(u + 1, g.n + 1):
                if not g.has_edge(u, v):
                    pair = (u, v)
                    break
            if pair:
                break
        sol2 = apply_change(g, sol, AddEdge(*pair))
        sol3 = apply_change(g, sol2, RemoveEdge(g.edge_index(*pair)))
        after = {(g.endpoints(j)): int(sol3[j]) for j in range(g.m)}
        assert before == after


def test_threshold_helpers_match_stated_forms():
    e = math.e
    assert pd_threshold_classic(10) == pytest.approx(1 / (2000 * e * 10))
    assert pd_threshold_weighted_rls(8, 64) == pytest.approx(1 / (5 * 8 * e * 64))
    opt, m, eps = 30, 64, 0.1
    phase = 2 * e * opt * m + 10 * e**2 * m * m
    assert pd_threshold_weighted_ea(opt, m, eps) == pytest.approx(1 / (1.1 * phase))
    assert ea_phase_length(opt, m) == math.ceil(phase)


def test_parse_change_script():
    script = parse_change_script("# warmup\nat 0 del 1 2\nat 5 add 1 3\n")
    assert [(c.at_step, c.op, c.u, c.v) for c in script] == [
        (0, "del", 1, 2), (5, "add", 1, 3)]
    with pytest.raises(ValueError, match="strictly increase"):
        parse_change_script("at 3 add 1 2\nat 3 del 1 2\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_change_script("at x add 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_change_script("at 1 add 1 2\nat 2 zap 1 2\n")
    with pytest.raises(ValueError, match="line 2: step must be >= 0"):
        parse_change_script("# first line\nat -1 del 1 2\n")


def test_scripted_change_resolution(p3):
    def scripted_change(g, text):
        return Scripted(tuple(parse_change_script(text))).change(0, g, None)

    c = scripted_change(p3, "at 0 del 2 3\n")
    assert c == RemoveEdge(1)
    with pytest.raises(GraphError, match="not present"):
        scripted_change(p3, "at 0 del 1 3\n")
    add = scripted_change(p3, "at 0 add 1 3\n")
    assert add == AddEdge(1, 3)
