import math

import numpy as np
import pytest

from dynvc import (ExperimentConfig, Graph, fitness_classic, fitness_weighted,
                   run_once, run_sweep, spawn_rng, step_classic, step_weighted,
                   target_reached)
from dynvc.engine import _ClassicEngine, _DualEngine
from dynvc.harness import (RunTask, _chunksize,
                           _run_task_safe, child_seed,
                           budget_names, default_budget_expr, eval_budget,
                           fit_scaling, greedy_maximal_dual,
                           greedy_maximal_matching, make_instance,
                           make_instance_by_n, records_to_csv, summarize,
                           traces_to_csv, CSV_HEADER)
from dynvc.oracles import (dual_maximal, exact_min_vc, is_2_approx,
                           is_maximal_matching)
from dynvc.classic import cover_set
from dynvc.weighted import induced_cover

from conftest import random_graph


# -- seeding -----------------------------------------------------------------

def test_child_streams_are_reproducible_and_distinct():
    a1 = spawn_rng(42, 7).random(8)
    a2 = spawn_rng(42, 7).random(8)
    b = spawn_rng(42, 8).random(8)
    c = spawn_rng(43, 7).random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    assert child_seed(1, 2) != child_seed(1, 2, salt=1)


# -- families -----------------------------------------------------------------

def test_family_shapes():
    for m in (1, 5, 12):
        p = make_instance("path", m)
        assert (p.n, p.m) == (m + 1, m)
        s = make_instance("star", m)
        assert (s.n, s.m) == (m + 1, m)
        assert all(u == 1 for u, _ in s.edges())
    c = make_instance("cycle", 6)
    assert (c.n, c.m) == (6, 6)
    b = make_instance("bipartite", 12)
    assert b.m == 12 and b.n == 7  # K_{3,4}
    g = make_instance("gnp", 20, seed=3)
    assert g.m == 20 and len(set(g.edges())) == 20
    with pytest.raises(ValueError, match="cycle"):
        make_instance("cycle", 2)
    with pytest.raises(ValueError, match="family"):
        make_instance("torus", 5)


def test_family_weights_and_determinism():
    g1 = make_instance("gnp", 15, wmax=8, seed=11)
    g2 = make_instance("gnp", 15, wmax=8, seed=11)
    g3 = make_instance("gnp", 15, wmax=8, seed=12)
    assert g1 == g2
    assert g1 != g3
    ws = [g1.vertex_weight(v) for v in range(1, g1.n + 1)]
    assert min(ws) >= 1 and max(ws) <= 8 and max(ws) > 1


def test_family_by_n():
    assert make_instance_by_n("path", 9).m == 8
    assert make_instance_by_n("star", 9).m == 8
    assert make_instance_by_n("cycle", 9).m == 9
    kb = make_instance_by_n("bipartite", 7)
    assert kb.m == 3 * 4
    g = make_instance_by_n("gnp", 10, m=13, seed=1)
    assert (g.n, g.m) == (10, 13)
    assert make_instance_by_n("gnp", 10, seed=1).m == 45 // 2


# -- greedy starts and targets ---------------------------------------------------

def test_greedy_matching_on_star_and_triangle(triangle):
    star = make_instance("star", 9)
    for seed in range(5):
        sol = greedy_maximal_matching(star, spawn_rng(seed, 0))
        assert int(sol.sum()) == 1
        assert is_maximal_matching(sol, star)
    sol = greedy_maximal_matching(triangle, spawn_rng(0, 0))
    assert int(sol.sum()) == 1


def test_greedy_dual_examples(p3w):
    assert np.array_equal(greedy_maximal_dual(p3w), [1, 1])
    assert greedy_maximal_dual(Graph(4)).shape == (0,)
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_graph(rng, n_max=10, w_max=5)
        sol = greedy_maximal_dual(g, spawn_rng(int(rng.integers(100)), 0))
        assert dual_maximal(sol, g)


def test_target_reached_examples(triangle, p3w):
    assert target_reached(np.array([1, 0, 0], dtype=np.uint8), triangle, "classic")
    assert not target_reached(np.array([1, 0], dtype=np.int64), p3w, "weighted")
    assert target_reached(np.zeros(0, dtype=np.uint8), Graph(3), "classic")
    with pytest.raises(ValueError, match="problem"):
        target_reached(np.zeros(0, dtype=np.uint8), Graph(3), "mystery")


# -- engines vs pure step functions -----------------------------------------------

@pytest.mark.parametrize("problem,variant", [
    ("classic", "ea"), ("classic", "rls"),
    ("weighted", "ea"), ("weighted", "rls"),
])
def test_engine_matches_pure_steps(problem, variant):
    rng = np.random.default_rng(47)
    for trial in range(25):
        g = random_graph(rng, n_max=9, w_max=4 if problem == "weighted" else 1)
        if problem == "classic":
            sol = (rng.random(g.m) < 0.5).astype(np.uint8)
            engine = _ClassicEngine(g, sol)
            fitness, step = fitness_classic, step_classic
        else:
            sol = rng.integers(0, 3, size=g.m).astype(np.int64)
            engine = _DualEngine(g, sol)
            fitness, step = fitness_weighted, step_weighted
        rng_a = spawn_rng(trial, 0)
        rng_b = spawn_rng(trial, 0)
        f = fitness(sol, g)
        assert engine.fitness() == tuple(f)
        for _ in range(300):
            sol = step(sol, g, variant, rng_a, f)
            f = fitness(sol, g)
            engine.step(variant, rng_b)
            assert engine.fitness() == tuple(f)
        assert np.array_equal(engine.solution(), sol)


def test_engine_target_agrees_with_predicate():
    rng = np.random.default_rng(53)
    for _ in range(50):
        g = random_graph(rng, n_max=9, w_max=3)
        bitsol = (rng.random(g.m) < 0.5).astype(np.uint8)
        dualsol = rng.integers(0, 3, size=g.m).astype(np.int64)
        assert _ClassicEngine(g, bitsol).at_target() == target_reached(bitsol, g, "classic")
        assert _DualEngine(g, dualsol).at_target() == target_reached(dualsol, g, "weighted")


# -- run_once ------------------------------------------------------------------

def base_task(**kw):
    defaults = dict(run_index=0, master_seed=1, problem="classic", algo="ea",
                    family="path", size=8, wmax=1, instance_seed=5,
                    setting_kind="prob", at_step=0, p_d=0.0,
                    policy_name="uniform", init="zeros", budget=10**4,
                    stride=1, want_trace=False)
    defaults.update(kw)
    return RunTask(**defaults)


def test_run_once_initial_target_is_zero_steps():
    rec = run_once(base_task(init="greedy"))
    assert rec.target_reached and rec.steps_to_target == 0


def test_run_once_weighted_rls_reaches_checked_maximal(p3w):
    task = base_task(problem="weighted", algo="rls", family="file", size=0,
                     graph_text=p3w.to_text())
    rec = run_once(task)
    assert rec.target_reached
    g = Graph.from_text(rec.final_graph_text)
    assert dual_maximal(rec.final_solution, g)
    assert rec.steps_to_target <= 10**4


def test_run_once_is_deterministic():
    task = base_task(problem="weighted", algo="ea", family="gnp", size=12,
                     wmax=4, p_d=0.01, want_trace=True)
    a, b = run_once(task), run_once(task)
    assert a.steps_to_target == b.steps_to_target
    assert a.trace == b.trace
    assert a.n_changes == b.n_changes
    assert np.array_equal(a.final_solution, b.final_solution)
    assert a.final_graph_text == b.final_graph_text


def test_run_once_budget_exhaustion_recorded():
    rec = run_once(base_task(size=30, budget=3))
    assert not rec.target_reached
    assert rec.steps_to_target == 3 == rec.budget


def test_run_once_counts_changes_and_spans():
    task = base_task(init="greedy", setting_kind="onetime",
                     policy_name="delete_positive", size=16)
    rec = run_once(task)
    assert rec.n_changes == 1
    assert len(rec.reopt_spans) == 1
    assert rec.reopt_spans[0] == rec.steps_to_target


def test_run_once_scripted_changes():
    g = make_instance("path", 6, seed=9)
    from dynvc.dynamics import parse_change_script
    script = tuple(parse_change_script("at 0 del 3 4\nat 2 del 1 2\n"))
    task = base_task(family="file", size=0, graph_text=g.to_text(),
                     setting_kind="script", script=script, init="greedy")
    rec = run_once(task)
    assert rec.n_changes == 2
    assert rec.target_reached
    assert Graph.from_text(rec.final_graph_text).m == 4


def test_run_once_trace_stride():
    task = base_task(size=16, want_trace=True, stride=4, budget=100)
    rec = run_once(task)
    steps = [row[0] for row in rec.trace]
    assert steps == sorted(steps)
    assert all(s % 4 == 0 for s in steps)


# -- sweeps -----------------------------------------------------------------------

def test_run_sweep_shape_and_order():
    cfg = ExperimentConfig(family="path", sizes=(4, 8), reps=3, seed=5)
    recs = run_sweep(cfg)
    assert len(recs) == 6
    assert [r.run_index for r in recs] == list(range(6))
    assert [r.m for r in recs] == [4, 4, 4, 8, 8, 8]


def test_run_sweep_rejects_bad_config():
    with pytest.raises(ValueError, match="reps"):
        ExperimentConfig(family="path", sizes=(4,), reps=0).validate()
    with pytest.raises(ValueError, match="family"):
        ExperimentConfig(family="blob", sizes=(4,)).validate()
    with pytest.raises(ValueError, match="pd"):
        ExperimentConfig(family="path", sizes=(4,), pd=1.5).validate()


def test_run_sweep_deterministic_and_job_invariant():
    cfg = ExperimentConfig(family="gnp", sizes=(10, 14), problem="weighted",
                           algo="rls", setting="prob", pd=0.002, wmax=4,
                           reps=4, seed=99, budget="50*wmax*m")
    a = records_to_csv(run_sweep(cfg))
    b = records_to_csv(run_sweep(cfg))
    cfg.jobs = 2
    c = records_to_csv(run_sweep(cfg))
    assert a == b == c


def test_sweep_certified_runs_pass_oracles():
    cfg = ExperimentConfig(family="gnp", sizes=(8, 12), problem="weighted",
                           algo="ea", setting="prob", pd=0.001, wmax=3,
                           reps=5, seed=17)
    for rec in run_sweep(cfg):
        assert rec.error is None
        if rec.target_reached and rec.n <= 16:
            g = Graph.from_text(rec.final_graph_text)
            assert dual_maximal(rec.final_solution, g)
            assert is_2_approx(induced_cover(rec.final_solution, g), g)
    cfg2 = ExperimentConfig(family="gnp", sizes=(8, 12), problem="classic",
                            algo="rls", setting="prob", pd=0.001, reps=5, seed=18)
    for rec in run_sweep(cfg2):
        if rec.target_reached and rec.n <= 16:
            g = Graph.from_text(rec.final_graph_text)
            assert is_maximal_matching(rec.final_solution, g)
            assert is_2_approx(cover_set(rec.final_solution, g), g)


def test_auto_pd_and_opt_budget_resolution():
    cfg = ExperimentConfig(family="gnp", sizes=(10,), problem="weighted",
                           algo="ea", setting="prob", pd="auto_thm9",
                           wmax=3, reps=1, seed=3, budget="5*(opt*m+m*m)")
    rec = run_sweep(cfg)[0]
    g = make_instance("gnp", 10, 3, child_seed(3, 0, salt=0x1157))
    opt = exact_min_vc(g)[0]
    import math
    phase = 2 * math.e * opt * g.m + 10 * math.e**2 * g.m**2
    assert float(rec.param) == pytest.approx(1 / (1.1 * phase))
    assert rec.budget == math.ceil(5 * (opt * g.m + g.m * g.m))


# -- statistics and CSV -----------------------------------------------------------

def test_fit_scaling_examples():
    assert fit_scaling([(2, 4), (4, 8), (8, 16)]) == pytest.approx(1.0)
    assert fit_scaling([(2, 4), (4, 16), (8, 64)]) == pytest.approx(2.0)
    assert fit_scaling([(10, 7.5), (20, 7.5), (40, 7.5)]) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="3 points"):
        fit_scaling([(2, 4), (4, 8)])
    with pytest.raises(ValueError, match="increasing"):
        fit_scaling([(2, 4), (2, 8), (8, 16)])
    with pytest.raises(ValueError, match="positive"):
        fit_scaling([(2, 0.0), (4, 8), (8, 16)])
    with pytest.raises(ValueError, match="positive"):
        fit_scaling([(2, 4), (4, math.nan), (8, 16)])


def test_summarize_reports_mean_stderr_median():
    cfg = ExperimentConfig(family="path", sizes=(4, 8), reps=5, seed=1)
    rows = summarize(run_sweep(cfg))
    assert [row["m"] for row in rows] == [4, 8]
    for row in rows:
        assert row["runs"] == 5
        assert row["stderr"] >= 0
        assert 0 <= row["reached"] <= 1


def test_summarize_leaves_out_failed_runs():
    g = make_instance("path", 6, seed=9)
    from dynvc.dynamics import parse_change_script
    bad = tuple(parse_change_script("at 2 del 1 5\n"))  # no such edge
    recs = [run_once(base_task(run_index=i, size=6, init="greedy",
                               setting_kind="onetime")) for i in range(3)]
    recs += [_run_task_safe(base_task(run_index=3 + i, family="file", size=0,
                                      graph_text=g.to_text(), init="greedy",
                                      setting_kind="script", script=bad))
             for i in range(2)]
    assert all(r.error and r.n == 7 and r.m == 6 for r in recs[3:])
    (row,) = summarize(recs)
    assert row["runs"] == 3 and row["errors"] == 2
    assert row["mean"] == np.mean([r.steps_to_target for r in recs[:3]])
    assert row["reached"] == 3 / 5  # a failed run did not reach the target
    (only_failed,) = summarize(recs[3:])
    assert only_failed["runs"] == 0 and only_failed["errors"] == 2
    assert only_failed["reached"] == 0.0
    for stat in ("mean", "stderr", "median"):
        assert np.isnan(only_failed[stat])


def test_chunksize_reaches_every_worker():
    assert _chunksize(100, 2) == 8  # large sweeps keep batches of 8
    assert _chunksize(8, 2) == 4
    assert _chunksize(4, 2) == 2
    assert _chunksize(3, 4) == 1
    for n_tasks in range(1, 40):
        for jobs in range(1, 5):
            size = _chunksize(n_tasks, jobs)
            assert 1 <= size <= 8
            # enough batches that no worker sits idle while another has two
            assert -(-n_tasks // size) >= min(jobs, n_tasks)


def test_csv_headers_and_shape():
    cfg = ExperimentConfig(family="path", sizes=(4,), reps=2, seed=1, trace=True)
    recs = run_sweep(cfg)
    csv = records_to_csv(recs)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0,1,path,5,4,1,ea,classic,prob,")
    tcsv = traces_to_csv(recs)
    assert tcsv.startswith("run_index,step,uncovered,total_weight\n")


def test_budget_expressions():
    assert eval_budget("50*m*(1+ln(m))", {"m": 64.0}) == \
        int(np.ceil(50 * 64 * (1 + np.log(64))))
    assert eval_budget("2**10", {}) == 1024
    assert budget_names("50*(opt*m + m*m)") == {"opt", "m"}
    with pytest.raises(ValueError, match="unknown name"):
        eval_budget("m*q", {"m": 3.0})
    with pytest.raises(ValueError, match="bad budget"):
        eval_budget("import os", {})
    with pytest.raises(ValueError, match="unsupported"):
        eval_budget("__import__('os')", {})
    with pytest.raises(ValueError, match="evaluated"):
        eval_budget("m-10", {"m": 3.0})
    assert "ln" in default_budget_expr("classic", "ea")
    assert default_budget_expr("weighted", "rls") == "50*wmax*m"
    assert "opt" in default_budget_expr("weighted", "ea")
