"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Scaling experiments use fixed master seeds and finish in seconds to
a couple of minutes on commodity hardware.
"""

import math
import subprocess
import sys
from itertools import product

import numpy as np

from dynvc import Graph, fitness_weighted, spawn_rng
from dynvc.classic import cover_set, fitness_classic
from dynvc.dynamics import ea_phase_length, sample_change, apply_change
from dynvc.harness import (ExperimentConfig, child_seed, fit_scaling,
                           greedy_maximal_dual, make_instance, run_sweep,
                           summarize)
from dynvc.oracles import (dual_feasible, dual_maximal, exact_min_vc, gap_G,
                           gap_Gstar, is_2_approx, is_maximal_matching,
                           max_dual_value)
from dynvc.weighted import induced_cover

from conftest import random_graph
from scalars import scalar_classic, scalar_weighted

JOBS = 2


def _report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _sweep(cfg):
    """``run_sweep``, failing the criterion when any run ended in an error."""
    recs = run_sweep(cfg)
    errors = [r.error for r in recs if r.error is not None]
    assert not errors, f"{len(errors)} failed runs, first: {errors[0]}"
    return recs


def _pooled_means(record_lists, values=lambda r: [r.steps_to_target]):
    by_size = {}
    for recs in record_lists:
        for r in recs:
            by_size.setdefault(r.m, []).extend(values(r))
    return [(m, float(np.mean(v))) for m, v in sorted(by_size.items())]


def test_c01_rejection_dominance():
    rng = np.random.default_rng(10)
    crng = spawn_rng(10, 0)
    failures = 0
    n_violation = n_uncovered = n_changes = 0
    for _ in range(1000):
        g = random_graph(rng, n_max=10, w_max=4)
        cap = 2 * g.w_max
        current = np.minimum(rng.integers(0, cap + 1, size=g.m), cap).astype(np.int64)
        mutant = current.copy()
        for _ in range(int(rng.integers(1, 4))):
            j = int(rng.integers(g.m))
            mutant[j] = max(int(mutant[j]) + (1 if rng.random() < 0.7 else -1), 0)
        fc, fm = fitness_weighted(current, g), fitness_weighted(mutant, g)
        if fm.violations <= fc.violations:
            # construct a guaranteed extra violation: overshoot one endpoint
            j = int(rng.integers(g.m))
            u, v = g.endpoints(j)
            mutant = current.copy()
            mutant[j] += g.vertex_weight(u) + g.vertex_weight(v) + 1
            fm = fitness_weighted(mutant, g)
        if fm.violations > fc.violations:
            n_violation += 1
            failures += fm.beats(fc)
        feas = greedy_maximal_dual(g, rng)
        feas = np.maximum(feas - rng.integers(0, 3, size=g.m), 0)
        mutant2 = feas.copy()
        drop = np.nonzero(mutant2)[0]
        if drop.shape[0]:
            mutant2[drop[int(rng.integers(drop.shape[0]))]] = 0
        ff, fm2 = fitness_weighted(feas, g), fitness_weighted(mutant2, g)
        if ff.violations == 0 and fm2.uncovered > ff.uncovered:
            n_uncovered += 1
            failures += fm2.beats(ff)
        change = sample_change(g, crng)
        if change is not None:
            n_changes += 1
            after = apply_change(g, feas, change)
            failures += fitness_weighted(after, g).violations != 0
    ok = (failures == 0 and n_violation >= 100 and n_uncovered >= 100
          and n_changes >= 900)
    _report("C1 rejection-dominance", ok,
            f"{failures} failures; {n_violation} violation cases, "
            f"{n_uncovered} uncovered cases, {n_changes} changes")


def test_c02_scalar_lexicographic_agreement():
    rng = np.random.default_rng(20)
    graphs = [random_graph(rng, n_max=12) for _ in range(150)]
    mismatches = 0
    for _ in range(10**4):
        g = graphs[int(rng.integers(len(graphs)))]
        a = (rng.random(g.m) < 0.35).astype(np.uint8)
        b = (rng.random(g.m) < 0.35).astype(np.uint8)
        fa, fb = fitness_classic(a, g), fitness_classic(b, g)
        sa, sb = scalar_classic(a, g), scalar_classic(b, g)
        mismatches += ((fa < fb) != (sa < sb)) or ((fa == fb) != (sa == sb))
    wgraphs = [random_graph(rng, n_max=12, w_max=4) for _ in range(150)]
    for _ in range(10**4):
        g = wgraphs[int(rng.integers(len(wgraphs)))]
        pair = []
        for _ in range(2):
            budget = int(rng.integers(0, g.w_total + 1))
            s = np.zeros(g.m, dtype=np.int64)
            cap = 2 * g.w_max
            while budget > 0:
                j = int(rng.integers(g.m))
                if s[j] >= cap:
                    break
                s[j] += 1
                budget -= 1
            pair.append(s)
        fa, fb = fitness_weighted(pair[0], g), fitness_weighted(pair[1], g)
        sa, sb = scalar_weighted(pair[0], g), scalar_weighted(pair[1], g)
        mismatches += (fa.beats(fb) != (sa > sb)) or \
            ((fa.order_key == fb.order_key) != (sa == sb))
    _report("C2 scalar-lex-agreement", mismatches == 0,
            f"{mismatches} sign mismatches over 2x10^4 pairs")


def test_c03_two_approximation_certification():
    runs = 0
    bad = 0
    plans = [("path", (11, 15)), ("star", (11, 15)), ("cycle", (9, 12)),
             ("bipartite", (12, 16)), ("gnp", (12, 16))]
    for idx, ((problem, algo), (family, sizes)) in enumerate(product(
            product(("classic", "weighted"), ("ea", "rls")), plans)):
        cfg = ExperimentConfig(
            family=family, sizes=sizes, problem=problem, algo=algo,
            setting="prob", pd=0.002, init="zeros",
            wmax=1 if problem == "classic" else 4, reps=13,
            seed=30 + idx, budget="auto", jobs=1)
        for rec in _sweep(cfg):
            runs += 1
            if not rec.target_reached or rec.n > 16:
                continue
            g = Graph.from_text(rec.final_graph_text)
            opt = exact_min_vc(g)[0]
            if problem == "classic":
                cover = cover_set(rec.final_solution, g)
                good = (is_maximal_matching(rec.final_solution, g)
                        and is_2_approx(cover, g))
            else:
                cover = induced_cover(rec.final_solution, g)
                dual_value = int(rec.final_solution.sum())
                good = (dual_maximal(rec.final_solution, g)
                        and is_2_approx(cover, g) and dual_value <= opt)
            bad += not good
    _report("C3 2-approx-certification", runs >= 500 and bad == 0,
            f"{runs} runs, {bad} certification failures")


def test_c04_deletion_reoptimization_linear():
    sizes = (64, 128, 256, 512)
    sweeps = []
    per_family_ok = True
    for family in ("star", "path"):
        cfg = ExperimentConfig(family=family, sizes=sizes, problem="classic",
                               algo="ea", setting="onetime",
                               policy="delete_positive", reps=200, seed=2024,
                               budget="auto", jobs=JOBS, keep_final=False)
        recs = _sweep(cfg)
        sweeps.append(recs)
        for row in summarize(recs):
            per_family_ok &= row["mean"] <= 50 * row["m"]
    pooled = _pooled_means(sweeps)
    slope = fit_scaling(pooled)
    ok = 0.7 <= slope <= 1.3 and per_family_ok
    _report("C4 deletion-reopt-linear", ok,
            f"pooled slope {slope:.3f} in [0.7,1.3]; means<=50m: {per_family_ok}; "
            f"means {[(m, round(v, 1)) for m, v in pooled]}")


def test_c05_probabilistic_from_scratch():
    sizes = (64, 128, 256, 512)
    sweeps = []
    worst_reach = 1.0
    for family in ("star", "path"):
        cfg = ExperimentConfig(family=family, sizes=sizes, problem="classic",
                               algo="ea", setting="prob", pd="auto_thm2",
                               init="zeros", reps=200, seed=500, budget="auto",
                               jobs=JOBS, keep_final=False)
        recs = _sweep(cfg)
        sweeps.append(recs)
        worst_reach = min(worst_reach,
                          min(r["reached"] for r in summarize(recs)))
    slope = fit_scaling(_pooled_means(sweeps))
    ok = worst_reach >= 0.95 and slope <= 1.4
    _report("C5 probabilistic-from-scratch", ok,
            f"worst per-size reach {worst_reach:.3f} >= 0.95; "
            f"pooled slope {slope:.3f} <= 1.4")


def test_c06_probabilistic_reoptimization():
    sizes = (64, 128, 256, 512)
    sweeps = []
    for family in ("star", "path"):
        cfg = ExperimentConfig(family=family, sizes=sizes, problem="classic",
                               algo="ea", setting="prob", pd="auto_thm2",
                               init="greedy", policy="delete_positive",
                               initial_change=True, reps=200, seed=600,
                               budget="auto", jobs=JOBS, keep_final=False)
        sweeps.append(_sweep(cfg))
    pooled = _pooled_means(sweeps, values=lambda r: r.reopt_spans)
    spans = sum(len(r.reopt_spans) for recs in sweeps for r in recs)
    slope = fit_scaling(pooled)
    ok = 0.7 <= slope <= 1.4 and spans >= 8 * 200
    _report("C6 probabilistic-reopt", ok,
            f"span slope {slope:.3f} in [0.7,1.4] over {spans} spans")


def test_c07_weighted_rls_scaling():
    cfg = ExperimentConfig(family="path", sizes=(32, 64, 128, 256),
                           problem="weighted", algo="rls", setting="onetime",
                           policy="delete_positive", wmax=8, reps=200,
                           seed=700, budget="auto", jobs=JOBS, keep_final=False)
    rows = summarize(_sweep(cfg))
    slope_m = fit_scaling([(row["m"], row["mean"]) for row in rows])
    pts = []
    for wmax in (4, 8, 16, 32):
        cfg = ExperimentConfig(family="path", sizes=(64,), problem="weighted",
                               algo="rls", setting="onetime",
                               policy="delete_positive", wmax=wmax, reps=200,
                               seed=300 + wmax, budget="auto", jobs=JOBS,
                               keep_final=False)
        pts.append((wmax, summarize(_sweep(cfg))[0]["mean"]))
    slope_w = fit_scaling(pts)
    ok = 0.7 <= slope_m <= 1.3 and 0.7 <= slope_w <= 1.3
    _report("C7 weighted-rls-scaling", ok,
            f"slope vs m {slope_m:.3f}, slope vs w_max {slope_w:.3f}, "
            f"both in [0.7,1.3]")


def test_c08_weighted_ea_phase_bound():
    sizes = (32, 64, 128)
    cfg = ExperimentConfig(family="gnp", sizes=sizes, problem="weighted",
                           algo="ea", setting="onetime",
                           policy="delete_positive", wmax=8, reps=200,
                           seed=800, budget="3*(2*e*opt*m + 10*(e**2)*m*m)",
                           jobs=JOBS, keep_final=False)
    recs = _sweep(cfg)
    by_size = {}
    for r in recs:
        by_size.setdefault(r.m, []).append(r)
    worst_within1, within3 = 1.0, True
    details = []
    for idx, (m, rs) in enumerate(sorted(by_size.items())):
        g = make_instance("gnp", m, 8, child_seed(800, idx, salt=0x1157))
        phase = ea_phase_length(exact_min_vc(g)[0], m)
        frac1 = sum(r.steps_to_target <= phase for r in rs) / len(rs)
        worst_within1 = min(worst_within1, frac1)
        within3 &= all(r.target_reached for r in rs)
        details.append((m, round(frac1, 3)))
    ok = worst_within1 >= 0.95 and within3
    _report("C8 weighted-ea-phase", ok,
            f"within 1x phase {details} (all >= 0.95); within 3x: {within3}")


def test_c09_weighted_probabilistic():
    sizes = (32, 64, 128)
    cfg = ExperimentConfig(family="gnp", sizes=sizes, problem="weighted",
                           algo="rls", setting="prob", pd="auto_thm7",
                           init="zeros", wmax=8, reps=200, seed=900,
                           budget="50*opt*m", jobs=JOBS, keep_final=False)
    rls_reach = min(r["reached"] for r in summarize(_sweep(cfg)))
    cfg = ExperimentConfig(family="gnp", sizes=sizes, problem="weighted",
                           algo="ea", setting="prob", pd="auto_thm9",
                           init="zeros", wmax=8, reps=200, seed=901,
                           budget="5*1.1*(2*e*opt*m + 10*(e**2)*m*m)",
                           jobs=JOBS, keep_final=False)
    ea_reach = min(r["reached"] for r in summarize(_sweep(cfg)))
    ok = rls_reach >= 0.95 and ea_reach >= 0.95
    _report("C9 weighted-probabilistic", ok,
            f"worst reach rls {rls_reach:.3f}, ea {ea_reach:.3f}, both >= 0.95")


def test_c10_oracle_self_consistency():
    rng = np.random.default_rng(100)
    instances = 0
    checked = 0
    bad = 0
    while instances < 20:
        n = int(rng.integers(3, 7))
        g = random_graph(rng, n_max=n, w_max=4)
        if g.m > 6 or g.m == 0:
            continue
        instances += 1
        vmax = max_dual_value(g)
        memo = {}
        caps = [min(g.vertex_weight(u), g.vertex_weight(v)) for u, v in g.edges()]
        spot = 0

        def duals(prefix):
            if len(prefix) == len(caps):
                yield np.array(prefix, dtype=np.int64)
                return
            for x in range(caps[len(prefix)] + 1):
                yield from duals(prefix + [x])

        for s in duals([]):
            if not dual_feasible(s, g):
                continue
            checked += 1
            gg = gap_G(s, g, memo)
            gstar = vmax - int(s.sum())
            bad += (gg == 0) != dual_maximal(s, g)
            bad += not (gstar >= gg >= 0)
            if spot < 5:  # bind the public gap function itself, not just vmax
                bad += gap_Gstar(s, g) != gstar
                spot += 1
    _report("C10 oracle-self-consistency", bad == 0,
            f"{checked} feasible duals over {instances} instances, {bad} failures")


def test_c11_determinism(tmp_path):
    exe = [sys.executable, "-m", "dynvc"]
    graph = tmp_path / "g.graph"
    subprocess.run(exe + ["gen", "--family", "gnp", "--n", "14", "--m", "30",
                          "--wmax", "6", "--seed", "5", "--out", str(graph)],
                   check=True)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        trace = tmp_path / ("t_" + name)
        proc = subprocess.run(
            exe + ["run", "--graph", str(graph), "--problem", "weighted",
                   "--algo", "ea", "--setting", "prob", "--pd", "auto_thm7",
                   "--budget", "auto", "--seed", "31337", "--trace",
                   str(trace), "--out", str(out)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes() + trace.read_bytes())
    run_same = outs[0] == outs[1]

    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("family = path\nsizes = 16,32\nreps = 5\nseed = 77\n"
                       "setting = onetime\npolicy = delete_positive\n")
    sweep_outs = []
    for name, jobs in (("s1.csv", "1"), ("s2.csv", "2"), ("s3.csv", "2")):
        out = tmp_path / name
        proc = subprocess.run(
            exe + ["sweep", "--config", str(cfgfile), "--out", str(out),
                   "--jobs", jobs], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        sweep_outs.append(out.read_bytes())
    sweep_same = sweep_outs[0] == sweep_outs[1] == sweep_outs[2]
    _report("C11 determinism", run_same and sweep_same,
            f"run byte-identical: {run_same}; sweep byte-identical across "
            f"repeats and job counts: {sweep_same}")
