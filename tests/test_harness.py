import itertools
import math

import numpy as np
import pytest

from dynvc import (ExperimentConfig, Graph, OneTime, Probabilistic, Scripted,
                   fitness_classic, fitness_weighted, run_once, run_sweep,
                   spawn_rng, step_classic, step_weighted, target_reached)
from dynvc.engine import _ClassicEngine, _DualEngine
from dynvc.harness import (RunTask, _chunksize, _instance, _task_size,
                           _run_task_safe, build_tasks, child_seed,
                           budget_names, default_budget_expr, eval_budget,
                           fit_scaling, greedy_maximal_dual,
                           greedy_maximal_matching, make_instance,
                           make_instance_by_n, records_to_csv, summarize,
                           traces_to_csv, CSV_HEADER)
from dynvc.oracles import (dual_maximal, exact_min_vc, is_2_approx,
                           is_maximal_matching)
from dynvc.classic import cover_set
from dynvc.cli import main as cli_main
from dynvc.dynamics import DELETE_POSITIVE_POLICY, UNIFORM_POLICY
from dynvc.weighted import induced_cover

from conftest import (ForcedRng, assert_mates, engine_fitness, engine_step,
                      flip_mask_draws, free_slots, in_region, mate_events,
                      random_graph)


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


def test_family_by_n_is_make_instance_at_its_edge_count():
    m_of_n = {"path": lambda n: n - 1, "star": lambda n: n - 1,
              "cycle": lambda n: n,
              "bipartite": lambda n: (n // 2) * (n - n // 2)}
    for family, m_of in m_of_n.items():
        for n in range(3, 30):
            for wmax, seed in ((1, 0), (5, 3)):
                assert (make_instance_by_n(family, n, wmax=wmax, seed=seed)
                        == make_instance(family, m_of(n), wmax, seed))
    for family in ("path", "star", "bipartite"):
        assert make_instance_by_n(family, 1, wmax=5, seed=3) == Graph(1)


def test_family_by_n_gnp_unweighted_edges_pinned():
    g = make_instance_by_n("gnp", 10, m=13, seed=1)
    assert g.edges() == [(1, 5), (1, 8), (2, 3), (2, 4), (2, 9), (3, 7),
                         (3, 9), (4, 6), (4, 8), (4, 10), (6, 10), (7, 9),
                         (7, 10)]


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
# The engines model only the region the searches keep to (matchings and
# feasible duals), so these tests map their drawn solutions into it with
# ``in_region``; the pure step functions keep the whole domain in
# test_classic.py and test_weighted.py.

@pytest.mark.parametrize("problem,variant", [
    ("classic", "ea"), ("classic", "rls"),
    ("weighted", "ea"), ("weighted", "rls"),
])
def test_engine_matches_pure_steps(problem, variant):
    rng = np.random.default_rng(47)
    for trial in range(25):
        g = random_graph(rng, n_max=9, w_max=4 if problem == "weighted" else 1)
        if problem == "classic":
            sol = in_region(problem, (rng.random(g.m) < 0.5).astype(np.uint8), g)
            engine = _ClassicEngine(g, sol)
            fitness, step = fitness_classic, step_classic
        else:
            sol = in_region(problem, rng.integers(0, 3, size=g.m).astype(np.int64), g)
            engine = _DualEngine(g, sol)
            fitness, step = fitness_weighted, step_weighted
        rng_a = spawn_rng(trial, 0)
        rng_b = spawn_rng(trial, 0)
        f = fitness(sol, g)
        assert engine_fitness(engine) == tuple(f)
        for _ in range(300):
            sol = step(sol, g, variant, rng_a, f)
            f = fitness(sol, g)
            engine_step(engine, variant, rng_b)
            assert engine_fitness(engine) == tuple(f)
        assert np.array_equal(engine.solution(), sol)


def _forced_one_move(variant, j, m, coin):
    """Draws that make one step hit slot j alone (with ``coin`` for a dual)."""
    coins = [] if coin is None else [coin]
    if variant == "rls":
        return ForcedRng(integers=[j] + coins)
    return ForcedRng(geometric=flip_mask_draws([j], m), integers=coins)


@pytest.mark.parametrize("problem", ["classic", "weighted"])
def test_engine_one_move_steps_match_pure_steps(problem):
    # every slot, both variants and both dual directions, from matchings and
    # feasible duals with tight vertices and zero dual entries
    rng = np.random.default_rng(61)
    for _ in range(40):
        g = random_graph(rng, n_max=7, w_max=3 if problem == "weighted" else 1)
        if problem == "classic":
            sol = in_region(problem, (rng.random(g.m) < 0.4).astype(np.uint8), g)
            make, fitness, step, coins = _ClassicEngine, fitness_classic, step_classic, [None]
        else:
            sol = in_region(problem, rng.integers(0, 3, size=g.m).astype(np.int64), g)
            make, fitness, step, coins = _DualEngine, fitness_weighted, step_weighted, [0, 1]
        for variant in ("ea", "rls"):
            for j in range(g.m):
                for coin in coins:
                    engine = make(g, sol)
                    draws = _forced_one_move(variant, j, g.m, coin)
                    engine_step(engine, variant, draws)
                    want = step(sol, g, variant, _forced_one_move(variant, j, g.m, coin))
                    assert not (draws._geo or draws._int)
                    assert engine_fitness(engine) == tuple(fitness(want, g))
                    assert np.array_equal(engine.solution(), want)


@pytest.mark.parametrize("problem", ["classic", "weighted"])
def test_engine_multi_move_steps_match_pure_steps(problem, monkeypatch):
    # every 2-slot and 3-slot EA move set, with every coin pattern for the
    # dual, from matchings and feasible duals with tight vertices and zero
    # dual entries: the O(k) decision must keep exactly what the pure step
    # keeps, ties included. A step applies its removals before its
    # additions and reverts in the reverse order, so every state it passes
    # through, applied or reverted, must have no adjacent selected pair or
    # no violation: each elementary move is checked from scratch
    rng = np.random.default_rng(67)
    if problem == "classic":
        make, fitness, step = _ClassicEngine, fitness_classic, step_classic
    else:
        make, fitness, step = _DualEngine, fitness_weighted, step_weighted
    move, passed = make._delta, []

    def checked_move(self, j, d):
        move(self, j, d)
        assert fitness(self.solution(), self.g)[0] == 0  # pairs or violations
        passed.append((j, d))

    monkeypatch.setattr(make, "_delta", checked_move)
    for _ in range(40 if problem == "classic" else 12):  # most classic sets apply nothing
        g = random_graph(rng, n_max=5, w_max=3 if problem == "weighted" else 1)
        if problem == "classic":
            sol = in_region(problem, (rng.random(g.m) < 0.4).astype(np.uint8), g)
        else:
            sol = in_region(problem, rng.integers(0, 3, size=g.m).astype(np.int64), g)
        engine = make(g, sol)
        for k in (2, 3):
            for slots in itertools.combinations(range(g.m), k):
                patterns = ([[]] if problem == "classic"
                            else itertools.product((0, 1), repeat=k))
                for coins in patterns:
                    draws = ForcedRng(geometric=flip_mask_draws(slots, g.m), integers=coins)
                    engine_step(engine, "ea", draws)
                    want = step(sol, g, "ea", ForcedRng(
                        geometric=flip_mask_draws(slots, g.m), integers=coins))
                    assert not (draws._geo or draws._int)
                    assert engine_fitness(engine) == tuple(fitness(want, g))
                    assert np.array_equal(engine.solution(), want)
                    if not np.array_equal(want, sol):
                        engine = make(g, sol)
    assert len(passed) > (150 if problem == "classic" else 800)  # not vacuous


def _search_state(problem, g, rng):
    """A greedy maximal solution or a random one mapped into the region; the
    greedy ones leave many slots outside the dual's F, and the sparse ones
    keep some unselected slots in it."""
    if problem == "classic":
        if rng.random() < 0.5:
            return greedy_maximal_matching(g, rng)
        return in_region(problem, (rng.random(g.m) < rng.random() / 2).astype(np.uint8), g)
    if rng.random() < 0.5:
        return greedy_maximal_dual(g, rng)
    return in_region(problem, rng.integers(0, 3, size=g.m).astype(np.int64), g)


@pytest.mark.parametrize("problem", ["weighted"])
def test_steps_that_miss_the_free_slots_change_nothing(problem):
    # the lemma the dual EA's event rate rests on: every 1-, 2- and 3-slot
    # hit set outside the engine's F, with every coin pattern, leaves the
    # pure step's solution as it is
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(40):
        g = random_graph(rng, n_max=6, w_max=3)
        sol = _search_state(problem, g, rng)
        free = set(_DualEngine(g, sol).free)
        rest = [j for j in range(g.m) if j not in free]
        for k in (1, 2, 3):
            for slots in itertools.combinations(rest, k):
                for coins in itertools.product((0, 1), repeat=k):
                    draws = ForcedRng(geometric=flip_mask_draws(slots, g.m), integers=coins)
                    assert np.array_equal(step_weighted(sol, g, "ea", draws), sol)
                    assert not (draws._geo or draws._int)
                    checked += 1
    assert checked > 500  # not vacuous


def _random_matching(g, rng):
    """A matching that is seldom maximal: a shuffled scan that selects a
    disjoint slot with chance 1/2."""
    eu, ev = g.endpoint_lists()
    sol, used = np.zeros(g.m, dtype=np.uint8), set()
    for j in rng.permutation(g.m).tolist():
        if eu[j] not in used and ev[j] not in used and rng.random() < 0.5:
            sol[j] = 1
            used.update((eu[j], ev[j]))
    return sol


def test_classic_steps_outside_every_mate_event_change_nothing():
    # the lemma the classic EA's events rest on: at a matching, every 1-, 2-
    # and 3-slot hit set that holds no E'_t leaves the pure step's solution
    # as it is, and the engine's proposal rate is the sum of P(E'_t)
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(40):
        g = random_graph(rng, n_max=6)
        sol = (greedy_maximal_matching(g, rng) if rng.random() < 0.5
               else _random_matching(g, rng))
        engine = _ClassicEngine(g, sol)
        events = mate_events(sol, g)
        assert {t: {t, engine._mu(t)} - {-1} for t in events} == events
        assert math.isclose(engine.ea_rate(), sum(g.m ** -len(e) for e in events.values()))
        for k in (1, 2, 3):
            for slots in itertools.combinations(range(g.m), k):
                if any(e <= set(slots) for e in events.values()):
                    continue
                draws = ForcedRng(geometric=flip_mask_draws(slots, g.m))
                assert np.array_equal(step_classic(sol, g, "ea", draws), sol)
                assert not draws._geo
                checked += 1
    assert checked > 500  # not vacuous


def _build_cases(problem, rng):
    """Graphs for the one-pass build: small random ones, then the edge cases
    of its vectorised constructor."""
    wmax = 4 if problem == "weighted" else 1
    for _ in range(60):
        yield random_graph(rng, n_max=9, w_max=wmax)
    yield Graph(6)  # m = 0
    g = Graph(12, vertex_weight={v: 1 + v % wmax for v in range(1, 13)})
    for u, v in [(1, 2), (2, 3), (1, 3), (3, 5)]:
        g.add_edge(u, v)  # 4 and 6..12 isolated
    yield g
    g = random_graph(rng, n_max=9, w_max=wmax, min_edges=10)
    for _ in range(30):  # churn the slot order by swap-removes and appends
        if g.m and rng.random() < 0.6:
            g.remove_edge(int(rng.integers(g.m)))
        elif g.m < g.m_max:
            g.add_edge(*g.free_pair(int(rng.integers(g.m_max - g.m))))
    yield g
    yield make_instance("gnp", 512, wmax=wmax, seed=7)


@pytest.mark.parametrize("problem", ["classic", "weighted"])
def test_one_pass_build_equals_an_engine_built_by_moves(problem):
    # the constructor's single pass against an empty engine raised to the
    # same solution by its own moves: values, room, total and ``mate`` equal,
    # indexes equal as sets, and every counter and list entry a Python int
    rng = np.random.default_rng(73)
    make = _ClassicEngine if problem == "classic" else _DualEngine
    state = ("s", "room", "total", *make.__slots__)
    own = ("m", "accepting", "where", *(n for n in state if n != "law"))  # law: floats
    sizes = []
    for g in _build_cases(problem, rng):
        sizes.append(g.m)
        sol = _search_state(problem, g, rng)
        built, grown = make(g, sol), make(g, np.zeros_like(sol))
        for j in np.nonzero(sol)[0].tolist():
            if problem == "classic":
                grown.apply(j)
            else:
                grown._delta(j, int(sol[j]))
        for name in state:
            if name not in ("free", "fwhere"):  # compared below
                assert getattr(built, name) == getattr(grown, name), name
        for name in own:
            value = getattr(built, name)
            entries = value if isinstance(value, list) else [value]
            assert all(type(x) is int for x in entries), name
        indexes = [(built.accepting, built.where, grown.accepting)]
        if problem == "classic":
            assert_mates(built.mate, sol, g)
        else:
            indexes.append((built.free, built.fwhere, grown.free))
            assert sorted(built.free) == sorted(free_slots(sol, g))
            assert len(built.fwhere) == g.m
        for items, where, grown_items in indexes:
            assert all(where[i] == p for p, i in enumerate(items))
            assert sum(p >= 0 for p in where) == len(items)
            assert set(items) == set(grown_items) and len(items) == len(grown_items)
        assert len(built.where) == g.m
        assert np.array_equal(built.solution(), sol)
        assert built.solution().dtype == sol.dtype
    assert 0 in sizes and max(sizes) >= 512


def test_engine_target_agrees_with_predicate():
    rng = np.random.default_rng(53)
    for _ in range(50):
        g = random_graph(rng, n_max=9, w_max=3)
        bitsol = in_region("classic", (rng.random(g.m) < 0.5).astype(np.uint8), g)
        dualsol = in_region("weighted", rng.integers(0, 3, size=g.m).astype(np.int64), g)
        assert _ClassicEngine(g, bitsol).at_target() == target_reached(bitsol, g, "classic")
        assert _DualEngine(g, dualsol).at_target() == target_reached(dualsol, g, "weighted")


# -- run_once ------------------------------------------------------------------

def base_task(**kw):
    defaults = dict(run_index=0, master_seed=1, problem="classic", algo="ea",
                    family="path", wmax=1, source=("path", 8, 1, 5),
                    schedule=Probabilistic(0.0),
                    policy=UNIFORM_POLICY, init="zeros", budget=10**4,
                    stride=1, want_trace=False)
    defaults.update(kw)
    return RunTask(**defaults)


def test_run_once_initial_target_is_zero_steps():
    rec = run_once(base_task(init="greedy"))
    assert rec.target_reached and rec.steps_to_target == 0


def test_run_once_weighted_rls_reaches_checked_maximal(p3w):
    task = base_task(problem="weighted", algo="rls", family="file",
                     source=p3w.to_text())
    rec = run_once(task)
    assert rec.target_reached
    g = Graph.from_text(rec.final_graph_text)
    assert dual_maximal(rec.final_solution, g)
    assert rec.steps_to_target <= 10**4


def test_run_once_is_deterministic():
    task = base_task(problem="weighted", algo="ea", family="gnp",
                     source=("gnp", 12, 4, 5), wmax=4, schedule=Probabilistic(0.01), want_trace=True)
    a, b = run_once(task), run_once(task)
    assert a.steps_to_target == b.steps_to_target
    assert a.trace == b.trace
    assert a.n_changes == b.n_changes
    assert np.array_equal(a.final_solution, b.final_solution)
    assert a.final_graph_text == b.final_graph_text


def test_run_once_recertifies_a_reported_target(monkeypatch, tmp_path):
    # an engine that reports its target without reaching it must not give a
    # reached row: the run raises, its record is an error, and a sweep exits 4
    monkeypatch.setattr(_ClassicEngine, "at_target", lambda self: True)
    task = base_task()
    with pytest.raises(ValueError, match="does not certify"):
        run_once(task)
    rec = _run_task_safe(task)
    assert rec.error and not rec.target_reached
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = path\nsizes = 8\njobs = 1\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 4


def test_engines_refuse_starts_outside_the_region(p3, p3w):
    with pytest.raises(ValueError, match="must start at a matching"):
        _ClassicEngine(p3, np.array([1, 1], dtype=np.uint8))
    with pytest.raises(ValueError, match="must start at a feasible dual"):
        _DualEngine(p3w, np.array([2, 0], dtype=np.int64))  # vertex 1: load 2 > 1
    assert _ClassicEngine(p3, np.array([0, 1], dtype=np.uint8)).at_target()
    assert _DualEngine(p3w, np.array([1, 1], dtype=np.int64)).at_target()


@pytest.mark.parametrize("problem", ["classic", "weighted"])
def test_runs_must_start_in_the_region(problem, monkeypatch, tmp_path):
    # the engines model only the region the searches keep to, matchings and
    # feasible duals: an EA or RLS start outside it (adjacent selected
    # edges, an overloaded vertex) is refused, as an error record and a
    # sweep that exits 4
    if problem == "classic":
        monkeypatch.setattr("dynvc.harness.greedy_maximal_matching",
                            lambda g, rng=None: np.ones(g.m, dtype=np.uint8))
    else:
        monkeypatch.setattr("dynvc.harness.greedy_maximal_dual",
                            lambda g, rng=None: np.full(g.m, g.w_max + 1, dtype=np.int64))
    for algo in ("ea", "rls"):
        task = base_task(problem=problem, algo=algo, init="greedy")
        with pytest.raises(ValueError, match="must start at a"):
            run_once(task)
        rec = _run_task_safe(task)
        assert rec.error and not rec.target_reached
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"family = path\nsizes = 8\nproblem = {problem}\ninit = greedy\njobs = 1\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 4


def test_run_once_budget_exhaustion_recorded():
    rec = run_once(base_task(source=("path", 30, 1, 5), budget=3))
    assert not rec.target_reached
    assert rec.steps_to_target == 3 == rec.budget


def test_run_once_counts_changes_and_spans():
    task = base_task(init="greedy", schedule=OneTime(),
                     policy=DELETE_POSITIVE_POLICY, source=("path", 16, 1, 5))
    rec = run_once(task)
    assert rec.n_changes == 1
    assert len(rec.reopt_spans) == 1
    assert rec.reopt_spans[0] == rec.steps_to_target


def test_run_once_scripted_changes():
    g = make_instance("path", 6, seed=9)
    from dynvc.dynamics import parse_change_script
    script = tuple(parse_change_script("at 0 del 3 4\nat 2 del 1 2\n"))
    task = base_task(family="file", source=g.to_text(),
                     schedule=Scripted(script), init="greedy")
    rec = run_once(task)
    assert rec.n_changes == 2
    assert rec.target_reached
    assert Graph.from_text(rec.final_graph_text).m == 4


def test_run_once_trace_stride():
    task = base_task(source=("path", 16, 1, 5), want_trace=True, stride=4,
                     budget=100)
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
    with pytest.raises(ValueError, match="at_step"):
        ExperimentConfig(family="path", sizes=(4,), setting="onetime",
                         at_step=-3).validate()


def test_file_sweep_parses_its_graph_once(tmp_path, monkeypatch):
    path = tmp_path / "g.graph"
    path.write_text(make_instance("gnp", 20, wmax=5, seed=3).to_text())
    parsed = []
    from_text = Graph.from_text.__func__
    monkeypatch.setattr(Graph, "from_text", classmethod(
        lambda cls, text: parsed.append(1) or from_text(cls, text)))
    _instance.cache_clear()
    cfg = ExperimentConfig(family="file", sizes=(), graph_file=str(path),
                           setting="onetime", reps=4, seed=2)
    recs = run_sweep(cfg)
    text = path.read_text()
    assert _instance(text).to_text() == text  # each run changed its own copy
    assert len(parsed) == 1
    assert all(r.n_changes == 1 for r in recs)
    # a file graph records its own weight bound, not the config's
    g = Graph.from_text(path.read_text())
    assert 1 < g.w_max and {r.w_max for r in recs} == {g.w_max}
    assert {t.wmax for t in build_tasks(cfg)} == {g.w_max}


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


def test_weighted_ea_sweep_resolves_opt_beyond_the_exact_oracle():
    # gnp m=256 has n=33 > 24 vertices; there the default budget and
    # auto_thm9 take the weight of the cover that the unshuffled greedy
    # maximal dual induces, which lies between that dual's total and twice it
    cfg = ExperimentConfig(family="gnp", sizes=(64, 128, 256), problem="weighted",
                           algo="ea", pd="auto_thm9", wmax=8, reps=1, seed=5)
    records = run_sweep(cfg)
    assert [r.n for r in records] == [17, 24, 33]
    assert all(r.error is None and r.target_reached for r in records)
    g = _instance(build_tasks(cfg)[2].source)
    dual = greedy_maximal_dual(g)
    ub = sum(g.vertex_weight(v) for v in induced_cover(dual, g))
    assert dual.sum() <= ub <= 2 * dual.sum()
    assert records[2].budget == math.ceil(50 * (ub * g.m + g.m * g.m))
    phase = 2 * math.e * ub * g.m + 10 * math.e**2 * g.m**2
    assert float(records[2].param) == pytest.approx(1 / (1.1 * phase))


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
    recs = [run_once(base_task(run_index=i, source=("path", 6, 1, 5), init="greedy",
                               schedule=OneTime())) for i in range(3)]
    recs += [_run_task_safe(base_task(run_index=3 + i, family="file",
                                      source=g.to_text(), init="greedy",
                                      schedule=Scripted(bad)))
             for i in range(2)]
    assert all(r.error and r.n == 7 and r.m == 6 for r in recs[3:])
    assert all((r.setting, r.param) == ("script", "script") for r in recs[3:])
    (row,) = summarize(recs)
    assert row["runs"] == 3 and row["errors"] == 2
    assert row["mean"] == np.mean([r.steps_to_target for r in recs[:3]])
    assert row["reached"] == 3 / 5  # a failed run did not reach the target
    (only_failed,) = summarize(recs[3:])
    assert only_failed["runs"] == 0 and only_failed["errors"] == 2
    assert only_failed["reached"] == 0.0
    for stat in ("mean", "stderr", "median"):
        assert np.isnan(only_failed[stat])


def test_serial_sweep_starts_on_the_instance_set_up_left_cached(monkeypatch):
    # build_tasks builds the sizes in ascending order and _instance keeps the
    # last one; the serial sweep runs largest first, so it builds every size
    # but the largest once more
    built = []

    def counted(family, m, *args):
        built.append(m)
        return make_instance(family, m, *args)

    monkeypatch.setattr("dynvc.harness.make_instance", counted)
    _instance.cache_clear()
    cfg = ExperimentConfig(family="gnp", sizes=(6, 10, 20), reps=3, seed=5)
    recs = run_sweep(cfg)
    assert built == [6, 10, 20, 10, 6]
    assert len(built) == 2 * len(cfg.sizes) - 1
    assert [r.run_index for r in recs] == list(range(9))
    assert [r.m for r in recs] == [6] * 3 + [10] * 3 + [20] * 3


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


def test_pool_dispatch_starts_with_the_largest_instances(monkeypatch):
    sent = []

    class InlinePool:  # records what run_sweep hands the pool, runs it inline
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            sent.extend(tasks)
            return map(fn, tasks)

    cfg = ExperimentConfig(family="gnp", sizes=(6, 20, 10), reps=3, seed=5)
    serial = records_to_csv(run_sweep(cfg))
    cfg.jobs = 2
    monkeypatch.setattr("dynvc.harness.ProcessPoolExecutor", InlinePool)
    assert records_to_csv(run_sweep(cfg)) == serial
    assert [_task_size(t) for t in sent] == [20] * 3 + [10] * 3 + [6] * 3
    # each size's repetitions stay in run order, back to back
    assert [t.run_index for t in sent] == [3, 4, 5, 6, 7, 8, 0, 1, 2]


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
