"""Deterministic experiment harness.

Runs algorithm x setting x instance repetitions, detects 2-approximation
targets, records traces and per-change re-optimization spans, and fits
scaling exponents. Every run's randomness derives from (master_seed,
run_index) through a fixed 64-bit mixing rule, so a sweep is a pure
function of its configuration regardless of execution order or job count.

The run loop drives one incremental engine per run (:mod:`dynvc.engine`)
and is rejection-free: it jumps over the steps that cannot change the state
instead of evaluating them, and samples the others from the engine's
event law. ``steps_to_target``, budgets, spans and traces still
count every step of the simulated algorithm, and runs follow the same
distribution as a per-step loop, but the random stream is not the one a
per-step loop reads, so records differ from those of such a loop.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classic import fitness_classic
from .dynamics import (DELETE_POSITIVE_POLICY, UNIFORM_POLICY, ChangePolicy,
                       OneTime, Probabilistic, Schedule, Scripted,
                       apply_change, parse_change_script,
                       pd_threshold_classic, pd_threshold_weighted_ea,
                       pd_threshold_weighted_rls, sample_change)
# perfbench/tracing.py times the engines' methods through these harness names
from .engine import _ClassicEngine, _DualEngine, _make_engine  # noqa: F401
from .graph import Graph, GraphError
from .weighted import fitness_weighted, induced_cover

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def child_seed(master_seed: int, run_index: int, salt: int = 0) -> int:
    """Fixed 64-bit mix of master seed and run index (plus a stream salt)."""
    x = _splitmix64(master_seed & _MASK64)
    x = _splitmix64(x ^ _splitmix64((run_index + salt * _GOLDEN) & _MASK64))
    return x


def spawn_rng(master_seed: int, run_index: int, salt: int = 0) -> np.random.Generator:
    """Child generator for one run; identical inputs give identical streams."""
    return np.random.Generator(np.random.PCG64(child_seed(master_seed, run_index, salt)))


# -- graph families -----------------------------------------------------------

FAMILIES = ("path", "cycle", "star", "bipartite", "gnp", "file")

_INSTANCE_SALT = 0x1157


def _instance_weights(n: int, wmax: int, rng: np.random.Generator) -> dict[int, int] | None:
    if wmax <= 1:
        return None
    draws = rng.integers(1, wmax + 1, size=n)
    return {v: int(draws[v - 1]) for v in range(1, n + 1)}


def _gnp(n: int, m: int, wmax: int, rng: np.random.Generator) -> Graph:
    """``m`` distinct uniform edges on ``n`` vertices, drawn before the weights."""
    idx = np.sort(rng.choice(n * (n - 1) // 2, size=m, replace=False))
    us, vs = np.triu_indices(n, k=1)
    g = Graph(n, vertex_weight=_instance_weights(n, wmax, rng))
    for u, v in zip((us[idx] + 1).tolist(), (vs[idx] + 1).tolist()):
        g.add_edge(u, v)
    return g


def make_instance(family: str, m: int, wmax: int = 1, seed: int = 0) -> Graph:
    """Build a family member with (about) ``m`` edges.

    path/cycle/star have exactly m edges; bipartite is the complete K_{a,b}
    with a*b = m for the most balanced factorization; gnp draws m distinct
    edges uniformly on the smallest vertex set at most half full.
    """
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    rng = spawn_rng(seed, 0, salt=_INSTANCE_SALT)
    if family == "path":
        n = m + 1
        edges = [(i, i + 1) for i in range(1, n)]
    elif family == "cycle":
        if m < 3:
            raise ValueError("cycle needs m >= 3")
        n = m
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    elif family == "star":
        n = m + 1
        edges = [(1, i) for i in range(2, n + 1)]
    elif family == "bipartite":
        a = next(d for d in range(int(math.isqrt(m)), 0, -1) if m % d == 0)
        b = m // a
        n = a + b
        edges = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    elif family == "gnp":
        n = 2
        while n * (n - 1) // 2 < 2 * m:
            n += 1
        return _gnp(n, m, wmax, rng)
    else:
        raise ValueError(f"unknown family {family!r}")
    g = Graph(n, vertex_weight=_instance_weights(n, wmax, rng))
    for u, v in edges:
        g.add_edge(u, v)
    return g


def make_instance_by_n(family: str, n: int, m: int | None = None,
                       wmax: int = 1, seed: int = 0) -> Graph:
    """Build a family member with ``n`` vertices (the generator CLI's view).

    Non-gnp families are ``make_instance`` at the edge count n vertices give
    (edgeless Graph(n) when n <= 1); gnp puts ``m`` edges, default half of
    all pairs, on exactly n vertices, drawn as in ``make_instance``.
    """
    if family == "gnp":
        total = n * (n - 1) // 2
        m = total // 2 if m is None else m
        if not 0 <= m <= total:
            raise ValueError(f"gnp with n={n} supports 0 <= m <= {total}")
        return _gnp(n, m, wmax, spawn_rng(seed, 0, salt=_INSTANCE_SALT))
    m_of_n = {"path": n - 1, "star": n - 1, "cycle": n,
              "bipartite": (n // 2) * (n - n // 2)}
    if family not in m_of_n:
        raise ValueError(f"unknown family {family!r}")
    if n <= 1 and family != "cycle":
        return Graph(n)
    return make_instance(family, m_of_n[family], wmax, seed)


# -- starting points and targets ----------------------------------------------

def _greedy_scan(g: Graph, slack: list[int], rng: np.random.Generator | None,
                 dtype: type) -> np.ndarray:
    """Scan edges (shuffled when ``rng`` given) and raise each to the smaller
    residual ``slack`` of its endpoints, consuming the slack list."""
    eu, ev = g.endpoint_lists()
    sol = [0] * g.m
    order = range(g.m) if rng is None else rng.permutation(g.m).tolist()
    for j in order:
        u, v = eu[j], ev[j]
        if slack[u] and slack[v]:
            x = sol[j] = min(slack[u], slack[v])
            slack[u] -= x
            slack[v] -= x
    return np.array(sol, dtype=dtype)


def greedy_maximal_matching(g: Graph, rng: np.random.Generator | None = None) -> np.ndarray:
    """Scan edges (shuffled when ``rng`` given) and select while disjoint:
    the greedy dual scan at unit vertex capacities."""
    return _greedy_scan(g, [1] * (g.n + 1), rng, np.uint8)


def greedy_maximal_dual(g: Graph, rng: np.random.Generator | None = None) -> np.ndarray:
    """Scan edges and raise each to the smaller residual slack of its endpoints."""
    return _greedy_scan(g, g.weights.tolist(), rng, np.int64)


def target_reached(sol: np.ndarray, g: Graph, problem: str) -> bool:
    """Has the search hit its 2-approximation certificate?

    classic: a maximal matching (no adjacent selected pair, no uncovered
    edge). weighted: a feasible dual in which every edge has a tight
    endpoint, i.e. no violations and no uncovered edges. Both are O(m).
    """
    if problem == "classic":
        f = fitness_classic(sol, g)
        return f.pairs == 0 and f.uncovered == 0
    if problem == "weighted":
        fw = fitness_weighted(sol, g)
        return fw.violations == 0 and fw.uncovered == 0
    raise ValueError(f"unknown problem {problem!r}")


# -- run records and tasks ------------------------------------------------------

CSV_HEADER = ("run_index,seed,family,n,m,w_max,algo,problem,setting,param,"
              "steps_to_target,target_reached,budget")

TRACE_HEADER = "run_index,step,uncovered,total_weight"


@dataclass
class RunRecord:
    """One repetition: descriptor, outcome, and optional sampled trace."""

    run_index: int
    seed: int
    family: str
    n: int
    m: int
    w_max: int
    algo: str
    problem: str
    setting: str
    param: str
    steps_to_target: int
    target_reached: bool
    budget: int
    trace: list[tuple[int, int, int]] | None = None
    reopt_spans: list[int] = field(default_factory=list)
    n_changes: int = 0
    final_solution: np.ndarray | None = None
    final_graph_text: str | None = None
    error: str | None = None

    def csv_row(self) -> str:
        return (f"{self.run_index},{self.seed},{self.family},{self.n},{self.m},"
                f"{self.w_max},{self.algo},{self.problem},{self.setting},"
                f"{self.param},{self.steps_to_target},{self.target_reached},"
                f"{self.budget}")


@dataclass(frozen=True)
class RunTask:
    """Everything one repetition needs; picklable and self-contained."""

    run_index: int
    master_seed: int
    problem: str
    algo: str
    family: str
    wmax: int
    source: str | tuple[str, int, int, int]  # graph file text | (family, size, wmax, seed)
    schedule: Schedule
    policy: ChangePolicy
    init: str                # zeros | greedy
    budget: int
    stride: int
    want_trace: bool


@functools.lru_cache(maxsize=1)
def _instance(source: str | tuple[str, int, int, int]) -> Graph:
    """One build per process of each task ``source`` that set-up and runs share.

    A sweep's repetitions of one size run back to back on the same instance,
    so a small bound suffices; callers that mutate the result copy it first.
    """
    if isinstance(source, str):
        return Graph.from_text(source)
    return make_instance(*source)


_NEVER = sys.maxsize  # a step no skip reaches


def _skip(u: float, q: float) -> int:
    """Geometric(q) count of trials to the first success, from a uniform
    ``u`` in [0, 1) by the inverse transform; ``_NEVER`` when q is 0."""
    if q >= 1.0:
        return 1
    if q <= 0.0:
        return _NEVER
    return int(math.log(1.0 - u) / math.log1p(-q)) + 1


def run_once(task: RunTask) -> RunRecord:
    """Execute one repetition; a pure function of the task.

    The simulated loop per step: fire the schedule's changes at the boundary
    (free), check the target every ``stride`` evaluations, then mutate and
    evaluate the mutant (one evaluation). The run stops at the first
    certified target state after the schedule's last due step, or when the
    budget is exhausted; budget exhaustion is recorded, not raised.

    Most steps change nothing, so the loop jumps instead of stepping
    (the n-fold way of Bortz, Kalos and Lebowitz): from each boundary it
    draws the Geometric distance to the next event, and the Geometric
    distance to the next change, and jumps to the earliest of those, the
    next due step, the budget and, when at target, the next stride multiple
    that checks it. The engine names the events, a superset of the steps
    that can change the state, and their rate q per step (the lemmas in
    :mod:`dynvc.engine`). For RLS an event is one accepting move of the
    engine's index, at q = a/M (a accepting moves out of M). Every run
    stays in its region, a matching or a feasible dual, and its start must
    lie there: the engine raises ``ValueError`` otherwise. At a matching,
    a classic EA event is a proposal from the union of the events E'_t:
    q = a/m + r/m^2 (r unselected slots that are not accepting), and a
    proposal is kept with chance 1/c(H) (Karp, Luby and Madras), so that
    each hit set H comes with its chance per step. The dual EA's events are
    its accepting moves and the steps of k >= 2 hits that hit its free
    slots F, thinned from Bin(m, 1/m) (Lewis and Shedler). The skipped
    steps are counted in ``steps_to_target`` and the budget as the steps
    they stand for, and trace rows for the skipped boundaries are written
    in bulk. This samples the same Markov chain as a per-step loop over
    the pure step functions, but not from the same random stream. A reached
    target is re-certified by a full evaluation of the final solution; a
    mismatch raises ``ValueError``.
    """
    g = _instance(task.source).copy()
    rng = spawn_rng(task.master_seed, task.run_index)
    n0, m0 = g.n, g.m
    if task.init == "greedy":
        sol = (greedy_maximal_matching(g, rng) if task.problem == "classic"
               else greedy_maximal_dual(g, rng))
    else:
        dtype = np.uint8 if task.problem == "classic" else np.int64
        sol = np.zeros(g.m, dtype=dtype)
    engine = _make_engine(task.problem, g, sol)
    event_rate, event_at = ((engine.ea_rate, engine.ea_event) if task.algo == "ea"
                            else (engine.rls_rate, engine.rls_event))
    policy = task.policy

    def sample():
        # the solution is materialised only for a policy that reads it
        current = engine.solution() if policy.prefer_positive_deletion else None
        return sample_change(g, rng, policy, current)

    pending: list[int] = []  # steps of the changes not yet re-optimized

    def fire(change, at: int) -> int:
        if change is None:
            return 0
        apply_change(g, engine, change)
        pending.append(at)
        return 1

    block: list[float] = []

    def uniform() -> float:
        if not block:
            block.extend(rng.random(256).tolist())
        return block.pop()

    def coin() -> bool:
        return uniform() < 0.5

    schedule = task.schedule
    due, rate, last_step = schedule.due(), schedule.rate, schedule.last_step()
    stride, budget = task.stride, task.budget
    k = 0  # index of the next due step
    next_due = due[0] if due else _NEVER
    next_poll = _skip(uniform(), rate) - 1 if rate else _NEVER  # first poll hit
    event = None  # the step at which the next search event ends
    t = 0  # steps made, i.e. the current boundary
    target_time: int | None = None
    spans: list[int] = []
    n_changes = 0
    trace: list[tuple[int, int, int]] | None = [] if task.want_trace else None
    while True:
        # boundary t: a due change, then a poll hit, each applied as soon as
        # it is drawn; then the target check at stride multiples
        if t == next_due:
            n_changes += fire(schedule.change(k, g, sample), t)
            k += 1
            next_due = due[k] if k < len(due) else _NEVER
            event = None
        if t == next_poll:
            n_changes += fire(sample(), t)
            next_poll = t + _skip(uniform(), rate)
            event = None
        at_target = engine.at_target()
        if t % stride == 0:
            if trace is not None:
                trace.append((t, *engine.trace_sample()))
            if at_target:
                spans.extend(t - mark for mark in pending)
                pending.clear()
                # stop at the first certified target once no change is due
                if t >= last_step:
                    target_time = t
                    break
        if t >= budget:
            break
        if event is None:  # the state is new: draw the distance to its next event
            event = t + _skip(uniform(), event_rate())
        stop = min(event, next_due, next_poll, budget)
        if at_target:  # the next check that records a span or may stop
            first = t + 1 if pending else max(t + 1, last_step)
            stop = min(stop, -(-first // stride) * stride)
        if trace is not None:  # the skipped boundaries all see this state
            row = engine.trace_sample()
            trace.extend((b, *row) for b in range(t - t % stride + stride, stop, stride))
        if stop == event:
            event_at(uniform, coin)
            event = None
        t = stop

    reached = target_time is not None
    final = engine.solution()
    # the engine's target is re-certified by a full evaluation, in one O(m) pass
    if reached and not target_reached(final, g, task.problem):
        raise ValueError(f"run {task.run_index}: the target reported at step "
                         f"{target_time} does not certify")
    setting_name, param = schedule.label()
    return RunRecord(
        run_index=task.run_index, seed=task.master_seed, family=task.family,
        n=n0, m=m0, w_max=task.wmax, algo=task.algo, problem=task.problem,
        setting=setting_name, param=param,
        steps_to_target=target_time if reached else t,
        target_reached=reached, budget=task.budget, trace=trace,
        reopt_spans=spans, n_changes=n_changes,
        final_solution=final, final_graph_text=g.to_text())


# -- budget expressions -----------------------------------------------------

_BIN_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
            ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
            ast.Pow: operator.pow, ast.Mod: operator.mod}
_FUNCS = {"log": math.log, "ln": math.log, "log2": math.log2,
          "sqrt": math.sqrt, "ceil": math.ceil, "floor": math.floor,
          "min": min, "max": max}


def budget_names(expr: str) -> set[str]:
    """Variable names referenced by a budget expression."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad budget expression {expr!r}: {exc}") from None
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id not in _FUNCS}


def eval_budget(expr: str, names: dict[str, float]) -> int:
    """Evaluate an arithmetic budget expression over m, n, wmax, opt, e."""

    def ev(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise ValueError(f"unknown name {node.id!r} in budget expression")
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = ev(node.operand)
            return -val if isinstance(node.op, ast.USub) else val
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS and not node.keywords):
            return _FUNCS[node.func.id](*[ev(a) for a in node.args])
        raise ValueError(f"unsupported syntax in budget expression: {ast.dump(node)}")

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad budget expression {expr!r}: {exc}") from None
    try:
        value = ev(tree)
        if not math.isfinite(value) or value < 1:
            raise ValueError(f"budget expression {expr!r} evaluated to {value}")
        return math.ceil(value)
    except ArithmeticError as exc:  # division by zero, overflow, bad log
        raise ValueError(f"budget expression {expr!r} failed: {exc}") from None


def default_budget_expr(problem: str, algo: str) -> str:
    if problem == "classic":
        return "50*m*(1+ln(max(m,2)))"
    if algo == "rls":
        return "50*wmax*m"
    return "50*(opt*m + m*m)"


# -- sweeps ----------------------------------------------------------------------

# rate specs: each theorem's safe rate from the instance and its optimum
_AUTO_PD = {
    "auto_thm2": lambda g, opt: pd_threshold_classic(g.m),
    "auto_thm7": lambda g, opt: pd_threshold_weighted_rls(g.w_max, g.m),
    "auto_thm9": lambda g, opt: pd_threshold_weighted_ea(opt, g.m),
}

@dataclass
class ExperimentConfig:
    """A sweep: one graph family swept over sizes, fixed algorithm and setting."""

    family: str
    sizes: tuple[int, ...]
    problem: str = "classic"
    algo: str = "ea"
    setting: str = "prob"          # onetime | prob
    pd: float | str = 0.0          # rate, or auto_thm2 / auto_thm7 / auto_thm9
    at_step: int = 0
    reps: int = 1
    budget: str = "auto"
    stride: int = 1
    seed: int = 0
    wmax: int = 1
    init: str = "auto"             # auto | zeros | greedy
    policy: str = "uniform"        # uniform | delete_positive
    initial_change: bool = False
    trace: bool = False
    graph_file: str | None = None
    changes_file: str | None = None
    jobs: int = 1

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "file" and not self.graph_file:
            raise ValueError("family 'file' needs graph_file")
        if not self.sizes and self.family != "file":
            raise ValueError("sizes must be nonempty")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.problem not in ("classic", "weighted"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.algo not in ("ea", "rls"):
            raise ValueError(f"unknown algo {self.algo!r}")
        if self.setting not in ("onetime", "prob"):
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.at_step < 0:
            raise ValueError(f"at_step must be >= 0, got {self.at_step}")
        if self.init not in ("auto", "zeros", "greedy"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.policy not in ("uniform", "delete_positive"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if isinstance(self.pd, str):
            if self.pd not in _AUTO_PD:
                raise ValueError(f"unknown pd spec {self.pd!r}")
        elif not 0.0 <= float(self.pd) <= 1.0:
            raise ValueError(f"pd must be in [0, 1], got {self.pd}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


def build_tasks(cfg: ExperimentConfig) -> list[RunTask]:
    """Expand a config into one task per (sweep point, repetition)."""
    from .oracles import VC_MAX_N, exact_min_vc  # deferred: only sweeps that need OPT pay for it

    cfg.validate()
    script = ()
    if cfg.changes_file:
        with open(cfg.changes_file, "r", encoding="utf-8") as fh:
            script = tuple(parse_change_script(fh.read()))
    graph_text = None
    if cfg.family == "file":
        with open(cfg.graph_file, "r", encoding="utf-8") as fh:
            graph_text = fh.read()
    sizes = cfg.sizes if cfg.family != "file" else (0,)

    budget_expr = (default_budget_expr(cfg.problem, cfg.algo)
                   if cfg.budget == "auto" else cfg.budget)
    needed = budget_names(budget_expr)
    tasks: list[RunTask] = []
    for p_idx, size in enumerate(sizes):
        source = graph_text if graph_text is not None else (
            cfg.family, size, cfg.wmax, child_seed(cfg.seed, p_idx, salt=_INSTANCE_SALT))
        g = _instance(source)  # read-only here
        # a file graph records its own weight bound
        wmax = cfg.wmax if graph_text is None else max(g.w_max, 1)
        opt = None
        if "opt" in needed or cfg.pd == "auto_thm9":
            # beyond the exact oracle, the weight of the cover a greedy
            # maximal dual induces: OPT <= it <= 2 OPT, so a budget only
            # grows and auto_thm9's rate only falls
            opt = (exact_min_vc(g)[0] if g.n <= VC_MAX_N else
                   sum(g.vertex_weight(v) for v in induced_cover(greedy_maximal_dual(g), g)))
        if script:
            schedule: Schedule = Scripted(script)
        elif cfg.setting == "onetime":
            schedule = OneTime(cfg.at_step)
        else:
            p_d = _AUTO_PD[cfg.pd](g, opt) if isinstance(cfg.pd, str) else float(cfg.pd)
            schedule = Probabilistic(p_d, cfg.initial_change)
        # auto: start from a greedy solution when a change is due at a set step
        init = cfg.init if cfg.init != "auto" else ("greedy" if schedule.due() else "zeros")
        names = {"m": float(g.m), "n": float(g.n), "wmax": float(max(g.w_max, 1)),
                 "e": math.e}
        if opt is not None:
            names["opt"] = float(opt)
        budget = eval_budget(budget_expr, names)
        for r in range(cfg.reps):
            tasks.append(RunTask(
                run_index=p_idx * cfg.reps + r, master_seed=cfg.seed,
                problem=cfg.problem, algo=cfg.algo, family=cfg.family,
                wmax=wmax, source=source, schedule=schedule,
                policy=DELETE_POSITIVE_POLICY if cfg.policy == "delete_positive"
                else UNIFORM_POLICY, init=init, budget=budget,
                stride=cfg.stride, want_trace=cfg.trace))
    return tasks


def _run_task_safe(task: RunTask) -> RunRecord:
    """Per-run failures become inline error records instead of killing a sweep.

    An error record keeps the instance's n and m when the instance itself
    builds, so that it lands in its own size group in :func:`summarize`, and
    its schedule's setting and param.
    """
    try:
        return run_once(task)
    except (GraphError, ValueError) as exc:
        error = str(exc)
    try:
        g = _instance(task.source)
    except (GraphError, ValueError):
        g = Graph(0)
    setting, param = task.schedule.label()
    return RunRecord(
        run_index=task.run_index, seed=task.master_seed, family=task.family,
        n=g.n, m=g.m, w_max=task.wmax, algo=task.algo, problem=task.problem,
        setting=setting, param=param, steps_to_target=0,
        target_reached=False, budget=task.budget, error=error)


def _chunksize(n_tasks: int, jobs: int) -> int:
    """Tasks per pool dispatch: batches of up to 8, small enough that every
    worker gets a share of a small sweep."""
    return max(1, min(8, n_tasks // jobs))


def _task_size(task: RunTask) -> int:
    """The sweep size of a generated instance; 0 for a file graph, which every
    task of its sweep shares."""
    return 0 if isinstance(task.source, str) else task.source[1]


def run_sweep(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run every repetition; the result is ordered by run_index and is a pure
    function of the config (job count only changes wall time)."""
    tasks = build_tasks(cfg)
    # Largest instances first, so a pool ends on short batches that the
    # workers share out instead of one worker running the last big batch
    # alone, and a serial sweep starts on the instance that build_tasks left
    # in _instance's cache; a stable sort keeps each size's repetitions back
    # to back.
    tasks.sort(key=_task_size, reverse=True)
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(_run_task_safe, tasks,
                                    chunksize=_chunksize(len(tasks), cfg.jobs)))
    else:
        records = [_run_task_safe(task) for task in tasks]
    records.sort(key=lambda r: r.run_index)
    return records


# -- statistics -----------------------------------------------------------------

def summarize(records: list[RunRecord], by: str = "m") -> list[dict]:
    """Group by an attribute; report mean, standard error, median, reach rate.

    Runs that ended in an error are left out of the mean, standard error and
    median, which are NaN for a group with no completed run, and are counted
    under ``errors``. They still count in ``reached``, as runs that did not
    reach the target.
    """
    groups: dict[int, list[RunRecord]] = {}
    for r in records:
        groups.setdefault(getattr(r, by), []).append(r)
    rows = []
    for key in sorted(groups):
        group = groups[key]
        steps = np.array([r.steps_to_target for r in group if r.error is None],
                         dtype=float)
        runs = len(steps)
        rows.append({
            by: key,
            "runs": runs,
            "errors": len(group) - runs,
            "mean": float(steps.mean()) if runs else math.nan,
            "stderr": (float(steps.std(ddof=1) / math.sqrt(runs)) if runs > 1
                       else 0.0 if runs else math.nan),
            "median": float(np.median(steps)) if runs else math.nan,
            "reached": sum(r.target_reached for r in group) / len(group),
        })
    return rows


def fit_scaling(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(mean steps) against log(size)."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    sizes = [p[0] for p in points]
    vals = [p[1] for p in points]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if not all(v > 0 for v in vals):  # also rejects NaN means
        raise ValueError("mean steps must be positive")
    return float(np.polyfit(np.log(sizes), np.log(vals), 1)[0])


# -- CSV ---------------------------------------------------------------------------

def records_to_csv(records: list[RunRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in sorted(records, key=lambda r: r.run_index))
    return "\n".join(lines) + "\n"


def traces_to_csv(records: list[RunRecord]) -> str:
    lines = [TRACE_HEADER]
    for r in sorted(records, key=lambda x: x.run_index):
        if r.trace:
            lines.extend(f"{r.run_index},{step},{unc},{tw}" for step, unc, tw in r.trace)
    return "\n".join(lines) + "\n"
