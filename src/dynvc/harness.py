"""Deterministic experiment harness.

Runs algorithm x setting x instance repetitions, detects 2-approximation
targets, records traces and per-change re-optimization spans, and fits
scaling exponents. Every run's randomness derives from (master_seed,
run_index) through a fixed 64-bit mixing rule, so a sweep is a pure
function of its configuration regardless of execution order or job count.

The run loop drives one incremental engine per run (:mod:`dynvc.engine`):
a step costs O(hits) and an edge change O(deg).
"""

from __future__ import annotations

import ast
import functools
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classic import fitness_classic
from .dynamics import (DELETE_POSITIVE_POLICY, UNIFORM_POLICY, ChangePolicy,
                       ScriptedChange, apply_change, parse_change_script,
                       pd_threshold_classic, pd_threshold_weighted_ea,
                       pd_threshold_weighted_rls, sample_change,
                       scripted_change)
# perfbench/tracing.py times the engines' methods through these harness names
from .engine import _ClassicEngine, _DualEngine, _make_engine  # noqa: F401
from .graph import Graph, GraphError
from .weighted import fitness_weighted

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


def _decode_pairs(n: int, idx: np.ndarray) -> list[tuple[int, int]]:
    us, vs = np.triu_indices(n, k=1)
    return list(zip((us[idx] + 1).tolist(), (vs[idx] + 1).tolist()))


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
        idx = rng.choice(n * (n - 1) // 2, size=m, replace=False)
        edges = _decode_pairs(n, np.sort(idx))
    else:
        raise ValueError(f"unknown family {family!r}")
    g = Graph(n, vertex_weight=_instance_weights(n, wmax, rng))
    for u, v in edges:
        g.add_edge(u, v)
    return g


def make_instance_by_n(family: str, n: int, m: int | None = None,
                       wmax: int = 1, seed: int = 0) -> Graph:
    """Build a family member with ``n`` vertices (the generator CLI's view)."""
    if family == "path":
        return make_instance("path", n - 1, wmax, seed) if n > 1 else Graph(n)
    if family == "cycle":
        return make_instance("cycle", n, wmax, seed)
    if family == "star":
        return make_instance("star", n - 1, wmax, seed) if n > 1 else Graph(n)
    if family == "bipartite":
        a = n // 2
        rng = spawn_rng(seed, 0, salt=_INSTANCE_SALT)
        g = Graph(n, vertex_weight=_instance_weights(n, wmax, rng))
        for i in range(1, a + 1):
            for j in range(a + 1, n + 1):
                g.add_edge(i, j)
        return g
    if family == "gnp":
        total = n * (n - 1) // 2
        m = total // 2 if m is None else m
        if not 0 <= m <= total:
            raise ValueError(f"gnp with n={n} supports 0 <= m <= {total}")
        rng = spawn_rng(seed, 0, salt=_INSTANCE_SALT)
        weights = _instance_weights(n, wmax, rng)
        idx = rng.choice(total, size=m, replace=False)
        g = Graph(n, vertex_weight=weights)
        for u, v in _decode_pairs(n, np.sort(idx)):
            g.add_edge(u, v)
        return g
    raise ValueError(f"unknown family {family!r}")


# -- starting points and targets ----------------------------------------------

def greedy_maximal_matching(g: Graph, rng: np.random.Generator | None = None) -> np.ndarray:
    """Scan edges (shuffled when ``rng`` given) and select while disjoint."""
    sol = np.zeros(g.m, dtype=np.uint8)
    order = range(g.m) if rng is None else rng.permutation(g.m)
    used = np.zeros(g.n + 1, dtype=bool)
    for j in order:
        u, v = g.endpoints(int(j))
        if not used[u] and not used[v]:
            sol[j] = 1
            used[u] = used[v] = True
    return sol

def greedy_maximal_dual(g: Graph, rng: np.random.Generator | None = None) -> np.ndarray:
    """Scan edges and raise each to the smaller residual slack of its endpoints."""
    sol = np.zeros(g.m, dtype=np.int64)
    order = range(g.m) if rng is None else rng.permutation(g.m)
    slack = g.weights.copy()
    for j in order:
        u, v = g.endpoints(int(j))
        x = min(int(slack[u]), int(slack[v]))
        sol[j] = x
        slack[u] -= x
        slack[v] -= x
    return sol


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
    size: int
    wmax: int
    instance_seed: int
    setting_kind: str        # onetime | prob | script
    at_step: int
    p_d: float
    policy_name: str         # uniform | delete_positive
    init: str                # zeros | greedy
    budget: int
    stride: int
    want_trace: bool
    initial_change: bool = False
    graph_text: str | None = None
    script: tuple[ScriptedChange, ...] = ()
    keep_final: bool = True


@functools.lru_cache(maxsize=1)
def _instance(family: str, size: int, wmax: int, seed: int) -> Graph:
    """One build per process of each family member that set-up and runs share.

    A sweep's repetitions of one size run back to back on the same instance,
    so a small bound suffices; callers that mutate the result copy it first.
    """
    return make_instance(family, size, wmax, seed)


def _task_graph(task: RunTask) -> Graph:
    if task.graph_text is not None:
        return Graph.from_text(task.graph_text)
    return _instance(task.family, task.size, task.wmax, task.instance_seed).copy()


def _task_policy(task: RunTask) -> ChangePolicy:
    return DELETE_POSITIVE_POLICY if task.policy_name == "delete_positive" else UNIFORM_POLICY


def run_once(task: RunTask) -> RunRecord:
    """Execute one repetition; a pure function of the task.

    The loop per step: fire any change due at the boundary (free), check the
    target every ``stride`` evaluations, then mutate and evaluate the mutant
    (one evaluation). The run stops at the first certified target state or
    when the budget is exhausted; budget exhaustion is recorded, not raised.
    """
    g = _task_graph(task)
    rng = spawn_rng(task.master_seed, task.run_index)
    n0, m0 = g.n, g.m
    if task.init == "greedy":
        sol = (greedy_maximal_matching(g, rng) if task.problem == "classic"
               else greedy_maximal_dual(g, rng))
    else:
        dtype = np.uint8 if task.problem == "classic" else np.int64
        sol = np.zeros(g.m, dtype=dtype)
    engine = _make_engine(task.problem, g, sol)
    policy = _task_policy(task)

    def sample():
        # the solution is materialised only for a policy that reads it
        current = engine.solution() if policy.prefer_positive_deletion else None
        return sample_change(g, rng, policy, current)

    if task.setting_kind == "onetime":
        setting_name, param = "onetime", str(task.at_step)
    elif task.setting_kind == "script":
        setting_name, param = "script", "script"
    else:
        setting_name, param = "prob", repr(task.p_d)

    polling = task.setting_kind == "prob" and task.p_d > 0.0
    script_pos = 0
    evaluations = 0
    target_time: int | None = None
    pending: list[int] = []
    spans: list[int] = []
    n_changes = 0
    trace: list[tuple[int, int, int]] | None = [] if task.want_trace else None
    t = 0
    while True:
        # change boundary (no evaluation cost)
        fired = []
        if task.setting_kind == "script":
            while script_pos < len(task.script) and task.script[script_pos].at_step == t:
                fired.append(scripted_change(g, task.script[script_pos]))
                script_pos += 1
        elif task.setting_kind == "onetime":
            if t == task.at_step:
                fired.append(sample())
        else:
            if task.initial_change and t == 0:
                fired.append(sample())
            if polling and rng.random() < task.p_d:
                fired.append(sample())
        for c in fired:
            if c is None:
                continue
            apply_change(g, engine, c)
            n_changes += 1
            pending.append(evaluations)

        if evaluations % task.stride == 0:
            if trace is not None and (not trace or trace[-1][0] != evaluations):
                unc, tw = engine.trace_sample()
                trace.append((evaluations, unc, tw))
            if engine.at_target():
                spans.extend(evaluations - mark for mark in pending)
                pending.clear()
                # stop at the first certified target once no further changes
                # are scheduled (scripted/one-time changes may still be due)
                if task.setting_kind == "script":
                    no_more = script_pos == len(task.script)
                elif task.setting_kind == "onetime":
                    no_more = t >= task.at_step
                else:
                    no_more = True
                if target_time is None and no_more:
                    target_time = evaluations
                    break
        if evaluations >= task.budget:
            break
        engine.step(task.algo, rng)
        evaluations += 1
        t += 1

    reached = target_time is not None
    return RunRecord(
        run_index=task.run_index, seed=task.master_seed, family=task.family,
        n=n0, m=m0, w_max=task.wmax, algo=task.algo, problem=task.problem,
        setting=setting_name, param=param,
        steps_to_target=target_time if reached else evaluations,
        target_reached=reached, budget=task.budget, trace=trace,
        reopt_spans=spans, n_changes=n_changes,
        final_solution=engine.solution() if task.keep_final else None,
        final_graph_text=g.to_text() if task.keep_final else None)


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
    keep_final: bool = True

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
        if self.init not in ("auto", "zeros", "greedy"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.policy not in ("uniform", "delete_positive"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if isinstance(self.pd, str):
            if self.pd not in ("auto_thm2", "auto_thm7", "auto_thm9"):
                raise ValueError(f"unknown pd spec {self.pd!r}")
        elif not 0.0 <= float(self.pd) <= 1.0:
            raise ValueError(f"pd must be in [0, 1], got {self.pd}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


def resolve_pd(pd: float | str, g: Graph, opt: int | None = None) -> float:
    """Turn a rate spec into a number using the instance's parameters."""
    if isinstance(pd, str):
        if pd == "auto_thm2":
            return pd_threshold_classic(g.m)
        if pd == "auto_thm7":
            return pd_threshold_weighted_rls(g.w_max, g.m)
        if pd == "auto_thm9":
            if opt is None:
                raise ValueError("auto_thm9 needs the instance optimum")
            return pd_threshold_weighted_ea(opt, g.m)
        raise ValueError(f"unknown pd spec {pd!r}")
    return float(pd)


def build_tasks(cfg: ExperimentConfig) -> list[RunTask]:
    """Expand a config into one task per (sweep point, repetition)."""
    from .oracles import exact_min_vc  # deferred: only sweeps that need OPT pay for it

    cfg.validate()
    script: tuple[ScriptedChange, ...] = ()
    if cfg.changes_file:
        with open(cfg.changes_file, "r", encoding="utf-8") as fh:
            script = tuple(parse_change_script(fh.read()))
    graph_text = None
    if cfg.family == "file":
        with open(cfg.graph_file, "r", encoding="utf-8") as fh:
            graph_text = fh.read()
        Graph.from_text(graph_text)  # fail fast on bad files
    sizes = cfg.sizes if cfg.family != "file" else (0,)

    budget_expr = (default_budget_expr(cfg.problem, cfg.algo)
                   if cfg.budget == "auto" else cfg.budget)
    needed = budget_names(budget_expr)
    init = cfg.init
    if init == "auto":
        init = "greedy" if (cfg.setting == "onetime" or cfg.initial_change
                            or script) else "zeros"
    setting_kind = "script" if script else cfg.setting

    tasks: list[RunTask] = []
    for p_idx, size in enumerate(sizes):
        instance_seed = child_seed(cfg.seed, p_idx, salt=_INSTANCE_SALT)
        if graph_text is not None:
            g = Graph.from_text(graph_text)
        else:
            g = _instance(cfg.family, size, cfg.wmax, instance_seed)  # read-only here
        opt = None
        if "opt" in needed or cfg.pd == "auto_thm9":
            opt = exact_min_vc(g)[0]
        p_d = resolve_pd(cfg.pd, g, opt) if cfg.setting == "prob" else 0.0
        names = {"m": float(g.m), "n": float(g.n), "wmax": float(max(g.w_max, 1)),
                 "e": math.e}
        if opt is not None:
            names["opt"] = float(opt)
        budget = eval_budget(budget_expr, names)
        for r in range(cfg.reps):
            tasks.append(RunTask(
                run_index=p_idx * cfg.reps + r, master_seed=cfg.seed,
                problem=cfg.problem, algo=cfg.algo, family=cfg.family,
                size=size, wmax=cfg.wmax, instance_seed=instance_seed,
                setting_kind=setting_kind, at_step=cfg.at_step, p_d=p_d,
                policy_name=cfg.policy, init=init, budget=budget,
                stride=cfg.stride, want_trace=cfg.trace,
                initial_change=cfg.initial_change, graph_text=graph_text,
                script=script, keep_final=cfg.keep_final))
    return tasks


def _run_task_safe(task: RunTask) -> RunRecord:
    """Per-run failures become inline error records instead of killing a sweep.

    An error record keeps the instance's n and m when the instance itself
    builds, so that it lands in its own size group in :func:`summarize`.
    """
    try:
        return run_once(task)
    except (GraphError, ValueError) as exc:
        error = str(exc)
    try:
        g = _task_graph(task)
    except (GraphError, ValueError):
        g = Graph(0)
    return RunRecord(
        run_index=task.run_index, seed=task.master_seed, family=task.family,
        n=g.n, m=g.m, w_max=task.wmax, algo=task.algo, problem=task.problem,
        setting=task.setting_kind, param="", steps_to_target=0,
        target_reached=False, budget=task.budget, error=error)


def _chunksize(n_tasks: int, jobs: int) -> int:
    """Tasks per pool dispatch: batches of up to 8, small enough that every
    worker gets a share of a small sweep."""
    return max(1, min(8, n_tasks // jobs))


def run_sweep(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run every repetition; the result is ordered by run_index and is a pure
    function of the config (job count only changes wall time)."""
    tasks = build_tasks(cfg)
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
