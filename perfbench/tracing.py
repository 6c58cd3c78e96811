"""Per-layer timing for the traced benchmark run.

Nothing inside the program is instrumented. ``install`` replaces the entry
points of each layer, as ``run_sweep`` and ``run_once`` look them up,
with wrappers that add their wall time and call count to one in-memory
``Tracer``. A span's self time is its duration minus the time of the wrapped
spans it encloses.

Pool workers are forked after ``install``, so they run the wrappers too. Each
task reports what it added (and its own wall time) on its run record, and
takes it back out of the process's tracer, so per-run layers are counted
once from the records whatever the job count.
"""

from __future__ import annotations

import pickle
import statistics
import time
from collections import Counter

import numpy as np

from dynvc import classic, graph, harness, oracles, weighted

TASK_TIME = "harness.task"


class Tracer:
    """Summed wall time, self time and calls per span name, plus other counts."""

    def __init__(self) -> None:
        self.time: Counter = Counter()
        self.self_time: Counter = Counter()
        self.count: Counter = Counter()
        self._open: list[float] = []  # time of wrapped children, per open span

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._open.pop()
                self.time[name] += dt
                self.self_time[name] += dt - inner
                self.count[name] += 1
                if self._open:
                    self._open[-1] += dt
        return traced

    def snapshot(self) -> tuple[Counter, Counter, Counter]:
        return Counter(self.time), Counter(self.self_time), Counter(self.count)

    def take_since(self, snap: tuple[Counter, Counter, Counter]) -> dict:
        """Remove and return what was added since ``snap``."""
        out = {}
        for key, now, before in zip(("time", "self_time", "count"),
                                    (self.time, self.self_time, self.count), snap):
            out[key] = {k: v - before[k] for k, v in now.items() if v != before[k]}
            now.clear()
            now.update(before)
        return out

    def add(self, part: dict) -> None:
        self.time.update(part["time"])
        self.self_time.update(part["self_time"])
        self.count.update(part["count"])


TRACER = Tracer()

# (owner, attribute, span name). Engine solution() and Graph methods are
# patched on their classes; the rest where harness looks them up. The greedy
# starts are reported by a microbenchmark; their span keeps their time out of
# run_once's self time.
_SPANS = [
    (harness, "build_tasks", "harness.build_tasks"),
    (oracles, "exact_min_vc", "oracles.exact_min_vc"),
    (harness, "make_instance", "harness.make_instance"),
    (harness, "greedy_maximal_matching", "harness.init"),
    (harness, "greedy_maximal_dual", "harness.init"),
    (harness, "_make_engine", "harness.engine_build"),
    (graph.Graph, "incidence_lists", "graph.incidence_lists"),
    (harness._ClassicEngine, "solution", "harness.solution"),
    (harness._DualEngine, "solution", "harness.solution"),
    (harness, "sample_change", "dynamics.sample_change"),
    (harness, "apply_change", "dynamics.apply_change"),
    (graph.Graph, "to_text", "graph.to_text"),
    (harness, "run_once", "harness.run_once"),
]


_run_task_safe = harness._run_task_safe


def _traced_task(task):
    """Stands in for ``harness._run_task_safe``; module level so a pool can pickle it."""
    snap = TRACER.snapshot()
    t0 = time.perf_counter()
    rec = _run_task_safe(task)
    elapsed = time.perf_counter() - t0
    part = TRACER.take_since(snap)
    part["time"][TASK_TIME] = elapsed
    rec.bench_layers = part
    return rec


def install() -> None:
    for owner, attr, name in _SPANS:
        setattr(owner, attr, TRACER.wrap(name, getattr(owner, attr)))
    harness._run_task_safe = _traced_task


def collect(records) -> None:
    """Move the per-run layer times carried on ``records`` into the tracer,
    and count the bytes each record takes to pickle."""
    for rec in records:
        TRACER.add(rec.__dict__.pop("bench_layers"))
        TRACER.count["harness.record_bytes"] += len(pickle.dumps(rec))


def _per_call_s(fn, *args, calls: int = 1, repeats: int = 5) -> float:
    """Median over ``repeats`` timings of ``calls`` calls, in seconds per call."""
    per = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        per.append((time.perf_counter() - t0) / calls)
    return statistics.median(per)


def _microbenchmarks(seed: int) -> dict[str, tuple[float, str]]:
    """Single layers timed on their own, on instances drawn from ``seed``.

    Every traced run measures these, whichever workload it runs, so a layer
    its sweeps skip (the oracle on the classic workloads, the greedy start
    on churn) still reads a measured time.
    """
    out = {}
    rng = np.random.default_rng(seed)
    for m in (64, 1024):
        out[f"classic.mutate_global_us.m{m}"] = (_per_call_s(
            classic.mutate_global, np.zeros(m, dtype=np.uint8), rng, calls=4000) * 1e6, "us")
        out[f"weighted.mutate_weight_global_us.m{m}"] = (_per_call_s(
            weighted.mutate_weight_global, np.zeros(m, dtype=np.int64), rng, calls=4000) * 1e6, "us")
    g = harness.make_instance("gnp", 1024, seed=seed)
    out["harness.init_ms.m1024"] = (_per_call_s(
        harness.greedy_maximal_matching, g, rng, calls=10) * 1e3, "ms")
    # the weighted-ea sizes; n = 9, 12, 17, 24
    graphs = [harness.make_instance("gnp", m, wmax=8, seed=seed) for m in (16, 32, 64, 128)]
    out["oracles.exact_min_vc_ms"] = (statistics.mean(
        _per_call_s(oracles.exact_min_vc, g, repeats=3) for g in graphs) * 1e3, "ms")
    return out


def layer_metrics(sweeps: int, records: int, evals: int, sweep_s: float,
                  jobs: int, seed: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced sweeps, per sweep unless the name says
    otherwise, followed by the microbenchmarks."""
    t, st, c = TRACER.time, TRACER.self_time, TRACER.count
    changes = c["dynamics.apply_change"]
    search = st["harness.run_once"]
    out = {
        "harness.build_tasks_s": (t["harness.build_tasks"] / sweeps, "s"),
        "oracles.exact_min_vc_calls": (c["oracles.exact_min_vc"] / sweeps, "count"),
        "harness.make_instance_s": (t["harness.make_instance"] / sweeps, "s"),
        "harness.make_instance_calls": (c["harness.make_instance"] / sweeps, "count"),
        "graph.to_text_s": (t["graph.to_text"] / sweeps, "s"),
        "harness.record_bytes": (c["harness.record_bytes"] / records, "B"),
        "harness.search_s": (search / sweeps, "s"),
        "harness.evals": (evals / sweeps, "count"),
        "harness.step_us": (search / evals * 1e6, "us"),
        "harness.engine_build_s": (t["harness.engine_build"] / sweeps, "s"),
        "harness.engine_builds": (c["harness.engine_build"] / sweeps, "count"),
        "harness.engine_builds_per_change": (c["harness.engine_build"] / changes, "ratio"),
        "harness.solution_s": (t["harness.solution"] / sweeps, "s"),
        "graph.incidence_lists_s": (t["graph.incidence_lists"] / sweeps, "s"),
        "dynamics.changes": (changes / sweeps, "count"),
        "dynamics.sample_change_s": (t["dynamics.sample_change"] / sweeps, "s"),
        "dynamics.apply_change_s": (t["dynamics.apply_change"] / sweeps, "s"),
        "harness.pool_wait_s": ((sweep_s - t[TASK_TIME] / jobs) / sweeps, "s"),
    }
    out.update(_microbenchmarks(seed))
    return out
