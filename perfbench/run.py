"""dynvc benchmark: seeded sweeps through ``harness.run_sweep``, timed and checked.

    python3 perfbench/run.py --workload classic-reopt --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A workload is a sweep configuration swept over several input sets; set ``k``
uses sweep seed ``seed * 1000 + k``, so one seed gives the same inputs every
time. A run sweeps the sets in turn ("rounds") until each set has run once
and the timed part reaches ``--seconds``. Each set's records are checked by
``checks.py`` on its first round, outside the timed part; its later rounds
must repeat them exactly. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of the
traced run with ``--trace 1``. README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (ExperimentConfig fields, expected change pattern, input sets per run).
# BENCHMARK.json says why each workload is here; README.md gives the sizing.
_REOPT = dict(family="gnp", sizes=(64, 128, 256, 512, 1024), problem="classic",
              algo="ea", setting="onetime", policy="delete_positive", reps=20)
WORKLOADS = {
    "classic-reopt": (_REOPT, "one-deletion", 20),
    "weighted-ea": (dict(family="gnp", sizes=(16, 32, 64, 128), problem="weighted",
                         algo="ea", setting="onetime", policy="delete_positive",
                         wmax=8, reps=10), "one-deletion", 20),
    "classic-churn": (dict(family="gnp", sizes=(1024,), problem="classic", algo="ea",
                           setting="prob", pd=0.05, reps=4), "churn", 12),
    "sweep-j2": (dict(_REOPT, jobs=2), "one-deletion", 20),
}


def _import_program():
    if not os.path.isfile(os.path.join(ROOT, "src", "dynvc", "__init__.py")):
        sys.exit(f"perfbench: no dynvc sources under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)


# The host is shared, and other tenants slow every round by up to half, for
# seconds to minutes at a time. Each round is therefore bracketed by a fixed
# calibration kernel, and its times are scaled to a host on which that kernel
# takes REF_S seconds (README.md, "Host speed").
REF_S = 0.008


def _calibration(rng) -> float:
    """Time a fixed loop of list updates and scalar numpy draws, the mix the
    search's step loop is made of; it calls no dynvc code."""
    t0 = time.perf_counter()
    cells = [0] * 1024
    for i in range(20000):
        cells[(i * 7919) & 1023] += 1
        if i & 7 == 0:
            rng.integers(1024)
    return time.perf_counter() - t0


def _fingerprint(records) -> bytes:
    h = hashlib.sha256()
    for r in records:
        h.update(r.csv_row().encode())
        h.update(r.final_graph_text.encode())
        h.update(r.final_solution.tobytes())
    return h.digest()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Sweep the workload's input sets in turn until every set has run once and
    ``seconds`` of sweeping (and, untraced, set-up) time have passed."""
    import numpy as np
    from dynvc.harness import ExperimentConfig, build_tasks, records_to_csv, run_sweep

    import checks
    if trace:
        import tracing
        tracing.install()

    fields, changes, n_sets = WORKLOADS[workload]
    jobs = fields.get("jobs", 1)
    cfgs = [ExperimentConfig(seed=seed * 1000 + k, **fields) for k in range(n_sets)]
    # per set, one entry per round: raw seconds and the host-speed scale
    setups = [[] for _ in cfgs]
    sweeps = [[] for _ in cfgs]
    scales = [[] for _ in cfgs]
    evals = [0] * n_sets
    prints: list[bytes] = []  # each set's records on its first round
    bad = [0] * n_sets          # and how many of them failed a check
    attempted = failed = 0
    problems: list[str] = []
    opt_due: list[tuple[str, int]] = []

    def check(k, records):
        for rec in records:
            why, opt_check = checks.check_record(rec, changes)
            if why:
                bad[k] += 1
                problems.append(f"set {k} run {rec.run_index}: {why}")
            elif opt_check and k == 0:
                opt_due.append(opt_check)

    rng = np.random.default_rng(0)
    csv0 = None
    timed = 0.0
    rounds = 0
    while rounds < n_sets or timed < seconds:  # at least one round per set
        k = rounds % n_sets
        cfg = cfgs[k]
        calib = _calibration(rng)
        setup = 0.0
        if not trace:  # the traced run times build_tasks inside run_sweep
            t0 = time.perf_counter()
            build_tasks(cfg)
            setup = time.perf_counter() - t0
        t0 = time.perf_counter()
        records = run_sweep(cfg)
        sweep = time.perf_counter() - t0
        calib += _calibration(rng)
        setups[k].append(setup)
        sweeps[k].append(sweep)
        scales[k].append(2 * REF_S / calib)
        timed += setup + sweep
        rounds += 1
        if trace:
            tracing.collect(records)
        if len(prints) == k:
            evals[k] = sum(r.steps_to_target for r in records)
            prints.append(_fingerprint(records))
            check(k, records)
            csv0 = csv0 or records_to_csv(records)
        elif _fingerprint(records) != prints[k]:
            problems.append(f"set {k} gave other records on a later round")
        attempted += len(records)
        failed += bad[k]

    def scaled(times):  # each set's median round, in reference-host seconds
        return [statistics.median(t * c for t, c in zip(ts, cs))
                for ts, cs in zip(times, scales)]

    raw_rate = sum(evals) / sum(map(statistics.median, sweeps))
    rate = sum(evals) / sum(scaled(sweeps))
    if trace:
        work = sum(e * len(t) for e, t in zip(evals, sweeps))
        metrics = tracing.layer_metrics(rounds, attempted, work, sum(map(sum, sweeps)),
                                        jobs, seed)
    else:
        metrics = {"evals_per_s": (rate, "evals/s"),
                   "setup_s": (statistics.mean(scaled(setups)), "s"),
                   "peak_rss_mb": ((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                    + jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
                                   / 1024, "MB")}

    # after the metrics: these load scipy and run a sweep of their own
    if jobs > 1:
        serial = run_sweep(dataclasses.replace(cfgs[0], jobs=1))
        if records_to_csv(serial) != csv0:
            problems.append(f"jobs={jobs} CSV differs from jobs=1 CSV")
    for graph_text, weight in opt_due:
        why = checks.check_against_opt(graph_text, weight)
        if why:
            problems.append(why)

    for p in problems[:20]:
        print(f"{workload}: FAIL {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "detail": {"evals_per_s_scaled": rate, "evals_per_s_unscaled": raw_rate,
                       "rounds": rounds, "evals": evals, "sweeps": sweeps,
                       "setups": setups, "scales": scales}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    if args.workload == "all":  # one process per workload keeps peak RSS apart
        results = {}
        for name in WORKLOADS:
            out = subprocess.run([sys.executable, os.path.abspath(__file__),
                                  "--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                 check=True, stdout=subprocess.PIPE, text=True).stdout
            *lines, last = out.splitlines()
            print("\n".join(lines), flush=True)
            results[name] = json.loads(last)
        print(json.dumps(results))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, detail=detail), fh)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} unscaled evals_per_s {detail['evals_per_s_unscaled']:.6g} evals/s, "
          f"rounds {detail['rounds']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
