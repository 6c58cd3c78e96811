"""Command-line entry point: generate instances, run and sweep experiments,
and verify solutions against the brute-force oracles.

Exit codes: 0 success, 1 usage or parse error, 2 budget exhausted in ``run``,
3 verification failure, 4 one or more runs of a ``sweep`` failed (each
error is printed to stderr; the CSV is still written). ``run`` resolves and
validates its repetition as a one-repetition ``sweep`` of its graph file, so
both reject the same bad values. All randomness flows from the single
``--seed``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import classic, weighted
from .graph import Graph, GraphError
from .harness import (ExperimentConfig, build_tasks, make_instance_by_n,
                      records_to_csv, run_once, run_sweep, traces_to_csv)
from .oracles import (VC_MAX_N, OracleError, dual_feasible, dual_maximal,
                      exact_min_vc, is_matching, is_maximal_matching)


class ConfigError(ValueError):
    """Bad key, value, or range in a sweep configuration file."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


_CONFIG_KEYS = {
    "family": str, "sizes": "int_list", "problem": str, "algo": str,
    "setting": str, "pd": "pd", "at_step": int, "reps": int, "budget": str,
    "stride": int, "seed": int, "wmax": int, "init": str, "policy": str,
    "initial_change": "bool", "trace": "bool", "graph": str, "changes": str,
    "jobs": int,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented ``key = value`` sweep configuration.

    ``#`` starts a comment. Unknown keys and malformed or out-of-range values
    are errors that name the offending line. ``jobs`` defaults to the
    available cores.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = (p.strip() for p in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            if kind is int:
                values[key] = int(val)
            elif kind == "int_list":
                values[key] = tuple(int(x) for x in val.split(",") if x.strip())
            elif kind == "bool":
                if val.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(f"expected true/false, got {val!r}")
                values[key] = val.lower() in ("true", "1")
            elif kind == "pd":
                values[key] = val if val.startswith("auto_") else float(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    if "family" not in values:
        raise ConfigError("missing required key 'family'")
    values.setdefault("sizes", ())
    values.setdefault("jobs", os.cpu_count() or 1)
    values["graph_file"] = values.pop("graph", None)
    values["changes_file"] = values.pop("changes", None)
    cfg = ExperimentConfig(**values)  # type: ignore[arg-type]
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _build_parser() -> _Parser:
    top = _Parser(prog="dynvc", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[], help="generate a graph file",
                         description="Write a family instance in the text graph format.")
    gen.add_argument("--family", required=True,
                     choices=["path", "cycle", "star", "bipartite", "gnp"])
    gen.add_argument("--n", required=True, type=int, help="number of vertices")
    gen.add_argument("--m", type=int, default=None,
                     help="edge count (gnp only; default: half of all pairs)")
    gen.add_argument("--wmax", type=int, default=1,
                     help="vertex weights drawn uniformly from 1..wmax (default 1)")
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run one repetition",
                         description="Run a single repetition and append a CSV record.")
    run.add_argument("--graph", required=True)
    run.add_argument("--problem", required=True, choices=["classic", "weighted"])
    run.add_argument("--algo", required=True, choices=["ea", "rls"])
    run.add_argument("--setting", required=True, choices=["onetime", "prob"])
    run.add_argument("--pd", default="0",
                     help="change rate: float or auto_thm2/auto_thm7/auto_thm9 (default 0)")
    run.add_argument("--changes", default=None,
                     help="scripted change file; overrides sampled changes")
    run.add_argument("--budget", required=True,
                     help="evaluation budget expression over m,n,wmax,opt,e "
                          "(e.g. '50*m*(1+ln(m))') or 'auto'")
    run.add_argument("--seed", required=True, type=int)
    run.add_argument("--trace", default=None, help="write a trace CSV here")
    run.add_argument("--out", required=True)
    run.add_argument("--init", default="auto", choices=["auto", "zeros", "greedy"],
                     help="start state (default auto: greedy when a change is "
                          "scheduled first, zeros otherwise)")
    run.add_argument("--policy", default="uniform",
                     choices=["uniform", "delete_positive"],
                     help="how sampled changes pick edges (default uniform)")
    run.add_argument("--at-step", type=int, default=0, dest="at_step",
                     help="one-time change step (default 0)")
    run.add_argument("--stride", type=int, default=1,
                     help="target-check and trace stride (default 1)")

    sweep = sub.add_parser(
        "sweep", help="run a configured sweep",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Run a sweep from a 'key = value' config file ('#' comments).\n"
            "Keys and defaults:\n"
            "  family   (required) path|cycle|star|bipartite|gnp|file\n"
            "  sizes    (required unless family=file) comma-separated edge counts\n"
            "  problem  classic | weighted            [classic]\n"
            "  algo     ea | rls                      [ea]\n"
            "  setting  onetime | prob                [prob]\n"
            "  pd       float or auto_thm2|auto_thm7|auto_thm9  [0]\n"
            "  at_step  one-time change step          [0]\n"
            "  reps     repetitions per size          [1]\n"
            "  budget   expression over m,n,wmax,opt,e or 'auto'  [auto]\n"
            "  stride   target-check/trace stride     [1]\n"
            "  seed     master seed                   [0]\n"
            "  wmax     vertex weights drawn from 1..wmax  [1]\n"
            "  init     auto | zeros | greedy         [auto]\n"
            "  policy   uniform | delete_positive     [uniform]\n"
            "  initial_change  force one change at step 0  [false]\n"
            "  trace    record (step,uncovered,weight) samples  [false]\n"
            "  graph    graph file for family=file\n"
            "  changes  scripted change file\n"
            "  jobs     worker processes              [available cores]\n"))
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--jobs", type=int, default=None,
                       help="parallel worker processes (default: available cores)")
    sweep.add_argument("--trace-out", default=None, dest="trace_out",
                       help="write trace CSV for runs with tracing enabled")

    verify = sub.add_parser("verify", help="certificate and oracle report for a solution",
                            description="Check a solution file's certificates (matching "
                                        "or feasible dual, maximality, lower bound, "
                                        "2-approximation) and, for n <= 24, the exact "
                                        "optimum; exit 0 iff all asserted properties hold.")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--solution", required=True)
    return top


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    g = make_instance_by_n(args.family, args.n, m=args.m, wmax=args.wmax,
                           seed=args.seed)
    _write(args.out, g.to_text())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    pd: float | str = args.pd if args.pd.startswith("auto_") else float(args.pd)
    cfg = ExperimentConfig(
        family="file", sizes=(), graph_file=args.graph, changes_file=args.changes,
        problem=args.problem, algo=args.algo, setting=args.setting, pd=pd,
        at_step=args.at_step, budget=args.budget, stride=args.stride,
        seed=args.seed, init=args.init, policy=args.policy,
        trace=args.trace is not None, reps=1, jobs=1)
    rec = run_once(build_tasks(cfg)[0])
    _write(args.out, records_to_csv([rec]))
    if args.trace:
        _write(args.trace, traces_to_csv([rec]))
    return 0 if rec.target_reached else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cfg = parse_config(_read(args.config))
    except ConfigError as exc:
        raise _UsageError(f"sweep: {exc}") from None
    if args.jobs is not None:
        cfg.jobs = args.jobs
    records = run_sweep(cfg)
    _write(args.out, records_to_csv(records))
    if args.trace_out:
        _write(args.trace_out, traces_to_csv(records))
    failed = [r for r in records if r.error is not None]
    for r in failed:
        print(f"run {r.run_index}: error: {r.error}", file=sys.stderr)
    return 4 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = Graph.from_text(_read(args.graph))
    sol_text = _read(args.solution)
    kind = sol_text.split()[1] if len(sol_text.split()) >= 2 else ""
    if kind not in ("classic", "weighted"):
        raise _UsageError(f"unrecognized solution kind {kind!r}")
    sol = (classic if kind == "classic" else weighted).parse_solution(sol_text)
    if sol.shape[0] != g.m:
        raise _UsageError(f"solution has {sol.shape[0]} entries for {g.m} edges")
    # a matching's size, or a feasible dual's value (weak duality), is a
    # lower bound on every cover; a maximal matching's 2|M| endpoints, or a
    # maximal dual's tight vertices, cover at most twice that
    bound = int(sol.sum())
    if kind == "classic":
        sound = is_matching(sol, g)
        maximal = sound and is_maximal_matching(sol, g)
        cover = classic.cover_set(sol, g)
        rows = [("matching", _yn(sound)), ("maximal-matching", _yn(maximal)),
                ("feasible-dual", "n/a"), ("maximal-dual", "n/a")]
    else:
        sound = dual_feasible(sol, g)
        maximal = sound and dual_maximal(sol, g)
        cover = weighted.induced_cover(sol, g)
        rows = [("matching", "n/a"), ("maximal-matching", "n/a"),
                ("feasible-dual", _yn(sound)), ("maximal-dual", _yn(maximal)),
                ("dual-value", str(bound))]
    checks = [sound, maximal]
    cover_weight = sum(g.vertex_weight(v) for v in cover)
    rows.append(("cover-weight", str(cover_weight)))
    if sound:
        rows.append(("lower-bound", str(bound)))
    if g.n <= VC_MAX_N:  # the exact optimum, where the oracle reaches
        opt, _ = exact_min_vc(g)
        rows.append(("opt", str(opt)))
        ratio = cover_weight / opt if opt else (1.0 if cover_weight == 0 else math.inf)
        rows.append(("ratio", f"{ratio:.4f}"))
        two_approx = cover_weight <= 2 * opt
    else:
        two_approx = sound and cover_weight <= 2 * bound
    checks.append(two_approx)
    rows.append(("2-approximation", _yn(two_approx)))
    if kind == "weighted" and g.n <= VC_MAX_N:
        weak = bound <= opt
        checks.append(weak)
        rows.append(("weak-duality", _yn(weak)))
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    return 0 if all(checks) else 3


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (GraphError, OracleError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
