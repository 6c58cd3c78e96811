import os
import subprocess
import sys

import numpy as np
import pytest

from dynvc import Graph
from dynvc.cli import ConfigError, main, parse_config
from dynvc.classic import format_solution
from dynvc.harness import greedy_maximal_matching, greedy_maximal_dual
from dynvc.weighted import format_solution as format_dual


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_parseable_graph(tmp_path):
    out = tmp_path / "g.graph"
    assert run_cli("gen", "--family", "star", "--n", "9", "--seed", "4",
                   "--out", str(out)) == 0
    g = Graph.from_text(out.read_text())
    assert (g.n, g.m) == (9, 8)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("gen", "--family", "gnp", "--n", "12", "--m", "20", "--wmax",
                "6", "--seed", "77", "--out", str(out))
    assert a.read_text() == b.read_text()


def test_run_reaches_target_and_writes_csv(tmp_path):
    graph = tmp_path / "g.graph"
    out = tmp_path / "runs.csv"
    run_cli("gen", "--family", "path", "--n", "17", "--seed", "5",
            "--out", str(graph))
    code = run_cli("run", "--graph", str(graph), "--problem", "classic",
                   "--algo", "ea", "--setting", "prob", "--budget", "auto",
                   "--seed", "11", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("run_index,seed,family,n,m,w_max,algo,problem,"
                        "setting,param,steps_to_target,target_reached,budget")
    assert len(lines) == 2 and ",True," in lines[1]


def test_run_budget_exhausted_exit_code(tmp_path):
    graph = tmp_path / "g.graph"
    out = tmp_path / "runs.csv"
    run_cli("gen", "--family", "gnp", "--n", "14", "--m", "40", "--seed", "5",
            "--out", str(graph))
    code = run_cli("run", "--graph", str(graph), "--problem", "classic",
                   "--algo", "rls", "--setting", "prob", "--budget", "2",
                   "--seed", "11", "--out", str(out))
    assert code == 2
    assert ",False," in out.read_text()


def test_run_onetime_with_trace(tmp_path):
    graph = tmp_path / "g.graph"
    out = tmp_path / "runs.csv"
    trace = tmp_path / "trace.csv"
    run_cli("gen", "--family", "path", "--n", "33", "--seed", "2",
            "--out", str(graph))
    code = run_cli("run", "--graph", str(graph), "--problem", "classic",
                   "--algo", "ea", "--setting", "onetime", "--policy",
                   "delete_positive", "--budget", "auto", "--seed", "3",
                   "--trace", str(trace), "--out", str(out))
    assert code == 0
    assert trace.read_text().startswith("run_index,step,uncovered,total_weight")


def test_run_with_change_script(tmp_path):
    graph = tmp_path / "g.graph"
    script = tmp_path / "changes.txt"
    out = tmp_path / "runs.csv"
    run_cli("gen", "--family", "path", "--n", "9", "--seed", "2",
            "--out", str(graph))
    script.write_text("at 0 del 4 5\nat 1 add 1 3\n")
    code = run_cli("run", "--graph", str(graph), "--problem", "weighted",
                   "--algo", "rls", "--setting", "onetime", "--changes",
                   str(script), "--budget", "auto", "--seed", "3",
                   "--out", str(out))
    assert code == 0
    assert ",script," in out.read_text()


@pytest.mark.parametrize("flags, message", [
    (("--stride", "0"), "stride must be >= 1"),
    (("--pd", "1.5"), "pd must be in [0, 1]"),
    (("--pd", "-1"), "pd must be in [0, 1]"),
    (("--setting", "onetime", "--at-step", "-3"), "at_step must be >= 0"),
])
def test_run_validates_like_sweep(tmp_path, capsys, flags, message):
    graph = tmp_path / "g.graph"
    out = tmp_path / "runs.csv"
    run_cli("gen", "--family", "path", "--n", "9", "--seed", "2",
            "--out", str(graph))
    argv = {"--setting": "prob", "--pd": "0", "--stride": "1"}
    argv.update(zip(flags[::2], flags[1::2]))
    code = run_cli("run", "--graph", str(graph), "--problem", "classic",
                   "--algo", "ea", "--budget", "auto", "--seed", "1",
                   "--out", str(out), *(x for kv in argv.items() for x in kv))
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_negative_script_step(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    script = tmp_path / "changes.txt"
    run_cli("gen", "--family", "path", "--n", "9", "--seed", "2",
            "--out", str(graph))
    script.write_text("at -1 del 1 2\n")
    code = run_cli("run", "--graph", str(graph), "--problem", "classic",
                   "--algo", "ea", "--setting", "prob", "--changes",
                   str(script), "--budget", "auto", "--seed", "3",
                   "--out", str(tmp_path / "runs.csv"))
    assert code == 1
    assert "line 1: step must be >= 0" in capsys.readouterr().err


def test_run_row_matches_one_rep_sweep_row(tmp_path):
    graph = tmp_path / "g.graph"
    cfgfile = tmp_path / "sweep.cfg"
    run_out, sweep_out = tmp_path / "run.csv", tmp_path / "sweep.csv"
    run_cli("gen", "--family", "gnp", "--n", "12", "--m", "24", "--wmax", "5",
            "--seed", "8", "--out", str(graph))
    assert Graph.from_text(graph.read_text()).w_max > 1
    code = run_cli("run", "--graph", str(graph), "--problem", "weighted",
                   "--algo", "ea", "--setting", "prob", "--pd", "auto_thm9",
                   "--budget", "auto", "--seed", "4", "--out", str(run_out))
    cfgfile.write_text(f"family = file\ngraph = {graph}\nproblem = weighted\n"
                       "algo = ea\nsetting = prob\npd = auto_thm9\nseed = 4\n")
    assert run_cli("sweep", "--config", str(cfgfile), "--out", str(sweep_out),
                   "--jobs", "1") == code
    assert run_out.read_text() == sweep_out.read_text()


def test_usage_errors_exit_1(tmp_path):
    assert run_cli("run", "--graph", "nope.graph", "--problem", "classic",
                   "--algo", "ea", "--setting", "prob", "--budget", "auto",
                   "--seed", "1", "--out", str(tmp_path / "o")) == 1
    for family in ("dodecahedron", "file"):
        assert run_cli("gen", "--family", family, "--n", "4", "--seed",
                       "1", "--out", str(tmp_path / "g")) == 1
    assert run_cli("frobnicate") == 1


def test_parse_config_examples():
    cfg = parse_config("family = path\nsizes = 8,16\nreps = 100\n")
    assert cfg.reps == 100 and cfg.sizes == (8, 16)
    cfg = parse_config("family = path\nsizes = 8\npd = auto_thm2\nsetting = prob\n")
    assert cfg.pd == "auto_thm2"
    with pytest.raises(ConfigError, match="reps"):
        parse_config("family = path\nsizes = 8\nreps = 0\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("family = path\nwibble = 3\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("family path\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("family = path\nfamily = star\n")
    with pytest.raises(ConfigError, match="missing"):
        parse_config("sizes = 8\n")


def test_sweep_jobs_default_and_override(tmp_path, monkeypatch):
    assert parse_config("family = path\nsizes = 8\n").jobs == (os.cpu_count() or 1)
    assert parse_config("family = path\nsizes = 8\njobs = 3\n").jobs == 3
    seen = []
    monkeypatch.setattr("dynvc.cli.run_sweep",
                        lambda cfg: seen.append(cfg.jobs) or [])
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("family = path\nsizes = 8\njobs = 3\n")
    out = str(tmp_path / "sweep.csv")
    assert run_cli("sweep", "--config", str(cfgfile), "--out", out) == 0
    assert run_cli("sweep", "--config", str(cfgfile), "--out", out,
                   "--jobs", "2") == 0
    assert seen == [3, 2]


def test_sweep_runs_config(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfgfile.write_text(
        "family = path\nsizes = 8,16\nreps = 3\nseed = 9\n"
        "problem = classic\nalgo = ea\nsetting = onetime\n"
        "policy = delete_positive\n")
    assert run_cli("sweep", "--config", str(cfgfile), "--out", str(out),
                   "--jobs", "1") == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 7
    assert run_cli("sweep", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(out)) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("family = path\nsizes = 8\nreps = zero\n")
    assert run_cli("sweep", "--config", str(bad), "--out", str(out)) == 1


def test_sweep_failed_runs_exit_4(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    script = tmp_path / "changes.txt"
    cfgfile = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    run_cli("gen", "--family", "path", "--n", "9", "--seed", "2",
            "--out", str(graph))
    script.write_text("at 3 del 1 5\n")  # no such edge
    cfgfile.write_text(f"family = file\ngraph = {graph}\nchanges = {script}\n"
                       "reps = 2\n")
    assert run_cli("sweep", "--config", str(cfgfile), "--out", str(out),
                   "--jobs", "1") == 4
    err = capsys.readouterr().err
    assert "run 0: error: invalid change: edge (1,5) not present" in err
    assert "run 1: error:" in err
    assert len(out.read_text().strip().split("\n")) == 3


def test_verify_classic(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    sol = tmp_path / "s.sol"
    run_cli("gen", "--family", "path", "--n", "9", "--seed", "2",
            "--out", str(graph))
    g = Graph.from_text(graph.read_text())
    sol.write_text(format_solution(greedy_maximal_matching(g)))
    assert run_cli("verify", "--graph", str(graph), "--solution", str(sol)) == 0
    report = capsys.readouterr().out
    for token in ("matching", "maximal-matching", "cover-weight", "opt",
                  "ratio", "2-approximation"):
        assert token in report
    # an empty selection leaves edges uncovered: verification failure
    sol.write_text(format_solution(np.zeros(g.m, dtype=np.uint8)))
    assert run_cli("verify", "--graph", str(graph), "--solution", str(sol)) == 3


def test_verify_weighted(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    sol = tmp_path / "s.sol"
    run_cli("gen", "--family", "gnp", "--n", "10", "--m", "16", "--wmax", "5",
            "--seed", "21", "--out", str(graph))
    g = Graph.from_text(graph.read_text())
    sol.write_text(format_dual(greedy_maximal_dual(g)))
    assert run_cli("verify", "--graph", str(graph), "--solution", str(sol)) == 0
    report = capsys.readouterr().out
    for token in ("feasible-dual", "maximal-dual", "dual-value", "weak-duality"):
        assert token in report
    sol.write_text(format_dual(np.zeros(g.m, dtype=np.int64)))
    assert run_cli("verify", "--graph", str(graph), "--solution", str(sol)) == 3
    sol.write_text("sol weird 1 2\n")
    assert run_cli("verify", "--graph", str(graph), "--solution", str(sol)) == 1


def _report(capsys):
    return dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("kind", ["classic", "weighted"])
def test_verify_beyond_the_exact_oracle(tmp_path, capsys, kind):
    # at n = 40 the exact oracle does not reach: the report rests on the
    # certificates alone, a lower bound and the 2-approximation against it
    graph = tmp_path / "g.graph"
    sol = tmp_path / "s.sol"
    wmax = "1" if kind == "classic" else "6"
    assert run_cli("gen", "--family", "gnp", "--n", "40", "--m", "120", "--wmax", wmax,
                   "--seed", "8", "--out", str(graph)) == 0
    g = Graph.from_text(graph.read_text())
    if kind == "classic":
        good = greedy_maximal_matching(g)
        sol.write_text(format_solution(good))
        bound = int(good.sum())
    else:
        good = greedy_maximal_dual(g)
        sol.write_text(format_dual(good))
        bound = int(good.sum())
    assert run_cli("verify", "--graph", str(graph), "--solution", str(sol)) == 0
    report = _report(capsys)
    assert report["lower-bound"] == str(bound)
    assert report["2-approximation"] == "yes"
    assert int(report["cover-weight"]) <= 2 * bound
    assert not {"opt", "ratio", "weak-duality"} & set(report)
    # a sound but not maximal solution: its lower bound stands, maximality fails
    partial = good.copy()
    partial[np.flatnonzero(partial)[0]] = 0
    sol.write_text((format_solution if kind == "classic" else format_dual)(partial))
    assert run_cli("verify", "--graph", str(graph), "--solution", str(sol)) == 3
    report = _report(capsys)
    assert report["lower-bound"] == str(int(partial.sum()))
    assert "no" in (report["maximal-matching"], report["maximal-dual"])
    # an unsound one: no lower bound, so no certified 2-approximation
    bad = good.copy()
    if kind == "classic":
        bad[:] = 1
        sol.write_text(format_solution(bad))
    else:
        bad += 100
        sol.write_text(format_dual(bad))
    assert run_cli("verify", "--graph", str(graph), "--solution", str(sol)) == 3
    report = _report(capsys)
    assert "lower-bound" not in report
    assert report["2-approximation"] == "no"


def test_module_entry_point(tmp_path):
    out = tmp_path / "g.graph"
    proc = subprocess.run(
        [sys.executable, "-m", "dynvc", "gen", "--family", "cycle", "--n",
         "6", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert Graph.from_text(out.read_text()).m == 6
    proc = subprocess.run([sys.executable, "-m", "dynvc", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("gen", "run", "sweep", "verify"):
        assert sub in proc.stdout
