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


def test_usage_errors_exit_1(tmp_path):
    assert run_cli("run", "--graph", "nope.graph", "--problem", "classic",
                   "--algo", "ea", "--setting", "prob", "--budget", "auto",
                   "--seed", "1", "--out", str(tmp_path / "o")) == 1
    assert run_cli("gen", "--family", "dodecahedron", "--n", "4", "--seed",
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
