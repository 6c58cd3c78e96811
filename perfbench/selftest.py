"""Tests of the benchmark's own output checks.

Each checker must pass a known-good output and reject a known-bad one.
Outside the Tier-1 suite on purpose; run with

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from dynvc.harness import ExperimentConfig, run_sweep  # noqa: E402

# path 1-2-3-4-5: edges (1,2) (2,3) (3,4) (4,5)
PATH = "graph 5 10\nvw 2 3\nvw 4 2\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"


def test_parse_graph_reads_weights_and_edges():
    n, w, edges = checks.parse_graph(PATH)
    assert n == 5 and w == [0, 1, 3, 1, 2, 1]
    assert edges == [(1, 2), (2, 3), (3, 4), (4, 5)]


@pytest.mark.parametrize("text", ["graph 3 3\ne 1 1\n", "graph 3 3\ne 1 2\ne 2 1\n",
                                  "graph 3 3\ne 1 4\n", "e 1 2\n"])
def test_parse_graph_rejects_bad_graphs(text):
    with pytest.raises(ValueError):
        checks.parse_graph(text)


def test_matching_accepts_maximal_matching():
    n, _, edges = checks.parse_graph(PATH)
    assert checks.check_matching(n, edges, [1, 0, 1, 0]) is None
    assert checks.check_matching(n, edges, [0, 1, 0, 1]) is None


@pytest.mark.parametrize("sol", [[1, 0, 0, 0],      # (3,4) and (4,5) uncovered
                                 [1, 1, 0, 1],      # (1,2) and (2,3) share vertex 2
                                 [1, 0, 1],         # wrong length
                                 [2, 0, 1, 0]])     # not a bit
def test_matching_rejects(sol):
    n, _, edges = checks.parse_graph(PATH)
    assert checks.check_matching(n, edges, sol) is not None


def test_dual_accepts_maximal_dual():
    n, w, edges = checks.parse_graph(PATH)
    # loads 1,2,1,1,1 against weights 1,3,1,2,1: vertices 1, 3 and 5 are tight
    assert checks.check_dual(n, w, edges, [1, 1, 0, 1]) is None
    assert checks.tight_weight(n, w, edges, [1, 1, 0, 1]) == 3


@pytest.mark.parametrize("sol", [[1, 1, 1, 1],      # vertex 3 overloaded
                                 [1, 0, 0, 1],      # edge (2,3) has no tight endpoint
                                 [-1, 2, 0, 1],     # negative entry
                                 [1, 1, 0]])        # wrong length
def test_dual_rejects(sol):
    n, w, edges = checks.parse_graph(PATH)
    assert checks.check_dual(n, w, edges, sol) is not None


def test_min_cover_weight_is_exact():
    n, w, edges = checks.parse_graph(PATH)
    assert checks.min_cover_weight(n, w, edges) == 3  # {1, 3, 5}


def test_check_against_opt():
    n, w, edges = checks.parse_graph(PATH)
    opt = checks.min_cover_weight(n, w, edges)
    assert checks.check_against_opt(PATH, 2 * opt) is None
    assert checks.check_against_opt(PATH, 2 * opt + 1) is not None


@pytest.fixture(scope="module")
def reopt_records():
    cfg = ExperimentConfig(family="gnp", sizes=(32,), problem="classic", algo="ea",
                           setting="onetime", policy="delete_positive", reps=2, seed=5)
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def weighted_records():
    cfg = ExperimentConfig(family="gnp", sizes=(32,), problem="weighted", algo="ea",
                           setting="onetime", policy="delete_positive", wmax=8,
                           reps=2, seed=5)
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def churn_records():
    cfg = ExperimentConfig(family="gnp", sizes=(64,), problem="classic", algo="ea",
                           setting="prob", pd=0.05, reps=2, seed=5)
    return run_sweep(cfg)


def _drop_last_edge(rec):
    lines = rec.final_graph_text.splitlines()
    return dataclasses.replace(rec, final_graph_text="\n".join(lines[:-1]) + "\n",
                               final_solution=rec.final_solution[:-1])


def test_records_from_the_program_pass(reopt_records, weighted_records, churn_records):
    for rec in reopt_records + weighted_records:
        why, _ = checks.check_record(rec, "one-deletion")
        assert why is None, why
    for rec in churn_records:
        assert rec.n_changes > 1
        why, _ = checks.check_record(rec, "churn")
        assert why is None, why
    _, due = checks.check_record(weighted_records[0], "one-deletion")
    assert due is not None and checks.check_against_opt(*due) is None


@pytest.mark.parametrize("fixture,changes", [("reopt_records", "one-deletion"),
                                             ("weighted_records", "one-deletion"),
                                             ("churn_records", "churn")])
def test_record_with_one_edge_deleted_is_rejected(request, fixture, changes):
    rec = _drop_last_edge(request.getfixturevalue(fixture)[0])
    why, _ = checks.check_record(rec, changes)
    assert why is not None


def test_record_with_wrong_changes_is_rejected(reopt_records, churn_records):
    rec = reopt_records[0]
    assert checks.check_record(dataclasses.replace(rec, n_changes=2), "one-deletion")[0]
    assert checks.check_record(dataclasses.replace(rec, reopt_spans=[0]), "one-deletion")[0]
    rec = churn_records[0]
    assert checks.check_record(dataclasses.replace(rec, n_changes=rec.n_changes + 1),
                               "churn")[0]


def test_failed_or_unfinished_record_is_rejected(reopt_records):
    rec = reopt_records[0]
    assert checks.check_record(dataclasses.replace(rec, error="boom"), "one-deletion")[0]
    assert checks.check_record(dataclasses.replace(rec, target_reached=False),
                               "one-deletion")[0]


def test_record_with_broken_solution_is_rejected(reopt_records, weighted_records):
    rec = reopt_records[0]
    sol = rec.final_solution.copy()
    sol[:] = 0  # nothing selected: every edge uncovered
    assert checks.check_record(dataclasses.replace(rec, final_solution=sol), "one-deletion")[0]
    rec = weighted_records[0]
    sol = rec.final_solution + np.int64(100)  # every vertex overloaded
    assert checks.check_record(dataclasses.replace(rec, final_solution=sol), "one-deletion")[0]
