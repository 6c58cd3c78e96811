"""Pinned records: small seeded sweeps must reproduce these exact hashes.

Speed work on the engines or the run loop must leave every record, trace
and final state byte-identical. A change that alters the random stream or
the step semantics on purpose updates the hashes here and says so in
CHANGES.md.
"""

import hashlib

import pytest

from dynvc import ExperimentConfig, run_sweep, spawn_rng
from dynvc.harness import records_to_csv, traces_to_csv

PINNED = {
    ("classic", "ea", "onetime"): "86fe5b1c869177a7",
    ("classic", "ea", "prob"): "fb136ba25af7d1c6",
    ("classic", "rls", "onetime"): "ead91daf532907a2",
    ("classic", "rls", "prob"): "3bd297eebf9d4050",
    ("weighted", "ea", "onetime"): "a736bbf920efabe5",
    ("weighted", "ea", "prob"): "3bf2bf6851a199ec",
    ("weighted", "rls", "onetime"): "dd8105316c3e60fa",
    ("weighted", "rls", "prob"): "3a98f8e9ef18ce17",
}


def _config(problem, algo, setting):
    return ExperimentConfig(family="gnp", sizes=(16, 64), problem=problem, algo=algo,
                            setting=setting, at_step=5, pd=0.004,
                            policy="delete_positive",
                            wmax=4 if problem == "weighted" else 1, reps=8,
                            seed=17, trace=True, stride=7)


def _digest(records):
    h = hashlib.sha256(records_to_csv(records).encode())
    h.update(traces_to_csv(records).encode())
    for r in records:
        h.update(f"{r.final_solution.dtype}|{r.n_changes}|{r.reopt_spans}".encode())
        h.update(r.final_solution.tobytes())
        h.update(r.final_graph_text.encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(PINNED), ids="-".join)
def test_sweep_records_match_pinned_hash(case):
    records = run_sweep(_config(*case))
    assert all(r.error is None and r.target_reached for r in records)
    assert _digest(records) == PINNED[case]


def test_per_hit_scalar_coins_draw_as_one_array():
    # the dual engine draws one scalar coin per hit where the pure mutation
    # draws them as one array; both must read the same values off the stream,
    # between the geometric, index and poll draws a run interleaves with them
    for seed in range(50):
        a, b = spawn_rng(seed, 0), spawn_rng(seed, 0)
        for k in (1, 2, 3, 5, 8, 1):
            assert a.geometric(0.1) == b.geometric(0.1)
            assert [int(a.integers(2)) for _ in range(k)] == b.integers(0, 2, size=k).tolist()
            assert a.integers(1000) == b.integers(1000)
            assert a.random() == b.random()
        assert a.bit_generator.state == b.bit_generator.state
