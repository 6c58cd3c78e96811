"""Randomized search heuristics for the dynamic (weighted) vertex cover problem.

Classical instances search for maximal matchings over an edge-selection
bit vector; weighted instances push integer dual weights on edges against
vertex capacities until every edge has a tight endpoint. Both certify a
2-approximate vertex cover. Brute-force oracles validate small instances,
and a seeded harness measures re-optimization times under dynamic edge
changes.
"""

from .classic import (ClassicFitness, cover_set, fitness_classic,
                      mutate_global, mutate_local, step_classic)
from .dynamics import (AddEdge, Change, ChangePolicy, OneTime, Probabilistic,
                       RemoveEdge, Schedule, Scripted, apply_change,
                       ea_phase_length, parse_change_script,
                       pd_threshold_classic, pd_threshold_weighted_ea,
                       pd_threshold_weighted_rls, sample_change)
from .graph import Graph, GraphError
from .harness import (ExperimentConfig, RunRecord, RunTask, child_seed,
                      fit_scaling, greedy_maximal_dual,
                      greedy_maximal_matching, make_instance,
                      make_instance_by_n, records_to_csv, run_once, run_sweep,
                      spawn_rng, summarize, target_reached, traces_to_csv)
from .oracles import (OracleError, dual_feasible, dual_maximal, exact_min_vc,
                      gap_G, gap_Gstar, is_2_approx, is_matching,
                      is_maximal_matching, max_dual_value)
from .weighted import (WeightedFitness, fitness_weighted, induced_cover,
                       mutate_weight_global, mutate_weight_local, node_load,
                       step_weighted)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
