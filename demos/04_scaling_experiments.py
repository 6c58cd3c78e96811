"""
Measuring re-optimization time against instance size
====================================================

The harness sweeps a graph family over sizes, repeats each point with
independent seeded streams, and fits a log-log slope through the mean
number of evaluations. Linear re-optimization shows up as a slope near 1.
"""

from dynvc.harness import (ExperimentConfig, fit_scaling, records_to_csv,
                           run_sweep, summarize)

sizes = (32, 64, 128, 256)
cfg = ExperimentConfig(family="path", sizes=sizes, problem="weighted",
                       algo="rls", setting="onetime",
                       policy="delete_positive", wmax=8, reps=100, seed=42,
                       jobs=2)
records = run_sweep(cfg)

print("weighted single-edge search, one deleted edge, 100 reps per size:")
rows = summarize(records)
for row in rows:
    print(f"  m={row['m']:>4}  mean {row['mean']:8.1f} +- {row['stderr']:.1f}"
          f"  median {row['median']:7.1f}  reached {row['reached']:.2f}")

slope = fit_scaling([(row["m"], row["mean"]) for row in rows])
print(f"log-log slope vs m: {slope:.3f} (drift argument predicts about 1)")

# per-run results serialize to a fixed-header CSV; rerunning the same
# config reproduces it byte for byte
csv = records_to_csv(records)
print("\nCSV head:")
print("\n".join(csv.splitlines()[:4]))
again = records_to_csv(run_sweep(cfg))
print("byte-identical on rerun:", csv == again)
