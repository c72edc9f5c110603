"""Workload definitions: preset-shaped experiment configs built from a seed.

Each workload is the harness preset of the same name, with instance and
replicate counts (and N) chosen so that one
``run_experiment`` call fills most of a measured run and the seed-to-seed
spread stays small; README.md gives the reasons. The replicate pool size is
fixed per workload. The BLAS is pinned to one thread by the runner, so the
pool is the only parallelism.

Imported only by the worker process, after ``misa`` is importable.
"""

from __future__ import annotations

from dataclasses import replace

# name -> (preset, overrides of the ExperimentConfig); see README.md for
# which layer each workload stresses and why
WORKLOADS = {
    # all subspaces the same size: objective.evaluate dominates
    "iva1": ("iva1", {"instances": 16, "replicates": 1, "threads": 1,
                      "n_obs": 10000}),
    # mixed subspace dims with misa-gp: gp rescoring via value_from_sources
    "isa2": ("isa2", {"instances": 7, "replicates": 1, "threads": 1,
                      "n_obs": 4000}),
    # not in BENCHMARK.json (line-search failures make it unsteady):
    # the preset itself; copula generation, PRE reduction and MMSE weigh
    "iva2": ("iva2", {"instances": 1, "replicates": 10, "threads": 1}),
    # not in BENCHMARK.json: small matrices on a pool of 2 threads
    "ica1": ("ica1", {"instances": 3, "replicates": 10, "threads": 2}),
}


def build_config(name: str, seed: int, **grid):
    """The ExperimentConfig of workload ``name`` at ``seed``; ``grid``
    overrides instances, replicates or threads (the determinism replay and
    the traced single-thread pool baseline)."""
    from misa import harness

    preset_name, overrides = WORKLOADS[name]
    overrides = {**overrides, **grid}
    cfg = harness.preset(preset_name)
    if "n_obs" in overrides:
        cfg = replace(cfg, sim=replace(cfg.sim, n_obs=overrides.pop("n_obs")))
    return replace(cfg, seed=seed, **overrides)
