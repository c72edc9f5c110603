"""The benchmark wraps misa functions by name and builds its configs from
the harness presets; a rename or a removed field must fail here rather than
in a benchmark run."""

import importlib.util
from pathlib import Path

from misa import combinatorics, harness, objective

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load("tracer")
    originals = (harness._run_replicate, objective.evaluate,
                 objective.value_from_sources, combinatorics.hungarian)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert objective.evaluate is not originals[1]
    finally:
        t.uninstall()
    assert (harness._run_replicate, objective.evaluate,
            objective.value_from_sources, combinatorics.hungarian) == originals


def test_workload_configs_build():
    workloads = load("workloads")
    for name in workloads.WORKLOADS:
        assert isinstance(workloads.build_config(name, 1), harness.ExperimentConfig)


def test_traced_run_reads_results():
    # the tracer's info_of readers run only on results of a traced run
    tracer = load("tracer")
    cfg = harness.config_from_dict({
        "experiment": "custom",
        "sim": {"subspace_dims": [[1], [1], [1]], "dims_v": [5], "n_obs": 2000,
                "cond_target": 2.0, "snr_db": 20.0},
        "reduce": "pre", "T": 2, "optim": {"tol_fun": 1e-8}})
    t = tracer.Tracer()
    try:
        tracer.install(t)
        t.run(harness.run_experiment, cfg)
    finally:
        t.uninstall()
    names = {sp.name for sp in t.spans}
    assert {"reduction.reduce_data", "optimizer.minimize", "harness.replicate",
            "combinatorics.gp"} <= names
