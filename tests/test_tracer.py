"""The benchmark's traced mode wraps misa functions by name; a rename must
fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

from misa import combinatorics, harness, objective

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
