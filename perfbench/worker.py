"""One workload process: import misa from the checkout, build the config,
then run the measured or the traced experiments and print raw results.

Started by run.py with the BLAS pinned to one thread. It prints ``READY``
once the config is built (the end of set-up), then one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tr
from workloads import build_config

STATUSES = ("Converged_fun", "Converged_x", "MaxIter", "MaxEval",
            "LineSearchFail")


def quality(records, summary) -> dict:
    """The deterministic result numbers of one run_experiment call."""
    from misa.metrics import MISI_GOOD

    misis = [r.misi for r in records]
    finite = [m for m in misis if math.isfinite(m)]
    failed = sum(1 for r in records
                 if r.status.startswith("error:") or not math.isfinite(r.misi))
    return {
        "misi_best_median": summary["median_best_misi"],
        "misi_p50": statistics.median(finite) if finite else math.nan,
        "good_frac": sum(1 for m in finite if m < MISI_GOOD) / len(records),
        "fail_frac": failed / len(records),
        "failed": failed,
        "good": summary["good"],
    }


def _record_key(rec) -> str:
    """The deterministic fields of a RunRecord, exactly as text."""
    return repr((rec.instance, rec.replicate, rec.misi, rec.mmse,
                 rec.objective, rec.iterations, rec.status))


def _call(harness, cfg) -> tuple:
    t0, c0 = time.perf_counter(), time.process_time()
    records, summary = harness.run_experiment(cfg)
    return records, {"experiment_s": time.perf_counter() - t0,
                     "experiment_cpu_s": time.process_time() - c0,
                     "replicate_s": [r.wall_time for r in records],
                     "quality": quality(records, summary)}


def replay_mismatch(harness, workload: str, seed: int, records):
    """Run the first replicate of the first instance again on its own and
    return a message if its record differs from the one in ``records``."""
    again, _ = harness.run_experiment(
        build_config(workload, seed, instances=1, replicates=1, threads=1))
    if _record_key(again[0]) != _record_key(records[0]):
        return (f"replayed record {_record_key(again[0])} differs from "
                f"{_record_key(records[0])}")
    return None


def measured(harness, cfg, workload: str, seed: int, seconds: float) -> dict:
    """Repeat run_experiment while another call fits in ``seconds`` (at
    least once), then replay one replicate as the determinism check."""
    calls = []
    begin = time.perf_counter()
    while True:
        records, call = _call(harness, cfg)
        calls.append(call)
        if time.perf_counter() - begin + call["experiment_s"] > seconds:
            break
    return {"calls": calls,
            "replay_mismatch": replay_mismatch(harness, workload, seed, records)}


def _phase_walls(tracer) -> tuple:
    """(sum over instances of replicate-phase wall, sum of replicate busy
    time); the phase runs from an instance's first replicate start to its
    last replicate end."""
    by_inst = {}
    busy = 0.0
    for sp in tracer.spans:
        if sp.name == "harness.replicate":
            lo, hi = by_inst.get(sp.info, (math.inf, -math.inf))
            by_inst[sp.info] = (min(lo, sp.start), max(hi, sp.end))
            busy += sp.duration
    return sum(hi - lo for lo, hi in by_inst.values()), busy


def traced_experiment(harness, cfg):
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        records, summary = tracer.run(harness.run_experiment, cfg)
    finally:
        tracer.uninstall()
    return tracer, records, summary


def layer_metrics(tracer, cfg, untraced_s: float, pool_1thread_wall) -> dict:
    """Per-layer numbers from the spans of one traced run_experiment call."""
    selfs = tracer.self_times()
    agg = tracer.by_name(selfs)
    root = tracer.root
    out = {}

    def put(name, value):
        out[name] = float(value)

    ev = agg["objective.evaluate"]
    put("objective.evaluate.calls", ev["calls"])
    put("objective.evaluate.self_s", ev["self_s"])
    put("objective.evaluate.ms_per_call",
        1e3 * ev["s"] / ev["calls"] if ev["calls"] else 0.0)
    vfs = agg["objective.value_from_sources"]
    put("objective.value_from_sources.calls", vfs["calls"])
    put("objective.value_from_sources.self_s", vfs["self_s"])
    put("model.transform.calls", agg["model.transform"]["calls"])
    put("model.transform.s", agg["model.transform"]["s"])

    # solver calls of the replicates; PRE reduction's own minimize runs are
    # reported under reduction.reduce_data.iters
    sols = [sp for sp in tracer.spans
            if sp.name == "optimizer.minimize" and sp.rep is not None]
    iters = sum(sp.info[1] for sp in sols)
    evals = sum(sp.info[2] for sp in sols)
    put("optimizer.minimize.calls", len(sols))
    put("optimizer.minimize.self_s", sum(selfs[sp] for sp in sols))
    put("optimizer.iters", iters)
    put("optimizer.evals", evals)
    put("optimizer.evals_per_iter", evals / iters if iters else 0.0)
    converged = sum(1 for sp in sols if sp.info[0].startswith("Converged_"))
    put("optimizer.converged_frac", converged / len(sols) if sols else 0.0)
    for st in STATUSES:
        put(f"optimizer.status.{st}", sum(1 for sp in sols if sp.info[0] == st))

    put("combinatorics.run_misa.calls", agg["combinatorics.run_misa"]["calls"])
    put("combinatorics.gp.calls", agg["combinatorics.gp"]["calls"])
    put("combinatorics.gp.self_s", agg["combinatorics.gp"]["self_s"])
    put("combinatorics.gp.rescorings",
        sum(1 for sp in tracer.spans if sp.name == "objective.value_from_sources"
            and tracer.under(sp, "combinatorics.gp")))
    put("combinatorics.match.s", agg["combinatorics.match"]["s"])
    put("combinatorics.hungarian.calls", agg["combinatorics.hungarian"]["calls"])
    put("combinatorics.hungarian.s", agg["combinatorics.hungarian"]["s"])

    put("simgen.build_instance.s", agg["simgen.build_instance"]["s"])
    put("simgen.sample_copula_sources.s", agg["simgen.sample_copula_sources"]["s"])
    put("reduction.reduce_data.s", agg["reduction.reduce_data"]["s"])
    put("reduction.reduce_data.iters",
        sum(sp.info for sp in tracer.spans if sp.name == "reduction.reduce_data"))
    put("metrics.misi.s", agg["metrics.misi"]["s"])
    put("metrics.mmse.s", agg["metrics.mmse"]["s"])
    put("harness.correlation_summary.s", agg["harness.correlation_summary"]["s"])

    wall, busy = _phase_walls(tracer)
    put("harness.pool_idle_frac", 1.0 - busy / (cfg.threads * wall))
    put("harness.pool_speedup",
        pool_1thread_wall / wall if pool_1thread_wall is not None else 1.0)

    put("trace.overhead_frac", root.duration / untraced_s - 1.0)
    put("trace.unattributed_frac", selfs[root] / root.duration)
    return out


def traced(harness, cfg, workload: str, seed: int) -> dict:
    """One untraced call, one traced call, and for a pooled workload one
    more traced call on a single-thread pool as the speed-up baseline."""
    records, call = _call(harness, cfg)
    tracer, t_records, t_summary = traced_experiment(harness, cfg)
    base_wall = None
    if cfg.threads > 1:
        base, _, _ = traced_experiment(harness, build_config(workload, seed, threads=1))
        base_wall = _phase_walls(base)[0]
    t_call = {"replicate_s": [r.wall_time for r in t_records],
              "quality": quality(t_records, t_summary)}
    per_layer = layer_metrics(tracer, cfg, call["experiment_s"], base_wall)
    per_layer["harness.replicate_s_p50"] = statistics.median(call["replicate_s"])
    for k in ("misi_p50", "good_frac", "fail_frac"):
        per_layer[f"quality.{k}"] = t_call["quality"][k]
    mismatch = None
    if [_record_key(r) for r in records] != [_record_key(r) for r in t_records]:
        mismatch = "traced records differ from untraced ones"
    return {"calls": [call, t_call], "per_layer": per_layer,
            "replay_mismatch": mismatch}


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from its .git files, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        so = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(so, sym):
                return int(getattr(so, sym)())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def provenance(cfg) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "pool_threads": cfg.threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(Path.cwd()),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import misa
    from misa import harness

    src = (Path.cwd() / "src").resolve()
    if src not in Path(misa.__file__).resolve().parents:
        print(f"misa imported from {misa.__file__}, not from {src}", file=sys.stderr)
        return 2
    cfg = build_config(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        out = traced(harness, cfg, args.workload, args.seed)
    else:
        out = measured(harness, cfg, args.workload, args.seed, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["provenance"] = provenance(cfg)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
