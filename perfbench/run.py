"""Protocol benchmark of misa: end-to-end and traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload iva1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a separately traced run. ``all`` runs every
workload in turn. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it give
the provenance and the quality numbers. The exit code is nonzero when the
correctness gate fails or the workload cannot run.

This process imports only the standard library and the workload table.
Each workload runs in a fresh interpreter (worker.py) with the BLAS pinned
to one thread, so set-up time and peak memory are those of that process
alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # fresh interpreters timed per run, the worker included
DEADLINE_S = 170.0  # a run that is not done by then is killed
QUALITY = ("misi_best_median", "misi_p50", "good_frac", "fail_frac")


class BenchError(Exception):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("MISA_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _worker(root: Path, args: list, deadline: float):
    """Start worker.py; returns (seconds until it printed READY, its JSON
    result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = None
        last = None
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready, (json.loads(last) if last else None)


def tail(values) -> str:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), or why there is none."""
    n = len(values)
    if n < 20:
        return f"none (n={n} < 20)"
    pct = math.floor(100 * (n - 10) / n)
    xs = sorted(values)
    return f"p{pct}={xs[math.ceil(pct * n / 100) - 1]!r} (n={n})"


def gate(res) -> list:
    """Correctness problems of one invocation: a summary that is not good,
    quality numbers that differ between repeated calls, or a replayed
    replicate whose record differs."""
    calls = res["calls"]
    problems = [res["replay_mismatch"]] if res["replay_mismatch"] else []
    for i, c in enumerate(calls):
        if not c["quality"]["good"]:
            problems.append(f"call {i}: summary good is false "
                            f"(median best MISI {c['quality']['misi_best_median']})")
    first = {k: calls[0]["quality"][k] for k in QUALITY}
    for i, c in enumerate(calls[1:], 1):
        other = {k: c["quality"][k] for k in QUALITY}
        if json.dumps(other) != json.dumps(first):
            problems.append(f"call {i}: quality {other} differs from call 0 "
                            f"{first} (nondeterminism)")
    return problems


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int,
            units: dict, deadline: float) -> dict:
    """One workload: set-up probes, the worker run, the gate and the metrics
    named in ``units`` (metric name -> unit, from BENCHMARK.json)."""
    base = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(_worker(root, base + ["--setup-only"], deadline)[0])
    ready, res = _worker(root, base + ["--seconds", str(seconds),
                                       "--trace", str(trace)], deadline)
    setup.append(ready)

    calls = res["calls"]
    problems = gate(res)
    q = calls[0]["quality"]
    reps = [t for c in calls for t in c["replicate_s"]]
    failed = sum(c["quality"]["failed"] for c in calls)
    print(f"# {workload} seed={seed} provenance " + json.dumps(res["provenance"]))
    print(f"# {workload} quality (unit 1) " + json.dumps({k: q[k] for k in QUALITY}))
    print(f"# {workload} calls={len(calls)} replicate samples={len(reps)} "
          f"replicate_s p50={statistics.median(reps)!r} tail: {tail(reps)}")
    for p in problems:
        print(f"# {workload} GATE FAILED: {p}")

    if trace:
        values = res["per_layer"]
    else:
        print(f"# {workload} experiment wall s (median over calls) "
              f"{statistics.median(c['experiment_s'] for c in calls)!r}")
        values = {
            "setup_s": statistics.median(setup),
            "experiment_cpu_s": statistics.median(c["experiment_cpu_s"]
                                                  for c in calls),
            "peak_rss_mb": res["peak_rss_mb"],
            "misi_best_median": q["misi_best_median"],
        }
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json "
                         f"{sorted(units)}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": not problems, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "misa" / "__init__.py").is_file():
        print(f"no misa sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = []
    try:
        for name in names:
            results.append(run_one(root, name, args.seed, args.seconds,
                                   args.trace, units, deadline))
            if len(names) > 1:
                print(f"# {name} " + json.dumps(results[-1]))
    except BenchError as e:
        print(str(e), file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[0]
    else:
        out = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
