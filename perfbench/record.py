"""Record a trajectory point: run each workload on several seeds, then one
traced run per workload at the first seed, and write medians, quartiles and the per-layer
split to a JSON file (added to it when it exists).

    python3 perfbench/record.py --seeds 1-10 --out perfbench/trajectory/<commit>.json

Run from the root of a checkout. Each run is ``run.py`` in its own process,
exactly as a benchmark runner would call it; the file also keeps every raw value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    try:  # a failed gate still prints its result, with code 1
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{' '.join(cmd[1:])} failed with code {out.returncode}:\n"
                         + out.stdout) from None
    return {"result": result, "notes": [ln for ln in lines[:-1] if ln.startswith("#")]}


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    """Median, quartiles and quartile spread as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    out = Path(args.out)
    point = (json.loads(out.read_text()) if out.exists()
             else {"run_seconds": bench["run_seconds"], "workloads": {}})
    seeds = _seeds(args.seeds)
    for name in args.workloads.split(","):
        runs = [_run(name, s, bench["run_seconds"], 0) for s in seeds]
        per_metric = {}
        for r in runs:
            for k, v in r["result"]["metrics"].items():
                per_metric.setdefault(k, []).append(v["value"])
        entry = {"seeds": seeds,
                 "end_to_end": {k: summarize(v) for k, v in per_metric.items()},
                 "correct": all(r["result"]["correct"] for r in runs),
                 "notes": runs[0]["notes"]}
        t = _run(name, seeds[0], bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in t["result"]["metrics"].items()}
        entry["per_layer_notes"] = t["notes"]
        point["workloads"][name] = entry
        spreads = " ".join(f"{k}={m['spread']:.3f}" for k, m in entry["end_to_end"].items())
        print(f"{name}: spread {spreads}", flush=True)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
