"""Command-line interface.

Verbs: generate (emit a synthetic instance to disk), solve (run the
estimation chain on a saved instance), experiment (full replicated
protocol), gradcheck (finite-difference audit), score (metrics on saved
estimates).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gradcheck
from . import harness
from . import metrics
from .io import load_matrix, save_matrix
from .model import BlockTransform, MultiDataset, SubspaceAssignment


def _load_cfg(args) -> harness.ExperimentConfig:
    if args.config:
        cfg = harness.load_config(args.config)
    elif args.experiment:
        cfg = harness.preset(args.experiment)
    else:
        raise SystemExit("need --config or --experiment")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    sim = replace(cfg.sim, seed=cfg.seed)
    data, truth, P = harness.build_instance(sim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for m, X in enumerate(data.blocks):
        save_matrix(out / f"X_{m}.misa", X)
    for m, A in enumerate(truth.A.blocks):
        save_matrix(out / f"A_{m}.misa", A)
    save_matrix(out / "Y.misa", truth.Y)
    save_matrix(out / "P.misa", np.asarray(P.P, dtype=float))
    manifest = {
        "n_datasets": data.n_datasets,
        "dims_v": data.dims,
        "col_dims": list(P.col_dims),
        "n_obs": data.n_obs,
        "seed": cfg.seed,
        "subspace_dims": P.per_dataset_dims().tolist(),
        "noise_scales": truth.noise_scales,
        "realized_conds": truth.realized_conds,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote instance to {out}")
    return 0


def _load_instance(path):
    root = Path(path)
    with open(root / "manifest.json") as fh:
        manifest = json.load(fh)
    M = manifest["n_datasets"]
    data = MultiDataset([load_matrix(root / f"X_{m}.misa") for m in range(M)])
    P = SubspaceAssignment(load_matrix(root / "P.misa").astype(int),
                           manifest["col_dims"])
    A = None
    if (root / "A_0.misa").exists():
        A = BlockTransform([load_matrix(root / f"A_{m}.misa") for m in range(M)])
    return data, P, A, manifest


def cmd_solve(args) -> int:
    cfg = _load_cfg(args)
    data, P, A, _ = _load_instance(args.data)
    work, B = harness.reduce_instance(cfg, data, P)
    sol, W_total = harness.solve_instance(cfg, work, P, B, cfg.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for m, Wm in enumerate(W_total.blocks):
        save_matrix(out / f"W_{m}.misa", Wm)
    result = {"objective": sol.objective_value, "status": sol.status.value,
              "iterations": sol.n_iters}
    if A is not None:
        result["misi"] = metrics.misi(W_total, A, P)
    with open(out / "solve.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    if A is not None:
        return 0 if result["misi"] < metrics.MISI_GOOD else 1
    return 0


def cmd_experiment(args) -> int:
    cfg = _load_cfg(args)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    records, summary = harness.run_experiment(cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["good"] else 1


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    worst = gradcheck.audit_objective(seed=seed)
    worst["pre"] = gradcheck.audit_pre(seed=seed)
    ok = all(v < 1e-5 for v in worst.values())
    for name, v in sorted(worst.items()):
        print(f"{name}: max relative error {v:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_score(args) -> int:
    data, P, A, manifest = _load_instance(args.data)
    if A is None:
        raise SystemExit("instance directory has no mixing matrices to score against")
    root = Path(args.data)
    wdir = Path(args.est) if args.est else root
    W = BlockTransform([load_matrix(wdir / f"W_{m}.misa")
                        for m in range(data.n_datasets)])
    Y_true = load_matrix(root / "Y.misa") if (root / "Y.misa").exists() else None
    out = harness.score_estimate(W, A, P, data, Y_true)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if out["misi"] < metrics.MISI_GOOD else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="misa",
                                 description="Multidataset independent subspace analysis")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--experiment", help="preset id (ica1|iva1|iva2|isa1|isa2|isa3)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("generate", help="emit a synthetic instance")
    common(p, out_required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("solve", help="run the chain on a saved instance")
    common(p, out_required=True)
    p.add_argument("--data", required=True, help="instance directory from generate")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("experiment", help="run a full replicated protocol")
    common(p)
    p.add_argument("--threads", type=int, default=None,
                   help="replicate pool size (default: the config's threads)")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("score", help="metrics on saved estimates")
    p.add_argument("--data", required=True, help="instance directory")
    p.add_argument("--est", help="directory holding W_m.misa (default: --data)")
    p.set_defaults(fn=cmd_score)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
