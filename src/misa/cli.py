"""Command-line interface.

Verbs: generate (emit a synthetic instance to disk), solve (run the
estimation chain on a saved instance), experiment (full replicated
protocol), gradcheck (finite-difference audit), score (metrics on saved
estimates).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

# one BLAS thread unless the caller set the count: OpenBLAS starts its
# threads when numpy loads, and the solves' products are small enough that
# extra threads only contend for the cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import gradcheck
from . import harness
from . import metrics
from .errors import ConfigError, MisaError, ParseError, ShapeError
from .io import load_matrix, make_dir, read_json, save_matrix, write_json
from .model import BlockTransform, MultiDataset, SubspaceAssignment


def _load_cfg(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config) if args.config else harness.preset(args.experiment)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    data, truth, P = harness.build_instance(cfg.sim, cfg.seed)
    out = make_dir(args.out)
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
    write_json(out / "manifest.json", manifest)
    print(f"wrote instance to {out}")
    return 0


def _load_instance(path):
    root = Path(path)
    path = root / "manifest.json"
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: not a JSON object")
    if "col_dims" not in manifest:
        raise ParseError(f"{path}: missing key 'col_dims'")
    col_dims = manifest["col_dims"]
    # type() is int, not isinstance, so that true and false are rejected
    if not (isinstance(col_dims, list) and col_dims
            and all(type(c) is int and c > 0 for c in col_dims)):
        raise ParseError(f"{path}: col_dims must be a non-empty list of positive "
                         f"integers, got {json.dumps(col_dims)}")
    blocks = []
    for m, C in enumerate(col_dims):
        path = root / f"X_{m}.misa"
        X = load_matrix(path)
        if blocks and X.shape[1] != blocks[0].shape[1]:
            raise ParseError(f"{path}: has {X.shape[1]} observations, "
                             f"X_0.misa has {blocks[0].shape[1]}")
        if X.shape[0] < C:
            raise ParseError(f"{path}: has {X.shape[0]} rows, fewer than the "
                             f"{C} sources of dataset {m}")
        blocks.append(X)
    data = MultiDataset(blocks)
    path = root / "P.misa"
    P = load_matrix(path)
    try:
        P = SubspaceAssignment(P, col_dims)
    except ShapeError as e:
        raise ParseError(f"{path}: {e}") from None
    A = None
    if (root / "A_0.misa").exists():
        A = BlockTransform([_load_shaped(root / f"A_{m}.misa", (V, C))
                            for m, (V, C) in enumerate(zip(data.dims, col_dims))])
    return data, P, A


def _load_shaped(path, shape) -> np.ndarray:
    """load_matrix, with a ParseError naming the file unless the matrix has
    the given shape and every entry is finite."""
    X = load_matrix(path)
    if X.shape != shape:
        raise ParseError(f"{path}: expected a {shape[0]} x {shape[1]} matrix for this "
                         f"instance, got {X.shape[0]} x {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ParseError(f"{path}: holds a NaN or infinite entry")
    return X


def cmd_solve(args) -> int:
    cfg = _load_cfg(args)
    data, P, A = _load_instance(args.data)
    out = make_dir(args.out)
    work, B = harness.reduce_instance(cfg, data, P)
    sol, W_total = harness.solve_instance(cfg, work, P, B, cfg.seed)

    for m, Wm in enumerate(W_total.blocks):
        save_matrix(out / f"W_{m}.misa", Wm)
    result = {"objective": sol.objective_value, "status": sol.status.value,
              "iterations": sol.n_iters}
    if A is not None:
        result["misi"] = metrics.misi(W_total, A, P)
    write_json(out / "solve.json", result)
    print(json.dumps(result))
    return 0 if A is None or result["misi"] < metrics.MISI_GOOD else 1


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
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    worst = gradcheck.audit_objective(seed=args.seed)
    worst["pre"] = gradcheck.audit_pre(seed=args.seed)
    ok = all(v < 1e-5 for v in worst.values())
    for name, v in sorted(worst.items()):
        print(f"{name}: max relative error {v:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_score(args) -> int:
    data, P, A = _load_instance(args.data)
    if A is None:
        raise ParseError(f"{args.data}: no mixing matrices to score against")
    root = Path(args.data)
    wdir = Path(args.est) if args.est else root
    W = BlockTransform([_load_shaped(wdir / f"W_{m}.misa", (C, V))
                        for m, (V, C) in enumerate(zip(data.dims, P.col_dims))])
    Y_true = None
    if (root / "Y.misa").exists():
        Y_true = _load_shaped(root / "Y.misa", (P.n_sources, data.n_obs))
    out = harness.score_estimate(W, A, P, data, Y_true)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if out["misi"] < metrics.MISI_GOOD else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="misa",
                                 description="Multidataset independent subspace analysis")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, out_required=False):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="JSON experiment config")
        source.add_argument("--experiment", help="preset id (ica1|iva1|iva2|isa1|isa2|isa3)")
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("score", help="metrics on saved estimates")
    p.add_argument("--data", required=True, help="instance directory")
    p.add_argument("--est", help="directory holding W_m.misa (default: --data)")
    p.set_defaults(fn=cmd_score)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MisaError as e:
        # bad input exits 2, as argparse does; a poor separation exits 1
        print(f"misa: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
