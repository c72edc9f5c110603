"""Experiment orchestration: configuration, replicated seeded runs of the
benchmark protocols at desk scale, scoring, and results persistence."""

from __future__ import annotations

import csv
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from typing import List, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import combinatorics as comb
from . import metrics
from . import optimizer as opt
from . import reduction
from .errors import (ConfigError, DefinitenessError, DomainError, RankError,
                     check_ranges)
from .io import make_dir, read_json, write_json
from .model import BlockTransform, DispersionChoice, MultiDataset, SubspaceAssignment
from .simgen import SimSpec, build_instance

@dataclass(kw_only=True, slots=True)
class ExperimentConfig:
    experiment: str = "custom"
    sim: SimSpec
    reduce: str = "none"
    dispersion: DispersionChoice = DispersionChoice.SCALE_CONTROLLED
    T: int = 0
    optim: opt.OptimOptions = field(default_factory=opt.OptimOptions)
    instances: int = 1
    replicates: int = 1
    seed: int = 0
    out_dir: Optional[str] = None
    threads: int = 1

    def __post_init__(self):
        check_ranges(self, (("reduce", lambda v: v in ("none", "pre", "gpca"),
                             "none, pre or gpca"),
                            ("instances replicates threads", lambda v: v >= 1, ">= 1"),
                            ("T seed", lambda v: v >= 0, ">= 0")), ConfigError)
        # every replicate is scored by MISI, whose normalization needs K >= 2
        if len(self.sim.subspace_dims) < 2:
            raise ConfigError("sim.subspace_dims needs at least 2 subspaces (rows), "
                              f"got {len(self.sim.subspace_dims)}")


def _fits(v, hint) -> bool:
    """Whether the JSON value v fits a field annotated hint. Types parsed
    into their own classes (SimSpec, OptimOptions, DispersionChoice) fit
    anything here."""
    if hint is np.ndarray:  # SimSpec.subspace_dims, a K x M table
        hint = Sequence[Sequence[int]]
    if get_origin(hint) is Union:
        return any(_fits(v, h) for h in get_args(hint))
    if get_args(hint):  # Sequence[item]
        return isinstance(v, list) and all(_fits(x, get_args(hint)[0]) for x in v)
    if hint in (int, float):
        return not isinstance(v, bool) and isinstance(v, int if hint is int else (int, float))
    return isinstance(v, hint) if hint in (str, type(None)) else True


def _section(name: str, values, cls, base=None):
    """cls from the JSON object values: base with the given keys replaced,
    or without a base, from its defaults. ConfigError names every key that
    is unknown, of the wrong JSON type, or (without a base) missing."""
    if not isinstance(values, dict):
        raise ConfigError(f"{name} must be an object")
    hints = get_type_hints(cls)
    required = {f.name for f in fields(cls) if base is None
                and f.default is MISSING and f.default_factory is MISSING}
    for what, keys in (("unknown", set(values) - set(hints)),
                       ("missing", required - set(values)),
                       ("wrong-typed", {k for k, v in values.items()
                                        if k in hints and not _fits(v, hints[k])})):
        if keys:
            raise ConfigError(f"{what} {name} key(s): {sorted(keys)}")
    return cls(**values) if base is None else replace(base, **values)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON tree: the preset it names,
    or the defaults for "custom", with only the given keys replaced, at the
    top level and in sim and optim. Bad keys are named as in _section."""
    if not isinstance(d, dict):
        raise ConfigError("config must be an object")
    exp_id = d.get("experiment", "custom")
    base = None if exp_id == "custom" else preset(exp_id)
    d = dict(d)
    if "sim" in d:
        s = d["sim"]
        if isinstance(s, dict) and isinstance(s.get("snr_db"), str):
            if s["snr_db"].lower() not in ("inf", "infinity"):
                raise ConfigError(f"bad snr_db value {s['snr_db']!r}")
            s = {**s, "snr_db": np.inf}
        d["sim"] = _section("sim", s, SimSpec, base and base.sim)
    if "optim" in d:
        d["optim"] = _section("optim", d["optim"], opt.OptimOptions, base and base.optim)
    if "dispersion" in d:
        try:
            d["dispersion"] = DispersionChoice(d["dispersion"])
        except ValueError:
            raise ConfigError(f"unknown dispersion {d['dispersion']!r}") from None
    return _section("config", d, ExperimentConfig, base)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


# what each benchmark protocol changes from the SimSpec and ExperimentConfig
# defaults; preset() adds what every protocol shares
_PRESETS = {
    "ica1": ({"subspace_dims": [[1]] * 10, "dims_v": [40], "n_obs": 5000},
             {"reduce": "pre", "instances": 10}),
    "iva1": ({"subspace_dims": [[1] * 5] * 8, "dims_v": [8] * 5, "n_obs": 20000}, {}),
    "iva2": ({"subspace_dims": [[1, 1]] * 12, "dims_v": [20, 20], "n_obs": 10000,
              "snr_db": 15.0, "rho_max": 0.7, "family": "copula"},
             {"reduce": "pre"}),
    "isa1": ({"subspace_dims": [[4]] * 4, "dims_v": [16], "n_obs": 8000},
             {"T": 2}),
    "isa2": ({"subspace_dims": [[1], [2], [3], [4], [5]], "dims_v": [15], "n_obs": 8000},
             {"T": 2}),
    "isa3": ({"subspace_dims": [[2, 1], [2, 1], [1, 3]], "dims_v": [5, 5], "n_obs": 8000},
             {"T": 2}),
}


def preset(name: str) -> ExperimentConfig:
    """Desk-scale presets mirroring the benchmark protocols: 10 replicates
    each, at a tighter function tolerance than the library default. Every
    call builds new objects, so a caller may change what it gets."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(f"unknown experiment preset {name!r}")
    sim, settings = _PRESETS[name]
    return ExperimentConfig(experiment=name, sim=SimSpec(**sim), replicates=10,
                            optim=opt.OptimOptions(tol_fun=1e-8), **settings)


@dataclass
class RunRecord:
    instance: int
    replicate: int
    instance_seed: int
    replicate_seed: int
    misi: float
    mmse: float
    objective: float
    iterations: int
    wall_time: float
    status: str


def correlation_summary(Y_hat: np.ndarray, Y_true: np.ndarray,
                        P: SubspaceAssignment) -> np.ndarray:
    """K x K summary of |correlation| between estimated and true subspace
    sources, averaged over datasets (and over source pairs where a subspace
    holds several sources in one dataset). Only datasets holding both
    subspaces count; an entry no dataset covers is 0."""
    def unit_rows(Y):
        Yc = Y - Y.mean(axis=1, keepdims=True)
        Yc /= np.linalg.norm(Yc, axis=1, keepdims=True)
        return Yc

    K = P.n_subspaces
    total = np.zeros((K, K))
    covered = np.zeros((K, K))
    off = P.col_offsets
    for m in range(len(P.col_dims)):
        rows = slice(off[m], off[m + 1])
        abs_corr = np.abs(unit_rows(Y_hat[rows]) @ unit_rows(Y_true[rows]).T)
        Pm = P.dataset_block(m)
        d = Pm.sum(axis=1)
        pairs = np.outer(d, d)
        has = pairs > 0
        sums = Pm @ abs_corr @ Pm.T
        total[has] += sums[has] / pairs[has]
        covered += has
    return np.divide(total, covered, out=np.zeros((K, K)), where=covered > 0)


def score_estimate(W_total: BlockTransform, A: BlockTransform,
                   P: SubspaceAssignment, data: MultiDataset,
                   Y_true: Optional[np.ndarray]) -> dict:
    """{"misi": MISI of W_total against the mixing A, "mmse": MMSE of the
    estimated sources W_total X against Y_true}. "mmse" is left out without
    Y_true, and unless every subspace holds at most one source per dataset,
    the only case where it is a reliable recovery score."""
    out = {"misi": metrics.misi(W_total, A, P)}
    if Y_true is not None and np.all(P.per_dataset_dims() <= 1):
        Y_hat = W_total.transform(data)
        out["mmse"] = metrics.mmse(correlation_summary(Y_hat, Y_true, P))
    return out


def reduce_instance(cfg: ExperimentConfig, data: MultiDataset,
                    P: SubspaceAssignment):
    """Apply cfg.reduce; returns (work_data, B) with work_data_m = B_m X_m,
    or (data, None) without reduction, which needs V_m = C_m: noiseless X_m
    has rank C_m, so with more channels the objective is unbounded below."""
    if cfg.reduce == "pre":
        red = reduction.reduce_data(data, P.col_dims)
        return red.reduced, red.B_star
    if cfg.reduce == "gpca":
        if len(set(P.col_dims)) != 1:
            raise ConfigError("gpca reduction requires equal C_m across datasets")
        # the same row spaces with orthonormal rows, as flat L-BFGS steps
        # stall on gpca_init's non-orthonormal ones
        B = BlockTransform([np.linalg.qr(Bm.T)[0].T
                            for Bm in reduction.gpca_init(data, P.col_dims[0]).blocks])
        return MultiDataset([Bm @ Xm for Bm, Xm in zip(B.blocks, data.blocks)]), B
    for m, (V, C) in enumerate(zip(data.dims, P.col_dims)):
        if V != C:
            raise ConfigError(f"reduce 'none' needs V_m = C_m, but dataset {m} has "
                              f"V={V}, C={C}; use reduce 'pre'")
    return data, None


def solve_instance(cfg: ExperimentConfig, work_data: MultiDataset,
                   P: SubspaceAssignment, B: Optional[BlockTransform],
                   seed: int):
    """Run misa_gp_mdm for cfg.T rounds (0: one plain descent) from a random
    row-orthonormal W0 drawn from seed; returns (sol, W_total) with
    W_total = W B mapping the unreduced data."""
    rng = np.random.default_rng(seed)
    W0 = BlockTransform([opt.random_row_orthonormal(P.col_dims[m], Vm, rng)
                         for m, Vm in enumerate(work_data.dims)])
    sol = comb.misa_gp_mdm(work_data, P, W0, T=cfg.T, dispersion=cfg.dispersion,
                           opts=cfg.optim)
    if B is None:
        return sol, sol.W_final
    return sol, BlockTransform([Wm @ Bm for Wm, Bm in zip(sol.W_final.blocks, B.blocks)])


def _run_replicate(cfg: ExperimentConfig, work_data: MultiDataset,
                   data: MultiDataset, P: SubspaceAssignment, truth,
                   B: Optional[BlockTransform], i: int, inst_seed: int,
                   r: int, rep_seed: int) -> RunRecord:
    t0 = time.perf_counter()
    misi = mmse = objective = float("nan")
    iterations = 0
    try:
        sol, W_total = solve_instance(cfg, work_data, P, B, rep_seed)
        scores = score_estimate(W_total, truth.A, P, data, truth.Y)
        misi, mmse = scores["misi"], scores.get("mmse", mmse)
        objective, iterations, status = sol.objective_value, sol.n_iters, sol.status.value
    except (RankError, DefinitenessError, DomainError, np.linalg.LinAlgError) as e:
        # a numerical failure is recorded; a bug or bad input propagates
        status = f"error:{type(e).__name__}"
    return RunRecord(instance=i, replicate=r, instance_seed=inst_seed,
                     replicate_seed=rep_seed, misi=misi, mmse=mmse,
                     objective=objective, iterations=iterations,
                     wall_time=time.perf_counter() - t0, status=status)


def _run_instance(cfg: ExperimentConfig, i: int,
                  seq: np.random.SeedSequence) -> List[RunRecord]:
    """Build instance i from seq and run its replicates. The instance's
    data lives only in this call, so it is freed before the next one is
    built."""
    inst_seed = int(seq.generate_state(1)[0])
    data, truth, P = build_instance(cfg.sim, inst_seed)
    work_data, B = reduce_instance(cfg, data, P)
    rep_seeds = [int(s.generate_state(1)[0]) for s in seq.spawn(cfg.replicates)]
    run = partial(_run_replicate, cfg, work_data, data, P, truth, B, i, inst_seed)
    # threads = 1 stays on the calling thread: on a one-thread pool the
    # iva1 benchmark workload took +4% peak RSS and about twice the page
    # faults
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            return list(ex.map(run, range(cfg.replicates), rep_seeds))
    return list(map(run, range(cfg.replicates), rep_seeds))


def run_experiment(cfg: ExperimentConfig):
    """Run the full grid; returns (records, summary) and persists them when
    cfg.out_dir is set, which is created before the first solve."""
    if cfg.out_dir:
        make_dir(cfg.out_dir)
    inst_seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.instances)
    records = [rec for i, seq in enumerate(inst_seqs) for rec in _run_instance(cfg, i, seq)]
    summary = summarize(cfg, records)
    if cfg.out_dir:
        write_results(cfg.out_dir, records, summary)
    return records, summary


def summarize(cfg: ExperimentConfig, records: List[RunRecord]) -> dict:
    """Median over instances of the best (minimum) MISI across replicates,
    and how many records ended in each status."""
    best = []
    for i in range(cfg.instances):
        vals = [r.misi for r in records if r.instance == i and np.isfinite(r.misi)]
        best.append(float(np.min(vals)) if vals else float("nan"))
    finite = [b for b in best if np.isfinite(b)]
    med = float(np.median(finite)) if finite else float("nan")
    return {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "instances": cfg.instances,
        "replicates": cfg.replicates,
        "best_misi_per_instance": best,
        "median_best_misi": med,
        "good": bool(np.isfinite(med) and med < metrics.MISI_GOOD),
        "excellent": bool(np.isfinite(med) and med < metrics.MISI_EXCELLENT),
        "status_counts": dict(sorted(Counter(r.status for r in records).items())),
    }


# the deterministic columns of records.csv; wall_time goes to timings.csv
_RECORD_FIELDS = [f.name for f in fields(RunRecord) if f.name != "wall_time"]


def write_results(out_dir, records: List[RunRecord], summary: dict) -> None:
    """Persist records.csv and summary.json (deterministic given the run) and
    timings.csv (wall-clock, inherently non-deterministic)."""
    out = make_dir(out_dir)
    with open(out / "records.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_RECORD_FIELDS)
        w.writerows([getattr(r, k) for k in _RECORD_FIELDS] for r in records)
    with open(out / "timings.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "replicate", "wall_time"])
        for r in records:
            w.writerow([r.instance, r.replicate, repr(r.wall_time)])
    write_json(out / "summary.json", summary)
