"""Experiment orchestration: configuration, replicated seeded runs of the
benchmark protocols at desk scale, scoring, and results persistence."""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import List, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import combinatorics as comb
from . import metrics
from . import optimizer as opt
from . import reduction
from .errors import ConfigError, MisaError
from .model import BlockTransform, DispersionChoice, MultiDataset, SubspaceAssignment
from .simgen import SimSpec, build_instance

@dataclass
class ExperimentConfig:
    experiment: str = "custom"
    sim: Optional[SimSpec] = None
    reduce: str = "none"
    solver: str = "misa"
    dispersion: DispersionChoice = DispersionChoice.SCALE_CONTROLLED
    T: int = 2
    optim: opt.OptimOptions = field(default_factory=opt.OptimOptions)
    instances: int = 1
    replicates: int = 1
    seed: int = 0
    out_dir: Optional[str] = None
    threads: int = 1

    def __post_init__(self):
        if self.reduce not in ("none", "pre", "gpca"):
            raise ConfigError(f"unknown reduce mode {self.reduce!r}")
        if self.solver not in ("misa", "misa-gp"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.solver == "misa-gp" and self.dispersion != DispersionChoice.SCALE_CONTROLLED:
            raise ConfigError("dispersion applies to solver 'misa' only; "
                              "misa-gp always uses the controlled dispersion")
        if self.instances < 1 or self.replicates < 1:
            raise ConfigError("instances and replicates must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.T < 0 or self.seed < 0:
            raise ConfigError("T and seed must be >= 0")
        if self.sim is None:
            raise ConfigError("config needs a sim section or a preset experiment id")


# keys copied as given; the others are parsed into their own types
_SCALAR_KEYS = ({f.name for f in fields(ExperimentConfig)}
                - {"experiment", "sim", "optim", "dispersion"})


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


def _section(name: str, values, cls) -> dict:
    """values checked against the fields of the dataclass cls: ConfigError
    names every key that is unknown, missing (a field without default) or
    of the wrong JSON type."""
    if not isinstance(values, dict):
        raise ConfigError(f"{name} must be an object")
    hints = get_type_hints(cls)
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for what, keys in (("unknown", set(values) - set(hints)),
                       ("missing", required - set(values)),
                       ("wrong-typed", {k for k, v in values.items()
                                        if k in hints and not _fits(v, hints[k])})):
        if keys:
            raise ConfigError(f"{what} {name} key(s): {sorted(keys)}")
    return values


def _parse_snr(v: str) -> float:
    if v.lower() in ("inf", "infinity"):
        return np.inf
    raise ConfigError(f"bad snr_db value {v!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON tree; unknown, missing and
    wrong-typed keys are rejected by name at every level. A preset's keys
    override that preset."""
    _section("config", d, ExperimentConfig)
    kw = {}
    if "sim" in d:
        s = d["sim"]
        if isinstance(s, dict) and isinstance(s.get("snr_db"), str):
            s = {**s, "snr_db": _parse_snr(s["snr_db"])}
        kw["sim"] = SimSpec(**_section("sim", s, SimSpec))
    if "optim" in d:
        kw["optim"] = opt.OptimOptions(**_section("optim", d["optim"], opt.OptimOptions))
    if "dispersion" in d:
        try:
            kw["dispersion"] = DispersionChoice(d["dispersion"])
        except ValueError:
            raise ConfigError(f"unknown dispersion {d['dispersion']!r}") from None
    kw.update((key, d[key]) for key in _SCALAR_KEYS & set(d))
    exp_id = d.get("experiment", "custom")
    return ExperimentConfig(**kw) if exp_id == "custom" else replace(preset(exp_id), **kw)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


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
             {"solver": "misa-gp"}),
    "isa2": ({"subspace_dims": [[1], [2], [3], [4], [5]], "dims_v": [15], "n_obs": 8000},
             {"solver": "misa-gp"}),
    "isa3": ({"subspace_dims": [[2, 1], [2, 1], [1, 3]], "dims_v": [5, 5], "n_obs": 8000},
             {"solver": "misa-gp"}),
}


def preset(name: str) -> ExperimentConfig:
    """Desk-scale presets mirroring the benchmark protocols: 10 replicates
    each, at a tighter function tolerance than the library default. Every
    call builds new objects, so a caller may change what it gets."""
    if name not in _PRESETS:
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
    or (data, None) without reduction."""
    if cfg.reduce == "pre":
        red = reduction.reduce_data(data, P.col_dims)
        return red.reduced, red.B_star
    if cfg.reduce == "gpca":
        if len(set(P.col_dims)) != 1:
            raise ConfigError("gpca reduction requires equal C_m across datasets")
        B = reduction.gpca_init(data, P.col_dims[0])
        return MultiDataset([Bm @ Xm for Bm, Xm in zip(B.blocks, data.blocks)]), B
    return data, None


def solve_instance(cfg: ExperimentConfig, work_data: MultiDataset,
                   P: SubspaceAssignment, B: Optional[BlockTransform],
                   seed: int):
    """Run cfg.solver from a random row-orthonormal W0 drawn from seed;
    returns (sol, W_total) with W_total = W B mapping the unreduced data."""
    rng = np.random.default_rng(seed)
    W0 = BlockTransform([opt.random_row_orthonormal(P.col_dims[m], Vm, rng)
                         for m, Vm in enumerate(work_data.dims)])
    if cfg.solver == "misa":
        sol = comb.run_misa(work_data, P, W0, dispersion=cfg.dispersion,
                            opts=cfg.optim)
    else:
        sol = comb.misa_gp_mdm(work_data, P, W0, T=cfg.T, opts=cfg.optim)
    if B is None:
        return sol, sol.W_final
    return sol, BlockTransform([Wm @ Bm for Wm, Bm in zip(sol.W_final.blocks, B.blocks)])


def _run_replicate(cfg: ExperimentConfig, work_data: MultiDataset,
                   data: MultiDataset, P: SubspaceAssignment, truth,
                   B: Optional[BlockTransform], i: int, r: int,
                   inst_seed: int, rep_seed: int) -> RunRecord:
    t0 = time.perf_counter()
    misi = mmse = objective = float("nan")
    iterations = 0
    try:
        sol, W_total = solve_instance(cfg, work_data, P, B, rep_seed)
        scores = score_estimate(W_total, truth.A, P, data, truth.Y)
        misi, mmse = scores["misi"], scores.get("mmse", mmse)
        objective, iterations, status = sol.objective_value, sol.n_iters, sol.status.value
    except (MisaError, np.linalg.LinAlgError) as e:
        # a numerical failure is recorded, not fatal; a bug propagates
        status = f"error:{type(e).__name__}"
    return RunRecord(instance=i, replicate=r, instance_seed=inst_seed,
                     replicate_seed=rep_seed, misi=misi, mmse=mmse,
                     objective=objective, iterations=iterations,
                     wall_time=time.perf_counter() - t0, status=status)


def run_experiment(cfg: ExperimentConfig):
    """Run the full grid; returns (records, summary) and persists them when
    cfg.out_dir is set."""
    root = np.random.SeedSequence(cfg.seed)
    inst_seqs = root.spawn(cfg.instances)
    records: List[RunRecord] = []
    for i in range(cfg.instances):
        inst_seed = int(inst_seqs[i].generate_state(1)[0])
        sim = replace(cfg.sim, seed=inst_seed)
        data, truth, P = build_instance(sim)

        work_data, B = reduce_instance(cfg, data, P)

        rep_seqs = inst_seqs[i].spawn(cfg.replicates)
        rep_seeds = [int(s.generate_state(1)[0]) for s in rep_seqs]
        # threads = 1 stays on the calling thread: on a one-thread pool the
        # iva1 benchmark workload took +4% peak RSS and about twice the page
        # faults
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
                futs = [ex.submit(_run_replicate, cfg, work_data, data, P,
                                  truth, B, i, r, inst_seed, rep_seeds[r])
                        for r in range(cfg.replicates)]
                records.extend(f.result() for f in futs)
        else:
            for r in range(cfg.replicates):
                records.append(_run_replicate(cfg, work_data, data, P, truth,
                                              B, i, r, inst_seed, rep_seeds[r]))

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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "records.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_RECORD_FIELDS)
        w.writerows([getattr(r, k) for k in _RECORD_FIELDS] for r in records)
    with open(out / "timings.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "replicate", "wall_time"])
        for r in records:
            w.writerow([r.instance, r.replicate, repr(r.wall_time)])
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
