"""Combinatorial local-minimum escape and alignment machinery.

Holds the greedy source-to-subspace reassignment (gp), the single- and
multi-dataset drivers that alternate it with numerical optimization, the
cross-dataset subspace permutation search, and subspace matching via a
linear sum assignment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DomainError, ShapeError
from .model import (
    PSI_LAPLACE,
    BlockTransform,
    DispersionChoice,
    MultiDataset,
    SubspaceAssignment,
)
from . import objective as obj
from . import optimizer as opt

TIE_EPS = math.sqrt(np.finfo(float).eps)  # ~1.49e-8, ignore tiny improvements
EXHAUSTIVE_PERM_LIMIT = 10_000


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment; perm[i] is the column given to row i.

    scipy's solver; a constant cost matrix yields the identity.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise DomainError("cost entries must be finite")
    return linear_sum_assignment(cost)[1]


def _as_p_matrix(P) -> np.ndarray:
    if isinstance(P, SubspaceAssignment):
        return np.asarray(P.P)
    return np.asarray(P)


def match(P_est, P_ud) -> np.ndarray:
    """Row ordering aligning estimated subspaces to the prescribed structure.

    Solves an assignment between subspaces with cost = dimension-mismatch
    penalty |d_est - d_ud| * C minus source-set overlap. Returns the source
    index ordering (a permutation of range(C)): matched estimated sources in
    prescribed-subspace order, ascending source index within each subspace,
    then any unmatched sources.

    Accepts SubspaceAssignment or raw 0/1 matrices; the prescribed side may
    contain empty rows (a subspace absent from this dataset).
    """
    Pe = _as_p_matrix(P_est)
    Pu = _as_p_matrix(P_ud)
    if Pe.shape[1] != Pu.shape[1]:
        raise ShapeError("assignments cover different source counts")
    C = Pe.shape[1]
    Ke, Ku = Pe.shape[0], Pu.shape[0]
    n = max(Ke, Ku)
    cost = np.zeros((n, n))
    de = Pe.sum(axis=1)
    du = Pu.sum(axis=1)
    for i in range(Ke):
        for j in range(Ku):
            overlap = int(np.sum(Pe[i] * Pu[j]))
            cost[i, j] = abs(int(de[i]) - int(du[j])) * C - overlap
    perm = hungarian(cost)
    est_for_ud = {int(perm[i]): i for i in range(Ke) if perm[i] < Ku}
    order: List[int] = []
    for j in range(Ku):
        i = est_for_ud.get(j)
        if i is not None:
            order.extend(int(c) for c in np.flatnonzero(Pe[i]))
    leftover = [c for c in range(C) if c not in set(order)]
    order.extend(leftover)
    return np.asarray(order, dtype=int)


def cost_value(data: MultiDataset, P: SubspaceAssignment, W: BlockTransform,
               psi: Sequence[float] = PSI_LAPLACE) -> float:
    """Scale-invariant objective value at fixed W, used to score assignment
    candidates."""
    Y = W.transform(data)
    jd = sum(obj.j_d_term(Wm) for Wm in W.blocks)
    return obj.value_from_sources(Y, P, DispersionChoice.SCALE_INVARIANT,
                                  psi=psi, jd_sum=jd)


@dataclass
class GpReport:
    chosen: List[int] = field(default_factory=list)
    candidate_costs: List[np.ndarray] = field(default_factory=list)
    tie_events: int = 0


def _remove_empty_rows(P: np.ndarray) -> np.ndarray:
    return P[P.sum(axis=1) > 0]


def gp(data: MultiDataset, P: SubspaceAssignment, W: BlockTransform,
       psi: Sequence[float] = PSI_LAPLACE, return_report: bool = False):
    """Greedy source-group reassignment at fixed W (single dataset).

    For each source in turn, detach the sources sharing its subspace and try
    assigning them to every existing subspace plus one fresh one, scoring
    with the scale-invariant cost; keep the argmin, reverting to the
    incumbent when the improvement is below the tie threshold. The cost
    never increases.
    """
    if data.n_datasets != 1:
        raise ShapeError("gp operates on a single dataset")
    C = P.n_sources
    col_dims = P.col_dims
    Y = W.transform(data)
    jd = 0.0  # constant across candidates at fixed W

    def score(Pmat: np.ndarray) -> float:
        sa = SubspaceAssignment(_remove_empty_rows(Pmat), col_dims)
        return obj.value_from_sources(Y, sa, DispersionChoice.SCALE_INVARIANT,
                                      psi=psi, jd_sum=jd)

    Pcur = np.asarray(P.P).copy()
    report = GpReport()
    for c in range(C):
        K = Pcur.shape[0]
        kurrent = int(np.flatnonzero(Pcur[:, c])[0])
        group = np.flatnonzero(Pcur[kurrent])
        base = Pcur.copy()
        base[:, group] = 0
        vals = np.empty(K + 1)
        for k in range(K + 1):
            cand = np.vstack([base, np.zeros((1, C), dtype=base.dtype)]) if k == K else base.copy()
            cand[k, group] = 1
            vals[k] = score(cand)
        k_best = int(np.argmin(vals))
        if k_best != kurrent and abs(vals[k_best] - vals[kurrent]) < TIE_EPS:
            k_best = kurrent
            report.tie_events += 1
        if k_best == K:
            Pcur = np.vstack([base, np.zeros((1, C), dtype=base.dtype)])
            Pcur[K, group] = 1
        else:
            Pcur = base
            Pcur[k_best, group] = 1
        Pcur = _remove_empty_rows(Pcur)
        report.chosen.append(k_best)
        report.candidate_costs.append(vals)
    result = SubspaceAssignment(Pcur, col_dims)
    if return_report:
        return result, report
    return result


def run_misa(data: MultiDataset, P: SubspaceAssignment, W0: BlockTransform,
             dispersion: DispersionChoice = DispersionChoice.SCALE_CONTROLLED,
             psi: Sequence[float] = PSI_LAPLACE,
             opts: Optional[opt.OptimOptions] = None) -> opt.Solution:
    """Numerically minimize the objective from W0, passing the relative
    gradient to the quasi-Newton solver."""
    ctx = obj.ObjectiveContext(data, P, dispersion=dispersion, psi=psi)

    def fg(W: BlockTransform):
        rep = obj.evaluate(ctx, W, with_gradient=True)
        return rep.value, obj.relative_gradient(rep.gradient, W)

    return opt.minimize(fg, W0, opts)


def subspace_perm(data: MultiDataset, P_ud: SubspaceAssignment,
                  W: BlockTransform, psi: Sequence[float] = PSI_LAPLACE) -> BlockTransform:
    """Realign same-size subspaces across datasets by permuting W rows.

    Within each dataset, subspaces occupying the same number of rows there
    may be interchanged without breaking the prescribed structure; the search
    picks the combination minimizing the scale-invariant cost. Exhaustive
    enumeration is used when the total permutation count is at most
    EXHAUSTIVE_PERM_LIMIT, else greedy pairwise swaps to a fixed point.
    """
    M = data.n_datasets
    d_km = P_ud.per_dataset_dims()
    off = P_ud.col_offsets
    Y0 = W.transform(data)

    # groups[(m, size)] = subspaces with that many rows in dataset m
    groups = []
    for m in range(M):
        by_size = {}
        for k in range(P_ud.n_subspaces):
            d = int(d_km[k, m])
            if d > 0:
                by_size.setdefault(d, []).append(k)
        for size, ks in sorted(by_size.items()):
            if len(ks) >= 2:
                groups.append((m, size, ks))

    if not groups:
        return W

    def cost_of(row_orders: List[np.ndarray]) -> float:
        Y = np.vstack([Y0[off[m]:off[m + 1]][row_orders[m]] for m in range(M)])
        return obj.value_from_sources(Y, P_ud, DispersionChoice.SCALE_INVARIANT,
                                      psi=psi)

    identity_orders = [np.arange(P_ud.col_dims[m]) for m in range(M)]

    def apply_group_perm(orders, m, ks, pi):
        # subspace ks[i] takes the rows previously serving ks[pi[i]]
        new = orders[m].copy()
        for i, k in enumerate(ks):
            src = ks[pi[i]]
            new[P_ud.dataset_sources(k, m)] = orders[m][P_ud.dataset_sources(src, m)]
        out = list(orders)
        out[m] = new
        return out

    total = 1
    for _, _, ks in groups:
        total *= math.factorial(len(ks))
    best_orders = identity_orders
    best_cost = cost_of(best_orders)
    if total <= EXHAUSTIVE_PERM_LIMIT:
        perm_sets = [list(itertools.permutations(range(len(ks)))) for _, _, ks in groups]
        for combo in itertools.product(*perm_sets):
            orders = identity_orders
            for (m, _, ks), pi in zip(groups, combo):
                orders = apply_group_perm(orders, m, ks, pi)
            c = cost_of(orders)
            if c < best_cost - TIE_EPS:
                best_cost = c
                best_orders = orders
    else:
        improved = True
        passes = 0
        while improved and passes < 10:
            improved = False
            passes += 1
            for m, _, ks in groups:
                for i in range(len(ks)):
                    for j in range(i + 1, len(ks)):
                        pi = list(range(len(ks)))
                        pi[i], pi[j] = pi[j], pi[i]
                        orders = apply_group_perm(best_orders, m, ks, pi)
                        c = cost_of(orders)
                        if c < best_cost - TIE_EPS:
                            best_cost = c
                            best_orders = orders
                            improved = True

    return BlockTransform([W.blocks[m][best_orders[m]] for m in range(M)])


def _pick_best(sols: List[opt.Solution], Ws: List[BlockTransform],
               vals: List[float]) -> opt.Solution:
    ix = int(np.argmin(vals))
    chosen = sols[min(ix, len(sols) - 1)]
    return opt.Solution(W_final=Ws[ix], objective_value=float(vals[ix]),
                        status=chosen.status, trace=chosen.trace,
                        n_iters=chosen.n_iters, n_evals=chosen.n_evals)


def misa_gp_sdm(data: MultiDataset, P_ud: SubspaceAssignment,
                W0: BlockTransform, T: int = 2,
                psi: Sequence[float] = PSI_LAPLACE,
                opts: Optional[opt.OptimOptions] = None) -> opt.Solution:
    """Single-dataset driver: alternate numerical optimization with greedy
    reassignment under a unidimensional working model, keeping the best of
    the stored candidates."""
    if data.n_datasets != 1:
        raise ShapeError("single-dataset driver")
    sol0 = run_misa(data, P_ud, W0, opts=opts, psi=psi)
    Ws = [sol0.W_final]
    vals = [sol0.objective_value]
    sols = [sol0]
    W = sol0.W_final
    P_sdu = SubspaceAssignment.singletons(P_ud.col_dims)
    for t in range(1, T + 1):
        sol_u = run_misa(data, P_sdu, W, opts=opts, psi=psi)
        P_est = gp(data, P_sdu, sol_u.W_final, psi=psi)
        order = match(P_est, P_ud)
        W = BlockTransform([sol_u.W_final.blocks[0][order]])
        sol_t = run_misa(data, P_ud, W, opts=opts, psi=psi)
        W = sol_t.W_final
        Ws.append(W)
        vals.append(sol_t.objective_value)
        sols.append(sol_t)
        if abs(vals[t] - vals[t - 1]) < TIE_EPS:
            break
    return _pick_best(sols, Ws, vals)


def misa_gp_mdm(data: MultiDataset, P_ud: SubspaceAssignment,
                W0: BlockTransform, T: int = 2,
                psi: Sequence[float] = PSI_LAPLACE,
                opts: Optional[opt.OptimOptions] = None) -> opt.Solution:
    """Multi-dataset driver: per-dataset unidimensional refinement + greedy
    reassignment + matching, cross-dataset subspace realignment, then joint
    re-optimization; best stored candidate wins.

    Note: candidates after the first are scored with the scale-invariant
    cost while the first carries the scale-controlled optimum, mirroring the
    mixed convention of the source procedure.
    """
    sol0 = run_misa(data, P_ud, W0, opts=opts, psi=psi)
    Ws = [sol0.W_final]
    vals = [sol0.objective_value]
    sols = [sol0]
    W = sol0.W_final
    off = P_ud.col_offsets
    for t in range(1, T + 1):
        blocks = []
        for m in range(data.n_datasets):
            data_m = MultiDataset([data.blocks[m]])
            C_m = P_ud.col_dims[m]
            P_sdu = SubspaceAssignment.singletons([C_m])
            sol_m = run_misa(data_m, P_sdu, BlockTransform([W.blocks[m]]),
                             opts=opts, psi=psi)
            P_est = gp(data_m, P_sdu, sol_m.W_final, psi=psi)
            P_ud_m = np.asarray(P_ud.P[:, off[m]:off[m + 1]])
            order = match(P_est, P_ud_m)
            blocks.append(sol_m.W_final.blocks[0][order])
        W = subspace_perm(data, P_ud, BlockTransform(blocks), psi=psi)
        sol_t = run_misa(data, P_ud, W, opts=opts, psi=psi)
        W = sol_t.W_final
        Ws.append(W)
        vals.append(cost_value(data, P_ud, W, psi=psi))
        sols.append(sol_t)
        if t >= 2 and abs(vals[t] - vals[t - 1]) < TIE_EPS:
            break
    return _pick_best(sols, Ws, vals)
