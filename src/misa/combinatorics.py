"""Combinatorial local-minimum escape and alignment machinery.

Holds the greedy source-to-subspace reassignment (gp), the single- and
multi-dataset drivers that alternate it with numerical optimization, the
cross-dataset subspace permutation search, and subspace matching via a
linear sum assignment.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DomainError, ShapeError
from .model import (
    PSI_LAPLACE,
    BlockTransform,
    DispersionChoice,
    MultiDataset,
    SubspaceAssignment,
    kotz_from_psi,
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
        P = P.P
    return np.asarray(P, dtype=int)


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
    cost[:Ke, :Ku] = np.abs(de[:, None] - du[None, :]) * C - Pe @ Pu.T
    perm = hungarian(cost)
    est_for_ud = {int(perm[i]): i for i in range(Ke) if perm[i] < Ku}
    order: List[int] = []
    for j in range(Ku):
        i = est_for_ud.get(j)
        if i is not None:
            order.extend(int(c) for c in np.flatnonzero(Pe[i]))
    used = set(order)
    order.extend(c for c in range(C) if c not in used)
    return np.asarray(order, dtype=int)


def cost_value(data: MultiDataset, P: SubspaceAssignment, W: BlockTransform,
               psi: Sequence[float] = PSI_LAPLACE) -> float:
    """Scale-invariant objective value at W, used to score assignment
    candidates."""
    ctx = obj.ObjectiveContext(data, P, DispersionChoice.SCALE_INVARIANT, psi=psi)
    return obj.evaluate(ctx, W).value


def gp(data: MultiDataset, P: SubspaceAssignment, W: BlockTransform,
       psi: Sequence[float] = PSI_LAPLACE) -> SubspaceAssignment:
    """Greedy source-group reassignment at fixed W (single dataset).

    For each source in turn, try merging the group holding it into each
    other group. The scale-invariant cost is a sum over subspaces, so merging
    S_i into S_j changes it by cost(S_j + S_i) - cost(S_j) - cost(S_i); the
    most negative change is taken when it is below -TIE_EPS. The cost never
    increases.
    """
    if data.n_datasets != 1:
        raise ShapeError("gp operates on a single dataset")
    Y = W.transform(data)
    YY = Y @ Y.T

    @functools.lru_cache(maxsize=None)
    def cost(group: Tuple[int, ...]) -> float:
        g = list(group)
        return obj.subspace_value(Y[g], YY[np.ix_(g, g)],
                                  kotz_from_psi(psi, len(g)), invariant=True)

    groups = [tuple(P.sources(k).tolist()) for k in range(P.n_subspaces)]
    for c in range(P.n_sources):
        if len(groups) == 1:
            break
        i = next(k for k, g in enumerate(groups) if c in g)
        others = [j for j in range(len(groups)) if j != i]
        # ascending, as SubspaceAssignment.sources orders a subspace's rows
        merged = {j: tuple(sorted(groups[j] + groups[i])) for j in others}
        delta = {j: cost(merged[j]) - cost(groups[j]) - cost(groups[i]) for j in others}
        j = min(others, key=delta.get)
        if delta[j] < -TIE_EPS:
            groups[j] = merged[j]
            del groups[i]
    Pnew = np.zeros((len(groups), P.n_sources), dtype=np.int8)
    for k, g in enumerate(groups):
        Pnew[k, list(g)] = 1
    return SubspaceAssignment(Pnew, P.col_dims)


def run_misa(data: MultiDataset, P: SubspaceAssignment, W0: BlockTransform,
             dispersion: DispersionChoice = DispersionChoice.SCALE_CONTROLLED,
             psi: Sequence[float] = PSI_LAPLACE,
             opts: Optional[opt.OptimOptions] = None) -> opt.Solution:
    """Numerically minimize the objective from W0, passing the relative
    gradient to the quasi-Newton solver."""
    ctx = obj.ObjectiveContext(data, P, dispersion=dispersion, psi=psi)
    buffers = obj.Buffers(ctx)

    def fg(W: BlockTransform):
        rep = obj.evaluate(ctx, W, with_gradient=True, buffers=buffers)
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


def _pick_best(sols: List[opt.Solution], vals: List[float]) -> opt.Solution:
    """The stored candidate with the lowest score, reported with that score.
    A later candidate displaces the kept one only when lower by more than
    TIE_EPS relative: final values of separate solves agree only to about
    the solver's relative tolerance, so a smaller gap is a tie."""
    ix = 0
    for i, v in enumerate(vals):
        if v < vals[ix] - TIE_EPS * (1.0 + abs(vals[ix])):
            ix = i
    return replace(sols[ix], objective_value=float(vals[ix]))


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
        vals.append(sol_t.objective_value)
        sols.append(sol_t)
        if abs(vals[t] - vals[t - 1]) < TIE_EPS:
            break
    return _pick_best(sols, vals)


def misa_gp_mdm(data: MultiDataset, P_ud: SubspaceAssignment,
                W0: BlockTransform, T: int = 2,
                psi: Sequence[float] = PSI_LAPLACE,
                opts: Optional[opt.OptimOptions] = None) -> opt.Solution:
    """Multi-dataset driver: per-dataset unidimensional refinement + greedy
    reassignment + matching, cross-dataset subspace realignment, then joint
    re-optimization; best stored candidate wins. Every candidate, the first
    included, is scored with the scale-invariant cost_value.
    """
    sol0 = run_misa(data, P_ud, W0, opts=opts, psi=psi)
    vals = [cost_value(data, P_ud, sol0.W_final, psi=psi)]
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
        vals.append(cost_value(data, P_ud, W, psi=psi))
        sols.append(sol_t)
        if t >= 2 and abs(vals[t] - vals[t - 1]) < TIE_EPS:
            break
    return _pick_best(sols, vals)
