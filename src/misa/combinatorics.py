"""Combinatorial local-minimum escape and alignment machinery.

Holds the greedy source-to-subspace reassignment (gp), the driver that
alternates it with numerical optimization for any number of datasets, the
cross-dataset subspace permutation search, and subspace matching via a
linear sum assignment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError
from .model import BlockTransform, DispersionChoice, MultiDataset, SubspaceAssignment
from . import objective as obj
from . import optimizer as opt

TIE_EPS = math.sqrt(np.finfo(float).eps)  # ~1.49e-8, ignore tiny improvements
EXHAUSTIVE_PERM_LIMIT = 10_000
# misa_gp_mdm's start solves (the first solve and the singleton refinements)
# stop at this tol_fun, or at the caller's when that is looser
START_TOL_FUN = 1e-5


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment; perm[i] is the column given to row i.

    Crouse's shortest augmenting path (IEEE TAES 2016), ported step for
    step from scipy's linear_sum_assignment for square matrices, so ties
    break as there: a constant cost matrix yields the identity. Kept here
    so that a solve process need not import scipy.optimize (about 49 MB).
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise DomainError("cost entries must be finite")
    n = cost.shape[0]
    c = cost.tolist()
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # shortest path from row cur to an unassigned column; remaining is
        # filled in reverse and shrunk by swap-removal, as in scipy
        remaining = list(range(n - 1, -1, -1))
        dist = [math.inf] * n
        SR, SC = [False] * n, [False] * n
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            SR[i] = True
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + c[i][j] - u[i] - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                # of equal distances, one that reaches a free column wins
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest, index = dist[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            SC[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for row in range(n):
            if SR[row] and row != cur:
                u[row] += min_val - dist[col4row[row]]
        for j in range(n):
            if SC[j]:
                v[j] -= min_val - dist[j]
        j = sink
        while True:  # augment along the path back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.intp)


def _as_p_matrix(P) -> np.ndarray:
    if isinstance(P, SubspaceAssignment):
        P = P.P
    return np.asarray(P, dtype=int)


def match(P_est, P_ud) -> np.ndarray:
    """Row ordering aligning estimated subspaces to the prescribed structure.

    Solves an assignment between subspaces with cost = dimension-mismatch
    penalty |d_est - d_ud| * C minus source-set overlap. Each source ranks
    by the prescribed subspace its estimated subspace is matched to, or
    ranks K_ud when that subspace is unmatched; the returned source index
    ordering (a permutation of range(C)) is the stable sort of these ranks,
    so ties keep ascending source index: matched sources in
    prescribed-subspace order, then the unmatched ones.

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
    rank = np.full(C, Ku)
    est, src = np.nonzero(Pe)
    rank[src] = np.minimum(perm[est], Ku)
    return np.argsort(rank, kind="stable")


def gp(data: MultiDataset, P: SubspaceAssignment, W: BlockTransform) -> SubspaceAssignment:
    """Greedy source-group reassignment at fixed W (single dataset).

    For each source in turn, try merging the group holding it into each
    other group. The scale-invariant cost is a sum over subspaces, so merging
    S_i into S_j changes it by cost(S_j + S_i) - cost(S_j) - cost(S_i); the
    most negative change is taken when it is below -TIE_EPS. The cost never
    increases.
    """
    if data.n_datasets != 1:
        raise ShapeError("gp operates on a single dataset")
    cost = obj.shares(W.transform(data))
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
             opts: Optional[opt.OptimOptions] = None) -> opt.Solution:
    """Numerically minimize the objective from W0, passing the relative
    gradient to the quasi-Newton solver."""
    ctx = obj.ObjectiveContext(data, P, dispersion=dispersion)

    def fg(W: BlockTransform):
        rep = obj.evaluate(ctx, W, with_gradient=True)
        return rep.value, obj.relative_gradient(rep.gradient, W)

    return opt.minimize(fg, W0, opts)


def subspace_perm(data: MultiDataset, P_ud: SubspaceAssignment,
                  W: BlockTransform) -> BlockTransform:
    """Realign same-size subspaces across datasets by permuting W rows.

    Within each dataset, subspaces occupying the same number of rows there
    may be interchanged without breaking the prescribed structure; the search
    picks the combination minimizing the scale-invariant cost. A group whose
    subspaces all live in that dataset alone is not searched, since swapping
    them only relabels them; at M = 1, W is returned as given. Exhaustive
    enumeration is used when the total permutation count is at most
    EXHAUSTIVE_PERM_LIMIT, else greedy pairwise swaps to a fixed point.
    """
    M = data.n_datasets
    d_km = P_ud.per_dataset_dims()
    off = P_ud.col_offsets

    # for each dataset m and size, the slots (source indices) of the subspaces
    # with that many rows in m, one row each; at least one spans another dataset
    groups = []
    for m in range(M):
        by_size = {}
        for k in range(P_ud.n_subspaces):
            if d_km[k, m] > 0:
                by_size.setdefault(int(d_km[k, m]), []).append(k)
        groups += [np.array([P_ud.dataset_sources(k, m) + off[m] for k in ks])
                   for _, ks in sorted(by_size.items())
                   if len(ks) >= 2 and any(np.count_nonzero(d_km[k]) > 1 for k in ks)]

    if not groups:
        return W
    share = obj.shares(W.transform(data))
    sources = [P_ud.sources(k) for k in range(P_ud.n_subspaces)]

    # a candidate is one row order of W: order[c] is the row serving source c
    def cost_of(order) -> float:
        return sum(share(tuple(order[s].tolist())) for s in sources)

    # Local search is kept only for what exhaustion cannot afford: on the
    # shape [[1,1,0],[1,0,1],[0,1,1],[1,1,1]], greedy swaps ended above the
    # exhaustive optimum from 24 of 40 shuffled true unmixings and 24 of 40
    # random W, and sweeps of exact per-group assignments from 26 and 25.
    identity = np.arange(P_ud.n_sources)
    best, best_cost = identity, cost_of(identity)
    if math.prod(math.factorial(len(g)) for g in groups) <= EXHAUSTIVE_PERM_LIMIT:
        for combo in itertools.product(*[itertools.permutations(range(len(g)))
                                         for g in groups]):
            cand = identity.copy()
            for slots, pi in zip(groups, combo):
                cand[slots] = slots[list(pi)]  # subspace i takes pi[i]'s rows
            c = cost_of(cand)
            if c < best_cost - TIE_EPS:
                best, best_cost = cand, c
    else:
        for _ in range(10):  # passes of pairwise swaps, to a fixed point
            improved = False
            for slots in groups:
                for i, j in itertools.combinations(range(len(slots)), 2):
                    cand = best.copy()
                    cand[slots[[i, j]]] = best[slots[[j, i]]]
                    c = cost_of(cand)
                    if c < best_cost - TIE_EPS:
                        best, best_cost, improved = cand, c, True
            if not improved:
                break

    return BlockTransform([W.blocks[m][best[off[m]:off[m + 1]] - off[m]] for m in range(M)])


def _tied(v: float, ref: float) -> bool:
    """Whether v ties ref: final values of separate solves agree only to
    about the solver's relative tolerance, so a gap within TIE_EPS relative
    to ref is a tie."""
    return abs(v - ref) <= TIE_EPS * (1.0 + abs(ref))


def misa_gp_mdm(data: MultiDataset, P_ud: SubspaceAssignment,
                W0: BlockTransform, T: int = 2,
                opts: Optional[opt.OptimOptions] = None) -> opt.Solution:
    """MISA-GP driver for any number of datasets M, M = 1 included:
    per-dataset unidimensional refinement + greedy reassignment + matching,
    cross-dataset subspace realignment, then joint re-optimization; best
    stored candidate wins. Every candidate (the first solve and each round's
    joint solve) minimizes the same objective over P_ud, so candidates are
    compared by the objective_value of their solves: a later one displaces
    the kept one only when lower and not tied with it. The loop stops after
    a round t >= 2 whose value ties round t - 1's. The returned solve
    reports n_iters and n_evals summed over every solve the driver ran.

    Only the joint solves run at opts.tol_fun. The first solve (a candidate,
    though rarely the one kept) and the singleton refinements mostly start
    later solves, so they stop at max(opts.tol_fun, START_TOL_FUN). The
    result is therefore not guaranteed to be at or below the value of a
    plain run_misa from W0 at a tighter tol_fun.
    """
    opts = opts or opt.OptimOptions()
    start_opts = replace(opts, tol_fun=max(opts.tol_fun, START_TOL_FUN))
    solves = []

    def solve(data_, P_, W_, opts_):
        solves.append(run_misa(data_, P_, W_, opts=opts_))
        return solves[-1]

    best = prev = solve(data, P_ud, W0, start_opts)
    for t in range(1, T + 1):
        blocks = []
        for m in range(data.n_datasets):
            data_m = MultiDataset([data.blocks[m]])
            C_m = P_ud.col_dims[m]
            P_sdu = SubspaceAssignment.singletons([C_m])
            sol_m = solve(data_m, P_sdu, BlockTransform([prev.W_final.blocks[m]]),
                          start_opts)
            P_est = gp(data_m, P_sdu, sol_m.W_final)
            order = match(P_est, P_ud.dataset_block(m))
            blocks.append(sol_m.W_final.blocks[0][order])
        W = subspace_perm(data, P_ud, BlockTransform(blocks))
        sol = solve(data, P_ud, W, opts)
        v = sol.objective_value
        if v < best.objective_value and not _tied(v, best.objective_value):
            best = sol
        if t >= 2 and _tied(v, prev.objective_value):
            break
        prev = sol
    return replace(best, n_iters=sum(s.n_iters for s in solves),
                   n_evals=sum(s.n_evals for s in solves))
