"""Combinatorial local-minimum escape and alignment machinery.

Holds the greedy source-to-subspace reassignment (gp), the driver that
alternates it with numerical optimization for any number of datasets, the
cross-dataset subspace permutation search, and subspace matching via a
linear sum assignment.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError, ShapeError
from .model import BlockTransform, DispersionChoice, MultiDataset, SubspaceAssignment
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
    # imported here, so that `import misa` loads no scipy module
    from scipy.optimize import linear_sum_assignment

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


def _share_cache(Y: np.ndarray):
    """share(rows): the scale-invariant share of the subspace whose sources
    are Y[rows], in that order, cached by the row tuple. Y Y^T is formed
    once, and every Z is sliced from it."""
    YY = Y @ Y.T

    @functools.lru_cache(maxsize=None)
    def share(rows: Tuple[int, ...]) -> float:
        r = list(rows)
        return obj.subspace_value(Y[r], YY[np.ix_(r, r)])

    return share


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
    cost = _share_cache(W.transform(data))
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

    # groups[(m, size)] = subspaces with that many rows in dataset m, at
    # least one of them spanning another dataset
    groups = []
    for m in range(M):
        by_size = {}
        for k in range(P_ud.n_subspaces):
            d = int(d_km[k, m])
            if d > 0:
                by_size.setdefault(d, []).append(k)
        for size, ks in sorted(by_size.items()):
            if len(ks) >= 2 and any(np.count_nonzero(d_km[k]) > 1 for k in ks):
                groups.append((m, size, ks))

    if not groups:
        return W
    share = _share_cache(W.transform(data))

    # a candidate lists, per subspace and dataset, the rows of Y serving it
    identity = [[tuple((P_ud.dataset_sources(k, m) + off[m]).tolist()) for m in range(M)]
                for k in range(P_ud.n_subspaces)]

    def cost_of(cand) -> float:
        return sum(share(sum(parts, ())) for parts in cand)

    def apply_group_perm(cand, m, ks, pi):
        # subspace ks[i] takes the rows previously serving ks[pi[i]]
        new = [list(parts) for parts in cand]
        for i, k in enumerate(ks):
            new[k][m] = cand[ks[pi[i]]][m]
        return new

    best = identity
    best_cost = cost_of(best)
    if math.prod(math.factorial(len(ks)) for _, _, ks in groups) <= EXHAUSTIVE_PERM_LIMIT:
        perm_sets = [list(itertools.permutations(range(len(ks)))) for _, _, ks in groups]
        for combo in itertools.product(*perm_sets):
            cand = identity
            for (m, _, ks), pi in zip(groups, combo):
                cand = apply_group_perm(cand, m, ks, pi)
            c = cost_of(cand)
            if c < best_cost - TIE_EPS:
                best_cost = c
                best = cand
    else:
        for _ in range(10):  # passes of pairwise swaps, to a fixed point
            improved = False
            for m, _, ks in groups:
                for i, j in itertools.combinations(range(len(ks)), 2):
                    pi = list(range(len(ks)))
                    pi[i], pi[j] = pi[j], pi[i]
                    cand = apply_group_perm(best, m, ks, pi)
                    c = cost_of(cand)
                    if c < best_cost - TIE_EPS:
                        best_cost = c
                        best = cand
                        improved = True
            if not improved:
                break

    order = np.empty(P_ud.n_sources, dtype=int)
    for k, parts in enumerate(best):
        order[P_ud.sources(k)] = sum(parts, ())
    return BlockTransform([W.blocks[m][order[off[m]:off[m + 1]] - off[m]] for m in range(M)])


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
    a round t >= 2 whose value ties round t - 1's.
    """
    best = prev = run_misa(data, P_ud, W0, opts=opts)
    for t in range(1, T + 1):
        blocks = []
        for m in range(data.n_datasets):
            data_m = MultiDataset([data.blocks[m]])
            C_m = P_ud.col_dims[m]
            P_sdu = SubspaceAssignment.singletons([C_m])
            sol_m = run_misa(data_m, P_sdu, BlockTransform([prev.W_final.blocks[m]]),
                             opts=opts)
            P_est = gp(data_m, P_sdu, sol_m.W_final)
            order = match(P_est, P_ud.dataset_block(m))
            blocks.append(sol_m.W_final.blocks[0][order])
        W = subspace_perm(data, P_ud, BlockTransform(blocks))
        sol = run_misa(data, P_ud, W, opts=opts)
        v = sol.objective_value
        if v < best.objective_value and not _tied(v, best.objective_value):
            best = sol
        if t >= 2 and _tied(v, prev.objective_value):
            break
        prev = sol
    return best
