"""Reconstruction-error machinery for data reduction.

PRE is the proportion of data power missed by the projector W^- W.
reduce_data minimizes PRE per dataset to find the reduction transform B*,
and gpca_init provides the group-PCA alternative over the concatenated
datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, RankError, ShapeError
from . import optimizer as opt
from .model import BlockTransform, MultiDataset
from .objective import RANK_RTOL


def _pinv(W: np.ndarray) -> np.ndarray:
    U, s, Vt = np.linalg.svd(W, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankError("W block is rank deficient")
    return Vt.T @ ((1.0 / s)[:, None] * U.T)


def _x_norm(X: np.ndarray) -> float:
    xn = float(np.sum(X * X)) / X.shape[1]
    if xn == 0.0:
        raise DomainError("zero-power data")
    return xn


def _block_pre(W: np.ndarray, X: np.ndarray) -> float:
    Wp = _pinv(W)
    R = Wp @ (W @ X) - X
    return float(np.sum(R * R)) / (X.shape[1] * _x_norm(X))


def pre_value(W: BlockTransform, X: MultiDataset) -> float:
    """Pseudoinverse reconstruction error, averaged across datasets.

    Per dataset: mean squared norm of W^-(WX) - X over observations, divided
    by the mean squared data norm, so the value is scale-free.
    """
    if W.n_datasets != X.n_datasets:
        raise ShapeError("block count mismatch")
    return float(np.mean([_block_pre(Wm, Xm) for Wm, Xm in zip(W.blocks, X.blocks)]))


def pre_gradient(W: BlockTransform, X: MultiDataset) -> BlockTransform:
    """Gradient of pre_value with respect to each W block."""
    if W.n_datasets != X.n_datasets:
        raise ShapeError("block count mismatch")
    M = W.n_datasets
    out = []
    for Wm, Xm in zip(W.blocks, X.blocks):
        N = Xm.shape[1]
        Wp = _pinv(Wm)
        Z = Wp @ (Wm @ Xm) - Xm
        B = Xm @ Z.T + Z @ Xm.T
        C = (2.0 / (_x_norm(Xm) * N)) * (Wp.T @ B)
        out.append((C - (C @ Wp) @ Wm) / M)
    return BlockTransform(out)


@dataclass
class ReductionResult:
    B_star: BlockTransform
    reduced: MultiDataset
    final_error: List[float]
    iterations: List[int]
    statuses: List[opt.Status]


def reduce_data(X: MultiDataset, target_dims: Sequence[int],
                options: Optional[opt.OptimOptions] = None,
                seed: int = 0, precision_b: float = 80.0) -> ReductionResult:
    """Minimize PRE per dataset from a random row-orthonormal start.

    Stopping tolerances follow TolFun = TolX = 10^floor(log10 ||grad E(B0)||)
    divided by the precision parameter b. Non-convergence is reported through
    the per-dataset status, not raised.
    """
    target_dims = [int(c) for c in target_dims]
    if len(target_dims) != X.n_datasets:
        raise ShapeError("need one target dimension per dataset")
    for C, V in zip(target_dims, X.dims):
        if C > V:
            raise DomainError(f"target dimension {C} exceeds data dimension {V}")
        if C < 1:
            raise DomainError("target dimension must be >= 1")

    rng = np.random.default_rng(seed)
    b_blocks, z_blocks, errs, iters, stats = [], [], [], [], []
    for m, (C, Xm) in enumerate(zip(target_dims, X.blocks)):
        data_m = MultiDataset([Xm])
        B0 = BlockTransform([opt.random_row_orthonormal(C, Xm.shape[0], rng)])

        def fg(B, data_m=data_m):
            return pre_value(B, data_m), pre_gradient(B, data_m)

        g0 = np.linalg.norm(fg(B0)[1].blocks[0])
        tol = 10.0 ** np.floor(np.log10(max(g0, 1e-300))) / precision_b
        o = replace(options or opt.OptimOptions(), tol_fun=tol, tol_x=tol)
        sol = opt.minimize(fg, B0, o)
        Bm = sol.W_final.blocks[0]
        b_blocks.append(Bm)
        z_blocks.append(Bm @ Xm)
        errs.append(_block_pre(Bm, Xm))
        iters.append(sol.n_iters)
        stats.append(sol.status)

    return ReductionResult(B_star=BlockTransform(b_blocks),
                           reduced=MultiDataset(z_blocks),
                           final_error=errs, iterations=iters, statuses=stats)


def gpca_init(X: MultiDataset, C: int) -> BlockTransform:
    """Top-C principal-axis projection of the datasets concatenated along the
    variable axis, rescaled to unit-variance scores, returned as per-dataset
    column slices."""
    Xc = np.vstack(X.blocks)
    if C > Xc.shape[0]:
        raise RankError("C exceeds total variable count")
    S = Xc @ Xc.T / (X.n_obs - 1)
    lam, E = np.linalg.eigh(S)
    lam, E = lam[::-1], E[:, ::-1]
    if lam[C - 1] <= 1e3 * np.finfo(float).eps * max(lam[0], 0.0) or lam[C - 1] <= 0:
        raise RankError(f"concatenated covariance has rank below {C}")
    proj = (E[:, :C] / np.sqrt(lam[:C])).T  # C x V_bar, unit-variance scores
    out, off = [], 0
    for V in X.dims:
        out.append(proj[:, off:off + V])
        off += V
    return BlockTransform(out)
