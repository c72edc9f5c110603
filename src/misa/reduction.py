"""Reconstruction-error machinery for data reduction.

PRE is the proportion of data power missed by the projector W^- W.
reduce_data finds the PRE-minimizing reduction transform B* per dataset in
closed form, and gpca_init provides the group-PCA alternative over the
concatenated datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import DomainError, RankError, ShapeError
from .model import RANK_RTOL, BlockTransform, MultiDataset
from .objective import svd_terms


def _x_norm(X: np.ndarray) -> float:
    xn = float(np.sum(X * X)) / X.shape[1]
    if xn == 0.0:
        raise DomainError("zero-power data")
    return xn


def _block_pre(W: np.ndarray, X: np.ndarray) -> float:
    Wp = svd_terms(W)[1].T  # W^-, or RankError
    R = Wp @ (W @ X) - X
    return float(np.sum(R * R)) / (X.shape[1] * _x_norm(X))


def pre_value(W: BlockTransform, X: MultiDataset) -> float:
    """Pseudoinverse reconstruction error, averaged across datasets.

    Per dataset: mean squared norm of W^-(WX) - X over observations, divided
    by the mean squared data norm, so the value is scale-free.
    """
    return float(np.mean([_block_pre(*b) for b in zip(W.blocks, X.blocks, strict=True)]))


def pre_gradient(W: BlockTransform, X: MultiDataset) -> BlockTransform:
    """Gradient of pre_value with respect to each W block."""
    M = W.n_datasets
    out = []
    for Wm, Xm in zip(W.blocks, X.blocks, strict=True):
        N = Xm.shape[1]
        Wp = svd_terms(Wm)[1].T
        Z = Wp @ (Wm @ Xm) - Xm
        B = Xm @ Z.T + Z @ Xm.T
        C = (2.0 / (_x_norm(Xm) * N)) * (Wp.T @ B)
        out.append((C - (C @ Wp) @ Wm) / M)
    return BlockTransform(out)


@dataclass
class ReductionResult:
    B_star: BlockTransform
    reduced: MultiDataset
    # always 0 per dataset (the reduction is closed form); kept because the
    # benchmark tracer in perfbench/tracer.py reads it
    iterations: List[int]


def reduce_data(X: MultiDataset, target_dims: Sequence[int]) -> ReductionResult:
    """Minimize PRE per dataset in closed form.

    B*_m holds the top-C_m eigenvectors of X_m X_m^T as orthonormal rows, in
    descending eigenvalue order: any W whose row space is that eigenspace
    minimizes PRE (Eckart & Young 1936), and the PRE of B*_m on X_m is the
    share of data power in the trailing V_m - C_m eigenvalues. Zero-power
    data raises a DomainError.
    """
    target_dims = [int(c) for c in target_dims]
    if len(target_dims) != X.n_datasets:
        raise ShapeError("need one target dimension per dataset")
    for C, V in zip(target_dims, X.dims):
        if C > V:
            raise DomainError(f"target dimension {C} exceeds data dimension {V}")
        if C < 1:
            raise DomainError("target dimension must be >= 1")

    for Xm in X.blocks:
        _x_norm(Xm)  # rejects zero-power data
    B = BlockTransform([np.linalg.eigh(Xm @ Xm.T)[1][:, ::-1][:, :C].T
                        for C, Xm in zip(target_dims, X.blocks)])
    Z = MultiDataset([Bm @ Xm for Bm, Xm in zip(B.blocks, X.blocks)])
    return ReductionResult(B_star=B, reduced=Z, iterations=[0] * X.n_datasets)


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
    if lam[C - 1] <= RANK_RTOL * max(lam[0], 0.0) or lam[C - 1] <= 0:
        raise RankError(f"concatenated covariance has rank below {C}")
    proj = (E[:, :C] / np.sqrt(lam[:C])).T  # C x V_bar, unit-variance scores
    out, off = [], 0
    for V in X.dims:
        out.append(proj[:, off:off + V])
        off += V
    return BlockTransform(out)
