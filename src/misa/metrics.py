"""Separation quality metrics: normalized multidataset ISI over subspaces
and permutation-aligned MMSE over matched sources."""

from __future__ import annotations

import numpy as np

from .combinatorics import hungarian
from .errors import DomainError, ShapeError
from .model import BlockTransform, SubspaceAssignment

# quality thresholds used by the harness pass/fail logic
MISI_GOOD = 0.1
MISI_EXCELLENT = 0.01


def interference_matrix(W_hat: BlockTransform, A: BlockTransform,
                        P: SubspaceAssignment) -> np.ndarray:
    """H with h_ij = total |W_hat A| mass mapping true subspace j into
    estimated subspace i: the sum over datasets of P_m |W_m A_m| P_m^T."""
    if not W_hat.n_datasets == A.n_datasets == len(P.col_dims):
        raise ShapeError("block count mismatch")
    K = P.n_subspaces
    H = np.zeros((K, K))
    for m, (Wm, Am) in enumerate(zip(W_hat.blocks, A.blocks)):
        Pm = P.dataset_block(m)
        H += Pm @ np.abs(Wm @ Am) @ Pm.T
    return H


def misi_from_interference(H: np.ndarray) -> float:
    """Row- and column-normalized ISI of an interference matrix H."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ShapeError("H must be square")
    K = H.shape[0]
    if K < 2:
        raise DomainError("ISI normalization undefined for K = 1")
    row_max = H.max(axis=1)
    col_max = H.max(axis=0)
    if np.any(row_max <= 0) or np.any(col_max <= 0):
        raise DomainError("degenerate interference matrix with a zero row or column")
    rows = float(np.sum(H.sum(axis=1) / row_max - 1.0))
    cols = float(np.sum(H.sum(axis=0) / col_max - 1.0))
    return 0.5 / (K * (K - 1)) * (rows + cols)


def misi(W_hat: BlockTransform, A: BlockTransform, P: SubspaceAssignment) -> float:
    """Multidataset ISI; 0 for perfect subspace separation, up to 1."""
    return misi_from_interference(interference_matrix(W_hat, A, P))


def mmse(R_yhat_y: np.ndarray) -> float:
    """Permutation-aligned mean squared error summary, 2 - (2/K) tr|T R|.

    T is the permutation maximizing the total matched |correlation|, found
    by solving the assignment with cost 1 - |R|. Range [0, 2]; 0 for perfect
    matched recovery.
    """
    R = np.asarray(R_yhat_y, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ShapeError("R must be square")
    K = R.shape[0]
    perm = hungarian(1.0 - np.abs(R))
    matched = float(np.sum(np.abs(R[np.arange(K), perm])))
    return 2.0 - (2.0 / K) * matched
