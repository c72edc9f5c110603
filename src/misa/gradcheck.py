"""Finite-difference gradient auditing utilities."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import objective as obj
from . import reduction
from .model import (
    BlockTransform,
    DispersionChoice,
    MultiDataset,
    SubspaceAssignment,
)
from .optimizer import random_row_orthonormal

ABS_FLOOR = 1e-7
AUDIT_INSTANCES = 5  # random problems per audit


def fd_gradient(f: Callable[[BlockTransform], float], W: BlockTransform,
                step: float = 1e-5) -> BlockTransform:
    """Central finite differences of f over every entry of every block."""
    out = []
    for bi, Wb in enumerate(W.blocks):
        G = np.zeros_like(Wb)
        for idx in np.ndindex(Wb.shape):
            blocks_p = [b.copy() for b in W.blocks]
            blocks_m = [b.copy() for b in W.blocks]
            blocks_p[bi][idx] += step
            blocks_m[bi][idx] -= step
            G[idx] = (f(BlockTransform(blocks_p)) - f(BlockTransform(blocks_m))) / (2 * step)
        out.append(G)
    return BlockTransform(out)


def max_rel_error(analytic: BlockTransform, numeric: BlockTransform) -> float:
    """Worst relative entry error, absolute where the reference is below
    ABS_FLOOR."""
    worst = 0.0
    for Ga, Gn in zip(analytic.blocks, numeric.blocks):
        diff = np.abs(Ga - Gn)
        ref = np.abs(Gn)
        # relative where the reference is meaningful, absolute otherwise
        err = np.where(ref > ABS_FLOOR, diff / np.maximum(ref, ABS_FLOOR), diff)
        worst = max(worst, float(np.max(err)))
    return worst


def random_instance(rng: np.random.Generator, M: int = 2, N: int = 300):
    """Small random problem with a mix of subspace sizes for audits."""
    d_km = np.array([[1] * M, [2] * M, [1] * M])  # K=3, C_m=4 per dataset
    P = SubspaceAssignment.from_dataset_dims(d_km)
    X = MultiDataset([rng.standard_normal((4, N)) for _ in range(M)])
    W = BlockTransform([random_row_orthonormal(4, 4, rng) + 0.05 * rng.standard_normal((4, 4))
                        for _ in range(M)])
    return X, P, W


def audit_objective(seed: int = 0) -> dict:
    """Max relative FD error of the objective gradient per dispersion mode."""
    rng = np.random.default_rng(seed)
    worst = {mode.value: 0.0 for mode in DispersionChoice}
    for _ in range(AUDIT_INSTANCES):
        M = int(rng.integers(1, 4))
        X, P, W = random_instance(rng, M=M)
        for mode in DispersionChoice:
            ctx = obj.ObjectiveContext(X, P, dispersion=mode)
            rep = obj.evaluate(ctx, W, with_gradient=True)
            num = fd_gradient(lambda Wt: obj.evaluate(ctx, Wt).value, W)
            worst[mode.value] = max(worst[mode.value],
                                    max_rel_error(rep.gradient, num))
    return worst


def audit_pre(seed: int = 0) -> float:
    """Max relative FD error of the reconstruction-error gradient."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(AUDIT_INSTANCES):
        V, C, N = 5, 3, 50
        X = MultiDataset([rng.standard_normal((V, N))])
        W = BlockTransform([rng.standard_normal((C, V))])
        g = reduction.pre_gradient(W, X)
        num = fd_gradient(lambda Wt: reduction.pre_value(Wt, X), W)
        worst = max(worst, max_rel_error(g, num))
    return worst
