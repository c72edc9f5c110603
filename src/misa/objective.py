"""MISA objective value and analytical gradient.

Both dispersion modes are supported: scale-invariant (dispersion tied to the
sample covariance, objective blind to per-source rescaling) and
scale-controlled (dispersion tied to the sample correlation, model variances
pinned at alpha_k). Gradients are assembled per subspace in source space and
mapped back to each dataset block; the relative-gradient transform used by
the solvers is also provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve

from .errors import DefinitenessError, RankError, ShapeError
from .model import (
    PSI_LAPLACE,
    BlockTransform,
    DispersionChoice,
    KotzParams,
    MultiDataset,
    SubspaceAssignment,
    chol_pd,
    kotz_from_psi,
    logdet_from_chol,
)

RANK_RTOL = 1e3 * np.finfo(float).eps


def j_d_term(W_m: np.ndarray) -> float:
    """Sum of log singular values of W_m; ln|det W_m| in the square case."""
    s = np.linalg.svd(W_m, compute_uv=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankError("W block is rank deficient")
    return float(np.sum(np.log(s)))


def pinv_transpose(W_m: np.ndarray) -> np.ndarray:
    """(W_m^-)^T via SVD with singular values clipped at the rank threshold."""
    U, s, Vt = np.linalg.svd(W_m, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankError("W block is rank deficient")
    return (U / s) @ Vt


@dataclass(frozen=True)
class ObjectiveContext:
    """Frozen problem definition: data, subspace structure, Kotz parameters.

    kotz holds one KotzParams per subspace; pass psi to build them all from a
    single (beta, lambda, eta) triple.
    """

    data: MultiDataset
    assignment: SubspaceAssignment
    kotz: tuple
    dispersion: DispersionChoice

    def __init__(self, data: MultiDataset, assignment: SubspaceAssignment,
                 dispersion: DispersionChoice = DispersionChoice.SCALE_CONTROLLED,
                 kotz: Optional[Sequence[KotzParams]] = None,
                 psi: Sequence[float] = PSI_LAPLACE):
        if sum(assignment.col_dims) != assignment.n_sources:
            raise ShapeError("assignment inconsistent")
        if data.n_datasets != len(assignment.col_dims):
            raise ShapeError("assignment covers a different number of datasets")
        dims = assignment.subspace_dims
        if kotz is None:
            kotz = [kotz_from_psi(psi, int(d)) for d in dims]
        kotz = tuple(kotz)
        if len(kotz) != assignment.n_subspaces:
            raise ShapeError("need one KotzParams per subspace")
        for k, (pk, d) in enumerate(zip(kotz, dims)):
            if pk.d != d:
                raise ShapeError(f"KotzParams {k} built for d={pk.d}, subspace has d={d}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "kotz", kotz)
        object.__setattr__(self, "dispersion", dispersion)

    @property
    def f_constant(self) -> float:
        """Sum over subspaces of the Kotz log normalizers (W-independent)."""
        return float(sum(p.log_norm_const for p in self.kotz))


@dataclass(frozen=True)
class ObjectiveReport:
    value: float
    terms: dict
    gradient: Optional[BlockTransform] = None


def _subspace_terms(Yk: np.ndarray, pk: KotzParams, N: int, invariant: bool,
                    with_gradient: bool):
    """(J_C, J_F, J_E, dJ/dY_k or None) of one subspace's sources Y_k.

    The dispersion is D = Z / (c c^T) with Z = Y_k Y_k^T: c_i = sqrt((N-1)
    alpha) when scale-invariant (D = alpha^-1 * sample covariance), c =
    sqrt(diag Z) when scale-controlled (D = sample correlation). J_C is
    ln det D and z_n = y_n^T D^-1 y_n. D is factored and inverted once; the
    gradient is that of 0.5 J_C - J_F + J_E.
    """
    Z = Yk @ Yk.T
    if invariant:
        c = np.full(pk.d, np.sqrt((N - 1) * pk.alpha))
    else:
        c = np.sqrt(np.diag(Z))
        if np.any(c <= 0):
            raise DefinitenessError("zero-power source row")
    cc = np.outer(c, c)
    D = Z / cc
    L = chol_pd(D, "dispersion")
    Dinv = cho_solve((L, True), np.eye(pk.d), check_finite=False)
    U = Dinv @ Yk
    z = np.einsum("in,in->n", Yk, U)
    if np.any(z <= 0):
        raise DefinitenessError("nonpositive quadratic form")
    jc = logdet_from_chol(L)
    jf = (pk.eta - 1.0) / N * float(np.sum(np.log(z)))
    je = pk.lamb / N * float(np.sum(z ** pk.beta))
    if not with_gradient:
        return jc, jf, je, None
    # at fixed D: dJ/dy_n = t_n D^-1 y_n; Q = dJ/dD
    Ut = U * ((2.0 * pk.beta * pk.lamb * z ** pk.beta + 2.0 * (1.0 - pk.eta)) / (N * z))
    Q = 0.5 * (Dinv - Ut @ U.T)
    QZ = 2.0 * Q / cc
    if not invariant:
        # c = sqrt(diag Z) moves with Y_k too
        QZ[np.diag_indices(pk.d)] -= 2.0 * np.sum(Q * D, axis=1) / c ** 2
    return jc, jf, je, Ut + QZ @ Yk


def subspace_value(Yk: np.ndarray, pk: KotzParams, N: int,
                   invariant: bool) -> float:
    """One subspace's share of the objective, 0.5 J_C - J_F + J_E minus its
    Kotz log normalizer. The objective is the sum of these less J_D, so a
    change of assignment at fixed W moves only the shares it touches."""
    jc, jf, je, _ = _subspace_terms(Yk, pk, N, invariant, False)
    return 0.5 * jc - jf + je - pk.log_norm_const


def _in_subspace(k: int, fn, *args):
    """fn(*args), naming subspace k in a DefinitenessError it raises."""
    try:
        return fn(*args)
    except DefinitenessError as e:
        raise DefinitenessError(f"subspace {k}: {e}") from None


def _objective_terms(Y: np.ndarray, assignment: SubspaceAssignment,
                     kotz: Sequence[KotzParams], dispersion: DispersionChoice,
                     with_gradient: bool):
    """Sums over subspaces of J_C, J_F, J_E, and dJ/dY (or None)."""
    N = Y.shape[1]
    invariant = dispersion is DispersionChoice.SCALE_INVARIANT
    sums = [0.0, 0.0, 0.0]
    G_Y = np.zeros_like(Y) if with_gradient else None
    for k, pk in enumerate(kotz):
        idx = assignment.sources(k)
        *terms, G_k = _in_subspace(k, _subspace_terms, Y[idx], pk, N, invariant,
                                   with_gradient)
        sums = [a + b for a, b in zip(sums, terms)]
        if with_gradient:
            G_Y[idx] = G_k
    return (*sums, G_Y)


def evaluate(ctx: ObjectiveContext, W: BlockTransform,
             with_gradient: bool = False) -> ObjectiveReport:
    """Objective value (and gradient on request) at the unmixing W."""
    W.check_unmixing(ctx.data, ctx.assignment)
    Y = W.transform(ctx.data)
    jd_sum = sum(j_d_term(Wm) for Wm in W.blocks)
    jc_sum, jf_sum, je_sum, G_Y = _objective_terms(
        Y, ctx.assignment, ctx.kotz, ctx.dispersion, with_gradient)

    f_const = ctx.f_constant
    value = -jd_sum + 0.5 * jc_sum - f_const - jf_sum + je_sum
    terms = {"J_D": jd_sum, "J_C": jc_sum, "J_F": jf_sum, "J_E": je_sum,
             "f": f_const}

    gradient = None
    if with_gradient:
        off = ctx.assignment.col_offsets
        gradient = BlockTransform([G_Y[off[m]:off[m + 1]] @ Xm.T - pinv_transpose(Wm)
                                   for m, (Wm, Xm) in enumerate(zip(W.blocks, ctx.data.blocks))])

    return ObjectiveReport(value=float(value), terms=terms, gradient=gradient)


def value_from_sources(Y: np.ndarray, assignment: SubspaceAssignment,
                       dispersion: DispersionChoice,
                       psi: Sequence[float] = PSI_LAPLACE) -> float:
    """Objective value less J_D from precomputed sources Y = W X: the sum of
    subspace_value over the subspaces. J_D depends only on W, so candidates
    at fixed W compare without it."""
    N = Y.shape[1]
    invariant = dispersion is DispersionChoice.SCALE_INVARIANT
    return float(sum(_in_subspace(k, subspace_value, Y[assignment.sources(k)],
                                  kotz_from_psi(psi, int(d)), N, invariant)
                     for k, d in enumerate(assignment.subspace_dims)))


def relative_gradient(grad: BlockTransform, W: BlockTransform) -> BlockTransform:
    """Per-block gradient preconditioning grad_m W_m^T W_m."""
    if grad.n_datasets != W.n_datasets:
        raise ShapeError("block count mismatch")
    return BlockTransform([G @ Wm.T @ Wm for G, Wm in zip(grad.blocks, W.blocks)])
