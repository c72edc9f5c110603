"""MISA objective value and analytical gradient.

Both dispersion modes are supported: scale-invariant (dispersion tied to the
sample covariance, objective blind to per-source rescaling) and
scale-controlled (dispersion tied to the sample correlation, model variances
pinned at alpha_k). One ObjectiveContext per solve holds the problem, the R
factor of the data and the N-sized scratch. Subspaces with the same
per-dataset dimensions are evaluated together as one (n, d, N) stack. The
dispersions and the dispersion part of the gradient come from the R factor;
the rest of the gradient is mapped from source space back to each dataset
block. The relative-gradient transform used by the solvers is also
provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
    singular_pivots,
)

RANK_RTOL = 1e3 * np.finfo(float).eps


def svd_terms(W_m: np.ndarray):
    """(sum of log singular values of W_m, (W_m^-)^T) from one thin SVD;
    RankError when the smallest singular value is below the rank threshold."""
    U, s, Vt = np.linalg.svd(W_m, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankError("W block is rank deficient")
    return float(np.sum(np.log(s))), (U / s) @ Vt


def j_d_term(W_m: np.ndarray) -> float:
    """Sum of log singular values of W_m; ln|det W_m| in the square case."""
    return svd_terms(W_m)[0]


@dataclass(frozen=True)
class ObjectiveReport:
    value: float
    terms: dict
    gradient: Optional[BlockTransform] = None


def _stack_terms(S: np.ndarray, Z: np.ndarray, pk: KotzParams, invariant: bool,
                 ks, U: np.ndarray, z: np.ndarray, w: np.ndarray,
                 gradient: bool = False):
    """Per-member (J_C, J_F, J_E, QZ) of a stack S (n, d, N) of subspaces
    that share d and pk, given Z = S S^T (n, d, d).

    Member i's dispersion is D_i = Z_i / (c_i c_i^T): c = sqrt((N-1) alpha)
    when scale-invariant (D = alpha^-1 * sample covariance), c = sqrt(diag Z)
    when scale-controlled (D = sample correlation). J_C is ln det D and
    z_n = y_n^T D^-1 y_n. Each D is factored and inverted once. With gradient,
    dJ/dS of 0.5 J_C - J_F + J_E is U + QZ S: U is overwritten with the part
    at fixed dispersion and QZ (n, d, d) is returned; else QZ is None. U
    (n, d, N), z and w (n, N) are scratch. Errors name member i as subspace
    ks[i] (unnamed when ks is None).
    """
    n, d, N = S.shape

    def fail(i, what):
        raise DefinitenessError(what if ks is None else f"subspace {ks[i]}: {what}") from None

    if invariant:
        c = np.full((n, d), np.sqrt((N - 1) * pk.alpha))
    else:
        c = np.sqrt(np.diagonal(Z, axis1=1, axis2=2))
        bad = np.any(c <= 0, axis=1)
        if bad.any():
            fail(int(np.argmax(bad)), "zero-power source row")
    cc = c[:, :, None] * c[:, None, :]
    D = Z / cc
    try:
        L = np.linalg.cholesky(D)
        retry = np.flatnonzero(singular_pivots(L, D))
    except np.linalg.LinAlgError:
        L, retry = np.empty_like(D), range(n)
    # chol_pd's jitter retry applies per member
    for i in retry:
        try:
            L[i] = chol_pd(D[i], "dispersion")
        except DefinitenessError as e:
            fail(i, str(e))
    Linv = np.linalg.inv(L)
    Dinv = Linv.transpose(0, 2, 1) @ Linv
    np.matmul(Dinv, S, out=U)
    np.einsum("kin,kin->kn", S, U, out=z)
    bad = np.any(z <= 0, axis=1)
    if bad.any():
        fail(int(np.argmax(bad)), "nonpositive quadratic form")
    jc = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    # eta = 1 makes J_F exactly 0 (as in model.kotz_log_pdf)
    jf = np.zeros(n) if pk.eta == 1.0 else (pk.eta - 1.0) / N * np.log(z, out=w).sum(axis=1)
    zb = np.sqrt(z, out=w) if pk.beta == 0.5 else np.power(z, pk.beta, out=w)
    je = pk.lamb / N * zb.sum(axis=1)
    if not gradient:
        return jc, jf, je, None
    # at fixed D: dJ/dy_n = t_n D^-1 y_n with t_n in w, written over U
    w *= 2.0 * pk.beta * pk.lamb
    w += 2.0 * (1.0 - pk.eta)
    z *= N
    w /= z
    U *= w[:, None, :]
    # Q = dJ/dD = 0.5 (D^-1 - U (D^-1 S)^T), and U (D^-1 S)^T = (U S^T) D^-1
    Q = 0.5 * (Dinv - (U @ S.transpose(0, 2, 1)) @ Dinv)
    QZ = 2.0 * Q / cc
    if not invariant:
        # c = sqrt(diag Z) moves with S too
        QZ[:, np.arange(d), np.arange(d)] -= 2.0 * np.sum(Q * D, axis=2) / c ** 2
    return jc, jf, je, QZ


def subspace_value(Yk: np.ndarray, Zk: np.ndarray) -> float:
    """One subspace's share of the scale-invariant Laplace objective from its
    sources Yk (d, N) and Zk = Yk Yk^T: 0.5 J_C - J_F + J_E minus its Kotz log
    normalizer. The objective is the sum of these less J_D, so a change of
    assignment at fixed W moves only the shares it touches."""
    d, N = Yk.shape
    pk = kotz_from_psi(PSI_LAPLACE, d)
    jc, jf, je, _ = _stack_terms(Yk[None], Zk[None], pk, True, None,
                                 np.empty((1, d, N)), np.empty((1, N)), np.empty((1, N)))
    return float((0.5 * jc - jf + je - pk.log_norm_const)[0])


@dataclass
class _Stack:
    """One stack of an ObjectiveContext: subspaces ks that share d_km and pk."""

    ks: list
    pk: KotzParams
    cols: np.ndarray  # (n, d) source indices of the members
    # (dataset m, W_m rows, view of S they produce, view of it in U)
    products: list
    S: np.ndarray  # (n, d, N) sources
    U: np.ndarray  # (n, d, N) D^-1 S, then dJ/dS at fixed dispersion
    z: np.ndarray  # (n, N)
    w: np.ndarray  # (n, N)


class ObjectiveContext:
    """One solve's problem and the state its evaluate calls reuse.

    The problem is the data, the subspace structure, the dispersion choice
    and one KotzParams per subspace from the (beta, lambda, eta) triple psi.
    The state is the R factor of the data and the N-sized scratch: with
    X = X_1..X_M stacked (V x N) and X^T = Q R, the sources
    Y = blockdiag(W) X are M Q^T with M = blockdiag(W) R^T, so
    Y Y^T = M M^T and Y X^T = M R need no N-sized product.

    Subspaces with the same per-dataset dimensions d_km form one stack, so
    position p of every member lies in one dataset: a stack within one
    dataset is one product W_m[rows] X_m, any other one product per
    position. evaluate overwrites the scratch on every call and returns
    nothing that aliases it, so a context is not shared across threads.
    """

    def __init__(self, data: MultiDataset, assignment: SubspaceAssignment,
                 dispersion: DispersionChoice = DispersionChoice.SCALE_CONTROLLED,
                 psi: Sequence[float] = PSI_LAPLACE):
        from scipy.linalg import qr

        if data.n_datasets != len(assignment.col_dims):
            raise ShapeError("assignment covers a different number of datasets")
        self.data = data
        self.assignment = assignment
        self.dispersion = dispersion
        self.kotz = tuple(kotz_from_psi(psi, int(d)) for d in assignment.subspace_dims)
        self.f_constant = float(sum(p.log_norm_const for p in self.kotz))
        off = np.asarray(assignment.col_offsets)
        d_km = assignment.per_dataset_dims()
        N = data.n_obs
        # F-ordered X^T, factored in place: one V x N copy of the data
        R = qr(np.vstack(data.blocks).T, mode="raw", overwrite_a=True,
               check_finite=False)[1]
        v_off = np.cumsum([0] + [Xm.shape[0] for Xm in data.blocks])
        self.R_blocks = [np.ascontiguousarray(R[:, a:b])
                         for a, b in zip(v_off[:-1], v_off[1:])]
        members = {}
        for k in range(assignment.n_subspaces):
            members.setdefault(tuple(d_km[k]), []).append(k)
        self.stacks = []
        for ks in members.values():
            cols = np.array([assignment.sources(k) for k in ks])  # (n, d), ascending
            datasets = np.searchsorted(off, cols[0], side="right") - 1
            n, d = cols.shape
            S, U = np.empty((n, d, N)), np.empty((n, d, N))
            if np.all(datasets == datasets[0]):
                m = int(datasets[0])
                products = [(m, cols.ravel() - off[m], S.reshape(n * d, N),
                             U.reshape(n * d, N))]
            else:
                products = [(int(m), cols[:, p] - off[m], S[:, p], U[:, p])
                            for p, m in enumerate(datasets)]
            self.stacks.append(_Stack(ks, self.kotz[ks[0]], cols, products, S, U,
                                      np.empty((n, N)), np.empty((n, N))))


def _gram_blocks(YY: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (n, d, d) diagonal blocks YY[cols_i, cols_i] of Y Y^T."""
    return YY[cols[:, :, None], cols[:, None, :]]


def evaluate(ctx: ObjectiveContext, W: BlockTransform,
             with_gradient: bool = False) -> ObjectiveReport:
    """Objective value (and gradient on request) at the unmixing W."""
    W.check_unmixing(ctx.data, ctx.assignment)
    jd, pinv_t = zip(*(svd_terms(Wm) for Wm in W.blocks))
    X = ctx.data.blocks
    invariant = ctx.dispersion is DispersionChoice.SCALE_INVARIANT
    M = np.vstack([Wm @ Rm.T for Wm, Rm in zip(W.blocks, ctx.R_blocks)])
    YY = M @ M.T
    per_k = np.empty((3, ctx.assignment.n_subspaces))
    if with_gradient:
        grads = [-Pm for Pm in pinv_t]
        H = np.empty_like(M)  # QZ M, subspace by subspace
    for st in ctx.stacks:
        for m, rows, S_view, _ in st.products:
            np.matmul(W.blocks[m][rows], X[m], out=S_view)
        jc, jf, je, QZ = _stack_terms(st.S, _gram_blocks(YY, st.cols), st.pk,
                                      invariant, st.ks, st.U, st.z, st.w,
                                      with_gradient)
        per_k[:, st.ks] = jc, jf, je
        if with_gradient:
            H[st.cols] = QZ @ M[st.cols]
            for m, rows, _, G_view in st.products:
                grads[m][rows] += G_view @ X[m].T
    if with_gradient:
        # QZ S X_m^T = (QZ M R)[rows of dataset m, columns of R_m]
        off = ctx.assignment.col_offsets
        for m, Rm in enumerate(ctx.R_blocks):
            grads[m] += H[off[m]:off[m + 1]] @ Rm

    jd_sum = sum(jd)
    jc_sum, jf_sum, je_sum = (sum(t) for t in per_k.tolist())  # in k order
    f_const = ctx.f_constant
    value = -jd_sum + 0.5 * jc_sum - f_const - jf_sum + je_sum
    terms = {"J_D": jd_sum, "J_C": jc_sum, "J_F": jf_sum, "J_E": je_sum,
             "f": f_const}
    gradient = BlockTransform(grads) if with_gradient else None
    return ObjectiveReport(value=float(value), terms=terms, gradient=gradient)


def value_from_sources(Y: np.ndarray, assignment: SubspaceAssignment) -> float:
    """Scale-invariant objective value less J_D from precomputed sources
    Y = W X: the sum of subspace_value over the subspaces in k order, with
    every Z sliced from one Y Y^T. J_D depends only on W, so candidates at
    fixed W compare without it. No solver calls it; the tests keep it as the
    full-rescoring reference, and perfbench/tracer.py wraps it by name."""
    YY = Y @ Y.T
    return sum(subspace_value(Y[idx], YY[np.ix_(idx, idx)])
               for idx in map(assignment.sources, range(assignment.n_subspaces)))


def relative_gradient(grad: BlockTransform, W: BlockTransform) -> BlockTransform:
    """Per-block gradient preconditioning grad_m W_m^T W_m."""
    if grad.n_datasets != W.n_datasets:
        raise ShapeError("block count mismatch")
    return BlockTransform([G @ Wm.T @ Wm for G, Wm in zip(grad.blocks, W.blocks)])
