"""MISA objective value and analytical gradient.

Both dispersion modes are supported: scale-invariant (dispersion tied to the
sample covariance, objective blind to per-source rescaling) and
scale-controlled (dispersion tied to the sample correlation, model variances
pinned at alpha_k). Subspaces with the same per-dataset dimensions are
evaluated together as one (n, d, N) stack; gradients are assembled in source
space and mapped back to each dataset block. The relative-gradient transform
used by the solvers is also provided here.
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
)

RANK_RTOL = 1e3 * np.finfo(float).eps


def _svd_terms(W_m: np.ndarray):
    """(sum of log singular values of W_m, (W_m^-)^T) from one thin SVD;
    RankError when the smallest singular value is below the rank threshold."""
    U, s, Vt = np.linalg.svd(W_m, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankError("W block is rank deficient")
    return float(np.sum(np.log(s))), (U / s) @ Vt


def j_d_term(W_m: np.ndarray) -> float:
    """Sum of log singular values of W_m; ln|det W_m| in the square case."""
    return _svd_terms(W_m)[0]


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


def _stack_terms(S: np.ndarray, pk: KotzParams, invariant: bool, ks,
                 U: np.ndarray, z: np.ndarray, w: np.ndarray,
                 T: Optional[np.ndarray] = None):
    """Per-member (J_C, J_F, J_E) of a stack S (n, d, N) of subspaces that
    share d and pk; when T is given, dJ/dS is also written to U.

    Member i's dispersion is D_i = Z_i / (c_i c_i^T) with Z_i = S_i S_i^T:
    c = sqrt((N-1) alpha) when scale-invariant (D = alpha^-1 * sample
    covariance), c = sqrt(diag Z) when scale-controlled (D = sample
    correlation). J_C is ln det D and z_n = y_n^T D^-1 y_n. Each D is factored
    and inverted once; the gradient is that of 0.5 J_C - J_F + J_E. U and T
    (n, d, N), z and w (n, N) are scratch. Errors name member i as subspace
    ks[i] (unnamed when ks is None).
    """
    n, d, N = S.shape

    def fail(i, what):
        raise DefinitenessError(what if ks is None else f"subspace {ks[i]}: {what}") from None

    Z = S @ S.transpose(0, 2, 1)
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
    except np.linalg.LinAlgError:
        # chol_pd's jitter retry applies per member
        L = np.empty_like(D)
        for i in range(n):
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
    jf = (pk.eta - 1.0) / N * np.log(z, out=w).sum(axis=1)
    je = pk.lamb / N * np.power(z, pk.beta, out=w).sum(axis=1)
    if T is None:
        return jc, jf, je
    # at fixed D: dJ/dy_n = t_n D^-1 y_n with t_n in w; Q = dJ/dD
    w *= 2.0 * pk.beta * pk.lamb
    w += 2.0 * (1.0 - pk.eta)
    z *= N
    w /= z
    np.multiply(U, w[:, None, :], out=T)
    Q = 0.5 * (Dinv - T @ U.transpose(0, 2, 1))
    QZ = 2.0 * Q / cc
    if not invariant:
        # c = sqrt(diag Z) moves with S too
        QZ[:, np.arange(d), np.arange(d)] -= 2.0 * np.sum(Q * D, axis=2) / c ** 2
    np.matmul(QZ, S, out=U)
    U += T
    return jc, jf, je


def _shares(S: np.ndarray, pk: KotzParams, invariant: bool, ks) -> np.ndarray:
    """Per-member 0.5 J_C - J_F + J_E minus the Kotz log normalizer."""
    n, _, N = S.shape
    jc, jf, je = _stack_terms(S, pk, invariant, ks, np.empty_like(S),
                              np.empty((n, N)), np.empty((n, N)))
    return 0.5 * jc - jf + je - pk.log_norm_const


def subspace_value(Yk: np.ndarray, pk: KotzParams, invariant: bool) -> float:
    """One subspace's share of the objective, 0.5 J_C - J_F + J_E minus its
    Kotz log normalizer. The objective is the sum of these less J_D, so a
    change of assignment at fixed W moves only the shares it touches."""
    return float(_shares(Yk[None], pk, invariant, None)[0])


@dataclass
class _Stack:
    """One stack of Buffers: subspaces ks, in that order, sharing pk."""

    ks: list
    pk: KotzParams
    # (dataset m, W_m rows, view of S they produce, view of dJ/dS in U)
    products: list
    S: np.ndarray  # (n, d, N) sources
    U: np.ndarray  # (n, d, N) D^-1 S, then dJ/dS
    T: np.ndarray  # (n, d, N) D^-1 S scaled per observation
    z: np.ndarray  # (n, N)
    w: np.ndarray  # (n, N)


class Buffers:
    """The N-sized scratch of evaluate, allocated once per solve.

    Subspaces with the same per-dataset dimensions and KotzParams form one
    stack, so position p of every member lies in the same dataset: a stack
    within one dataset is one product W_m[rows] X_m, any other one product
    per position. evaluate overwrites the arrays on every call and returns
    nothing that aliases them; one solve, on one thread, owns one Buffers.
    """

    def __init__(self, ctx: ObjectiveContext):
        P = ctx.assignment
        off = np.asarray(P.col_offsets)
        d_km = P.per_dataset_dims()
        N = ctx.data.n_obs
        members = {}
        for k, pk in enumerate(ctx.kotz):
            members.setdefault((tuple(d_km[k]), pk), []).append(k)
        self.ctx = ctx
        self.stacks = []
        for (_, pk), ks in members.items():
            cols = np.array([P.sources(k) for k in ks])  # (n, d), ascending
            datasets = np.searchsorted(off, cols[0], side="right") - 1
            n, d = cols.shape
            S, U, T = (np.empty((n, d, N)) for _ in range(3))
            if np.all(datasets == datasets[0]):
                m = int(datasets[0])
                products = [(m, cols.ravel() - off[m], S.reshape(n * d, N),
                             U.reshape(n * d, N))]
            else:
                products = [(int(m), cols[:, p] - off[m], S[:, p], U[:, p])
                            for p, m in enumerate(datasets)]
            self.stacks.append(_Stack(ks, pk, products, S, U, T,
                                      np.empty((n, N)), np.empty((n, N))))


def evaluate(ctx: ObjectiveContext, W: BlockTransform,
             with_gradient: bool = False,
             buffers: Optional[Buffers] = None) -> ObjectiveReport:
    """Objective value (and gradient on request) at the unmixing W.

    The calls of one solve share buffers = Buffers(ctx); without it each
    call allocates its own.
    """
    W.check_unmixing(ctx.data, ctx.assignment)
    if buffers is None:
        buffers = Buffers(ctx)
    elif buffers.ctx is not ctx:
        raise ShapeError("buffers were built for another ObjectiveContext")
    jd, pinv_t = zip(*(_svd_terms(Wm) for Wm in W.blocks))
    X = ctx.data.blocks
    invariant = ctx.dispersion is DispersionChoice.SCALE_INVARIANT
    per_k = np.empty((3, ctx.assignment.n_subspaces))
    grads = [-Pm for Pm in pinv_t] if with_gradient else None
    for st in buffers.stacks:
        for m, rows, S_view, _ in st.products:
            np.matmul(W.blocks[m][rows], X[m], out=S_view)
        per_k[:, st.ks] = _stack_terms(st.S, st.pk, invariant, st.ks, st.U, st.z,
                                       st.w, st.T if with_gradient else None)
        if with_gradient:
            for m, rows, _, G_view in st.products:
                grads[m][rows] += G_view @ X[m].T

    jd_sum = sum(jd)
    jc_sum, jf_sum, je_sum = (sum(t) for t in per_k.tolist())  # in k order
    f_const = ctx.f_constant
    value = -jd_sum + 0.5 * jc_sum - f_const - jf_sum + je_sum
    terms = {"J_D": jd_sum, "J_C": jc_sum, "J_F": jf_sum, "J_E": je_sum,
             "f": f_const}
    gradient = BlockTransform(grads) if with_gradient else None
    return ObjectiveReport(value=float(value), terms=terms, gradient=gradient)


def value_from_sources(Y: np.ndarray, assignment: SubspaceAssignment,
                       dispersion: DispersionChoice,
                       psi: Sequence[float] = PSI_LAPLACE) -> float:
    """Objective value less J_D from precomputed sources Y = W X: the sum of
    subspace_value over the subspaces, one stack per dimension. J_D depends
    only on W, so candidates at fixed W compare without it."""
    invariant = dispersion is DispersionChoice.SCALE_INVARIANT
    dims = assignment.subspace_dims
    shares = np.empty(len(dims))
    for d in np.unique(dims):
        ks = np.flatnonzero(dims == d)
        S = Y[np.array([assignment.sources(k) for k in ks])]
        shares[ks] = _shares(S, kotz_from_psi(psi, int(d)), invariant, ks)
    return float(sum(shares.tolist()))


def relative_gradient(grad: BlockTransform, W: BlockTransform) -> BlockTransform:
    """Per-block gradient preconditioning grad_m W_m^T W_m."""
    if grad.n_datasets != W.n_datasets:
        raise ShapeError("block count mismatch")
    return BlockTransform([G @ Wm.T @ Wm for G, Wm in zip(grad.blocks, W.blocks)])
