"""MISA objective value and analytical gradient.

Both dispersion modes are supported: scale-invariant (dispersion tied to the
sample covariance, objective blind to per-source rescaling) and
scale-controlled (dispersion tied to the sample correlation, model variances
pinned at alpha_k). One ObjectiveContext per solve holds the problem and
the N-sized scratch; the R factor comes from the data, which computes it
once and shares it with every context built over it. All subspaces are
evaluated together as one (K, d_max, N) stack, the smaller ones padded. The
dispersions and the dispersion part of the gradient come from the R factor;
the rest of the gradient is mapped from source space back to each dataset
block. The per-subspace shares that the combinatorial steps score at
fixed W, and the relative-gradient transform used by the solvers, are
also provided here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DefinitenessError, RankError, ShapeError
from .model import (
    PSI_LAPLACE,
    RANK_RTOL,
    BlockTransform,
    DispersionChoice,
    KotzParams,
    MultiDataset,
    SubspaceAssignment,
    chol_pd,
    kotz_from_psi,
    singular_pivots,
)


def svd_terms(W_m: np.ndarray):
    """(sum of log singular values, (W_m^-)^T) of W_m, or of each matrix of
    a stack (n, C, V), from one thin SVD call; RankError when a smallest
    singular value is below the rank threshold."""
    U, s, Vt = np.linalg.svd(W_m, full_matrices=False)
    if np.any(s[..., -1] <= RANK_RTOL * s[..., 0]):
        raise RankError("W block is rank deficient")
    return np.log(s).sum(axis=-1), (U / s[..., None, :]) @ Vt


@dataclass(frozen=True)
class ObjectiveReport:
    """The value at W, and gradient(): the gradient there, finished from the
    context's scratch. Its first call raises once the context evaluates again."""
    value: float
    gradient: Callable[[], BlockTransform]


def _stack_terms(S: np.ndarray, Z: np.ndarray, pk: KotzParams, c: Optional[np.ndarray],
                 real: Optional[np.ndarray], named: bool, U: np.ndarray, z: np.ndarray,
                 w: np.ndarray):
    """Per-member (J_C, J_F, J_E) of a stack S (n, d, N) of subspaces that
    share pk's beta, lamb and eta, given Z = S S^T (n, d, d), and qz(). The
    rows of member i that real (n, d) does not mark (None: every row is a
    source) come after its sources and are pads: zero rows of S with an
    identity block in Z and c = 1, so each adds exactly 0 to every term and
    to the gradient.

    Member i's dispersion is D_i = Z_i / (c_i c_i^T): c (n, d) is given when
    scale-invariant (sqrt((N-1) alpha_i), D = alpha^-1 * sample covariance)
    and None when scale-controlled (c = sqrt(diag Z), D = sample
    correlation). J_C is ln det D and z_n = y_n^T D^-1 y_n. Each D is
    factored and inverted once. dJ/dS of 0.5 J_C - J_F + J_E is U + QZ S:
    qz() overwrites U with the part at fixed dispersion and returns QZ
    (n, d, d). U (n, d, N), z and w (n, N) are scratch, which qz() reads
    as the terms left it. Errors name member i as subspace i when named.
    """
    n, d, N = S.shape
    controlled = c is None

    def fail(i, what):
        raise DefinitenessError(f"subspace {i}: {what}" if named else what) from None

    def check_positive(x, what):
        # one reduction when every entry passes; NaN is not <= 0
        if not x.min() > 0:
            bad = np.any(x <= 0, axis=1)
            if bad.any():
                fail(int(np.argmax(bad)), what)

    if controlled:
        c = np.sqrt(Z.diagonal(axis1=1, axis2=2))
        check_positive(c, "zero-power source row")
    cc = c[:, :, None] * c[:, None, :]
    D = Z / cc
    try:
        L = np.linalg.cholesky(D)
        retry = np.flatnonzero(singular_pivots(L, D, real))
    except np.linalg.LinAlgError:
        L, retry = np.tile(np.eye(d), (n, 1, 1)), range(n)
    # chol_pd's jitter retry applies per member, to its own block
    for i in retry:
        di = d if real is None else real[i].sum()
        try:
            L[i, :di, :di] = chol_pd(D[i, :di, :di], "dispersion")
        except DefinitenessError as e:
            fail(i, str(e))
    Linv = np.linalg.inv(L)
    Dinv = Linv.transpose(0, 2, 1) @ Linv
    if d == 1:  # a batched 1 x 1 matmul costs more than the multiply
        np.multiply(Dinv, S, out=U)
        np.multiply(S[:, 0], U[:, 0], out=z)
    else:
        np.matmul(Dinv, S, out=U)
        np.einsum("kin,kin->kn", S, U, out=z)
    check_positive(z, "nonpositive quadratic form")
    jc = 2.0 * np.log(L.diagonal(axis1=1, axis2=2)).sum(axis=1)
    # eta = 1 makes J_F exactly 0 (as in model.kotz_log_pdf)
    jf = np.zeros(n) if pk.eta == 1.0 else (pk.eta - 1.0) / N * np.log(z, out=w).sum(axis=1)
    zb = np.sqrt(z, out=w) if pk.beta == 0.5 else np.power(z, pk.beta, out=w)
    je = pk.lamb / N * zb.sum(axis=1)

    def qz():
        nonlocal U, z, w  # the in-place updates below rebind these names
        # at fixed D: dJ/dy_n = t_n D^-1 y_n with t_n in w, written over U;
        # w holds z^beta, and Laplace's factor 1 and addend 0 are skipped
        if 2.0 * pk.beta * pk.lamb != 1.0:
            w *= 2.0 * pk.beta * pk.lamb
        if pk.eta != 1.0:
            w += 2.0 * (1.0 - pk.eta)
        z *= N
        w /= z
        U *= w[:, None, :]
        # Q = dJ/dD = 0.5 (D^-1 - U (D^-1 S)^T), and U (D^-1 S)^T = (U S^T) D^-1
        Q = 0.5 * (Dinv - (U @ S.transpose(0, 2, 1)) @ Dinv)
        QZ = 2.0 * Q / cc
        if controlled:
            # c = sqrt(diag Z) moves with S too
            QZ[:, np.arange(d), np.arange(d)] -= 2.0 * np.sum(Q * D, axis=2) / c ** 2
        return QZ

    return jc, jf, je, qz


def shares(Y: np.ndarray):
    """share(rows): the share of the scale-invariant Laplace objective of the
    subspace whose sources are Y[rows], in that order: 0.5 J_C - J_F + J_E
    minus its Kotz log normalizer, a stack of one. The objective is the sum
    of these less J_D, so a change of assignment at fixed W moves only the
    shares it touches. Y Y^T is formed once, every Z is sliced from it, and
    each share is cached by its row tuple."""
    YY, N = Y @ Y.T, Y.shape[1]

    @functools.lru_cache(maxsize=None)
    def share(rows: Tuple[int, ...]) -> float:
        r, d = list(rows), len(rows)
        pk = kotz_from_psi(PSI_LAPLACE, d)
        jc, jf, je, _ = _stack_terms(Y.take(r, 0)[None], YY.take(r, 0).take(r, 1)[None], pk,
                                     np.full((1, d), np.sqrt((N - 1) * pk.alpha)), None, False,
                                     np.empty((1, d, N)), np.empty((1, N)), np.empty((1, N)))
        return float((0.5 * jc - jf + je - pk.log_norm_const)[0])

    return share


class ObjectiveContext:
    """One solve's problem and the state its evaluate calls reuse.

    The problem is the data, the subspace structure, the dispersion choice
    and one KotzParams per subspace from the (beta, lambda, eta) triple psi.
    The state is the N-sized scratch and the column blocks R_m of the
    data's r_factor, which every context over the same data shares: with
    X = X_1..X_M stacked (V x N) and X^T = Q R, the sources
    Y = blockdiag(W) X are M Q^T with M = blockdiag(W) R^T, so
    Y Y^T = M M^T and Y X^T = M R need no N-sized product.

    All K subspaces form one stack S (K, d_max, N) in k order. When the
    sizes differ, subspace k's slots from d_k on are pads: slot j reads row
    C + j of M, which is 0, and of M M^T, where it meets an identity block.
    The sources are written straight into S, one product W_m[rows] X_m per
    run of consecutive members whose slot p lies in one dataset, or one
    product in all when every slot is a source of one dataset. evaluate
    overwrites the scratch, which the gradient continuation it returns reads,
    so a context is not shared across threads.
    """

    def __init__(self, data: MultiDataset, assignment: SubspaceAssignment,
                 dispersion: DispersionChoice = DispersionChoice.SCALE_CONTROLLED,
                 psi: Sequence[float] = PSI_LAPLACE):
        if data.n_datasets != len(assignment.col_dims):
            raise ShapeError("assignment covers a different number of datasets")
        self.shapes = list(zip(assignment.col_dims, data.dims))  # (C_m, V_m) of each W_m
        for m, (C_m, V_m) in enumerate(self.shapes):
            if C_m > V_m:
                raise ShapeError(f"dataset {m}: needs V_m >= C_m, got C_m={C_m} V_m={V_m}")
        self.data = data
        self.assignment = assignment
        self.kotz = tuple(kotz_from_psi(psi, int(d)) for d in assignment.subspace_dims)
        self.f_constant = float(sum(p.log_norm_const for p in self.kotz))
        off = np.asarray(assignment.col_offsets)
        N, (K, C) = data.n_obs, assignment.P.shape
        R = data.r_factor
        v_off = np.cumsum([0] + [Xm.shape[0] for Xm in data.blocks])
        self.R_blocks = [np.ascontiguousarray(R[:, a:b])
                         for a, b in zip(v_off[:-1], v_off[1:])]
        dims = assignment.subspace_dims
        d = int(dims.max())
        real = np.arange(d) < dims[:, None]
        self.real = None if real.all() else real
        self.cols = np.tile(C + np.arange(d), (K, 1))  # (K, d) source rows, pads after
        self.cols[real] = np.nonzero(assignment.P)[1]
        # M and M M^T with pad rows: 0 in M, an identity block in M M^T
        rows = C if self.real is None else C + d
        self.M, self.YY = np.zeros((rows, R.shape[0])), np.eye(rows)
        alpha = np.array([p.alpha for p in self.kotz])
        self.c = (np.where(real, np.sqrt((N - 1) * alpha)[:, None], 1.0)
                  if dispersion is DispersionChoice.SCALE_INVARIANT else None)
        # U holds D^-1 S, then dJ/dS at fixed dispersion
        self.S, self.U = np.zeros((K, d, N)), np.empty((K, d, N))
        self.z, self.w = np.empty((K, N)), np.empty((K, N))
        self.latest = None  # a token of the latest evaluate call
        # (dataset m, W_m rows, view of S they produce, view of it in U)
        datasets = np.where(real, np.searchsorted(off, self.cols, side="right") - 1, -1)
        if np.all(datasets == datasets[0, 0]):
            # not redundant beside the per-slot runs: BLAS rounds one
            # (K d, V) product differently from d (K, V) ones, and without
            # this branch isa1's records at seed 1 change
            m = int(datasets[0, 0])
            self.products = [(m, self.cols.ravel() - off[m], self.S.reshape(K * d, N),
                              self.U.reshape(K * d, N))]
        else:
            self.products = [(m, self.cols[a:b, p] - off[m], self.S[a:b, p], self.U[a:b, p])
                             for p in range(d) for m, a, b in _runs(datasets[:, p]) if m >= 0]


def _runs(labels: np.ndarray):
    """(label, start, stop) of each run of equal consecutive labels."""
    edges = [0, *(np.flatnonzero(np.diff(labels)) + 1), len(labels)]
    return [(int(labels[a]), a, b) for a, b in zip(edges[:-1], edges[1:])]


def evaluate(ctx: ObjectiveContext, W: BlockTransform) -> ObjectiveReport:
    """Objective value at the unmixing W, with the gradient continuation."""
    shapes = [Wm.shape for Wm in W.blocks]
    if shapes != ctx.shapes:
        raise ShapeError(f"W has block shapes {shapes}, the problem needs {ctx.shapes}")
    token = ctx.latest = object()
    # one batched SVD over several equal blocks; a lone block is cheaper unstacked
    if len(ctx.shapes) > 1 and len(set(ctx.shapes)) == 1:
        jd, pinv_t = svd_terms(np.stack(W.blocks))
    else:
        jd, pinv_t = zip(*map(svd_terms, W.blocks))
    X = ctx.data.blocks
    off = ctx.assignment.col_offsets
    M, YY, C = ctx.M, ctx.YY, off[-1]
    for m, (Wm, Rm) in enumerate(zip(W.blocks, ctx.R_blocks)):
        np.matmul(Wm, Rm.T, out=M[off[m]:off[m + 1]])
    np.matmul(M[:C], M[:C].T, out=YY[:C, :C])
    for m, rows, S_view, _ in ctx.products:
        np.matmul(W.blocks[m][rows], X[m], out=S_view)
    cols = ctx.cols
    jc, jf, je, qz = _stack_terms(ctx.S, YY[cols[:, :, None], cols[:, None, :]], ctx.kotz[0],
                                  ctx.c, ctx.real, True, ctx.U, ctx.z, ctx.w)

    @functools.cache
    def gradient() -> BlockTransform:
        if ctx.latest is not token:
            raise RuntimeError("stale gradient: the context has evaluated another W since")
        QZ = qz()
        grads = [-Pm for Pm in pinv_t]
        for m, rows, _, G_view in ctx.products:
            grads[m][rows] += G_view @ X[m].T
        # QZ S X_m^T = (QZ M R)[rows of dataset m, columns of R_m]
        H = np.empty_like(M)
        H[cols] = QZ @ M[cols]
        for m, Rm in enumerate(ctx.R_blocks):
            grads[m] += H[off[m]:off[m + 1]] @ Rm
        return BlockTransform(grads)

    # the terms are summed in k order
    value = (-sum(jd) + 0.5 * sum(jc.tolist()) - ctx.f_constant - sum(jf.tolist())
             + sum(je.tolist()))
    return ObjectiveReport(value=float(value), gradient=gradient)


def value_from_sources(Y: np.ndarray, assignment: SubspaceAssignment) -> float:
    """Scale-invariant objective value less J_D from precomputed sources
    Y = W X: the sum of the shares of the subspaces in k order. J_D depends
    only on W, so candidates at fixed W compare without it. No solver calls
    it; the tests keep it as the full-rescoring reference, and
    perfbench/tracer.py wraps it by name."""
    share = shares(Y)
    return sum(share(tuple(assignment.sources(k).tolist()))
               for k in range(assignment.n_subspaces))


def relative_gradient(grad: BlockTransform, W: BlockTransform) -> BlockTransform:
    """Per-block gradient preconditioning grad_m W_m^T W_m."""
    return BlockTransform([G @ Wm.T @ Wm for G, Wm in zip(grad.blocks, W.blocks, strict=True)])
