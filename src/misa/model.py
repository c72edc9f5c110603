"""Core domain types: multi-dataset containers, subspace structure, block
transforms, and the Kotz distribution family.

All types are immutable values after construction and safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import DefinitenessError, DomainError, ShapeError, check_ranges

# Canonical parameter triples (beta, lambda, eta).
PSI_GAUSS = (1.0, 0.5, 1.0)
PSI_LAPLACE = (0.5, 1.0, 1.0)


# relative size at which a pivot, singular value or eigenvalue counts as zero
RANK_RTOL = 1e3 * np.finfo(float).eps


def singular_pivots(L: np.ndarray, D: np.ndarray, real=None) -> np.ndarray:
    """Whether the Cholesky factor L of D (one matrix or a stack) has a
    squared pivot within RANK_RTOL of the mean diagonal of D: D is then
    singular to working precision, though rounding may leave it barely
    positive definite (as for a dispersion of two identical sources). When
    given, real (..., d) marks the rows that count, so a padded member of a
    stack is judged on its own block."""
    pivots = L.diagonal(axis1=-2, axis2=-1)
    diag = D.diagonal(axis1=-2, axis2=-1)
    d = D.shape[-1]
    if real is not None:
        pivots, diag, d = np.where(real, pivots, np.inf), diag * real, real.sum(axis=-1)
    return pivots.min(axis=-1) ** 2 <= RANK_RTOL / d * diag.sum(axis=-1)


def chol_pd(D: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Cholesky factor of a matrix required to be positive definite.

    One relative jitter of 1e-12*trace(D)/d is added when the factorization
    fails or has singular_pivots; a second failure raises. Near-singular
    sample covariances early in optimization motivate the single retry.
    """
    D = np.asarray(D, dtype=float)
    try:
        L = np.linalg.cholesky(D)
        if not singular_pivots(L, D):
            return L
    except np.linalg.LinAlgError:
        pass
    d = D.shape[0]
    jitter = 1e-12 * np.trace(D) / d
    try:
        return np.linalg.cholesky(D + jitter * np.eye(d))
    except np.linalg.LinAlgError:
        raise DefinitenessError(f"{what} is not positive definite") from None


def logdet_from_chol(L: np.ndarray) -> float:
    # never from a raw determinant, for range safety
    return 2.0 * float(np.sum(np.log(np.diag(L))))


class DispersionChoice(Enum):
    """How the Kotz dispersion D_k is tied to the data.

    SCALE_INVARIANT: D_k = alpha_k^-1 * sample covariance (objective blind to
    per-source rescaling). SCALE_CONTROLLED: D_k = sample correlation, fixing
    model variances at alpha_k.
    """

    SCALE_INVARIANT = "invariant"
    SCALE_CONTROLLED = "controlled"


@dataclass(frozen=True)
class KotzParams:
    """Kotz family parameters for one subspace of dimension d.

    beta controls the shape, lamb the kurtosis, eta the hole size. They are
    range-checked on construction (NaN fails every check), and nu, alpha and
    log_norm_const (the log of the density normalizer, everything except the
    D and q terms) are derived from them once. A triple in range whose alpha
    is not finite and positive, or whose log_norm_const is not finite (beta
    = 1e-300, say), raises DomainError too.
    """

    beta: float
    lamb: float
    eta: float
    d: int
    nu: float = field(init=False)
    alpha: float = field(init=False)
    log_norm_const: float = field(init=False)

    def __post_init__(self):
        # an infinite beta or eta would derive nu = 0 or inf, and alpha NaN
        check_ranges(self, (("d", lambda v: 1 <= v < np.inf, "finite and >= 1"),
                            ("beta lamb", lambda v: 0 < v < np.inf, "finite and > 0"),
                            ("eta", lambda v: (2.0 - self.d) / 2.0 < v < np.inf,
                             f"finite and > (2-d)/2 = {(2.0 - self.d) / 2.0}")))
        beta, lamb, eta, d = float(self.beta), float(self.lamb), float(self.eta), int(self.d)
        nu = (2.0 * eta + d - 2.0) / (2.0 * beta)
        # alpha = Gamma(nu + 1/beta) / (lambda^{1/beta} d Gamma(nu)), in log space;
        # lgamma and exp raise OverflowError past the float range, and lgamma
        # ValueError at its pole nu = 0, where 2 beta overflows
        try:
            alpha = math.exp(math.lgamma(nu + 1.0 / beta) - math.log(lamb) / beta
                             - math.log(d) - math.lgamma(nu))
            log_norm_const = (math.log(beta) + nu * math.log(lamb) + math.lgamma(d / 2.0)
                              - (d / 2.0) * math.log(math.pi) - math.lgamma(nu))
        except (OverflowError, ValueError):
            alpha = log_norm_const = math.nan
        if not (0.0 < alpha < math.inf and math.isfinite(log_norm_const)):
            raise DomainError(f"(beta, lamb, eta) = ({beta}, {lamb}, {eta}) at d = {d} derives "
                              "alpha or log_norm_const outside the float range")
        for name, v in (("beta", beta), ("lamb", lamb), ("eta", eta), ("d", d), ("nu", nu),
                        ("alpha", alpha), ("log_norm_const", log_norm_const)):
            object.__setattr__(self, name, v)


def kotz_from_psi(psi: Sequence[float], d: int) -> KotzParams:
    """KotzParams from a (beta, lambda, eta) triple such as PSI_LAPLACE; one
    shared (frozen) instance per triple and d, so callers that score many
    subspaces do not rebuild and re-check it."""
    return _kotz_cached(tuple(psi), d)


@functools.lru_cache(maxsize=None)
def _kotz_cached(psi: tuple, d: int) -> KotzParams:
    # an invalid triple raises on every call: lru_cache stores no exception
    return KotzParams(*psi, d)


def kotz_log_pdf(y: np.ndarray, D: np.ndarray, params: KotzParams) -> float:
    """Log density of the Kotz distribution at y with dispersion D.

    With eta = 1 the (eta-1)*ln(q) term is 0 even at q = 0, so the Gaussian and
    Laplace cases are singularity-free at the origin; other etas take ln 0 = -inf.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    d = params.d
    if y.shape != (d,) or D.shape != (d, d):
        raise ShapeError(f"expected y of length {d} and D of shape ({d},{d})")
    L = chol_pd(D, "dispersion D")
    u = np.linalg.solve(L, y)
    q = float(u @ u)
    val = params.log_norm_const - 0.5 * logdet_from_chol(L) - params.lamb * q ** params.beta
    if params.eta != 1.0:
        val += (params.eta - 1.0) * (np.log(q) if q != 0.0 else -np.inf)
    return float(val)


# observations per step of MultiDataset.r_factor: each step factors a
# (V + R_CHUNK) x V stack, so the transient stays that size whatever N is
R_CHUNK = 1024


@dataclass(frozen=True)
class MultiDataset:
    """M observation matrices X_m (V_m x N) sharing one axis of N observations;
    every entry must be finite. The blocks are marked read-only in place (a
    C-contiguous float array is taken without a copy), so the cached
    r_factor cannot go stale."""

    blocks: tuple

    def __init__(self, blocks: Sequence[np.ndarray]):
        mats = tuple(np.ascontiguousarray(b, dtype=float) for b in blocks)
        if len(mats) < 1:
            raise ShapeError("need at least one dataset")
        for b in mats:
            if b.ndim != 2 or b.shape[0] < 1:
                raise ShapeError("each dataset must be a matrix with V_m >= 1 rows")
        n = mats[0].shape[1]
        if n < 2:
            raise ShapeError("need N >= 2 observations")
        if any(b.shape[1] != n for b in mats):
            raise ShapeError("all datasets must share the same number of observations")
        for m, b in enumerate(mats):
            if not np.all(np.isfinite(b)):
                raise DomainError(f"dataset {m} holds non-finite values (NaN or inf)")
        for b in mats:
            b.setflags(write=False)
        object.__setattr__(self, "blocks", mats)

    @property
    def n_datasets(self) -> int:
        return len(self.blocks)

    @property
    def n_obs(self) -> int:
        return self.blocks[0].shape[1]

    @property
    def dims(self) -> list:
        return [b.shape[0] for b in self.blocks]

    @functools.cached_property
    def r_factor(self) -> np.ndarray:
        """R of the thin QR X^T = Q R of the stacked data X (V x N), with V
        the total data dimension: min(N, V) x V, computed on first use. R is
        folded over chunks of R_CHUNK observations (TSQR: Demmel, Grigori,
        Hoemmen & Langou, SIAM J. Sci. Comput. 2012), so no N-sized copy of
        the data is made. A row of R may differ in sign from one full QR's,
        which leaves R^T R = X X^T unchanged. Every reader gets the same
        array, so it is read-only."""
        R = np.empty((0, sum(self.dims)))
        for a in range(0, self.n_obs, R_CHUNK):
            chunk = np.hstack([X[:, a:a + R_CHUNK].T for X in self.blocks])
            R = np.linalg.qr(np.vstack([R, chunk]), mode="r")
        R.setflags(write=False)
        return R


@dataclass(frozen=True)
class SubspaceAssignment:
    """Sparse 0/1 matrix P (K x C_bar) mapping each source to one subspace.

    Columns are ordered dataset-major: the first C_1 columns are dataset 1's
    sources, and so on. col_dims records [C_1..C_M], and col_offsets
    (0, C_1, C_1 + C_2, ..., C_bar) where each dataset's columns start.
    """

    P: np.ndarray
    col_dims: tuple
    col_offsets: tuple

    def __init__(self, P: np.ndarray, col_dims: Sequence[int]):
        P = np.asarray(P)
        col_dims = tuple(int(c) for c in col_dims)
        if P.ndim != 2:
            raise ShapeError("P must be a matrix")
        # before the cast, which would truncate 1.7 and wrap 257 to 1
        if not np.all((P == 0) | (P == 1)):
            raise ShapeError("every entry must be 0 or 1")
        P = np.ascontiguousarray(P, dtype=np.int8)
        if sum(col_dims) != P.shape[1]:
            raise ShapeError("column count of P must equal sum of per-dataset source counts")
        if not np.all(P.sum(axis=0) == 1):
            raise ShapeError("each source column must belong to exactly one subspace")
        if np.any(P.sum(axis=1) == 0):
            raise ShapeError("empty subspace rows are not allowed")
        P.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "col_dims", col_dims)
        object.__setattr__(self, "col_offsets", tuple(accumulate(col_dims, initial=0)))

    @property
    def n_subspaces(self) -> int:
        return self.P.shape[0]

    @property
    def n_sources(self) -> int:
        return self.P.shape[1]

    @property
    def subspace_dims(self) -> np.ndarray:
        """d_k, the total source count of each subspace."""
        return self.P.sum(axis=1).astype(int)

    def sources(self, k: int) -> np.ndarray:
        """Global column indices of the sources in subspace k, ascending."""
        return np.flatnonzero(self.P[k])

    def dataset_block(self, m: int) -> np.ndarray:
        """P_m, the K x C_m slice for dataset m."""
        return self.P[:, self.col_offsets[m]:self.col_offsets[m + 1]]

    def dataset_sources(self, k: int, m: int) -> np.ndarray:
        """Column indices local to dataset m of subspace k's sources there."""
        return np.flatnonzero(self.dataset_block(m)[k])

    def per_dataset_dims(self) -> np.ndarray:
        """d_km matrix (K x M): sources of subspace k living in dataset m."""
        return np.stack([self.dataset_block(m).sum(axis=1, dtype=int)
                         for m in range(len(self.col_dims))], axis=1)

    @staticmethod
    def from_dataset_dims(d_km: np.ndarray) -> "SubspaceAssignment":
        """Build P by assigning consecutive source columns per dataset.

        d_km is K x M; subspace k receives d_km[k, m] consecutive sources in
        dataset m, in ascending subspace order.
        """
        d_km = np.atleast_2d(np.asarray(d_km, dtype=int))
        K, M = d_km.shape
        # the subspace of each source column, dataset by dataset
        labels = np.repeat(np.tile(np.arange(K), M), d_km.T.ravel())
        return SubspaceAssignment(labels == np.arange(K)[:, None], d_km.sum(axis=0).tolist())

    @staticmethod
    def singletons(col_dims: Sequence[int]) -> "SubspaceAssignment":
        """Every source its own subspace (the SDU / ICA structure)."""
        c_bar = int(sum(col_dims))
        return SubspaceAssignment(np.eye(c_bar, dtype=np.int8), col_dims)


@dataclass(frozen=True)
class BlockTransform:
    """Block-diagonal linear map: one matrix per dataset.

    Unmixing role: W_m is C_m x V_m. Mixing role: A_m is V_m x C_m.
    """

    blocks: tuple

    def __init__(self, blocks: Sequence[np.ndarray]):
        mats = tuple(np.ascontiguousarray(b, dtype=float) for b in blocks)
        if len(mats) < 1:
            raise ShapeError("need at least one block")
        for b in mats:
            if b.ndim != 2:
                raise ShapeError("each block must be a matrix")
        object.__setattr__(self, "blocks", mats)

    @property
    def n_datasets(self) -> int:
        return len(self.blocks)

    def transform(self, data: MultiDataset) -> np.ndarray:
        """Stacked source estimates Y = blockdiag(W) X, shape C_bar x N."""
        return np.vstack([W @ X for W, X in zip(self.blocks, data.blocks, strict=True)])
