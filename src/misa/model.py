"""Core domain types: multi-dataset containers, subspace structure, block
transforms, and the Kotz distribution family.

All types are immutable values after construction and safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DefinitenessError, DomainError, ShapeError

# Canonical parameter triples (beta, lambda, eta).
PSI_GAUSS = (1.0, 0.5, 1.0)
PSI_LAPLACE = (0.5, 1.0, 1.0)


PIVOT_RTOL = 1e3 * np.finfo(float).eps


def singular_pivots(L: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Whether the Cholesky factor L of D (one matrix or a stack) has a
    squared pivot within PIVOT_RTOL of the mean diagonal of D: D is then
    singular to working precision, though rounding may leave it barely
    positive definite (as for a dispersion of two identical sources)."""
    d = D.shape[-1]
    pivots = np.diagonal(L, axis1=-2, axis2=-1)
    floor = PIVOT_RTOL / d * np.trace(D, axis1=-2, axis2=-1)
    return np.min(pivots, axis=-1) ** 2 <= floor


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

    beta controls the shape, lamb the kurtosis, eta the hole size; nu and
    alpha are derived. Use :func:`derive_kotz` to construct with validation.
    """

    beta: float
    lamb: float
    eta: float
    d: int
    nu: float
    alpha: float

    @property
    def log_norm_const(self) -> float:
        """Log of the density normalizer, everything except the D and q terms."""
        # imported here, so that `import misa` loads no scipy module
        from scipy.special import gammaln

        return (
            np.log(self.beta)
            + self.nu * np.log(self.lamb)
            + gammaln(self.d / 2.0)
            - (self.d / 2.0) * np.log(np.pi)
            - gammaln(self.nu)
        )


def derive_kotz(beta: float, lamb: float, eta: float, d: int) -> KotzParams:
    """Validate (beta, lambda, eta) for dimension d and derive (nu, alpha)."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if beta <= 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    if lamb <= 0:
        raise DomainError(f"lambda must be > 0, got {lamb}")
    if eta <= (2.0 - d) / 2.0:
        raise DomainError(f"eta must exceed (2-d)/2 = {(2.0 - d) / 2.0}, got {eta}")
    nu = (2.0 * eta + d - 2.0) / (2.0 * beta)
    if nu <= 0:
        raise DomainError(f"derived nu must be > 0, got {nu}")
    from scipy.special import gammaln

    # alpha = Gamma(nu + 1/beta) / (lambda^{1/beta} d Gamma(nu)), in log space
    log_alpha = gammaln(nu + 1.0 / beta) - np.log(lamb) / beta - np.log(d) - gammaln(nu)
    return KotzParams(beta=float(beta), lamb=float(lamb), eta=float(eta), d=int(d),
                      nu=float(nu), alpha=float(np.exp(log_alpha)))


def kotz_from_psi(psi: Sequence[float], d: int) -> KotzParams:
    """KotzParams from a (beta, lambda, eta) triple such as PSI_LAPLACE."""
    beta, lamb, eta = psi
    return derive_kotz(beta, lamb, eta, d)


def kotz_log_pdf(y: np.ndarray, D: np.ndarray, params: KotzParams) -> float:
    """Log density of the Kotz distribution at y with dispersion D.

    With eta = 1 the (eta-1)*ln(q) term is defined as 0 even at q = 0, so the
    Gaussian and Laplace cases are singularity-free at the origin.
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
        val += (params.eta - 1.0) * np.log(q)
    return float(val)


@dataclass(frozen=True)
class MultiDataset:
    """M observation matrices X_m (V_m x N) sharing one axis of N observations;
    every entry must be finite."""

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


@dataclass(frozen=True)
class SubspaceAssignment:
    """Sparse 0/1 matrix P (K x C_bar) mapping each source to one subspace.

    Columns are ordered dataset-major: the first C_1 columns are dataset 1's
    sources, and so on. col_dims records [C_1..C_M].
    """

    P: np.ndarray
    col_dims: tuple

    def __init__(self, P: np.ndarray, col_dims: Sequence[int]):
        P = np.ascontiguousarray(P, dtype=np.int8)
        col_dims = tuple(int(c) for c in col_dims)
        if P.ndim != 2:
            raise ShapeError("P must be a matrix")
        if not np.all((P == 0) | (P == 1)):
            raise ShapeError("P entries must be 0 or 1")
        if sum(col_dims) != P.shape[1]:
            raise ShapeError("column count of P must equal sum of per-dataset source counts")
        if not np.all(P.sum(axis=0) == 1):
            raise ShapeError("each source column must belong to exactly one subspace")
        if np.any(P.sum(axis=1) == 0):
            raise ShapeError("empty subspace rows are not allowed")
        P.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "col_dims", col_dims)

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

    @property
    def col_offsets(self) -> list:
        off = [0]
        for c in self.col_dims:
            off.append(off[-1] + c)
        return off

    def sources(self, k: int) -> np.ndarray:
        """Global column indices of the sources in subspace k, ascending."""
        return np.flatnonzero(self.P[k])

    def dataset_block(self, m: int) -> np.ndarray:
        """P_m, the K x C_m slice for dataset m."""
        off = self.col_offsets
        return np.asarray(self.P[:, off[m]:off[m + 1]])

    def dataset_sources(self, k: int, m: int) -> np.ndarray:
        """Column indices local to dataset m of subspace k's sources there."""
        off = self.col_offsets
        cols = self.sources(k)
        cols = cols[(cols >= off[m]) & (cols < off[m + 1])]
        return cols - off[m]

    def per_dataset_dims(self) -> np.ndarray:
        """d_km matrix (K x M): sources of subspace k living in dataset m."""
        off = self.col_offsets
        out = np.zeros((self.n_subspaces, len(self.col_dims)), dtype=int)
        for m in range(len(self.col_dims)):
            out[:, m] = self.P[:, off[m]:off[m + 1]].sum(axis=1)
        return out

    @staticmethod
    def from_dataset_dims(d_km: np.ndarray) -> "SubspaceAssignment":
        """Build P by assigning consecutive source columns per dataset.

        d_km is K x M; subspace k receives d_km[k, m] consecutive sources in
        dataset m, in ascending subspace order.
        """
        d_km = np.atleast_2d(np.asarray(d_km, dtype=int))
        K, M = d_km.shape
        col_dims = d_km.sum(axis=0)
        P = np.zeros((K, int(col_dims.sum())), dtype=np.int8)
        off = 0
        for m in range(M):
            for k in range(K):
                P[k, off:off + d_km[k, m]] = 1
                off += d_km[k, m]
        return SubspaceAssignment(P, col_dims.tolist())

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
        if data.n_datasets != self.n_datasets:
            raise ShapeError("dataset count mismatch")
        return np.vstack([W @ X for W, X in zip(self.blocks, data.blocks)])

    def check_unmixing(self, data: MultiDataset, assignment: SubspaceAssignment) -> None:
        if data.n_datasets != self.n_datasets:
            raise ShapeError("dataset count mismatch")
        for m, (W, V) in enumerate(zip(self.blocks, data.dims)):
            if W.shape[1] != V:
                raise ShapeError(f"block {m}: W has {W.shape[1]} columns, data has {V} rows")
            if W.shape[0] > V:
                raise ShapeError(f"block {m}: need V_m >= C_m, got C={W.shape[0]} V={V}")
            if W.shape[0] != assignment.col_dims[m]:
                raise ShapeError(f"block {m}: W rows do not match assignment source count")
