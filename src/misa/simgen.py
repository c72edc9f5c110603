"""Seeded synthetic data generation.

Provides condition-number-prescribed mixings, SNR-calibrated sensor noise,
multivariate-Laplace subspace sources with Toeplitz correlation, a
Gaussian-copula recipe for autocorrelated Laplace-marginal sources, and
build_instance to compose a full problem instance from a SimSpec and a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .errors import DefinitenessError, DomainError, ShapeError, check_ranges
from .model import BlockTransform, MultiDataset, SubspaceAssignment


def gen_mixing(V: int, C: int, cond_target: float, seed=0) -> np.ndarray:
    """Random V x C mixing with an exact prescribed condition number.

    A Gaussian sample's singular values are shifted by a constant k chosen
    so that (s_max + k)/(s_min + k) equals the target; cond_target = 1 is the
    limit where all singular values become equal.
    """
    if V < C:
        raise DomainError("need V >= C")
    if not 1 <= cond_target < np.inf:  # false for NaN
        raise DomainError(f"cond_target must be finite and >= 1, got {cond_target}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((V, C))
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    if cond_target == 1 or s[0] - s[-1] < 1e-12 * s[0]:
        s_new = np.full(C, float(np.mean(s)))
        if cond_target != 1:
            raise DomainError("degenerate sample: cannot reach cond > 1")
    else:
        k = (s[0] - cond_target * s[-1]) / (cond_target - 1.0)
        s_new = s + k
    return (U * s_new) @ Vt


def snr_scale(A: np.ndarray, V: int, snr_db: float) -> float:
    """Noise amplitude a making the power ratio (P_x + P_e)/P_e hit the
    prescribed SNR for white sensor noise of V channels."""
    snr = 10.0 ** (snr_db / 10.0)
    if not snr > 1.0:  # false for NaN
        raise DomainError(f"snr must exceed 1 (0 dB); got {snr_db} dB")
    return float(np.sqrt(np.trace(A @ A.T) / (V * (snr - 1.0))))


def toeplitz_corr(d: int, rho_max: float) -> np.ndarray:
    """Geometric-decay correlation matrix R[i][j] = rho_max^|i-j|."""
    if d < 1:
        raise DomainError("need d >= 1")
    if not (0.0 <= rho_max < 1.0):
        raise DomainError(f"rho_max must be in [0, 1), got {rho_max}")
    lags = np.arange(d, dtype=float)
    R = rho_max ** np.abs(np.subtract.outer(lags, lags))
    assert np.all(np.linalg.eigvalsh(R) > 0)
    return R


def sample_mvlaplace(d: int, R: np.ndarray, N: int, seed=0) -> np.ndarray:
    """Multivariate Laplace sample (d x N) with unit variances and
    correlation R, drawn exactly via the elliptical radial representation:
    radius ~ Gamma(d, 1), direction uniform on the sphere, dispersion
    R/(d+1)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (d, d):
        raise ShapeError("R must be d x d")
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        raise DefinitenessError("R is not positive definite") from None
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, N))
    U = G / np.linalg.norm(G, axis=0)
    r = rng.gamma(shape=d, scale=1.0, size=N)
    return (L / np.sqrt(d + 1.0)) @ (U * r)


def laplace_ppf(U: np.ndarray, b: float) -> np.ndarray:
    """Zero-mean Laplace quantiles at U, scale b, as scipy.stats.laplace.ppf."""
    return np.where(U > 0.5, -np.log(2 * (1 - U)), np.log(2 * U)) * b


def sample_copula_sources(C: int, N: int, R_joint: np.ndarray,
                          ar_rho: float = 0.85, n_draws: int = 50,
                          seed=0) -> np.ndarray:
    """Autocorrelated unit-variance Laplace-marginal sources via a Gaussian
    copula and a median-based selection rule.

    Each draw: AR(1) Gaussian rows at lag-1 autocorrelation ar_rho, cross-row
    correlation R_joint, marginals pushed through the normal CDF and the
    Laplace quantile function. Across draws the element-wise median source
    correlation matrix is computed, and the draw whose correlation matrix is
    Frobenius-nearest that median is returned.
    """
    R_joint = np.asarray(R_joint, dtype=float)
    if R_joint.shape != (C, C):
        raise ShapeError("R_joint must be C x C")
    try:
        Lj = np.linalg.cholesky(R_joint)
    except np.linalg.LinAlgError:
        raise DefinitenessError("R_joint is not positive definite") from None
    if not (0.0 <= ar_rho < 1.0):
        raise DomainError("ar_rho must be in [0, 1)")
    if n_draws < 1:
        raise DomainError("need at least one draw")
    # imported here, so that `import misa` loads no scipy module
    from scipy.signal import lfilter
    from scipy.special import ndtr

    rng = np.random.default_rng(seed)
    innov_scale = np.sqrt(1.0 - ar_rho ** 2)

    def draw():
        E = rng.standard_normal((C, N))
        # Z_t = ar_rho Z_{t-1} + innov_scale E_t, started at Z_0 = E_0
        innov = innov_scale * E
        innov[:, 0] = E[:, 0]
        Z = lfilter([1.0], [1.0, -ar_rho], innov, axis=1)
        U = np.clip(ndtr(Lj @ Z), 1e-12, 1.0 - 1e-12)
        return laplace_ppf(U, 1.0 / np.sqrt(2.0))

    # keep each draw's generator state and correlation matrix, not the draw:
    # the winner is drawn again from its state
    states, corrs = [], []
    for _ in range(n_draws):
        states.append(rng.bit_generator.state)
        corrs.append(np.corrcoef(draw()))
    med = np.median(np.stack(corrs), axis=0)
    best = int(np.argmin([np.linalg.norm(Rc - med) for Rc in corrs]))
    after = rng.bit_generator.state
    rng.bit_generator.state = states[best]
    X = draw()
    # the caller draws on from where the n_draws draws left the generator
    rng.bit_generator.state = after
    return X


@dataclass(slots=True)
class SimSpec:
    """Specification for one synthetic instance.

    subspace_dims is the K x M matrix d_km: sources of subspace k living in
    dataset m; per-dataset source counts C_m are its column sums. cond_target
    and rho_max may be scalars or per-dataset / per-subspace sequences.
    snr_db = inf means noiseless. A generator parameter out of its range
    raises a DomainError naming the field; a one-source dataset's V x 1
    mixing has condition number 1, so its cond_target must be 1.
    """

    subspace_dims: np.ndarray
    dims_v: Sequence[int]
    n_obs: int
    cond_target: Union[float, Sequence[float]] = 3.0
    snr_db: float = np.inf
    rho_max: Union[float, Sequence[float]] = 0.5
    family: str = "mvlaplace"
    copula_draws: int = 50
    ar_rho: float = 0.85

    def __post_init__(self):
        self.subspace_dims = np.atleast_2d(np.asarray(self.subspace_dims, dtype=int))
        K, M = self.subspace_dims.shape
        self.dims_v = [int(v) for v in self.dims_v]
        if len(self.dims_v) != M:
            raise ShapeError("dims_v must have one entry per dataset")
        check_ranges(self, (("subspace_dims", lambda v: v >= 0, ">= 0"),
                            ("n_obs", lambda v: v >= 2, ">= 2"),
                            ("family", lambda v: v in ("mvlaplace", "copula"),
                             "mvlaplace or copula"),
                            ("rho_max ar_rho", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                            ("cond_target", lambda v: 1.0 <= v < np.inf, "finite and >= 1"),
                            ("snr_db", lambda v: v > 0.0, "> 0 (inf for noiseless)"),
                            ("copula_draws", lambda v: v >= 1, ">= 1")))
        c_m = self.subspace_dims.sum(axis=0)
        for V, C in zip(self.dims_v, c_m):
            if V < C:
                raise DomainError(f"need V_m >= C_m, got V={V} C={C}")
        if np.any(self.subspace_dims.sum(axis=1) < 1):
            raise DomainError("every subspace needs at least one source")
        if np.any(c_m < 1):
            raise DomainError("every dataset needs at least one source")
        for name, count, per in (("cond_target", M, "dataset"), ("rho_max", K, "subspace")):
            value = getattr(self, name)
            if not np.isscalar(value) and len(value) != count:
                raise ShapeError(f"{name} needs one entry per {per} ({count}), "
                                 f"got {len(value)}")
        conds = np.broadcast_to(np.asarray(self.cond_target, dtype=float), M)
        for m in np.flatnonzero((c_m == 1) & (conds != 1.0)):
            raise DomainError(f"cond_target must be 1 for dataset {m}, which has one "
                              f"source (a V x 1 mixing), got {conds[m]}")


@dataclass
class GroundTruth:
    A: BlockTransform
    Y: np.ndarray
    noise_scales: List[float]
    realized_conds: List[float]


def build_instance(spec: SimSpec, seed):
    """Compose mixing, sources, and noise drawn from seed into (data, truth, assignment)."""
    rng = np.random.default_rng(seed)
    P = SubspaceAssignment.from_dataset_dims(spec.subspace_dims)
    C_bar = P.n_sources
    N = spec.n_obs
    rhos = np.broadcast_to(np.asarray(spec.rho_max, dtype=float), P.n_subspaces)
    cond_targets = np.broadcast_to(np.asarray(spec.cond_target, dtype=float), len(spec.dims_v))

    if spec.family == "mvlaplace":
        Y = np.zeros((C_bar, N))
        for k in range(P.n_subspaces):
            idx = P.sources(k)
            R = toeplitz_corr(len(idx), rhos[k])
            Y[idx] = sample_mvlaplace(len(idx), R, N, rng)
    else:
        R_joint = np.eye(C_bar)
        for k in range(P.n_subspaces):
            idx = P.sources(k)
            R_joint[np.ix_(idx, idx)] = toeplitz_corr(len(idx), rhos[k])
        Y = sample_copula_sources(C_bar, N, R_joint, ar_rho=spec.ar_rho,
                                  n_draws=spec.copula_draws, seed=rng)

    off = P.col_offsets
    x_blocks, a_blocks, scales, conds = [], [], [], []
    noiseless = np.isinf(spec.snr_db)
    for m, V in enumerate(spec.dims_v):
        C = P.col_dims[m]
        A = gen_mixing(V, C, cond_targets[m], rng)
        s = np.linalg.svd(A, compute_uv=False)
        conds.append(float(s[0] / s[-1]))
        X = A @ Y[off[m]:off[m + 1]]
        if noiseless:
            scales.append(0.0)
        else:
            a = snr_scale(A, V, spec.snr_db)
            X = X + a * rng.standard_normal((V, N))
            scales.append(a)
        x_blocks.append(X)
        a_blocks.append(A)

    truth = GroundTruth(A=BlockTransform(a_blocks), Y=Y, noise_scales=scales,
                        realized_conds=conds)
    return MultiDataset(x_blocks), truth, P
