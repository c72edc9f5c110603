import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import laplace

import misa
from misa import (
    DomainError,
    ShapeError,
    SimSpec,
    build_instance,
    gen_mixing,
    sample_copula_sources,
    sample_mvlaplace,
    snr_scale,
    toeplitz_corr,
)
from misa.simgen import laplace_ppf


def test_import_loads_no_scipy_stats():
    # scipy.stats adds about a second to every process that imports misa
    code = ("import sys, misa; print(sorted(m for m in sys.modules"
            " if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    src = str(Path(misa.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_laplace_ppf_bitwise_equal_to_scipy():
    # 10^6 clipped uniforms, the clip bounds of sample_copula_sources, and
    # 0.5 with its neighbours either side
    b = 1.0 / np.sqrt(2.0)
    lo, hi = 1e-12, 1.0 - 1e-12
    U = np.concatenate([[lo, hi, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
                        np.clip(np.random.default_rng(17).random(10 ** 6), lo, hi)])
    assert np.array_equal(laplace_ppf(U, b).view(np.int64),
                          laplace.ppf(U, loc=0.0, scale=b).view(np.int64))


class TestGenMixing:
    @pytest.mark.parametrize("target", [1.0, 3.0, 7.0, 15.0])
    def test_condition_number_exact(self, target):
        rng = np.random.default_rng(0)
        for shape in [(5, 5), (8, 4), (12, 6)]:
            A = gen_mixing(shape[0], shape[1], target, rng)
            assert np.linalg.cond(A) == pytest.approx(target, abs=1e-8)

    def test_full_column_rank(self):
        rng = np.random.default_rng(1)
        A = gen_mixing(10, 4, 5.0, rng)
        assert np.linalg.matrix_rank(A) == 4

    def test_bad_target_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DomainError):
            gen_mixing(4, 4, 0.5, rng)

    def test_deterministic(self):
        A1 = gen_mixing(6, 3, 4.0, np.random.default_rng(7))
        A2 = gen_mixing(6, 3, 4.0, np.random.default_rng(7))
        np.testing.assert_array_equal(A1, A2)


class TestSnrScale:
    def test_hand_value_identity_3db(self):
        # tr(A A^T) = 2, V = 2, SNR = 10^0.3: a = sqrt(1 / (10^0.3 - 1))
        A = np.eye(2)
        ref = np.sqrt(1.0 / (10.0 ** 0.3 - 1.0))
        assert snr_scale(A, 2, 3.0) == pytest.approx(ref, abs=1e-10)
        assert ref == pytest.approx(1.00238, abs=1e-4)

    def test_monotone_decreasing_in_snr(self):
        A = np.random.default_rng(3).standard_normal((4, 3))
        scales = [snr_scale(A, 4, db) for db in (1.0, 3.0, 10.0, 20.0)]
        assert all(b < a for a, b in zip(scales, scales[1:]))

    def test_zero_db_rejected(self):
        with pytest.raises(DomainError):
            snr_scale(np.eye(2), 2, 0.0)

    def test_empirical_snr(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 4))
        N = 100000
        for target_db in (3.0, 10.0):
            a = snr_scale(A, 6, target_db)
            Y = rng.standard_normal((4, N))
            E = a * rng.standard_normal((6, N))
            sig = np.sum((A @ Y) ** 2)
            noise = np.sum(E ** 2)
            realized = 10 * np.log10(1.0 + sig / noise)
            assert realized == pytest.approx(target_db, abs=0.1)


class TestToeplitzCorr:
    def test_d1(self):
        np.testing.assert_array_equal(toeplitz_corr(1, 0.9), np.eye(1))

    def test_d3_structure(self):
        R = toeplitz_corr(3, 0.6)
        ref = np.array([[1.0, 0.6, 0.36], [0.6, 1.0, 0.6], [0.36, 0.6, 1.0]])
        np.testing.assert_allclose(R, ref, atol=1e-12)

    def test_positive_definite(self):
        for rho in (0.0, 0.5, 0.95):
            R = toeplitz_corr(6, rho)
            assert np.min(np.linalg.eigvalsh(R)) > 0


class TestSampleMvLaplace:
    def test_moments_d1(self):
        rng = np.random.default_rng(5)
        y = sample_mvlaplace(1, np.eye(1), 1_000_000, rng).ravel()
        assert np.var(y) == pytest.approx(1.0, abs=0.02)
        kurt = np.mean(y ** 4) / np.var(y) ** 2 - 3.0
        assert kurt == pytest.approx(3.0, abs=0.15)

    def test_covariance_d3(self):
        rng = np.random.default_rng(6)
        R = toeplitz_corr(3, 0.5)
        Y = sample_mvlaplace(3, R, 400_000, rng)
        C = np.cov(Y)
        np.testing.assert_allclose(C, R, atol=0.02)

    def test_deterministic(self):
        R = toeplitz_corr(2, 0.3)
        Y1 = sample_mvlaplace(2, R, 100, np.random.default_rng(9))
        Y2 = sample_mvlaplace(2, R, 100, np.random.default_rng(9))
        np.testing.assert_array_equal(Y1, Y2)

    def test_shape(self):
        Y = sample_mvlaplace(4, np.eye(4), 50, np.random.default_rng(1))
        assert Y.shape == (4, 50)


class TestCopulaSources:
    def test_identity_joint_low_cross_correlation(self):
        rng_seed = 10
        Y = sample_copula_sources(3, 20000, np.eye(3), seed=rng_seed)
        C = np.corrcoef(Y)
        off = C - np.diag(np.diag(C))
        assert np.max(np.abs(off)) < 0.03

    def test_marginals_laplace_like(self):
        Y = sample_copula_sources(2, 50000, np.eye(2), seed=11)
        for row in Y:
            assert np.var(row) == pytest.approx(1.0, abs=0.05)
            # Laplace excess kurtosis is 3; the sample estimate is noisy for
            # heavy tails, so accept a wide band clearly above Gaussian
            kurt = np.mean(row ** 4) / np.var(row) ** 2 - 3.0
            assert 2.0 < kurt < 4.5

    def test_lag1_autocorrelation(self):
        Y = sample_copula_sources(2, 50000, np.eye(2), ar_rho=0.85, seed=12)
        for row in Y:
            r = np.corrcoef(row[:-1], row[1:])[0, 1]
            # rank correlation survives the marginal transform attenuated
            assert r == pytest.approx(0.85, abs=0.05)

    def test_joint_correlation_tracks_target(self):
        R = np.array([[1.0, 0.6], [0.6, 1.0]])
        Y = sample_copula_sources(2, 50000, R, seed=13)
        r = np.corrcoef(Y)[0, 1]
        assert r == pytest.approx(0.6, abs=0.06)

    def test_more_draws_not_worse(self):
        R = np.array([[1.0, 0.7], [0.7, 1.0]])

        def err(n_draws):
            Y = sample_copula_sources(2, 20000, R, n_draws=n_draws, seed=14)
            return abs(np.corrcoef(Y)[0, 1] - 0.7)

        assert err(50) <= err(1) + 0.02

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.85, 0.99])
    def test_single_draw_matches_explicit_recursion(self, rho):
        # pins the random stream and the AR(1) filter bit for bit
        C, N, seed = 3, 400, 16
        R = toeplitz_corr(C, 0.5)
        Y = sample_copula_sources(C, N, R, ar_rho=rho, n_draws=1, seed=seed)
        E = np.random.default_rng(seed).standard_normal((C, N))
        Z = np.empty((C, N))
        Z[:, 0] = E[:, 0]
        for t in range(1, N):
            Z[:, t] = rho * Z[:, t - 1] + np.sqrt(1.0 - rho ** 2) * E[:, t]
        U = np.clip(ndtr(np.linalg.cholesky(R) @ Z), 1e-12, 1.0 - 1e-12)
        expected = laplace.ppf(U, loc=0.0, scale=1.0 / np.sqrt(2.0))
        assert np.array_equal(Y, expected)

    def test_deterministic(self):
        Y1 = sample_copula_sources(2, 500, np.eye(2), seed=15)
        Y2 = sample_copula_sources(2, 500, np.eye(2), seed=15)
        np.testing.assert_array_equal(Y1, Y2)


class TestSimSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimSpec(subspace_dims=np.array([[0], [0]]), dims_v=[2], n_obs=100,
                    cond_target=2.0)  # empty subspace
        with pytest.raises(DomainError):
            SimSpec(subspace_dims=np.array([[1], [1]]), dims_v=[1], n_obs=100,
                    cond_target=2.0)  # V < C
        with pytest.raises(ShapeError):
            SimSpec(subspace_dims=np.array([[1], [1]]), dims_v=[2, 2], n_obs=100,
                    cond_target=2.0)  # dims_v length != M

    @pytest.mark.parametrize("field, values, count", [
        ("cond_target", [2.0], 2), ("cond_target", [2.0, 2.0, 2.0], 2),
        ("rho_max", [0.3, 0.3], 3), ("rho_max", [0.3] * 4, 3)],
        ids=["cond_target-short", "cond_target-long", "rho_max-short", "rho_max-long"])
    def test_list_length_checked(self, field, values, count):
        # K = 3 subspaces over M = 2 datasets
        with pytest.raises(ShapeError, match=rf"{field} needs one entry per \w+ \({count}\)"):
            SimSpec(subspace_dims=np.array([[1, 1], [1, 0], [0, 1]]), dims_v=[2, 2],
                    n_obs=100, **{field: values})

    def test_matching_lists_accepted(self):
        spec = SimSpec(subspace_dims=np.array([[1, 1], [1, 0], [0, 1]]), dims_v=[2, 2],
                       n_obs=100, cond_target=[2.0, 3.0], rho_max=[0.3, 0.4, 0.5])
        assert [spec.cond_for(m) for m in range(2)] == [2.0, 3.0]
        assert [spec.rho_for(k) for k in range(3)] == [0.3, 0.4, 0.5]


class TestBuildInstance:
    def test_noiseless_exact_mixing(self):
        spec = SimSpec(subspace_dims=np.array([[1], [2]]), dims_v=[3], n_obs=500,
                       cond_target=2.0, seed=20)
        data, truth, P = build_instance(spec)
        np.testing.assert_allclose(data.blocks[0],
                                   truth.A.blocks[0] @ truth.Y[:3], atol=1e-12)
        assert truth.realized_conds[0] == pytest.approx(2.0, abs=1e-8)

    def test_snr_within_2_percent(self):
        spec = SimSpec(subspace_dims=np.ones((6, 1), dtype=int), dims_v=[10],
                       n_obs=50000, cond_target=3.0, snr_db=10.0, seed=21)
        data, truth, P = build_instance(spec)
        A = truth.A.blocks[0]
        sig = np.sum((A @ truth.Y[:6]) ** 2)
        noise = np.sum((data.blocks[0] - A @ truth.Y[:6]) ** 2)
        realized_db = 10 * np.log10(1.0 + sig / noise)
        assert realized_db == pytest.approx(10.0, rel=0.02)

    def test_iva_shapes(self):
        spec = SimSpec(subspace_dims=np.ones((8, 5), dtype=int), dims_v=[8] * 5,
                       n_obs=2000, cond_target=3.0, rho_max=0.5, seed=22)
        data, truth, P = build_instance(spec)
        assert data.n_datasets == 5
        assert data.dims == [8] * 5
        assert truth.Y.shape == (40, 2000)
        assert P.n_subspaces == 8

    def test_cross_subspace_correlation_small(self):
        spec = SimSpec(subspace_dims=np.array([[2], [2]]), dims_v=[4], n_obs=8000,
                       cond_target=2.0, rho_max=0.7, seed=23)
        data, truth, P = build_instance(spec)
        Y = truth.Y
        C = np.corrcoef(Y)
        # across-subspace entries should be near zero at this sample size
        cross = np.abs(C[:2, 2:])
        assert np.max(cross) < 4.0 / np.sqrt(8000)

    def test_within_subspace_correlated(self):
        spec = SimSpec(subspace_dims=np.array([[2], [2]]), dims_v=[4], n_obs=8000,
                       cond_target=2.0, rho_max=0.7, seed=24)
        data, truth, P = build_instance(spec)
        C = np.corrcoef(truth.Y)
        assert abs(C[0, 1]) > 0.3

    def test_deterministic(self):
        spec = SimSpec(subspace_dims=np.array([[1], [2]]), dims_v=[3], n_obs=300,
                       cond_target=2.0, snr_db=15.0, seed=25)
        d1, t1, _ = build_instance(spec)
        d2, t2, _ = build_instance(spec)
        np.testing.assert_array_equal(d1.blocks[0], d2.blocks[0])
        np.testing.assert_array_equal(t1.Y, t2.Y)

    def test_copula_family(self):
        spec = SimSpec(subspace_dims=np.ones((3, 2), dtype=int), dims_v=[3, 3],
                       n_obs=3000, cond_target=2.0, rho_max=0.5,
                       family="copula", seed=26)
        data, truth, P = build_instance(spec)
        assert data.n_datasets == 2
        assert truth.Y.shape == (6, 3000)
