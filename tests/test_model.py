import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import laplace, multivariate_normal

from misa import (
    PSI_GAUSS,
    PSI_LAPLACE,
    BlockTransform,
    DefinitenessError,
    DomainError,
    MultiDataset,
    ShapeError,
    SubspaceAssignment,
    derive_kotz,
    kotz_from_psi,
    kotz_log_pdf,
)


class TestDeriveKotz:
    def test_gauss_d1_nu(self):
        p = derive_kotz(1.0, 0.5, 1.0, 1)
        assert p.nu == pytest.approx(0.5)

    def test_laplace_d1_nu_alpha(self):
        p = derive_kotz(0.5, 1.0, 1.0, 1)
        assert p.nu == pytest.approx(1.0)
        assert p.alpha == pytest.approx(2.0)  # Gamma(3)/Gamma(1) = 2

    def test_gauss_d2_nu(self):
        p = derive_kotz(1.0, 0.5, 1.0, 2)
        assert p.nu == pytest.approx(1.0)

    def test_gauss_alpha_is_one_any_d(self):
        for d in range(1, 6):
            assert kotz_from_psi(PSI_GAUSS, d).alpha == pytest.approx(1.0)

    def test_laplace_alpha_is_d_plus_one(self):
        for d in range(1, 6):
            assert kotz_from_psi(PSI_LAPLACE, d).alpha == pytest.approx(d + 1.0)

    @pytest.mark.parametrize("bad", [
        dict(beta=0.0, lamb=1.0, eta=1.0, d=1),
        dict(beta=-1.0, lamb=1.0, eta=1.0, d=1),
        dict(beta=1.0, lamb=0.0, eta=1.0, d=1),
        dict(beta=1.0, lamb=1.0, eta=0.5, d=1),  # eta must exceed (2-d)/2
        dict(beta=1.0, lamb=1.0, eta=1.0, d=0),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            derive_kotz(bad["beta"], bad["lamb"], bad["eta"], bad["d"])

    def test_nu_monotone_in_eta(self):
        base = derive_kotz(1.3, 0.7, 1.0, 3).nu
        up = derive_kotz(1.3, 0.7, 1.5, 3).nu
        assert up > base


class TestKotzLogPdf:
    def test_standard_normal_at_origin(self):
        p = kotz_from_psi(PSI_GAUSS, 1)
        val = kotz_log_pdf(np.zeros(1), np.eye(1), p)
        assert val == pytest.approx(np.log(1.0 / np.sqrt(2 * np.pi)), abs=1e-12)

    def test_laplace_at_origin(self):
        p = kotz_from_psi(PSI_LAPLACE, 1)
        val = kotz_log_pdf(np.zeros(1), 0.5 * np.eye(1), p)
        assert val == pytest.approx(np.log(1.0 / np.sqrt(2.0)), abs=1e-12)

    def test_bivariate_normal_at_origin(self):
        p = kotz_from_psi(PSI_GAUSS, 2)
        val = kotz_log_pdf(np.zeros(2), np.eye(2) / p.alpha, p)
        assert val == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_gauss_matches_closed_form_1000_points(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            p = kotz_from_psi(PSI_GAUSS, d)
            A = rng.standard_normal((d, d))
            D = A @ A.T + d * np.eye(d)
            mvn = multivariate_normal(mean=np.zeros(d), cov=D)
            for _ in range(1000 // 3):
                y = rng.standard_normal(d) * 2
                assert kotz_log_pdf(y, D, p) == pytest.approx(mvn.logpdf(y), abs=1e-12)

    def test_laplace_matches_closed_form_1000_points(self):
        p = kotz_from_psi(PSI_LAPLACE, 1)
        rng = np.random.default_rng(1)
        D = np.array([[1.0 / p.alpha]])  # unit variance
        for _ in range(1000):
            y = rng.standard_normal(1) * 3
            ref = laplace.logpdf(y[0], scale=1.0 / np.sqrt(2.0))
            assert kotz_log_pdf(y, D, p) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("psi", [PSI_GAUSS, PSI_LAPLACE])
    def test_integrates_to_one_d1(self, psi):
        p = kotz_from_psi(psi, 1)
        D = np.array([[1.0 / p.alpha]])
        total, _ = quad(lambda y: np.exp(kotz_log_pdf(np.array([y]), D, p)),
                        -30, 30, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("psi", [PSI_GAUSS, PSI_LAPLACE])
    def test_integrates_to_one_d2(self, psi):
        p = kotz_from_psi(psi, 2)
        D = np.array([[1.0, 0.3], [0.3, 1.0]]) / p.alpha

        def f(y2, y1):
            return np.exp(kotz_log_pdf(np.array([y1, y2]), D, p))

        total, _ = dblquad(f, -12, 12, -12, 12, epsabs=1e-9)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_non_pd_dispersion_rejected(self):
        p = kotz_from_psi(PSI_GAUSS, 2)
        D = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(DefinitenessError):
            kotz_log_pdf(np.ones(2), D, p)

    def test_near_singular_gets_one_jitter(self):
        p = kotz_from_psi(PSI_GAUSS, 2)
        # PSD but exactly singular by floating-point luck is hard to hit;
        # a tiny negative eigenvalue within jitter range must still work
        D = np.eye(2)
        D[1, 1] = 1e-13
        val = kotz_log_pdf(np.zeros(2), D, p)
        assert np.isfinite(val)

    def test_shape_mismatch(self):
        p = kotz_from_psi(PSI_GAUSS, 2)
        with pytest.raises(ShapeError):
            kotz_log_pdf(np.zeros(3), np.eye(2), p)


class TestMultiDataset:
    def test_valid(self):
        d = MultiDataset([np.zeros((3, 10)), np.zeros((2, 10))])
        assert d.n_datasets == 2 and d.n_obs == 10 and d.dims == [3, 2]

    def test_mismatched_n_rejected(self):
        with pytest.raises(ShapeError):
            MultiDataset([np.zeros((3, 10)), np.zeros((2, 9))])

    def test_single_observation_rejected(self):
        with pytest.raises(ShapeError):
            MultiDataset([np.zeros((3, 1))])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            MultiDataset([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_dataset(self, bad):
        # rejected on entry, not met later as a failed SVD at a trial point
        X = np.ones((2, 10))
        X[1, 4] = bad
        with pytest.raises(DomainError, match="dataset 1"):
            MultiDataset([np.ones((3, 10)), X])


class TestSubspaceAssignment:
    def test_column_sums_one_enforced(self):
        P = np.array([[1, 1], [0, 1]])
        with pytest.raises(ShapeError):
            SubspaceAssignment(P, [2])

    def test_empty_row_rejected(self):
        P = np.array([[1, 1], [0, 0]])
        with pytest.raises(ShapeError):
            SubspaceAssignment(P, [2])

    def test_dims_and_slices(self):
        sa = SubspaceAssignment.from_dataset_dims(np.array([[2, 1], [1, 2]]))
        assert sa.n_subspaces == 2
        assert list(sa.subspace_dims) == [3, 3]
        assert list(sa.col_dims) == [3, 3]
        assert list(sa.dataset_sources(0, 0)) == [0, 1]
        assert list(sa.dataset_sources(0, 1)) == [0]
        assert list(sa.dataset_sources(1, 1)) == [1, 2]
        np.testing.assert_array_equal(sa.per_dataset_dims(), [[2, 1], [1, 2]])

    def test_singletons(self):
        sa = SubspaceAssignment.singletons([2, 2])
        assert sa.n_subspaces == 4
        assert np.all(sa.subspace_dims == 1)


class TestBlockTransform:
    def test_transform_stacks(self):
        data = MultiDataset([np.ones((2, 4)), 2 * np.ones((1, 4))])
        W = BlockTransform([np.eye(2), np.eye(1)])
        Y = W.transform(data)
        assert Y.shape == (3, 4)
        np.testing.assert_allclose(Y[2], 2.0)

    def test_unmixing_shape_check(self):
        data = MultiDataset([np.ones((2, 4))])
        sa = SubspaceAssignment.singletons([2])
        with pytest.raises(ShapeError):
            BlockTransform([np.eye(3)]).check_unmixing(data, sa)
