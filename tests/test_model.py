import warnings

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
    KotzParams,
    MultiDataset,
    ShapeError,
    SubspaceAssignment,
    kotz_from_psi,
    kotz_log_pdf,
    model,
)


class TestDeriveKotz:
    def test_gauss_d1_nu(self):
        p = KotzParams(1.0, 0.5, 1.0, 1)
        assert p.nu == pytest.approx(0.5)

    def test_laplace_d1_nu_alpha(self):
        p = KotzParams(0.5, 1.0, 1.0, 1)
        assert p.nu == pytest.approx(1.0)
        assert p.alpha == pytest.approx(2.0)  # Gamma(3)/Gamma(1) = 2

    def test_gauss_d2_nu(self):
        p = KotzParams(1.0, 0.5, 1.0, 2)
        assert p.nu == pytest.approx(1.0)

    def test_gauss_alpha_is_one_any_d(self):
        for d in range(1, 6):
            assert kotz_from_psi(PSI_GAUSS, d).alpha == pytest.approx(1.0)

    def test_laplace_alpha_is_d_plus_one(self):
        for d in range(1, 6):
            assert kotz_from_psi(PSI_LAPLACE, d).alpha == pytest.approx(d + 1.0)

    @pytest.mark.parametrize("bad", [
        dict(beta=0.0, lamb=1.0, eta=1.0, d=1, field="beta"),
        dict(beta=-1.0, lamb=1.0, eta=1.0, d=1, field="beta"),
        dict(beta=1.0, lamb=0.0, eta=1.0, d=1, field="lamb"),
        dict(beta=1.0, lamb=1.0, eta=0.5, d=1, field="eta"),  # eta must exceed (2-d)/2
        dict(beta=1.0, lamb=1.0, eta=1.0, d=0, field="d"),
        dict(beta=np.nan, lamb=1.0, eta=1.0, d=1, field="beta"),
        dict(beta=1.0, lamb=np.nan, eta=1.0, d=1, field="lamb"),
        dict(beta=1.0, lamb=1.0, eta=np.nan, d=1, field="eta"),
        dict(beta=1.0, lamb=1.0, eta=1.0, d=np.nan, field="d"),
        # an infinite beta or eta would derive nu = 0 or inf
        dict(beta=np.inf, lamb=1.0, eta=1.0, d=2, field="beta"),
        dict(beta=1.0, lamb=1.0, eta=np.inf, d=2, field="eta"),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError, match=rf"^{bad['field']} must be"):
            KotzParams(bad["beta"], bad["lamb"], bad["eta"], bad["d"])

    @pytest.mark.parametrize("psi, d", [(PSI_GAUSS, d) for d in range(1, 7)]
                             + [(PSI_LAPLACE, d) for d in range(1, 7)]
                             + [((1.3, 0.7, 1.5), d) for d in range(1, 7)])
    def test_derived_values_match_reference(self, psi, d):
        # the formulas as they stood in the former derive_kotz function and
        # log_norm_const property, kept here as the reference
        from scipy.special import gammaln

        beta, lamb, eta = psi
        nu = float((2.0 * eta + d - 2.0) / (2.0 * beta))
        log_alpha = gammaln(nu + 1.0 / beta) - np.log(lamb) / beta - np.log(d) - gammaln(nu)
        log_norm_const = (np.log(beta) + nu * np.log(lamb) + gammaln(d / 2.0)
                          - (d / 2.0) * np.log(np.pi) - gammaln(nu))
        p = KotzParams(*psi, d)
        assert (p.nu, p.alpha, p.log_norm_const) == (
            nu, float(np.exp(log_alpha)), log_norm_const)

    def test_kotz_from_psi_shares_one_instance(self):
        # one frozen KotzParams per triple and d; a list triple finds it too
        p = kotz_from_psi(PSI_LAPLACE, 3)
        assert kotz_from_psi(list(PSI_LAPLACE), 3) is p
        assert kotz_from_psi(PSI_LAPLACE, 2) is not p
        assert p == KotzParams(*PSI_LAPLACE, 3)

    def test_kotz_from_psi_rejects_nan_every_call(self):
        # a failed construction is not cached, so a bad triple raises each time
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^beta must be"):
                kotz_from_psi((np.nan, 1.0, 1.0), 1)

    def test_nu_monotone_in_eta(self):
        base = KotzParams(1.3, 0.7, 1.0, 3).nu
        up = KotzParams(1.3, 0.7, 1.5, 3).nu
        assert up > base


class TestKotzParams:
    def test_gammaln_bitwise_equal_to_scipy(self):
        # KotzParams takes its log-Gamma terms from the cephes port, so that
        # a solve loads no scipy module; it must be scipy's gammaln exactly
        from scipy.special import gammaln

        args = []
        for beta, lamb, eta in (PSI_GAUSS, PSI_LAPLACE, (1.3, 0.7, 1.5)):
            for d in range(1, 41):
                nu = (2.0 * eta + d - 2.0) / (2.0 * beta)
                args += [nu, nu + 1.0 / beta, d / 2.0]
        # the branch edges of lgam, the extremes of the positive floats, and
        # the float above cephes MAXLGM, whose result is inf though Stirling's
        # sum would still be finite there
        args += [2.0, 3.0, 13.0, np.nextafter(13.0, 0.0), 1000.0, np.nextafter(1000.0, 0.0),
                 1e8, 1.5e8, 5e-324, 1e300, np.nextafter(2.556348e305, np.inf)]
        rng = np.random.default_rng(0)
        args += [*rng.uniform(0.0, 2.0, 20000), *np.exp(rng.uniform(-30.0, 30.0, 20000))]
        mismatched = [x for x in map(float, args)
                      if model._gammaln(x) != float(gammaln(x))]
        assert mismatched == []


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

    # two general triples with eta > 1, whose density is 0 at the origin,
    # where quad's middle node falls
    @pytest.mark.parametrize("psi", [PSI_GAUSS, PSI_LAPLACE, (0.5, 1.0, 2.0), (1.0, 0.5, 1.5)])
    def test_integrates_to_one_d1(self, psi):
        p = kotz_from_psi(psi, 1)
        D = np.array([[1.0 / p.alpha]])
        total, _ = quad(lambda y: np.exp(kotz_log_pdf(np.array([y]), D, p)),
                        -30, 30, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_integrates_to_one_d1_eta_below_one(self):
        # the density is infinite at the origin, so each half is integrated
        # up to it, where quad takes no node
        p = kotz_from_psi((0.5, 1.0, 0.75), 1)
        D = np.array([[1.0 / p.alpha]])
        halves = [quad(lambda y: np.exp(kotz_log_pdf(np.array([y]), D, p)), a, b, limit=200)[0]
                  for a, b in ((-30, 0), (0, 30))]
        assert sum(halves) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eta, value", [(2.0, -np.inf), (0.75, np.inf)])
    def test_general_eta_at_the_origin(self, eta, value):
        # ln q = -inf at q = 0, taken without numpy's divide-by-zero warning
        p = kotz_from_psi((0.5, 1.0, eta), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kotz_log_pdf(np.zeros(2), np.eye(2), p) == value

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


class TestSingularPivots:
    def test_padded_member_judged_on_its_own_block(self):
        # members of d = 2 and 3 padded to 4 with an identity block, at
        # scales where counting the pads would move the floor (RANK_RTOL
        # times the mean diagonal) past a real pivot or a pad's pivot of 1
        rng = np.random.default_rng(0)
        blocks = []
        for d, scale, near_singular in [(2, 1e8, False), (3, 1e-15, False),
                                        (2, 1.0, True), (3, 1e8, True)]:
            A = rng.standard_normal((d, d + 2))
            if near_singular:
                A[-1] = A[0] + 1e-7 * rng.standard_normal(d + 2)
            blocks.append(scale * A @ A.T)
        D = np.tile(np.eye(4), (len(blocks), 1, 1))
        real = np.zeros((len(blocks), 4), bool)
        for i, B in enumerate(blocks):
            D[i, :len(B), :len(B)] = B
            real[i, :len(B)] = True
        L = np.linalg.cholesky(D)
        alone = [bool(model.singular_pivots(np.linalg.cholesky(B), B)) for B in blocks]
        assert alone == [False, False, True, True]
        assert model.singular_pivots(L, D, real).tolist() == alone
        assert model.singular_pivots(L, D).tolist() != alone


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

    @pytest.mark.parametrize("P", [[[1.7, 0], [0.2, 1]], [[257, 0], [0, 1]],
                                   [[np.nan, 0], [0, 1]]], ids=["fraction", "wraps", "nan"])
    def test_entries_checked_before_cast(self, P):
        # an int8 cast reads the first two as the identity, and warns on NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="^every entry must be 0 or 1$"):
                SubspaceAssignment(np.array(P), [2])

    def test_dims_and_slices(self):
        sa = SubspaceAssignment.from_dataset_dims(np.array([[2, 1], [1, 2]]))
        assert sa.n_subspaces == 2
        assert list(sa.subspace_dims) == [3, 3]
        assert list(sa.col_dims) == [3, 3]
        assert list(sa.dataset_sources(0, 0)) == [0, 1]
        assert list(sa.dataset_sources(0, 1)) == [0]
        assert list(sa.dataset_sources(1, 1)) == [1, 2]
        np.testing.assert_array_equal(sa.per_dataset_dims(), [[2, 1], [1, 2]])

    @staticmethod
    def reference_p(d_km):
        # P as the former loop in from_dataset_dims built it
        K, M = d_km.shape
        P = np.zeros((K, int(d_km.sum())), dtype=np.int8)
        off = 0
        for m in range(M):
            for k in range(K):
                P[k, off:off + d_km[k, m]] = 1
                off += d_km[k, m]
        return P

    def test_from_dataset_dims_matches_reference(self):
        rng = np.random.default_rng(0)
        seen_zero = 0
        for _ in range(300):
            K, M = rng.integers(1, 5, size=2)
            d_km = rng.integers(0, 4, size=(K, M))
            d_km[d_km.sum(axis=1) == 0, rng.integers(M)] = 1  # no empty subspace
            seen_zero += np.any(d_km == 0)
            sa = SubspaceAssignment.from_dataset_dims(d_km)
            np.testing.assert_array_equal(sa.P, self.reference_p(d_km))
            c_m = d_km.sum(axis=0)
            assert sa.col_offsets == (0, *np.cumsum(c_m).tolist())
            assert all(type(o) is int for o in sa.col_offsets)
            np.testing.assert_array_equal(sa.per_dataset_dims(), d_km)
            for k in range(K):
                for m in range(M):
                    cols = sa.sources(k)
                    local = cols[(cols >= sa.col_offsets[m])
                                 & (cols < sa.col_offsets[m + 1])] - sa.col_offsets[m]
                    np.testing.assert_array_equal(sa.dataset_sources(k, m), local)
        assert seen_zero > 100

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
