import numpy as np
import pytest

from misa import (
    BlockTransform,
    DispersionChoice,
    MultiDataset,
    ObjectiveContext,
    RankError,
    SubspaceAssignment,
    evaluate,
    j_d_term,
    random_row_orthonormal,
    relative_gradient,
)
from misa.gradcheck import fd_gradient, max_rel_error
from misa.objective import value_from_sources


def small_instance(rng, M=2, C=4, N=400):
    d_km = np.array([[1] * M, [2] * M, [1] * M])
    P = SubspaceAssignment.from_dataset_dims(d_km)
    X = MultiDataset([rng.standard_normal((C, N)) for _ in range(M)])
    W = BlockTransform([random_row_orthonormal(C, C, rng)
                        + 0.05 * rng.standard_normal((C, C)) for _ in range(M)])
    return X, P, W


class TestJDTerm:
    def test_identity(self):
        assert j_d_term(np.eye(5)) == pytest.approx(0.0)

    def test_scaled_identity(self):
        assert j_d_term(2 * np.eye(3)) == pytest.approx(3 * np.log(2))

    def test_prescribed_singular_values(self):
        rng = np.random.default_rng(0)
        U = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        W = U @ np.diag([1.0, 2.0, 3.0, 4.0]) @ V[:4]
        assert j_d_term(W) == pytest.approx(np.log(24.0), abs=1e-10)

    def test_rank_deficient(self):
        W = np.ones((3, 3))
        with pytest.raises(RankError):
            j_d_term(W)


class TestGradients:
    @pytest.mark.parametrize("mode", list(DispersionChoice))
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(7)
        for _ in range(3):
            M = int(rng.integers(1, 4))
            X, P, W = small_instance(rng, M=M)
            ctx = ObjectiveContext(X, P, dispersion=mode)
            rep = evaluate(ctx, W, with_gradient=True)
            num = fd_gradient(lambda Wt: evaluate(ctx, Wt).value, W, step=1e-5)
            assert max_rel_error(rep.gradient, num) < 1e-5

    def test_gradient_near_zero_on_white_data(self):
        # K = C = 2, M = 1, W = I, independent Laplace rows at large N.
        # The scale-controlled model pins the source variance at alpha = 2,
        # so the data must carry that variance for W = I to be the optimum.
        from misa import sample_mvlaplace
        rng = np.random.default_rng(3)
        N = 100000
        rows = np.vstack([sample_mvlaplace(1, np.eye(1), N, rng) for _ in range(2)])
        X = MultiDataset([np.sqrt(2.0) * rows])
        P = SubspaceAssignment.singletons([2])
        ctx = ObjectiveContext(X, P, dispersion=DispersionChoice.SCALE_CONTROLLED)
        rep = evaluate(ctx, BlockTransform([np.eye(2)]), with_gradient=True)
        norm = np.linalg.norm(rep.gradient.blocks[0])
        assert norm < 0.05


class TestValueProperties:
    def test_scale_invariant_under_row_scaling(self):
        rng = np.random.default_rng(1)
        X, P, W = small_instance(rng)
        ctx = ObjectiveContext(X, P, dispersion=DispersionChoice.SCALE_INVARIANT)
        v0 = evaluate(ctx, W).value
        # the J_D change from row scaling cancels against the J_C change
        Ws = BlockTransform([np.diag([2.0, -0.5, 3.0, 1.5]) @ b for b in W.blocks])
        v1 = evaluate(ctx, Ws).value
        assert abs(v1 - v0) < 1e-8

    def test_scale_controlled_changes_under_row_scaling(self):
        rng = np.random.default_rng(2)
        X, P, W = small_instance(rng)
        ctx = ObjectiveContext(X, P, dispersion=DispersionChoice.SCALE_CONTROLLED)
        v0 = evaluate(ctx, W).value
        Ws = BlockTransform([2.0 * b for b in W.blocks])
        v1 = evaluate(ctx, Ws).value
        assert abs(v1 - v0) > 1e-4

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        X, P, W = small_instance(rng, M=2)
        ctx = ObjectiveContext(X, P, dispersion=DispersionChoice.SCALE_CONTROLLED)
        v0 = evaluate(ctx, W).value
        # swap subspaces 0 and 2 (both unidimensional per dataset) in P and W
        perm_rows = [2, 1, 0]
        P2 = SubspaceAssignment(np.asarray(P.P)[perm_rows], P.col_dims)
        blocks = []
        for m, b in enumerate(W.blocks):
            order = np.concatenate([P.dataset_sources(k, m) for k in perm_rows])
            blocks.append(b[order])
        # re-evaluating with consistently permuted structure leaves value unchanged
        Xp = MultiDataset([Xb for Xb in X.blocks])
        ctx2 = ObjectiveContext(Xp, P2, dispersion=DispersionChoice.SCALE_CONTROLLED)
        v1 = evaluate(ctx2, BlockTransform(blocks)).value
        assert v1 == pytest.approx(v0, abs=1e-10)

    def test_terms_recombine(self):
        rng = np.random.default_rng(5)
        X, P, W = small_instance(rng)
        for mode in DispersionChoice:
            ctx = ObjectiveContext(X, P, dispersion=mode)
            rep = evaluate(ctx, W)
            t = rep.terms
            recombined = -t["J_D"] + 0.5 * t["J_C"] - t["f"] - t["J_F"] + t["J_E"]
            assert rep.value == pytest.approx(recombined, abs=1e-10)

    def test_value_lower_at_truth_than_perturbations(self):
        rng = np.random.default_rng(6)
        from misa import SimSpec, build_instance
        spec = SimSpec(subspace_dims=np.array([[1], [2], [1]]), dims_v=[4],
                       n_obs=3000, cond_target=2.0, rho_max=0.5, seed=9)
        data, truth, P = build_instance(spec)
        Wt = BlockTransform([np.linalg.inv(truth.A.blocks[0])])
        ctx = ObjectiveContext(data, P, dispersion=DispersionChoice.SCALE_CONTROLLED)
        v_true = evaluate(ctx, Wt).value
        wins = 0
        for _ in range(50):
            Q = random_row_orthonormal(4, 4, rng)
            v = evaluate(ctx, BlockTransform([Q @ Wt.blocks[0]])).value
            wins += v_true <= v
        assert wins >= 48  # >= 95%


class TestValueFromSources:
    @pytest.mark.parametrize("mode", list(DispersionChoice))
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_matches_evaluate(self, mode, M):
        rng = np.random.default_rng(10 + M)
        X, P, W = small_instance(rng, M=M)
        jd = sum(j_d_term(Wm) for Wm in W.blocks)
        v = value_from_sources(W.transform(X), P, mode) - jd
        assert v == pytest.approx(evaluate(ObjectiveContext(X, P, dispersion=mode), W).value,
                                  abs=1e-10)


class TestRelativeGradient:
    def test_identity_blocks(self):
        G = BlockTransform([np.arange(4.0).reshape(2, 2)])
        W = BlockTransform([np.eye(2)])
        out = relative_gradient(G, W)
        np.testing.assert_allclose(out.blocks[0], G.blocks[0])

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(9)
        W = BlockTransform([random_row_orthonormal(2, 4, rng)])
        G = BlockTransform([rng.standard_normal((2, 4))])
        out = relative_gradient(G, W)
        ref = G.blocks[0] @ W.blocks[0].T @ W.blocks[0]
        np.testing.assert_allclose(out.blocks[0], ref, atol=1e-12)

    def test_zero(self):
        W = BlockTransform([np.eye(3)])
        out = relative_gradient(BlockTransform([np.zeros((3, 3))]), W)
        assert np.all(out.blocks[0] == 0)
