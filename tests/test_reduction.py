import numpy as np
import pytest

from misa import (
    BlockTransform,
    DomainError,
    MultiDataset,
    RankError,
    ShapeError,
    SimSpec,
    build_instance,
    gpca_init,
    pre_gradient,
    pre_value,
    random_row_orthonormal,
    reduce_data,
)
from misa.gradcheck import fd_gradient, max_rel_error


class TestPreValue:
    def test_square_orthogonal_is_zero(self):
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        X = MultiDataset([rng.standard_normal((4, 50))])
        assert pre_value(BlockTransform([Q]), X) == pytest.approx(0.0, abs=1e-12)

    def test_data_inside_row_space_is_zero(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((2, 5))
        X = MultiDataset([W.T @ rng.standard_normal((2, 40))])
        assert pre_value(BlockTransform([W]), X) == pytest.approx(0.0, abs=1e-12)

    def test_hand_projection(self):
        # projector onto e1 misses half the power of {(1,1),(1,-1)}
        W = BlockTransform([np.array([[1.0, 0.0]])])
        X = MultiDataset([np.array([[1.0, 1.0], [1.0, -1.0]])])
        assert pre_value(W, X) == pytest.approx(0.5, abs=1e-12)

    def test_invariant_to_left_multiplication(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((3, 6))
        X = MultiDataset([rng.standard_normal((6, 30))])
        T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        v0 = pre_value(BlockTransform([W]), X)
        v1 = pre_value(BlockTransform([T @ W]), X)
        assert v1 == pytest.approx(v0, abs=1e-10)

    def test_zero_power_rejected(self):
        X = MultiDataset([np.zeros((3, 10))])
        with pytest.raises(DomainError):
            pre_value(BlockTransform([np.eye(3)]), X)


class TestPreGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = MultiDataset([rng.standard_normal((4, 50))])
        W = BlockTransform([rng.standard_normal((2, 4))])
        g = pre_gradient(W, X)
        num = fd_gradient(lambda Wt: pre_value(Wt, X), W, step=1e-6)
        assert max_rel_error(g, num) < 1e-5

    def test_multidataset_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X = MultiDataset([rng.standard_normal((4, 40)), rng.standard_normal((5, 40))])
        W = BlockTransform([rng.standard_normal((2, 4)), rng.standard_normal((3, 5))])
        g = pre_gradient(W, X)
        num = fd_gradient(lambda Wt: pre_value(Wt, X), W, step=1e-6)
        assert max_rel_error(g, num) < 1e-5

    def test_stationary_at_optimum(self):
        rng = np.random.default_rng(5)
        X = MultiDataset([rng.standard_normal((6, 500))])
        red = reduce_data(X, [3])
        g = pre_gradient(red.B_star, X)
        assert np.linalg.norm(g.blocks[0]) < 1e-6

    def test_zero_data_rejected(self):
        X = MultiDataset([np.zeros((3, 10))])
        with pytest.raises(DomainError):
            pre_gradient(BlockTransform([np.eye(3)]), X)


class TestReduceData:
    def test_noiseless_reduction_oracle(self):
        spec = SimSpec(subspace_dims=np.ones((5, 1), dtype=int), dims_v=[20],
                       n_obs=2000, cond_target=3.0)
        data, truth, _ = build_instance(spec, 11)
        red = reduce_data(data, [5])
        assert pre_value(red.B_star, data) < 1e-6
        # principal angles between row-space(B*) and column-space(A)
        A = truth.A.blocks[0]
        Q1 = np.linalg.qr(red.B_star.blocks[0].T)[0]
        Q2 = np.linalg.qr(A)[0]
        sv = np.clip(np.linalg.svd(Q1.T @ Q2, compute_uv=False), -1, 1)
        assert np.max(np.arccos(sv)) < 1e-3

    def test_no_reduction_near_zero(self):
        rng = np.random.default_rng(12)
        X = MultiDataset([rng.standard_normal((4, 100))])
        red = reduce_data(X, [4])
        assert pre_value(red.B_star, X) < 1e-10
        assert np.linalg.matrix_rank(red.B_star.blocks[0]) == 4

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        X = MultiDataset([rng.standard_normal((8, 300))])
        red = reduce_data(X, [3])
        red2 = reduce_data(red.reduced, [3])
        assert pre_value(red2.B_star, red.reduced) < 1e-10

    def test_target_exceeding_dim_rejected(self):
        X = MultiDataset([np.random.default_rng(0).standard_normal((3, 50))])
        with pytest.raises(DomainError):
            reduce_data(X, [4])

    def test_final_error_consistent(self):
        rng = np.random.default_rng(14)
        X = MultiDataset([rng.standard_normal((6, 200))])
        red = reduce_data(X, [2])
        # B* has orthonormal rows, so its pseudoinverse is B*^T
        B, Xm = red.B_star.blocks[0], X.blocks[0]
        assert np.array_equal(red.reduced.blocks[0], B @ Xm)
        R = B.T @ red.reduced.blocks[0] - Xm
        assert pre_value(red.B_star, X) == pytest.approx(
            np.sum(R * R) / np.sum(Xm * Xm), abs=1e-12)
        assert red.reduced.dims == [2]

    def test_zero_power_rejected(self):
        X = MultiDataset([np.zeros((3, 10))])
        with pytest.raises(DomainError):
            reduce_data(X, [2])

    def test_final_error_matches_trailing_eigenvalues(self):
        rng = np.random.default_rng(19)
        X = MultiDataset([rng.standard_normal((5, 300)) * np.arange(1, 6)[:, None],
                          rng.standard_normal((7, 300))])
        red = reduce_data(X, [2, 4])
        for Bm, Xm, C in zip(red.B_star.blocks, X.blocks, [2, 4]):
            err = pre_value(BlockTransform([Bm]), MultiDataset([Xm]))
            lam = np.linalg.eigvalsh(Xm @ Xm.T)  # ascending
            assert err == pytest.approx(lam[:-C].sum() / lam.sum(), abs=1e-12)
        for Bm, Zm, C in zip(red.B_star.blocks, red.reduced.blocks, [2, 4]):
            np.testing.assert_allclose(Bm @ Bm.T, np.eye(C), atol=1e-12)
            # rows in descending eigenvalue order
            assert np.all(np.diff(np.sum(Zm * Zm, axis=1)) < 0)

    def test_no_random_row_orthonormal_b_does_better(self):
        rng = np.random.default_rng(20)
        X = MultiDataset([rng.standard_normal((6, 200)) * np.arange(1, 7)[:, None]])
        best = pre_value(reduce_data(X, [3]).B_star, X)
        for _ in range(20):
            B = BlockTransform([random_row_orthonormal(3, 6, rng)])
            assert best <= pre_value(B, X)


class TestGpca:
    def test_single_dataset_scores_uncorrelated(self):
        rng = np.random.default_rng(15)
        X = MultiDataset([rng.standard_normal((6, 500))])
        B = gpca_init(X, 3)
        Z = B.blocks[0] @ X.blocks[0]
        C = Z @ Z.T / (500 - 1)
        np.testing.assert_allclose(C, np.eye(3), atol=1e-10)

    def test_duplicated_dataset_symmetric(self):
        rng = np.random.default_rng(16)
        Xb = rng.standard_normal((4, 300))
        X = MultiDataset([Xb, Xb])
        B = gpca_init(X, 2)
        np.testing.assert_allclose(B.blocks[0], B.blocks[1], atol=1e-10)

    def test_projection_variance_equals_top_eigensum(self):
        rng = np.random.default_rng(17)
        X = MultiDataset([rng.standard_normal((3, 400)),
                          rng.standard_normal((4, 400)),
                          rng.standard_normal((2, 400))])
        C = 4
        B = gpca_init(X, C)
        Xc = np.vstack(X.blocks)
        S = Xc @ Xc.T / (400 - 1)
        lam = np.sort(np.linalg.eigvalsh(S))[::-1]
        Bfull = np.hstack(B.blocks)
        Z = Bfull @ Xc
        # each score has unit variance
        np.testing.assert_allclose(np.diag(Z @ Z.T / (400 - 1)), 1.0, atol=1e-8)
        # row space of Bfull equals the top-C eigenvector span
        E = np.linalg.eigh(S)[1][:, ::-1][:, :C]
        Q1 = np.linalg.qr(Bfull.T)[0]
        sv = np.clip(np.linalg.svd(Q1.T @ E, compute_uv=False), -1, 1)
        assert np.max(np.arccos(sv)) < 1e-6

    def test_rank_error(self):
        rng = np.random.default_rng(18)
        low = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 100))
        X = MultiDataset([low])
        with pytest.raises(RankError):
            gpca_init(X, 3)


def one_dataset(V=2):
    return MultiDataset([np.random.default_rng(0).standard_normal((V, 50))])


@pytest.mark.parametrize("call, error, phrase", [
    pytest.param(lambda: reduce_data(one_dataset(), [1, 1]), ShapeError,
                 "need one target dimension per dataset", id="reduce-target-count"),
    pytest.param(lambda: reduce_data(one_dataset(), [0]), DomainError,
                 "target dimension must be >= 1", id="reduce-target-zero"),
    pytest.param(lambda: gpca_init(one_dataset(), 3), RankError,
                 "C exceeds total variable count", id="gpca-c-too-large"),
])
def test_input_checks(call, error, phrase):
    with pytest.raises(error, match=phrase):
        call()
