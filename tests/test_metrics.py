import itertools

import numpy as np
import pytest

from misa import (
    BlockTransform,
    DomainError,
    ShapeError,
    SubspaceAssignment,
    hungarian,
    interference_matrix,
    misi,
    misi_from_interference,
    mmse,
)


class TestMisiFromInterference:
    def test_identity_is_zero(self):
        assert misi_from_interference(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_is_zero(self):
        H = np.eye(4)[[2, 0, 3, 1]]
        assert misi_from_interference(H) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_permutation_is_zero(self):
        H = np.diag([3.0, 0.1, 7.0]) @ np.eye(3)[[1, 2, 0]]
        assert misi_from_interference(H) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_2x2(self):
        # rows: 3/2-1 + 4/3-1 = 5/6; cols: 3/2-1 + 4/3-1 = 5/6
        # 0.5/(2*1) * (5/6 + 5/6) = 5/12
        H = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert misi_from_interference(H) == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_all_ones_is_one(self):
        for K in (2, 3, 5):
            H = np.ones((K, K))
            assert misi_from_interference(H) == pytest.approx(1.0, abs=1e-12)

    def test_formula_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            K = int(rng.integers(2, 7))
            H = rng.uniform(0.1, 2.0, size=(K, K))
            rows = np.sum(H.sum(axis=1) / H.max(axis=1) - 1.0)
            cols = np.sum(H.sum(axis=0) / H.max(axis=0) - 1.0)
            ref = 0.5 / (K * (K - 1)) * (rows + cols)
            assert misi_from_interference(H) == pytest.approx(ref, abs=1e-12)

    def test_bounded_zero_one(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            H = rng.uniform(0.0, 1.0, size=(4, 4)) + 1e-6
            v = misi_from_interference(H)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_single_subspace_rejected(self):
        with pytest.raises(DomainError):
            misi_from_interference(np.ones((1, 1)))

    def test_zero_row_rejected(self):
        H = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DomainError):
            misi_from_interference(H)


class TestInterferenceMatrix:
    def test_perfect_unmixing(self):
        rng = np.random.default_rng(2)
        A = [rng.standard_normal((3, 3)) + 2 * np.eye(3) for _ in range(2)]
        W = BlockTransform([np.linalg.inv(a) for a in A])
        P = SubspaceAssignment.from_dataset_dims(np.array([[1, 1], [2, 2]]))
        H = interference_matrix(W, BlockTransform(A), P)
        assert H.shape == (2, 2)
        off = H - np.diag(np.diag(H))
        assert np.max(np.abs(off)) < 1e-10

    def test_block_sums(self):
        # single dataset, singleton subspaces: H = |W A|
        W = BlockTransform([np.array([[1.0, 0.5], [0.0, 2.0]])])
        A = BlockTransform([np.eye(2)])
        P = SubspaceAssignment.singletons([2])
        H = interference_matrix(W, A, P)
        np.testing.assert_allclose(H, np.abs(W.blocks[0]))

    def test_multidataset_accumulates(self):
        W1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        W2 = np.array([[2.0, 0.0], [1.0, 1.0]])
        W = BlockTransform([W1, W2])
        A = BlockTransform([np.eye(2), np.eye(2)])
        P = SubspaceAssignment.from_dataset_dims(np.array([[1, 1], [1, 1]]))
        H = interference_matrix(W, A, P)
        np.testing.assert_allclose(H, np.abs(W1) + np.abs(W2))


class TestMisi:
    def test_perfect_recovery_zero(self):
        rng = np.random.default_rng(3)
        A = [rng.standard_normal((4, 4)) + 2 * np.eye(4)]
        W = BlockTransform([np.linalg.inv(A[0])])
        P = SubspaceAssignment.from_dataset_dims(np.array([[2], [2]]))
        assert misi(W, BlockTransform(A), P) == pytest.approx(0.0, abs=1e-10)

    def test_subspace_permutation_zero(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        Winv = np.linalg.inv(A)
        P = SubspaceAssignment.from_dataset_dims(np.array([[2], [2]]))
        W = BlockTransform([Winv[[2, 3, 0, 1]]])
        assert misi(W, BlockTransform([A]), P) == pytest.approx(0.0, abs=1e-10)

    def test_within_subspace_mixing_zero(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        P = SubspaceAssignment.from_dataset_dims(np.array([[2], [2]]))
        R = np.eye(4)
        R[:2, :2] = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        W = BlockTransform([R @ np.linalg.inv(A)])
        assert misi(W, BlockTransform([A]), P) == pytest.approx(0.0, abs=1e-10)

    def test_random_unmixing_not_small(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        W = BlockTransform([rng.standard_normal((4, 4)) + 2 * np.eye(4)])
        P = SubspaceAssignment.singletons([4])
        assert misi(W, BlockTransform([A]), P) > 0.1


def brute_force_mmse(R):
    K = R.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(K)):
        v = 2.0 - (2.0 / K) * sum(abs(R[i, perm[i]]) for i in range(K))
        best = min(best, v)
    return best


class TestMmse:
    def test_perfect_correlation_zero(self):
        assert mmse(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_signed_permutation_zero(self):
        R = np.eye(4)[[1, 0, 3, 2]] * np.array([1.0, -1.0, 1.0, -1.0])
        assert mmse(R) == pytest.approx(0.0, abs=1e-12)

    def test_uncorrelated_is_two(self):
        assert mmse(np.zeros((3, 3))) == pytest.approx(2.0, abs=1e-12)

    def test_hand_value(self):
        # best pairing picks |.9| and |.8|: 2 - (2/2)(0.9 + 0.8) = 0.3
        R = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert mmse(R) == pytest.approx(0.3, abs=1e-12)

    def test_hand_value_cross(self):
        # pairing 0->1, 1->0 wins: 2 - (0.9 + 0.7) = 0.4
        R = np.array([[0.1, 0.9], [0.7, 0.3]])
        assert mmse(R) == pytest.approx(0.4, abs=1e-12)

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            K = int(rng.integers(2, 7))
            R = rng.uniform(-1.0, 1.0, size=(K, K))
            assert mmse(R) == pytest.approx(brute_force_mmse(R), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            R = rng.uniform(-1.0, 1.0, size=(5, 5))
            v = mmse(R)
            assert 0.0 <= v <= 2.0 + 1e-12


class TestHungarianConsistency:
    def test_mmse_uses_optimal_assignment(self):
        rng = np.random.default_rng(9)
        R = rng.uniform(-1.0, 1.0, size=(6, 6))
        perm = hungarian(1.0 - np.abs(R))
        v = 2.0 - (2.0 / 6) * sum(abs(R[i, perm[i]]) for i in range(6))
        assert mmse(R) == pytest.approx(v, abs=1e-12)


@pytest.mark.parametrize("call, phrase", [
    pytest.param(lambda: interference_matrix(BlockTransform([np.eye(2)]),
                                             BlockTransform([np.eye(2), np.eye(2)]),
                                             SubspaceAssignment.singletons([2, 2])),
                 "block count mismatch", id="interference-blocks"),
    pytest.param(lambda: misi_from_interference(np.ones((2, 3))), "H must be square",
                 id="misi-nonsquare"),
    pytest.param(lambda: mmse(np.ones((2, 3))), "R must be square", id="mmse-nonsquare"),
])
def test_input_checks(call, phrase):
    with pytest.raises(ShapeError, match=phrase):
        call()
