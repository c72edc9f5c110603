import re

import numpy as np
import pytest

from misa import (
    PSI_LAPLACE,
    BlockTransform,
    DispersionChoice,
    MultiDataset,
    ObjectiveContext,
    RankError,
    ShapeError,
    SubspaceAssignment,
    evaluate,
    random_row_orthonormal,
    relative_gradient,
)
from misa import DefinitenessError, objective
from misa.gradcheck import fd_gradient, max_rel_error, random_instance
from misa.model import RANK_RTOL, chol_pd, kotz_from_psi, logdet_from_chol
from misa.objective import _stack_terms, shares, svd_terms, value_from_sources
from scipy.linalg import cho_solve


def reference_subspace_terms(Yk, pk, N, invariant, with_gradient):
    """(J_C, J_F, J_E, dJ/dY_k or None) of one subspace, one at a time: the
    per-subspace kernel the batched one replaced, kept as its reference."""
    Z = Yk @ Yk.T
    if invariant:
        c = np.full(pk.d, np.sqrt((N - 1) * pk.alpha))
    else:
        c = np.sqrt(np.diag(Z))
        if np.any(c <= 0):
            raise DefinitenessError("zero-power source row")
    cc = np.outer(c, c)
    D = Z / cc
    L = chol_pd(D, "dispersion")
    Dinv = cho_solve((L, True), np.eye(pk.d), check_finite=False)
    U = Dinv @ Yk
    z = np.einsum("in,in->n", Yk, U)
    if np.any(z <= 0):
        raise DefinitenessError("nonpositive quadratic form")
    jc = logdet_from_chol(L)
    jf = (pk.eta - 1.0) / N * float(np.sum(np.log(z)))
    je = pk.lamb / N * float(np.sum(z ** pk.beta))
    if not with_gradient:
        return jc, jf, je, None
    Ut = U * ((2.0 * pk.beta * pk.lamb * z ** pk.beta + 2.0 * (1.0 - pk.eta)) / (N * z))
    Q = 0.5 * (Dinv - Ut @ U.T)
    QZ = 2.0 * Q / cc
    if not invariant:
        QZ[np.diag_indices(pk.d)] -= 2.0 * np.sum(Q * D, axis=1) / c ** 2
    return jc, jf, je, Ut + QZ @ Yk


def reference_evaluate(ctx, W):
    """(value, gradient blocks) from the C x N sources and a loop over
    reference_subspace_terms."""
    Y = W.transform(ctx.data)
    N = Y.shape[1]
    invariant = ctx.c is not None
    sums = np.zeros(3)
    G_Y = np.zeros_like(Y)
    for k, pk in enumerate(ctx.kotz):
        idx = ctx.assignment.sources(k)
        *terms, G_Y[idx] = reference_subspace_terms(Y[idx], pk, N, invariant, True)
        sums += terms
    jd = sum(svd_terms(Wm)[0] for Wm in W.blocks)
    value = -jd + 0.5 * sums[0] - ctx.f_constant - sums[1] + sums[2]
    off = ctx.assignment.col_offsets
    grads = [G_Y[off[m]:off[m + 1]] @ Xm.T - np.linalg.pinv(Wm).T
             for m, (Wm, Xm) in enumerate(zip(W.blocks, ctx.data.blocks))]
    return value, grads


# K x M per-dataset dims with d in {1, 1, 2, 2, 3, 5}: one stack padded to
# d = 5, with (M > 1) slots of one position in different datasets
REPEATED_DIMS = {
    1: [[1], [1], [2], [2], [3], [5]],
    2: [[1, 0], [1, 0], [1, 1], [1, 1], [2, 1], [3, 2]],
    3: [[1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1], [2, 2, 1]],
}


def repeated_dims_instance(rng, M, N=500):
    P = SubspaceAssignment.from_dataset_dims(np.array(REPEATED_DIMS[M]))
    X = MultiDataset([rng.laplace(size=(C, N)) for C in P.col_dims])
    W = BlockTransform([random_row_orthonormal(C, C, rng) + 0.1 * rng.standard_normal((C, C))
                        for C in P.col_dims])
    return X, P, W


def small_instance(rng, M=2, C=4, N=400):
    d_km = np.array([[1] * M, [2] * M, [1] * M])
    P = SubspaceAssignment.from_dataset_dims(d_km)
    X = MultiDataset([rng.standard_normal((C, N)) for _ in range(M)])
    W = BlockTransform([random_row_orthonormal(C, C, rng)
                        + 0.05 * rng.standard_normal((C, C)) for _ in range(M)])
    return X, P, W


# a Kotz triple with beta != 0.5 and eta != 1, so the np.power and J_F
# branches of the kernel run
PSI_GENERAL = (1.3, 0.7, 1.5)


class TestJDTerm:
    def test_identity(self):
        assert svd_terms(np.eye(5))[0] == pytest.approx(0.0)

    def test_scaled_identity(self):
        assert svd_terms(2 * np.eye(3))[0] == pytest.approx(3 * np.log(2))

    def test_prescribed_singular_values(self):
        rng = np.random.default_rng(0)
        U = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        W = U @ np.diag([1.0, 2.0, 3.0, 4.0]) @ V[:4]
        assert svd_terms(W)[0] == pytest.approx(np.log(24.0), abs=1e-10)

    def test_rank_deficient(self):
        W = np.ones((3, 3))
        with pytest.raises(RankError):
            svd_terms(W)


class TestGradients:
    @pytest.mark.parametrize("mode", list(DispersionChoice))
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(7)
        for _ in range(3):
            M = int(rng.integers(1, 4))
            X, P, W = small_instance(rng, M=M)
            ctx = ObjectiveContext(X, P, dispersion=mode)
            # read before the differences re-evaluate the same context
            G = evaluate(ctx, W).gradient()
            num = fd_gradient(lambda Wt: evaluate(ctx, Wt).value, W, step=1e-5)
            assert max_rel_error(G, num) < 1e-5

    @pytest.mark.parametrize("mode", list(DispersionChoice))
    def test_general_kotz_directional_derivative(self, mode):
        # Richardson-extrapolated central differences at h = 1e-3 along unit
        # directions; entrywise differences at step 1e-5 are too noisy for
        # the log term of J_F
        rng = np.random.default_rng(0)
        h = 1e-3
        for _ in range(5):
            X, P, W = random_instance(rng, M=int(rng.integers(1, 4)), N=500)
            ctx = ObjectiveContext(X, P, dispersion=mode, psi=PSI_GENERAL)
            G = evaluate(ctx, W).gradient()
            for _ in range(3):
                E = [rng.standard_normal(Wm.shape) for Wm in W.blocks]
                E = [Em / np.sqrt(sum(np.sum(e * e) for e in E)) for Em in E]

                def f(t):
                    return evaluate(ctx, BlockTransform([Wm + t * Em for Wm, Em
                                                         in zip(W.blocks, E)])).value

                exact = sum(np.sum(Gm * Em) for Gm, Em in zip(G.blocks, E))
                c1 = (f(h) - f(-h)) / (2 * h)
                c2 = (f(h / 2) - f(-h / 2)) / h
                assert abs((4 * c2 - c1) / 3 - exact) <= 1e-7 * abs(exact)

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
        rep = evaluate(ctx, BlockTransform([np.eye(2)]))
        norm = np.linalg.norm(rep.gradient().blocks[0])
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

    def test_value_lower_at_truth_than_perturbations(self):
        rng = np.random.default_rng(6)
        from misa import SimSpec, build_instance
        spec = SimSpec(subspace_dims=np.array([[1], [2], [1]]), dims_v=[4],
                       n_obs=3000, cond_target=2.0, rho_max=0.5)
        data, truth, P = build_instance(spec, 9)
        Wt = BlockTransform([np.linalg.inv(truth.A.blocks[0])])
        ctx = ObjectiveContext(data, P, dispersion=DispersionChoice.SCALE_CONTROLLED)
        v_true = evaluate(ctx, Wt).value
        wins = 0
        for _ in range(50):
            Q = random_row_orthonormal(4, 4, rng)
            v = evaluate(ctx, BlockTransform([Q @ Wt.blocks[0]])).value
            wins += v_true <= v
        assert wins >= 48  # >= 95%


class TestBatchedKernel:
    @pytest.mark.parametrize("mode", list(DispersionChoice))
    @pytest.mark.parametrize("M, psi", [
        *(pytest.param(M, PSI_LAPLACE, id=str(M)) for M in (1, 2, 3)),
        *(pytest.param(M, PSI_GENERAL, id=f"{M}-general") for M in (1, 2, 3))])
    def test_matches_reference(self, mode, M, psi):
        rng = np.random.default_rng(20 + M)
        X, P, W = repeated_dims_instance(rng, M)
        ctx = ObjectiveContext(X, P, dispersion=mode, psi=psi)
        rep = evaluate(ctx, W)
        value, grads = reference_evaluate(ctx, W)
        assert abs(rep.value - value) <= 1e-12 * abs(value)
        for G, G_ref in zip(rep.gradient().blocks, grads):
            assert np.max(np.abs(G - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))
        assert evaluate(ctx, W).value == rep.value

    def test_zero_power_row_names_its_subspace(self):
        # the first source of subspace 2 reads the all-zero last data row;
        # in the first stack subspace 0 is padded, in the second subspace 2
        rng = np.random.default_rng(3)
        for dims, col in (([[1], [2], [2]], 3), ([[1], [3], [2]], 4)):
            C = sum(d for (d,) in dims)
            Xm = rng.laplace(size=(C + 1, 300))
            Xm[C] = 0.0
            P = SubspaceAssignment.from_dataset_dims(np.array(dims))
            Wm = np.eye(C, C + 1)
            Wm[col] = np.eye(C + 1)[C]
            ctx = ObjectiveContext(MultiDataset([Xm]), P,
                                   dispersion=DispersionChoice.SCALE_CONTROLLED)
            assert ctx.S.shape[:2] == (3, max(P.subspace_dims))
            with pytest.raises(DefinitenessError, match="subspace 2: zero-power source row"):
                evaluate(ctx, BlockTransform([Wm]))

    @pytest.mark.parametrize("mode, message", [
        (DispersionChoice.SCALE_INVARIANT, "dispersion is not positive definite"),
        (DispersionChoice.SCALE_CONTROLLED, "zero-power source row")])
    def test_failed_jitter_retry_names_its_subspace(self, mode, message):
        # subspace 1 reads the all-zero data row alone: its 1 x 1 dispersion
        # is 0, so is the jitter scaled by its trace, and the retry fails.
        # The controlled dispersion divides by the row's power, so it stops
        # before the factorization
        Xm = np.random.default_rng(6).laplace(size=(3, 300))
        Xm[1] = 0.0
        ctx = ObjectiveContext(MultiDataset([Xm]), SubspaceAssignment.singletons([3]),
                               dispersion=mode)
        with pytest.raises(DefinitenessError, match=f"^subspace 1: {message}$"):
            evaluate(ctx, BlockTransform([np.eye(3)]))

    @pytest.mark.parametrize("mode", list(DispersionChoice))
    def test_singular_dispersion_in_stack_takes_jitter(self, mode):
        # the two sources of subspace 2 are the same data row, so its
        # dispersion is singular and only chol_pd's jitter factors it
        rng = np.random.default_rng(4)
        Xm = rng.laplace(size=(6, 300))
        Xm[5] = Xm[3]
        P = SubspaceAssignment.from_dataset_dims(np.array([[1], [2], [2]]))
        Wm = np.eye(5, 6)
        Wm[4] = np.eye(6)[5]
        ctx = ObjectiveContext(MultiDataset([Xm]), P, dispersion=mode)
        Y = Wm @ Xm
        D = Y[3:] @ Y[3:].T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(D / D[0, 0])
        rep = evaluate(ctx, BlockTransform([Wm]))
        value, _ = reference_evaluate(ctx, BlockTransform([Wm]))
        assert np.isfinite(rep.value)
        assert all(np.all(np.isfinite(G)) for G in rep.gradient().blocks)
        # the jittered dispersion has condition number ~1e12, so the two
        # inverses differ by rounding magnified to ~1e-5 relative
        assert rep.value == pytest.approx(value, rel=1e-4)

    @pytest.mark.parametrize("mode", list(DispersionChoice))
    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    def test_padding_changes_nothing(self, mode, singular):
        # members of d = 1, 2 and 3 beside one of d = 4: each padded member
        # gives the terms and the gradient block of the same member in a
        # stack of its own. With two equal rows, the d = 2 member is
        # singular and takes the jitter of its own block: its rows are
        # scaled away from alpha, so a scale-invariant padded block would
        # get another jitter and J_C would move by O(1). Its dispersion then
        # has condition number ~1e12, which magnifies the rounding of U S^T
        # in its gradient to ~1e-6 relative
        rng = np.random.default_rng(5)
        N = 400
        members = [3.0 * rng.laplace(size=(d, N)) for d in (1, 2, 3, 4)]
        if singular:
            members[1][1] = members[1][0]
        dims = np.array([len(Y) for Y in members])

        def terms(Ys, real):
            n, d = len(Ys), max(len(Y) for Y in Ys)
            S = np.zeros((n, d, N))
            for i, Y in enumerate(Ys):
                S[i, :len(Y)] = Y
            Z = S @ S.transpose(0, 2, 1)
            pads = ~real if real is not None else np.zeros((n, d), bool)
            Z[:, np.arange(d), np.arange(d)] += pads
            c = None
            if mode is DispersionChoice.SCALE_INVARIANT:
                a = np.array([kotz_from_psi(PSI_GENERAL, len(Y)).alpha for Y in Ys])
                c = np.where(pads, 1.0, np.sqrt((N - 1) * a)[:, None])
            U = np.empty_like(S)
            jc, jf, je, qz = _stack_terms(S, Z, kotz_from_psi(PSI_GENERAL, d), c, real, True,
                                          U, np.empty((n, N)), np.empty((n, N)))
            QZ = qz()
            return jc, jf, je, U + QZ @ S

        padded = terms(members, np.arange(4) < dims[:, None])
        assert np.all(padded[3][np.arange(4) >= dims[:, None]] == 0)
        for i, Y in enumerate(members):
            alone = terms([Y], None)
            for t, t_alone in zip(padded[:3], alone[:3]):
                assert abs(t[i] - t_alone[0]) <= 1e-14 * abs(t_alone[0])
            G, G_alone = padded[3][i, :len(Y)], alone[3][0]
            rtol = 1e-5 if singular and i == 1 else 1e-14
            assert np.max(np.abs(G - G_alone)) <= rtol * np.max(np.abs(G_alone))

    def test_padded_member_takes_its_own_singularity_floor(self):
        # D = s [[1, r], [r, 1]] with 1 - r^2 = 0.75 RANK_RTOL: its squared
        # pivot is within RANK_RTOL of its own mean diagonal s, so alone it
        # takes the jitter, but a floor that counted two pads of 1 would be
        # about s / 2 and miss it. With c = 1, D = Z
        rng = np.random.default_rng(6)
        N, s = 50, 1e4
        r = np.sqrt(1.0 - 0.75 * RANK_RTOL)
        Z1 = s * np.array([[1.0, r], [r, 1.0]])
        S = np.zeros((2, 4, N))
        S[0, :2], S[1] = rng.standard_normal((2, N)), rng.standard_normal((4, N))
        Z = np.stack([np.eye(4), S[1] @ S[1].T])
        Z[0, :2, :2] = Z1
        real = np.arange(4) < np.array([[2], [4]])

        def j_c(S, Z, real):
            n, d, _ = S.shape
            return _stack_terms(S, Z, kotz_from_psi(PSI_LAPLACE, d), np.ones((n, d)), real, True,
                                np.empty_like(S), np.empty((n, N)), np.empty((n, N)))[0]

        alone = j_c(S[:1, :2], Z1[None], None)[0]
        jitter = 1e-12 * s
        assert alone == pytest.approx(np.log(np.linalg.det(Z1 + jitter * np.eye(2))), rel=1e-6)
        assert j_c(S, Z, real)[0] == pytest.approx(alone, rel=1e-12)

    @pytest.mark.parametrize("mode", list(DispersionChoice))
    def test_ill_conditioned_data_matches_reference(self, mode):
        # cond(A_m) = 1e6 and W near A^-1: the sources are well conditioned,
        # the data X_m = A_m Y_m are not. A Gram matrix X X^T in place of the
        # R factor squares cond(X) and misses this bound
        from misa.simgen import gen_mixing
        rng = np.random.default_rng(12)
        P = SubspaceAssignment.from_dataset_dims(np.array(REPEATED_DIMS[2]))
        N = 2000
        A = [gen_mixing(C, C, 1e6, rng) for C in P.col_dims]
        X = MultiDataset([Am @ rng.laplace(size=(Am.shape[1], N)) for Am in A])
        W = BlockTransform([(np.eye(C) + 0.01 * rng.standard_normal((C, C))) @ np.linalg.inv(Am)
                            for C, Am in zip(P.col_dims, A)])
        ctx = ObjectiveContext(X, P, dispersion=mode)
        rep = evaluate(ctx, W)
        value, grads = reference_evaluate(ctx, W)
        assert abs(rep.value - value) <= 1e-10 * abs(value)
        for G, G_ref in zip(rep.gradient().blocks, grads):
            assert np.max(np.abs(G - G_ref)) <= 1e-10 * np.max(np.abs(G_ref))


class TestShapeContract:
    """The context fixes the shape (C_m, V_m) of each W_m once, rejecting
    C_m > V_m, and evaluate checks a W against those shapes."""

    @pytest.mark.parametrize("V_1, given, message", [
        pytest.param(4, [(4, 4)], "W has block shapes [(4, 4)], the problem needs "
                     "[(4, 4), (4, 4)]", id="block-count"),
        pytest.param(4, [(4, 4), (4, 5)], "W has block shapes [(4, 4), (4, 5)], the problem "
                     "needs [(4, 4), (4, 4)]", id="columns"),
        pytest.param(4, [(3, 4), (4, 4)], "W has block shapes [(3, 4), (4, 4)], the problem "
                     "needs [(4, 4), (4, 4)]", id="rows"),
        pytest.param(3, None, "dataset 1: needs V_m >= C_m, got C_m=4 V_m=3",
                     id="sources-exceed-rows")])
    def test_shape_errors(self, V_1, given, message):
        rng = np.random.default_rng(10)
        X = MultiDataset([rng.laplace(size=(4, 200)), rng.laplace(size=(V_1, 200))])
        P = SubspaceAssignment.from_dataset_dims(np.array([[1, 1], [2, 2], [1, 1]]))
        if given is None:
            with pytest.raises(ShapeError, match=re.escape(message)):
                ObjectiveContext(X, P)
            return
        ctx = ObjectiveContext(X, P)
        with pytest.raises(ShapeError, match=re.escape(message)):
            evaluate(ctx, BlockTransform([np.eye(*shape) for shape in given]))
        # the context takes a W of the shapes it names
        assert np.isfinite(evaluate(ctx, BlockTransform([np.eye(4), np.eye(4)])).value)


class TestBuffers:
    """The N-sized scratch an ObjectiveContext holds for its solve."""

    def test_no_scratch_beyond_sources_and_gradient(self):
        # one (K, d_max, N) stack for subspaces of dims 1-5: the sources S
        # and one array that holds D^-1 S and then dJ/dS at fixed
        # dispersion; the gradient needs no third, and the pad rows of S
        # stay 0
        rng = np.random.default_rng(8)
        X, P, W = repeated_dims_instance(rng, 3)
        N = X.n_obs
        ctx = ObjectiveContext(X, P)
        big = [a for a in vars(ctx).values()
               if isinstance(a, np.ndarray) and a.ndim == 3 and a.shape[-1] == N]
        assert [a.shape for a in big] == [(P.n_subspaces, 5, N)] * 2
        evaluate(ctx, W).gradient()
        pads = np.arange(5) >= P.subspace_dims[:, None]
        assert pads.sum() == 5 * P.n_subspaces - P.n_sources
        assert np.all(ctx.S[pads] == 0)

    def test_reuse_matches_fresh_and_does_not_alias(self):
        # each gradient is read right away, before the next evaluate
        rng = np.random.default_rng(8)
        X, P, W1 = repeated_dims_instance(rng, 3)
        _, _, W2 = repeated_dims_instance(rng, 3)
        ctx = ObjectiveContext(X, P)
        reports = [(rep.value, rep.gradient()) for rep in
                   (evaluate(ctx, W) for W in (W1, W2, W1))]
        first = [G.copy() for G in reports[0][1].blocks]
        for (value, G), W in zip(reports, (W1, W2, W1)):
            fresh = evaluate(ObjectiveContext(X, P), W)
            assert value == fresh.value
            for Gm, G_fresh in zip(G.blocks, fresh.gradient().blocks):
                assert np.array_equal(Gm, G_fresh)
        for G, G0 in zip(reports[0][1].blocks, first):
            assert np.array_equal(G, G0)

    @pytest.mark.parametrize("mode", list(DispersionChoice))
    def test_continuation_reads_only_its_own_evaluate(self, mode):
        rng = np.random.default_rng(9)
        X, P, W1 = repeated_dims_instance(rng, 2)
        _, _, W2 = repeated_dims_instance(rng, 2)
        ctx = ObjectiveContext(X, P, dispersion=mode)
        rep = evaluate(ctx, W1)
        evaluate(ctx, W2)
        with pytest.raises(RuntimeError, match="stale gradient"):
            rep.gradient()
        # an evaluate that raises has overwritten part of the scratch too
        rep = evaluate(ctx, W1)
        with pytest.raises(RankError):
            evaluate(ctx, BlockTransform([np.zeros_like(Wm) for Wm in W1.blocks]))
        with pytest.raises(RuntimeError, match="stale gradient"):
            rep.gradient()
        # read right away, it is the reference gradient, and a later read
        # returns the gradient already read
        rep = evaluate(ctx, W1)
        G = rep.gradient()
        _, grads = reference_evaluate(ctx, W1)
        for Gm, G_ref in zip(G.blocks, grads):
            assert np.max(np.abs(Gm - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))
        evaluate(ctx, W2)
        assert rep.gradient() is G


class TestValueFromSources:
    # the scorers are scale-invariant only
    @pytest.mark.parametrize("mode", [DispersionChoice.SCALE_INVARIANT])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_matches_evaluate(self, mode, M):
        rng = np.random.default_rng(10 + M)
        X, P, W = small_instance(rng, M=M)
        jd = sum(svd_terms(Wm)[0] for Wm in W.blocks)
        v = value_from_sources(W.transform(X), P) - jd
        assert v == pytest.approx(evaluate(ObjectiveContext(X, P, dispersion=mode), W).value,
                                  abs=1e-10)


class TestShares:
    @pytest.mark.parametrize("rows", [(2,), (0, 3), (1, 2, 4), (4, 1, 2)])
    def test_matches_reference_once_per_tuple(self, monkeypatch, rows):
        rng = np.random.default_rng(14)
        N = 400
        Y = rng.standard_normal((5, 5)) @ rng.laplace(size=(5, N))
        pk = kotz_from_psi(PSI_LAPLACE, len(rows))
        jc, jf, je, _ = reference_subspace_terms(Y[list(rows)], pk, N, True, False)
        calls = []

        def counting(*args):
            calls.append(1)
            return _stack_terms(*args)

        monkeypatch.setattr(objective, "_stack_terms", counting)
        share = shares(Y)
        expected = 0.5 * jc - jf + je - pk.log_norm_const
        assert share(rows) == pytest.approx(expected, rel=1e-12)
        share(tuple(list(rows)))  # an equal tuple is served from the cache
        assert len(calls) == 1


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
