import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from misa import (
    BlockTransform,
    OptimOptions,
    ShapeError,
    SimSpec,
    SubspaceAssignment,
    build_instance,
    gp,
    hungarian,
    match,
    misa_gp_mdm,
    misi,
    random_row_orthonormal,
    run_misa,
    subspace_perm,
)
from misa import combinatorics
from misa.combinatorics import START_TOL_FUN, TIE_EPS
from misa.objective import ObjectiveContext, _stack_terms, evaluate, value_from_sources
from misa.optimizer import Solution, Status

OPTS = OptimOptions(tol_fun=1e-8)


def fixed_w_cost(data, P, W):
    """The scale-invariant objective at W less J_D: J_D is the same for every
    assignment at one W and for row permutations of W, so this ranks the
    candidates of gp and subspace_perm as the full objective does."""
    return value_from_sources(W.transform(data), P)


def brute_force_assignment(cost):
    n = cost.shape[0]
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best - 1e-12:
            best, best_perm = total, perm
    return best, best_perm


class TestHungarian:
    def test_identity_complement(self):
        cost = 1.0 - np.eye(4)
        np.testing.assert_array_equal(hungarian(cost), np.arange(4))

    def test_worked_example(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        perm = hungarian(cost)
        np.testing.assert_array_equal(perm, [1, 0, 2])
        assert sum(cost[i, perm[i]] for i in range(3)) == 5.0

    def test_constant_matrix_lexicographic(self):
        np.testing.assert_array_equal(hungarian(np.full((5, 5), 3.0)), np.arange(5))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            hungarian(np.zeros((2, 3)))

    def test_matches_exhaustive_1000_random(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = 2 + trial % 6  # K in 2..7
            cost = rng.integers(-20, 20, size=(n, n)).astype(float)
            perm = hungarian(cost)
            total = sum(cost[i, perm[i]] for i in range(n))
            best, _ = brute_force_assignment(cost)
            assert total == pytest.approx(best)

    @pytest.mark.parametrize("kind", ["float", "small-int", "constant"])
    def test_equals_scipy(self, kind):
        # the port returns scipy's permutation itself, ties included
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(["float", "small-int", "constant"].index(kind))
        for n in range(1, 16):
            for _ in range(40):
                if kind == "float":
                    cost = rng.standard_normal((n, n))
                elif kind == "small-int":
                    cost = rng.integers(-3, 4, size=(n, n)).astype(float)
                else:
                    cost = np.full((n, n), float(rng.integers(-5, 6)))
                perm = hungarian(cost)
                assert perm.dtype == np.intp
                np.testing.assert_array_equal(perm, linear_sum_assignment(cost)[1])


class TestMatch:
    def test_identical_is_identity(self):
        P = SubspaceAssignment.from_dataset_dims(np.array([[2], [1], [3]]))
        np.testing.assert_array_equal(match(P, P), np.arange(6))

    def test_label_permutation_is_identity(self):
        # matching is by source-set overlap, so relabeling subspaces while
        # keeping the same source sets changes nothing
        Pu = SubspaceAssignment.from_dataset_dims(np.array([[2], [2]]))
        Pe = SubspaceAssignment(np.asarray(Pu.P)[[1, 0]], Pu.col_dims)
        np.testing.assert_array_equal(match(Pe, Pu), [0, 1, 2, 3])

    def test_size_mismatch_reorders(self):
        # prescribed sizes (1, 2); estimate found (2, 1) with overlaps that
        # force est subspace 1 = {2} onto prescribed subspace 0
        Pu = SubspaceAssignment.from_dataset_dims(np.array([[1], [2]]))
        Pe = SubspaceAssignment(np.array([[1, 1, 0], [0, 0, 1]]), [3])
        np.testing.assert_array_equal(match(Pe, Pu), [2, 0, 1])

    def test_partial_overlap_exhaustive_k3(self):
        # one source misassigned; check against exhaustion over bijections
        Pu = SubspaceAssignment.from_dataset_dims(np.array([[2], [2], [2]]))
        Pe_mat = np.array([
            [1, 1, 1, 0, 0, 0],   # grabs source 2 too
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
        ])
        Pe = SubspaceAssignment(Pe_mat, [6])
        order = match(Pe, Pu)
        # the best bijection maps est0->ud0 (overlap 2), est1->ud1, est2->ud2
        assert list(order[:3]) == [0, 1, 2]
        assert list(order[3:4]) == [3]
        assert list(order[4:]) == [4, 5]

    def test_source_count_mismatch(self):
        P1 = SubspaceAssignment.singletons([3])
        P2 = SubspaceAssignment.singletons([4])
        with pytest.raises(ShapeError):
            match(P1, P2)

    def test_matches_reference_random(self):
        # random estimates against random prescribed blocks, whose rows may
        # be empty; K_est and K_ud differ in most trials
        rng = np.random.default_rng(11)

        def one_hot(K, C):
            labels = rng.integers(0, K, C)
            return (labels == np.arange(K)[:, None]).astype(int)

        more = fewer = empty = 0
        for _ in range(400):
            C = int(rng.integers(1, 9))
            Pe = one_hot(int(rng.integers(1, C + 1)), C)
            Pe = Pe[Pe.any(axis=1)]
            Pu = one_hot(int(rng.integers(1, C + 3)), C)
            np.testing.assert_array_equal(match(Pe, Pu), reference_match(Pe, Pu))
            more += len(Pe) > len(Pu)  # some estimated subspaces go unmatched
            fewer += len(Pe) < len(Pu)
            empty += not Pu.any(axis=1).all()
        assert min(more, fewer, empty) >= 20


def reference_match(Pe, Pu):
    """The earlier match, kept as the reference: the order is built by
    listing each matched estimated subspace's sources in prescribed-subspace
    order, then every source not listed."""
    C = Pe.shape[1]
    Ke, Ku = Pe.shape[0], Pu.shape[0]
    n = max(Ke, Ku)
    cost = np.zeros((n, n))
    de = Pe.sum(axis=1)
    du = Pu.sum(axis=1)
    cost[:Ke, :Ku] = np.abs(de[:, None] - du[None, :]) * C - Pe @ Pu.T
    perm = hungarian(cost)
    est_for_ud = {int(perm[i]): i for i in range(Ke) if perm[i] < Ku}
    order = []
    for j in range(Ku):
        i = est_for_ud.get(j)
        if i is not None:
            order.extend(int(c) for c in np.flatnonzero(Pe[i]))
    used = set(order)
    order.extend(c for c in range(C) if c not in used)
    return np.asarray(order, dtype=int)


def isa_instance(seed=9, n_obs=4000):
    spec = SimSpec(subspace_dims=np.array([[2], [2]]), dims_v=[4], n_obs=n_obs,
                   cond_target=2.0, rho_max=0.6)
    return build_instance(spec, seed)


class TestGp:
    def test_truth_is_fixed_point(self):
        data, truth, P = isa_instance()
        W = BlockTransform([np.linalg.inv(truth.A.blocks[0])])
        out = gp(data, P, W)
        assert partition(out) == partition(P)

    def test_recovers_partition_from_singletons(self):
        data, truth, P = isa_instance()
        W = BlockTransform([np.linalg.inv(truth.A.blocks[0])])
        P0 = SubspaceAssignment.singletons([4])
        out = gp(data, P0, W)
        assert partition(out) == {frozenset({0, 1}), frozenset({2, 3})}
        # brute force over all 15 partitions of 4 sources confirms the optimum
        best = min(all_partitions(4),
                   key=lambda q: fixed_w_cost(data, from_partition(q), W))
        assert partition(out) == frozenset(frozenset(g) for g in best)

    def test_independent_sources_stay_singletons(self):
        spec = SimSpec(subspace_dims=np.ones((4, 1), dtype=int), dims_v=[4],
                       n_obs=4000, cond_target=2.0)
        data, truth, P = build_instance(spec, 5)
        W = BlockTransform([np.linalg.inv(truth.A.blocks[0])])
        out = gp(data, P, W)
        assert partition(out) == partition(P)

    def test_never_increases_cost(self):
        rng = np.random.default_rng(3)
        data, truth, P = isa_instance()
        for _ in range(3):
            W = BlockTransform([random_row_orthonormal(4, 4, rng)])
            P0 = SubspaceAssignment.singletons([4])
            out = gp(data, P0, W)
            assert fixed_w_cost(data, out, W) <= fixed_w_cost(data, P0, W) + TIE_EPS

    def test_output_well_formed(self):
        rng = np.random.default_rng(4)
        data, _, _ = isa_instance()
        W = BlockTransform([random_row_orthonormal(4, 4, rng)])
        out = gp(data, SubspaceAssignment.singletons([4]), W)
        assert np.all(np.asarray(out.P).sum(axis=0) == 1)
        assert np.all(np.asarray(out.P).sum(axis=1) >= 1)


def reference_gp(data, P, W):
    """The earlier gp, kept as the reference: every candidate is a full 0/1
    matrix (the group moved to each existing row or to a fresh one) scored
    over all subspaces; the argmin wins unless within TIE_EPS of the
    incumbent."""
    C = P.n_sources
    Y = W.transform(data)

    def score(Pmat):
        sa = SubspaceAssignment(Pmat[Pmat.sum(axis=1) > 0], P.col_dims)
        return value_from_sources(Y, sa)

    Pcur = np.asarray(P.P).copy()
    for c in range(C):
        K = Pcur.shape[0]
        kurrent = int(np.flatnonzero(Pcur[:, c])[0])
        group = np.flatnonzero(Pcur[kurrent])
        base = Pcur.copy()
        base[:, group] = 0
        vals = np.empty(K + 1)
        for k in range(K + 1):
            cand = np.vstack([base, np.zeros((1, C), dtype=base.dtype)]) if k == K else base.copy()
            cand[k, group] = 1
            vals[k] = score(cand)
        k_best = int(np.argmin(vals))
        if k_best != kurrent and abs(vals[k_best] - vals[kurrent]) < TIE_EPS:
            k_best = kurrent
        if k_best == K:
            Pcur = np.vstack([base, np.zeros((1, C), dtype=base.dtype)])
            Pcur[K, group] = 1
        else:
            Pcur = base
            Pcur[k_best, group] = 1
        Pcur = Pcur[Pcur.sum(axis=1) > 0]
    return SubspaceAssignment(Pcur, P.col_dims)


class TestGpMatchesReference:
    """gp scores a merge by the one subspace it creates; it must pick the
    same partition, in the same row order, as full rescoring."""

    SHAPES = [[[1], [2], [3]], [[2], [1], [3], [2]], [[3], [1], [1], [2]]]

    def cases(self):
        for seed, dims in enumerate(self.SHAPES):
            spec = SimSpec(subspace_dims=np.array(dims), dims_v=[int(np.sum(dims))],
                           n_obs=2000, cond_target=2.0, rho_max=0.5)
            data, truth, P = build_instance(spec, seed)
            C = P.n_sources
            P0 = SubspaceAssignment.singletons([C])
            rng = np.random.default_rng(seed)
            W_true = BlockTransform([np.linalg.inv(truth.A.blocks[0])])
            W_near = BlockTransform([(np.eye(C) + 0.1 * rng.standard_normal((C, C)))
                                     @ W_true.blocks[0]])
            W_rand = BlockTransform([random_row_orthonormal(C, C, rng)])
            W0 = BlockTransform([random_row_orthonormal(C, C, rng)])
            W_fit = run_misa(data, P0, W0, opts=OPTS).W_final
            yield data, P0, W_rand
            yield data, P, W_rand
            yield data, P0, W_true
            yield data, P, W_true
            yield data, P0, W_near
            yield data, P0, W_fit

    def test_same_partition_as_full_rescoring(self):
        n_moved = 0
        for data, P, W in self.cases():
            out = gp(data, P, W)
            np.testing.assert_array_equal(out.P, reference_gp(data, P, W).P)
            n_moved += out.n_subspaces != P.n_subspaces
        assert n_moved >= 3  # the cases exercise merges, not only fixed points


def partition(P):
    return frozenset(frozenset(int(c) for c in P.sources(k))
                     for k in range(P.n_subspaces))


def all_partitions(n):
    if n == 1:
        return [[[0]]]
    out = []
    for sub in all_partitions(n - 1):
        for i in range(len(sub)):
            out.append([g + [n - 1] if j == i else g for j, g in enumerate(sub)])
        out.append(sub + [[n - 1]])
    return out


def from_partition(groups):
    C = sum(len(g) for g in groups)
    P = np.zeros((len(groups), C), dtype=int)
    for k, g in enumerate(groups):
        P[k, list(g)] = 1
    return SubspaceAssignment(P, [C])


class TestDrivers:
    def test_mdm_t0_equals_plain(self):
        # one dataset: T = 0 is the plain solve at the start tolerance
        data, truth, P = isa_instance()
        rng = np.random.default_rng(0)
        W0 = BlockTransform([random_row_orthonormal(4, 4, rng)])
        sol_plain = run_misa(data, P, W0, opts=replace(OPTS, tol_fun=START_TOL_FUN))
        sol_t0 = misa_gp_mdm(data, P, W0, T=0, opts=OPTS)
        np.testing.assert_array_equal(sol_t0.W_final.blocks[0],
                                      sol_plain.W_final.blocks[0])

    def test_mdm_near_or_below_plain(self):
        # the first candidate stops at START_TOL_FUN, so the driver may end a
        # little above a plain solve at 1e-8, but escapes where plain stalls
        data, truth, P = isa_instance()
        for seed in range(10):
            W0 = BlockTransform([random_row_orthonormal(4, 4, np.random.default_rng(seed))])
            sol_plain = run_misa(data, P, W0, opts=OPTS)
            sol_gp = misa_gp_mdm(data, P, W0, T=2, opts=OPTS)
            f = sol_plain.objective_value
            assert sol_gp.objective_value <= f + START_TOL_FUN * (1.0 + abs(f))
            if sol_plain.status is Status.LINE_SEARCH_FAIL:  # seeds 2, 4, 5, 6, 9
                assert sol_gp.objective_value < f - 0.05
            assert misi(sol_gp.W_final, truth.A, P) < 0.1

    @pytest.mark.parametrize("opts, start, joint", [
        (OPTS, START_TOL_FUN, 1e-8),
        (OptimOptions(), 1e-4, 1e-4),
        (None, 1e-4, 1e-4),
    ], ids=["tight", "default", "none"])
    def test_mdm_tol_fun_per_solve(self, monkeypatch, opts, start, joint):
        # the first solve and the singleton refinements stop at
        # max(tol_fun, START_TOL_FUN); the joint solves keep tol_fun
        spec = SimSpec(subspace_dims=np.array([[1, 1], [2, 2]]), dims_v=[3, 3],
                       n_obs=2000, cond_target=2.0, rho_max=0.6)
        data, truth, P = build_instance(spec, 5)
        W0 = BlockTransform([random_row_orthonormal(3, 3, np.random.default_rng(2))
                             for _ in range(2)])
        seen = []

        def recording(data_, P_, W_, opts=None, **kw):
            seen.append((P_ is P, opts))
            return run_misa(data_, P_, W_, opts=opts, **kw)

        monkeypatch.setattr(combinatorics, "run_misa", recording)
        misa_gp_mdm(data, P, W0, T=2, opts=opts)
        base = opts or OptimOptions()
        assert seen[0] == (True, replace(base, tol_fun=start))
        singletons = [o for joint_, o in seen[1:] if not joint_]
        joints = [o for joint_, o in seen[1:] if joint_]
        assert len(singletons) == 2 * len(joints) >= 2  # M = 2 per round
        assert all(o == replace(base, tol_fun=start) for o in singletons)
        assert all(o == replace(base, tol_fun=joint) for o in joints)
        assert OPTS.tol_fun == 1e-8  # the caller's options are not changed

    def test_mdm_returns_best_candidate_solve(self, monkeypatch):
        spec = SimSpec(subspace_dims=np.array([[1, 1], [2, 2]]), dims_v=[3, 3],
                       n_obs=2000, cond_target=2.0, rho_max=0.6)
        data, truth, P = build_instance(spec, 5)
        rng = np.random.default_rng(2)
        W0 = BlockTransform([random_row_orthonormal(3, 3, rng) for _ in range(2)])
        candidates = []

        def recording(data_, P_, W_, **kw):
            sol = run_misa(data_, P_, W_, **kw)
            if P_ is P:  # the first solve and each round's joint solve
                candidates.append(sol)
            return sol

        monkeypatch.setattr(combinatorics, "run_misa", recording)
        sol = misa_gp_mdm(data, P, W0, T=2, opts=OPTS)
        assert len(candidates) >= 2
        best = candidates[0]
        for c in candidates[1:]:
            if (c.objective_value < best.objective_value
                    and not combinatorics._tied(c.objective_value, best.objective_value)):
                best = c
        # the picked solve, reported with the value it minimized
        assert sol.W_final is best.W_final
        assert (sol.objective_value, sol.status) == (best.objective_value, best.status)
        assert sol.objective_value == evaluate(ObjectiveContext(data, P), sol.W_final).value

    def test_mdm_counts_every_solve(self, monkeypatch):
        # iterations and evaluations cover the whole driver: the first solve,
        # every singleton refinement and every joint solve
        spec = SimSpec(subspace_dims=np.array([[1, 1], [2, 2]]), dims_v=[3, 3],
                       n_obs=2000, cond_target=2.0, rho_max=0.6)
        data, truth, P = build_instance(spec, 5)
        W0 = BlockTransform([random_row_orthonormal(3, 3, np.random.default_rng(2))
                             for _ in range(2)])
        solves = []

        def recording(*args, **kw):
            solves.append(run_misa(*args, **kw))
            return solves[-1]

        monkeypatch.setattr(combinatorics, "run_misa", recording)
        sol = misa_gp_mdm(data, P, W0, T=2, opts=OPTS)
        assert len(solves) >= 4  # the first solve and one round over M = 2
        assert sol.n_iters == sum(s.n_iters for s in solves)
        assert sol.n_evals == sum(s.n_evals for s in solves)

    @staticmethod
    def scripted(monkeypatch, P_ud, values):
        """Replace run_misa by a stub that returns W0 unchanged after one
        iteration and two evaluations; the joint solves over P_ud report the
        given values in turn, so each script's values name its candidates."""
        vals = iter(values)

        def fake(data, P, W0, **kw):
            if P is not P_ud:
                return Solution(W_final=W0, objective_value=0.0,
                                status=Status.CONVERGED_FUN, n_iters=1, n_evals=2)
            return Solution(W_final=W0, objective_value=next(vals),
                            status=Status.CONVERGED_FUN, n_iters=1, n_evals=2)

        monkeypatch.setattr(combinatorics, "run_misa", fake)
        return vals

    def test_mdm_stops_on_relative_tie(self, monkeypatch):
        # rounds 1 and 2 differ by 1e-6, far above TIE_EPS in absolute terms
        # but a tie relative to 1e3: the loop stops before round 3
        data, truth, P = isa_instance()
        W0 = BlockTransform([random_row_orthonormal(4, 4, np.random.default_rng(0))])
        vals = self.scripted(monkeypatch, P, [1e3 + 1.0, 1e3, 1e3 + 1e-6, 0.0])
        sol = misa_gp_mdm(data, P, W0, T=3, opts=OPTS)
        assert sol.objective_value == 1e3
        assert next(vals) == 0.0
        # the first solve, then a singleton and a joint solve in each of 2 rounds
        assert (sol.n_iters, sol.n_evals) == (5, 10)

    def test_mdm_keeps_earliest_of_tied_candidates(self, monkeypatch):
        data, truth, P = isa_instance()
        W0 = BlockTransform([random_row_orthonormal(4, 4, np.random.default_rng(0))])
        # 9.0 + 4e-8 ties 9.0 (within TIE_EPS relative); 8.9 beats both
        self.scripted(monkeypatch, P, [9.0 + 4e-8, 9.0])
        sol = misa_gp_mdm(data, P, W0, T=1, opts=OPTS)
        assert (sol.objective_value, sol.n_iters) == (9.0 + 4e-8, 3)
        self.scripted(monkeypatch, P, [9.0 + 4e-8, 9.0, 8.9])
        sol = misa_gp_mdm(data, P, W0, T=2, opts=OPTS)
        assert (sol.objective_value, sol.n_iters) == (8.9, 5)


class TestSubspacePerm:
    def test_single_dataset_groups_skipped(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return _stack_terms(*args)

        monkeypatch.setattr(combinatorics.obj, "_stack_terms", counting)
        # M = 1, equal sizes: every swap is a relabelling, so W comes back as is
        data, truth, P = isa_instance()
        rng = np.random.default_rng(4)
        W = BlockTransform([random_row_orthonormal(4, 4, rng)])
        assert subspace_perm(data, P, W) is W
        assert calls == []
        # M = 2: subspace 2 spans both datasets, 0 and 1 live in dataset 0
        # only; all three share size 1 there, so the group is still searched
        spec = SimSpec(subspace_dims=np.array([[1, 0], [1, 0], [1, 1]]),
                       dims_v=[3, 1], n_obs=2000, cond_target=[2.0, 1.0], rho_max=0.7)
        data, truth, P = build_instance(spec, 6)
        W = [np.linalg.inv(A) for A in truth.A.blocks]
        W_sw = BlockTransform([W[0][[2, 1, 0]], W[1]])  # swap subspaces 0 and 2
        out = subspace_perm(data, P, W_sw)
        # all 3! orders are scored, each subspace's rows once: subspaces 0
        # and 1 take row 0, 1 or 2, subspace 2 that row and row 3
        assert len(calls) == 6
        assert fixed_w_cost(data, P, out) < fixed_w_cost(data, P, W_sw) - TIE_EPS

    def test_distinct_sizes_identity(self):
        spec = SimSpec(subspace_dims=np.array([[1, 1], [2, 2]]), dims_v=[3, 3],
                       n_obs=1000, cond_target=2.0)
        data, truth, P = build_instance(spec, 2)
        W = BlockTransform([np.linalg.inv(A) for A in truth.A.blocks])
        out = subspace_perm(data, P, W)
        for a, b in zip(out.blocks, W.blocks):
            np.testing.assert_array_equal(a, b)

    def test_detects_swap(self):
        spec = SimSpec(subspace_dims=np.array([[1, 1], [1, 1]]), dims_v=[2, 2],
                       n_obs=4000, cond_target=2.0, rho_max=0.7)
        data, truth, P = build_instance(spec, 3)
        W = [np.linalg.inv(A) for A in truth.A.blocks]
        W_sw = [W[0][[1, 0]], W[1]]  # swap the two subspaces in dataset 0 only
        c_bad = fixed_w_cost(data, P, BlockTransform(W_sw))
        out = subspace_perm(data, P, BlockTransform(W_sw))
        c_fixed = fixed_w_cost(data, P, out)
        assert c_fixed < c_bad - TIE_EPS
        # the optimum is label-degenerate: either un-swap dataset 0 or swap
        # dataset 1 to match; both align the subspaces across datasets
        c_ref = fixed_w_cost(data, P, BlockTransform(W))
        assert c_fixed == pytest.approx(c_ref, abs=1e-8)

    def test_exhaustive_greedy_agree(self, monkeypatch):
        for seed in range(5):
            spec = SimSpec(subspace_dims=np.array([[1, 1], [1, 1], [1, 1]]),
                           dims_v=[3, 3], n_obs=2000, cond_target=2.0, rho_max=0.7)
            data, truth, P = build_instance(spec, seed)
            rng = np.random.default_rng(seed)
            W = BlockTransform([np.linalg.inv(A)[rng.permutation(3)]
                                for A in truth.A.blocks])
            out_e = subspace_perm(data, P, W)
            with monkeypatch.context() as mp:
                mp.setattr(combinatorics, "EXHAUSTIVE_PERM_LIMIT", 0)
                out_g = subspace_perm(data, P, W)
            assert fixed_w_cost(data, P, out_g) == pytest.approx(
                fixed_w_cost(data, P, out_e), abs=1e-9)

    def test_greedy_never_increases(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "EXHAUSTIVE_PERM_LIMIT", 0)
        spec = SimSpec(subspace_dims=np.ones((4, 2), dtype=int), dims_v=[4, 4],
                       n_obs=2000, cond_target=2.0, rho_max=0.6)
        data, truth, P = build_instance(spec, 8)
        rng = np.random.default_rng(8)
        W = BlockTransform([random_row_orthonormal(4, 4, rng) for _ in range(2)])
        out = subspace_perm(data, P, W)
        assert fixed_w_cost(data, P, out) <= fixed_w_cost(data, P, W) + TIE_EPS


def reference_subspace_perm(data, P, W):
    """The earlier subspace_perm, kept as the reference: every candidate is
    a row order per dataset, scored by value_from_sources over all K
    subspaces of the permuted sources."""
    M = data.n_datasets
    d_km = P.per_dataset_dims()
    off = P.col_offsets
    groups = []
    for m in range(M):
        by_size = {}
        for k in range(P.n_subspaces):
            if d_km[k, m] > 0:
                by_size.setdefault(int(d_km[k, m]), []).append(k)
        groups += [(m, ks) for _, ks in sorted(by_size.items())
                   if len(ks) >= 2 and any(np.count_nonzero(d_km[k]) > 1 for k in ks)]
    if not groups:
        return W
    Y0 = W.transform(data)

    def cost_of(orders):
        Y = np.vstack([Y0[off[m]:off[m + 1]][orders[m]] for m in range(M)])
        return value_from_sources(Y, P)

    def apply(orders, m, ks, pi):
        new = orders[m].copy()
        for i, k in enumerate(ks):
            new[P.dataset_sources(k, m)] = orders[m][P.dataset_sources(ks[pi[i]], m)]
        return orders[:m] + [new] + orders[m + 1:]

    identity = [np.arange(c) for c in P.col_dims]
    best, best_cost = identity, cost_of(identity)
    if math.prod(math.factorial(len(ks)) for _, ks in groups) <= combinatorics.EXHAUSTIVE_PERM_LIMIT:
        for combo in itertools.product(*[itertools.permutations(range(len(ks)))
                                         for _, ks in groups]):
            orders = identity
            for (m, ks), pi in zip(groups, combo):
                orders = apply(orders, m, ks, pi)
            c = cost_of(orders)
            if c < best_cost - TIE_EPS:
                best, best_cost = orders, c
    else:
        for _ in range(10):
            improved = False
            for m, ks in groups:
                for i, j in itertools.combinations(range(len(ks)), 2):
                    pi = list(range(len(ks)))
                    pi[i], pi[j] = pi[j], pi[i]
                    orders = apply(best, m, ks, pi)
                    c = cost_of(orders)
                    if c < best_cost - TIE_EPS:
                        best, best_cost, improved = orders, c, True
            if not improved:
                break
    return BlockTransform([W.blocks[m][best[m]] for m in range(M)])


class TestSubspacePermMatchesReference:
    """subspace_perm scores a candidate through cached per-subspace shares;
    it must return the same W, bit for bit, as rescoring every candidate in
    full."""

    EXHAUSTIVE = {
        "iva": [[1, 1]] * 3,
        "isa3": [[2, 1], [2, 1], [1, 3]],
        "overlapping": [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
    }

    def instance(self, dims, seed):
        dims = np.array(dims)
        spec = SimSpec(subspace_dims=dims, dims_v=dims.sum(axis=0), n_obs=1000,
                       cond_target=2.0, rho_max=0.6)
        data, truth, P = build_instance(spec, seed)
        # the true unmixing with same-size subspaces shuffled in each dataset
        rng = np.random.default_rng(seed)
        blocks = []
        for m, A in enumerate(truth.A.blocks):
            order = np.arange(len(A))
            for size in set(dims[:, m].tolist()) - {0}:
                ks = np.flatnonzero(dims[:, m] == size)
                for k, k_from in zip(ks, rng.permutation(ks)):
                    order[P.dataset_sources(k, m)] = P.dataset_sources(k_from, m)
            blocks.append(np.linalg.inv(A)[order])
        return data, P, BlockTransform(blocks)

    def assert_bit_equal(self, data, P, W):
        out = subspace_perm(data, P, W)
        ref = reference_subspace_perm(data, P, W)
        for a, b in zip(out.blocks, ref.blocks):
            np.testing.assert_array_equal(a, b)
        return out

    @pytest.mark.parametrize("greedy", [False, True], ids=["exhaustive", "greedy"])
    @pytest.mark.parametrize("name", list(EXHAUSTIVE))
    def test_small_shapes(self, name, greedy, monkeypatch):
        if greedy:
            monkeypatch.setattr(combinatorics, "EXHAUSTIVE_PERM_LIMIT", 0)
        moved = 0
        for seed in range(3):
            data, P, W = self.instance(self.EXHAUSTIVE[name], seed)
            out = self.assert_bit_equal(data, P, W)
            moved += any(not np.array_equal(a, b) for a, b in zip(out.blocks, W.blocks))
        assert moved  # the search changes W on some instance

    def test_greedy_path(self):
        # 8 subspaces of one source in each of 3 datasets: 8!^3 orders, so
        # the search takes the greedy swaps
        data, P, W = self.instance([[1, 1, 1]] * 8, seed=0)
        assert math.factorial(8) ** 3 > combinatorics.EXHAUSTIVE_PERM_LIMIT
        out = self.assert_bit_equal(data, P, W)
        assert any(not np.array_equal(a, b) for a, b in zip(out.blocks, W.blocks))
