from dataclasses import replace

import numpy as np
import pytest

from misa import (
    BlockTransform,
    DefinitenessError,
    DomainError,
    OptimOptions,
    RankError,
    Status,
    minimize,
)
from misa.optimizer import ARMIJO_C, MAX_HALVINGS, lbfgs_direction


def vec(x):
    return BlockTransform([np.atleast_2d(np.asarray(x, dtype=float))])


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fg(W):
        w = W.blocks[0].ravel()
        return 0.5 * float((w - center) @ (w - center)), lambda: vec(w - center)

    return fg


def rosenbrock(W):
    x, y = W.blocks[0].ravel()
    f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    return f, lambda: vec([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])


def counting(fg):
    """fg, and the record of its calls: calls["f"] counts the value calls
    and calls["g"] lists, per gradient call, the number of value calls made
    before it."""
    calls = {"f": 0, "g": []}

    def wrapped(W):
        calls["f"] += 1
        f, grad = fg(W)

        def counted():
            calls["g"].append(calls["f"])
            return grad()

        return f, counted

    return wrapped, calls


class TestMinimize:
    def test_quadratic_interior(self):
        fg = quadratic([1.0, -2.0, 3.0])
        sol = minimize(fg, vec([0.0, 0.0, 0.0]),
                       OptimOptions(tol_fun=1e-14, tol_x=1e-14))
        assert np.allclose(sol.W_final.blocks[0].ravel(), [1.0, -2.0, 3.0], atol=1e-8)
        assert sol.n_iters <= 2 * 10 + 5

    def test_quadratic_far_minimum_reached(self):
        # no bounds: a minimum with an entry of 150 is reached, not clipped
        fg = quadratic([150.0, -2.0])
        sol = minimize(fg, vec([0.0, 0.0]), OptimOptions(tol_fun=1e-14, tol_x=1e-12))
        assert np.allclose(sol.W_final.blocks[0].ravel(), [150.0, -2.0], atol=1e-6)

    def test_rosenbrock(self):
        sol = minimize(rosenbrock, vec([-1.2, 1.0]),
                       OptimOptions(tol_fun=1e-15, tol_x=1e-15, max_iters=2000))
        assert sol.objective_value < 1e-8

    @staticmethod
    def iterates(fg, x0, opts):
        """(x_k, f_k, g_k) of the start and of each accepted iterate of a run:
        the k-th accepted iterate is the end point of the run capped at k
        iterations."""
        sol = minimize(fg, vec(x0), opts)
        xs = [vec(x0)] + [minimize(fg, vec(x0), replace(opts, max_iters=k)).W_final
                          for k in range(1, sol.n_iters + 1)]
        assert np.array_equal(xs[-1].blocks[0], sol.W_final.blocks[0])
        its = []
        for W in xs:
            f, grad = fg(W)
            its.append((W.blocks[0].ravel(), f, grad().blocks[0].ravel()))
        return sol, its

    def test_trace_steps_satisfy_armijo(self):
        # Rosenbrock's curved valley makes many full quasi-Newton steps fail
        # the Armijo test, so the search has to backtrack
        seen = []

        def fg(W):
            f, G = rosenbrock(W)
            seen.append(f)
            return f, G

        sol, its = self.iterates(fg, [-1.2, 1.0], OptimOptions(tol_fun=1e-12))
        assert sol.status is Status.CONVERGED_FUN and sol.n_iters > 1
        n_full = sol.n_evals
        assert n_full > 1 + sol.n_iters  # some search halved its step
        for (x, f, g), (x_new, f_new, _) in zip(its, its[1:]):
            assert f_new <= f + ARMIJO_C * g @ (x_new - x)
        # each accepted value is one the full run evaluated, in order
        i = 0
        for _, f, _ in its[1:]:
            i = seen.index(f, i + 1, n_full)
        assert seen[i] == sol.objective_value

    def test_trace_monotone_nonincreasing(self):
        _, its = self.iterates(quadratic([5.0, 5.0, 5.0, 5.0]), [0.0] * 4,
                               OptimOptions(tol_fun=1e-12))
        vals = [f for _, f, _ in its]
        assert len(vals) > 2
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    @staticmethod
    def uphill(w):
        # the "gradient" is the negated true one, so every direction ascends
        return float(w @ w), lambda: vec(-2.0 * w)

    def test_uphill_gradient_fails_after_halvings(self):
        fg, calls = counting(lambda W: self.uphill(W.blocks[0].ravel()))
        sol = minimize(fg, vec([1.0, -2.0]), OptimOptions())
        assert sol.status is Status.LINE_SEARCH_FAIL
        assert sol.n_evals == calls["f"] == 1 + MAX_HALVINGS
        assert calls["g"] == [1]  # at W0 only: every trial was rejected
        assert sol.objective_value == 5.0  # no step was accepted
        assert np.array_equal(sol.W_final.blocks[0].ravel(), [1.0, -2.0])

    def test_gradient_only_at_accepted_steps(self):
        # each gradient call reads the value call just made, and the step
        # that ends the run is not differentiated
        fg, calls = counting(rosenbrock)
        sol = minimize(fg, vec([-1.2, 1.0]), OptimOptions(tol_fun=1e-12))
        assert sol.status is Status.CONVERGED_FUN
        assert sol.n_evals == calls["f"] > len(calls["g"]) + 1  # some trial was rejected
        assert len(calls["g"]) <= sol.n_iters
        assert calls["g"] == sorted(set(calls["g"])) and calls["g"][0] == 1
        assert calls["g"][-1] < calls["f"]

    def test_zero_gradient_at_start_converges_x(self):
        # at the minimum the direction is 0, so no trial point is evaluated
        fg, calls = counting(quadratic([1.0, -2.0]))
        sol = minimize(fg, vec([1.0, -2.0]), OptimOptions())
        assert sol.status is Status.CONVERGED_X
        assert (sol.n_iters, sol.n_evals, calls["f"], calls["g"]) == (1, 1, 1, [1])
        assert sol.objective_value == 0.0

    def test_step_below_tol_x_converges_x(self):
        # every step is below tol_x = 10, and the first accepted one still
        # lowers f by more than tol_fun, so the step test ends the run
        fg, calls = counting(quadratic([1.0, -2.0, 3.0]))
        sol = minimize(fg, vec([0.0, 0.0, 0.0]), OptimOptions(tol_x=10.0))
        assert sol.status is Status.CONVERGED_X
        assert sol.n_iters == 1 and calls["g"] == [1]
        assert sol.objective_value < 7.0  # f(W0) = 7

    def test_eval_cap_after_accepted_step(self):
        # the first trial is accepted and uses up max_fun_evals = 2, so the
        # run ends MaxEval without the gradient at the new point
        fg, calls = counting(quadratic([1.0, -2.0, 3.0]))
        sol = minimize(fg, vec([0.0, 0.0, 0.0]),
                       OptimOptions(max_fun_evals=2, tol_fun=1e-300, tol_x=1e-300))
        assert sol.status is Status.MAX_EVAL
        assert sol.n_iters == 1 and sol.n_evals == calls["f"] == 2 and calls["g"] == [1]
        assert sol.objective_value < 7.0

    def test_eval_cap_ends_search(self):
        sol = minimize(lambda W: self.uphill(W.blocks[0].ravel()), vec([1.0, -2.0]),
                       OptimOptions(max_fun_evals=5))
        assert sol.status is Status.MAX_EVAL
        assert sol.n_evals == 5

    def test_deterministic_traces(self):
        def run():
            seen = []
            fg = quadratic([2.0, -3.0])

            def recording(W):
                seen.append((W.blocks[0].copy(), fg(W)[0]))
                return fg(W)

            sol = minimize(recording, vec([0.5, 0.5]), OptimOptions(tol_fun=1e-13))
            return sol, seen

        (s1, seen1), (s2, seen2) = run(), run()
        assert len(seen1) == len(seen2) == s1.n_evals > 1
        for (x1, f1), (x2, f2) in zip(seen1, seen2):
            assert np.array_equal(x1, x2) and f1 == f2
        assert np.array_equal(s1.W_final.blocks[0], s2.W_final.blocks[0])

    def test_status_enum_values(self):
        sol = minimize(quadratic([1.0]), vec([0.0]), OptimOptions())
        assert sol.status in (Status.CONVERGED_FUN, Status.CONVERGED_X)

    def test_max_iter_cap(self):
        sol = minimize(rosenbrock, vec([-1.2, 1.0]),
                       OptimOptions(tol_fun=1e-16, tol_x=1e-16, max_iters=3))
        assert sol.status in (Status.MAX_ITER, Status.LINE_SEARCH_FAIL)
        assert sol.n_iters <= 3


class TestUndefinedTrialPoint:
    @staticmethod
    def huber_inside(radius, calls, error=DefinitenessError):
        # pseudo-Huber with its minimum at 1, undefined outside |w| <= radius;
        # its flat slope makes the secant steps overshoot
        def fg(W):
            w = W.blocks[0].ravel()
            calls.append(bool(np.any(np.abs(w) > radius)))
            if calls[-1]:
                raise error("outside the radius")
            r = np.sqrt(1.0 + (w - 1.0) ** 2)
            return float(np.sum(r)), lambda: vec((w - 1.0) / r)

        return fg

    def test_error_at_trial_point_backtracks(self):
        calls = []
        sol = minimize(self.huber_inside(4.0, calls), vec([-3.0, 0.5]),
                       OptimOptions(tol_fun=1e-12))
        assert any(calls)  # a trial point did raise
        assert sol.status is Status.CONVERGED_FUN
        assert np.allclose(sol.W_final.blocks[0], 1.0, atol=1e-4)

    def test_raising_trial_requests_no_gradient(self):
        raised = []
        fg, calls = counting(self.huber_inside(4.0, raised, RankError))
        sol = minimize(fg, vec([-3.0, 0.5]), OptimOptions(tol_fun=1e-12))
        assert sol.status is Status.CONVERGED_FUN and any(raised)
        # the k-th value call raised when raised[k - 1]; no gradient read one
        assert not any(raised[k - 1] for k in calls["g"])
        assert len(calls["g"]) <= sol.n_iters

    def test_error_at_start_propagates(self):
        with pytest.raises(DefinitenessError):
            minimize(self.huber_inside(4.0, []), vec([5.0, 0.0]))


class TestTwoLoop:
    def test_matches_explicit_inverse_hessian(self):
        rng = np.random.default_rng(0)
        n = 5
        s_list = [rng.standard_normal(n) for _ in range(3)]
        y_list = [s + 0.3 * rng.standard_normal(n) for s in s_list]
        # make every pair curvature-positive
        y_list = [y if y @ s > 0 else -y for s, y in zip(s_list, y_list)]
        g = rng.standard_normal(n)

        H = (s_list[-1] @ y_list[-1]) / (y_list[-1] @ y_list[-1]) * np.eye(n)
        for s, y in zip(s_list, y_list):
            rho = 1.0 / (y @ s)
            V = np.eye(n) - rho * np.outer(y, s)
            H = V.T @ H @ V + rho * np.outer(s, s)

        pairs = [(s, y, 1.0 / (y @ s)) for s, y in zip(s_list, y_list)]
        np.testing.assert_allclose(lbfgs_direction(g, pairs), H @ g, atol=1e-10)


class TestOptions:
    def test_bad_tol(self):
        with pytest.raises(DomainError):
            OptimOptions(tol_fun=0.0)

    @pytest.mark.parametrize("field", ["tol_fun", "tol_x"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tol(self, field, value):
        # NaN <= 0 is False, so only a test NaN fails keeps NaN out
        with pytest.raises(DomainError, match=rf"^{field} must be finite and > 0"):
            OptimOptions(**{field: value})

    @pytest.mark.parametrize("kw", [{"typical_x": 0.0}, {"typical_x": -1.0},
                                    {"max_iters": 0}, {"max_fun_evals": 0}])
    def test_bad_step_scale_or_caps(self, kw):
        with pytest.raises(DomainError):
            OptimOptions(**kw)

