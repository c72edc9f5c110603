import numpy as np
import pytest

from misa import (
    BlockTransform,
    DefinitenessError,
    DomainError,
    OptimOptions,
    Status,
    minimize,
)
from misa.optimizer import lbfgs_direction


def vec(x):
    return BlockTransform([np.atleast_2d(np.asarray(x, dtype=float))])


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fg(W):
        w = W.blocks[0].ravel()
        return 0.5 * float((w - center) @ (w - center)), vec(w - center)

    return fg


class TestMinimize:
    def test_quadratic_interior(self):
        fg = quadratic([1.0, -2.0, 3.0])
        sol = minimize(fg, vec([0.0, 0.0, 0.0]),
                       OptimOptions(tol_fun=1e-14, tol_x=1e-14))
        assert np.allclose(sol.W_final.blocks[0].ravel(), [1.0, -2.0, 3.0], atol=1e-8)
        assert sol.n_iters <= 2 * 10 + 5

    def test_quadratic_exterior_projects_to_box(self):
        fg = quadratic([150.0, -2.0])
        sol = minimize(fg, vec([0.0, 0.0]), OptimOptions(tol_fun=1e-14, tol_x=1e-12))
        assert np.allclose(sol.W_final.blocks[0].ravel(), [100.0, -2.0], atol=1e-6)

    def test_rosenbrock(self):
        def fg(W):
            x, y = W.blocks[0].ravel()
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
            return f, vec(g)

        sol = minimize(fg, vec([-1.2, 1.0]),
                       OptimOptions(tol_fun=1e-15, tol_x=1e-15, max_iters=2000))
        assert sol.objective_value < 1e-8

    def test_trace_steps_satisfy_armijo(self):
        def fg(W):
            w = W.blocks[0].ravel()
            return float(np.sum(w ** 4) + np.sum(w ** 2)), vec(4 * w ** 3 + 2 * w)

        sol = minimize(fg, vec([3.0, -2.0, 1.0]), OptimOptions(tol_fun=1e-12))
        assert len(sol.trace) > 0
        assert all(r.armijo_ok for r in sol.trace)

    def test_trace_monotone_nonincreasing(self):
        fg = quadratic([5.0, 5.0, 5.0, 5.0])
        sol = minimize(fg, vec([0.0] * 4), OptimOptions(tol_fun=1e-12))
        vals = [r.value for r in sol.trace]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_iterates_stay_in_box(self):
        seen = []

        def fg(W):
            w = W.blocks[0].ravel()
            seen.append(w.copy())
            return float(np.sum((w - 500) ** 2)), vec(2 * (w - 500))

        minimize(fg, vec([0.0, 0.0]), OptimOptions())
        for w in seen:
            assert np.all(w >= -100.0) and np.all(w <= 100.0)

    def test_deterministic_traces(self):
        def run():
            return minimize(quadratic([2.0, -3.0]), vec([0.5, 0.5]),
                            OptimOptions(tol_fun=1e-13))

        s1, s2 = run(), run()
        assert len(s1.trace) == len(s2.trace)
        for a, b in zip(s1.trace, s2.trace):
            assert a.value == b.value and a.step == b.step
        assert np.array_equal(s1.W_final.blocks[0], s2.W_final.blocks[0])

    def test_status_enum_values(self):
        sol = minimize(quadratic([1.0]), vec([0.0]), OptimOptions())
        assert sol.status in (Status.CONVERGED_FUN, Status.CONVERGED_X)

    def test_max_iter_cap(self):
        def fg(W):
            x, y = W.blocks[0].ravel()
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
            return f, vec(g)

        sol = minimize(fg, vec([-1.2, 1.0]),
                       OptimOptions(tol_fun=1e-16, tol_x=1e-16, max_iters=3))
        assert sol.status in (Status.MAX_ITER, Status.LINE_SEARCH_FAIL)
        assert sol.n_iters <= 3


class TestUndefinedTrialPoint:
    @staticmethod
    def huber_inside(radius, calls):
        # pseudo-Huber with its minimum at 1, undefined outside |w| <= radius;
        # its flat slope makes the secant steps overshoot
        def fg(W):
            w = W.blocks[0].ravel()
            calls.append(bool(np.any(np.abs(w) > radius)))
            if calls[-1]:
                raise DefinitenessError("outside the radius")
            r = np.sqrt(1.0 + (w - 1.0) ** 2)
            return float(np.sum(r)), vec((w - 1.0) / r)

        return fg

    def test_error_at_trial_point_backtracks(self):
        calls = []
        sol = minimize(self.huber_inside(4.0, calls), vec([-3.0, 0.5]),
                       OptimOptions(tol_fun=1e-12))
        assert any(calls)  # a trial point did raise
        assert sol.status is Status.CONVERGED_FUN
        assert np.allclose(sol.W_final.blocks[0], 1.0, atol=1e-4)

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

        np.testing.assert_allclose(lbfgs_direction(g, s_list, y_list), H @ g,
                                   atol=1e-10)


class TestOptions:
    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            OptimOptions(lower=1.0, upper=-1.0)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            OptimOptions(tol_fun=0.0)

