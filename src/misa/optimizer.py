"""Bounded limited-memory quasi-Newton minimizer.

Operates on the flattened free entries of a BlockTransform. The search
gradient is whatever the callback supplies; the MISA solvers pass the
relative gradient. Box bounds are handled by projecting trial points onto
the box, so iterates never leave it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import DefinitenessError, DomainError, RankError
from .model import BlockTransform

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_BISECTIONS = 20


class Status(Enum):
    CONVERGED_FUN = "Converged_fun"
    CONVERGED_X = "Converged_x"
    MAX_ITER = "MaxIter"
    MAX_EVAL = "MaxEval"
    LINE_SEARCH_FAIL = "LineSearchFail"


@dataclass
class OptimOptions:
    lower: float = -100.0
    upper: float = 100.0
    typical_x: float = 0.1
    max_fun_evals: int = 50000
    max_iters: int = 10000
    lbfgs_memory: int = 10
    tol_fun: float = 1e-4
    tol_x: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise DomainError("bounds must be finite")
        if self.lower >= self.upper:
            raise DomainError("need lower < upper")
        if self.lbfgs_memory < 1:
            raise DomainError("lbfgs memory must be >= 1")
        if self.tol_fun <= 0 or self.tol_x <= 0:
            raise DomainError("tolerances must be > 0")


@dataclass
class IterRecord:
    value: float
    grad_norm: float
    step: float
    armijo_ok: bool


@dataclass
class Solution:
    W_final: BlockTransform
    objective_value: float
    status: Status
    trace: List[IterRecord]
    n_iters: int
    n_evals: int


def random_row_orthonormal(C: int, V: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian C x V matrix with orthonormalized rows, the W0 convention."""
    G = rng.standard_normal((C, V))
    U, _, Vt = np.linalg.svd(G, full_matrices=False)
    return U @ Vt


def lbfgs_direction(g: np.ndarray, s_list: List[np.ndarray],
                    y_list: List[np.ndarray]) -> np.ndarray:
    """Two-loop recursion: H g with H the implicit inverse-Hessian estimate.

    Initial scaling uses the standard s^T y / y^T y diagonal from the most
    recent pair.
    """
    q = g.copy()
    alphas = []
    rhos = [1.0 / (y @ s) for s, y in zip(s_list, y_list)]
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rhos)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(zip(s_list, y_list, rhos), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


class _Flat:
    """Flatten/unflatten between BlockTransform and a parameter vector."""

    def __init__(self, W0: BlockTransform):
        self.shapes = [b.shape for b in W0.blocks]
        self.sizes = [int(np.prod(s)) for s in self.shapes]

    def to_vec(self, W: BlockTransform) -> np.ndarray:
        return np.concatenate([b.ravel() for b in W.blocks])

    def to_blocks(self, x: np.ndarray) -> BlockTransform:
        out, off = [], 0
        for shape, size in zip(self.shapes, self.sizes):
            out.append(x[off:off + size].reshape(shape))
            off += size
        return BlockTransform(out)


def minimize(f_and_grad: Callable[[BlockTransform], Tuple[float, BlockTransform]],
             W0: BlockTransform, opts: Optional[OptimOptions] = None) -> Solution:
    """Projected L-BFGS with a strong-Wolfe line search.

    Terminates when |df| < tol_fun*(1+|f|), when the accepted step has
    ||dW||_inf < tol_x, or at the iteration/evaluation caps. A line search
    that cannot satisfy the Wolfe conditions after the bisection budget ends
    the run with LineSearchFail rather than raising. A RankError or
    DefinitenessError at a trial point counts as f = +inf there; at W0 it
    propagates.
    """
    opts = opts or OptimOptions()
    flat = _Flat(W0)
    lb, ub = opts.lower, opts.upper

    evals = [0]

    def fg(x: np.ndarray) -> Tuple[float, np.ndarray]:
        evals[0] += 1
        f, G = f_and_grad(flat.to_blocks(x))
        return float(f), flat.to_vec(G)

    x = np.clip(flat.to_vec(W0), lb, ub)
    f, g = fg(x)
    trace: List[IterRecord] = []
    s_hist: List[np.ndarray] = []
    y_hist: List[np.ndarray] = []
    status = Status.MAX_ITER
    n_iter = 0

    def project(z: np.ndarray) -> np.ndarray:
        return np.clip(z, lb, ub)

    def dphi(gz: np.ndarray, xz: np.ndarray, d: np.ndarray) -> float:
        # derivative along the projected path: clipped coordinates are frozen
        active = ((xz > lb) & (xz < ub)) | ((xz <= lb) & (d > 0)) | ((xz >= ub) & (d < 0))
        return float(gz[active] @ d[active])

    for n_iter in range(1, opts.max_iters + 1):
        d = -lbfgs_direction(g, s_hist, y_hist)
        if g @ d >= 0:
            d = -g
        g0d = float(g @ d)
        if g0d == 0.0:
            status = Status.CONVERGED_X
            break

        # strong-Wolfe search on phi(a) = f(project(x + a d))
        if s_hist:
            a = 1.0
        else:
            a = min(1.0, x.size * opts.typical_x / max(np.sum(np.abs(d)), 1e-12))
        a_lo, a_hi = 0.0, np.inf
        ok = False
        best = None  # best Armijo-satisfying trial, as fallback
        fa, ga, xa = f, g, x
        for _ in range(MAX_BISECTIONS):
            xa = project(x + a * d)
            try:
                fa, ga = fg(xa)
            except (RankError, DefinitenessError):
                # undefined at the trial point: f = +inf, so the step halves
                fa, ga = np.inf, None
            if not fa <= f + WOLFE_C1 * a * g0d:
                a_hi = a  # Armijo fails: step too long
            else:
                if best is None or fa < best[1]:
                    best = (a, fa, ga, xa)
                ga_d = dphi(ga, xa, d)
                if ga_d < WOLFE_C2 * g0d:
                    a_lo = a  # slope still steeply negative: step too short
                elif ga_d > -WOLFE_C2 * g0d:
                    a_hi = a  # overshot past the minimum along d
                else:
                    ok = True
                    break
            a = 0.5 * (a_lo + a_hi) if np.isfinite(a_hi) else 2.0 * a
            if evals[0] >= opts.max_fun_evals:
                break
        if ok:
            armijo_ok = True
        elif best is not None and best[1] < f:
            a, fa, ga, xa = best
            armijo_ok = True
        else:
            status = Status.LINE_SEARCH_FAIL
            break

        x_new, f_new, g_new = xa, fa, ga
        s = x_new - x
        y = g_new - g
        trace.append(IterRecord(value=f_new, grad_norm=float(np.linalg.norm(g_new)),
                                step=float(a), armijo_ok=bool(armijo_ok)))
        df = abs(f - f_new)
        dx = float(np.max(np.abs(s))) if s.size else 0.0
        if y @ s > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > opts.lbfgs_memory:
                s_hist.pop(0)
                y_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        if df < opts.tol_fun * (1.0 + abs(f_new)):
            status = Status.CONVERGED_FUN
            break
        if dx < opts.tol_x:
            status = Status.CONVERGED_X
            break
        if evals[0] >= opts.max_fun_evals:
            status = Status.MAX_EVAL
            break

    return Solution(W_final=flat.to_blocks(x), objective_value=f, status=status,
                    trace=trace, n_iters=n_iter, n_evals=evals[0])
