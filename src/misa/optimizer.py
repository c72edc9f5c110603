"""Limited-memory quasi-Newton minimizer with a backtracking line search.

Operates on the flattened free entries of a BlockTransform. The search
gradient is whatever the callback supplies; the MISA solvers pass the
relative gradient. The iterates are unconstrained.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DefinitenessError, RankError, check_ranges
from .model import BlockTransform

ARMIJO_C = 1e-4
MAX_HALVINGS = 20


class Status(Enum):
    CONVERGED_FUN = "Converged_fun"
    CONVERGED_X = "Converged_x"
    MAX_ITER = "MaxIter"
    MAX_EVAL = "MaxEval"
    LINE_SEARCH_FAIL = "LineSearchFail"


@dataclass
class OptimOptions:
    typical_x: float = 0.1
    max_fun_evals: int = 50000
    max_iters: int = 10000
    lbfgs_memory: int = 10
    tol_fun: float = 1e-4
    tol_x: float = 1e-9

    def __post_init__(self):
        check_ranges(self, (("typical_x tol_fun tol_x", lambda v: 0 < v < np.inf,
                             "finite and > 0"),
                            ("max_fun_evals max_iters lbfgs_memory", lambda v: v >= 1, ">= 1")))


@dataclass
class Solution:
    W_final: BlockTransform
    objective_value: float
    status: Status
    n_iters: int
    n_evals: int


def random_row_orthonormal(C: int, V: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian C x V matrix with orthonormalized rows, the W0 convention."""
    G = rng.standard_normal((C, V))
    U, _, Vt = np.linalg.svd(G, full_matrices=False)
    return U @ Vt


def lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """Two-loop recursion: H g with H the implicit inverse-Hessian estimate
    from the (s, y, rho = 1 / y^T s) pairs, oldest first.

    Initial scaling uses the standard s^T y / y^T y diagonal from the most
    recent pair.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def minimize(fun: Callable[[BlockTransform], Tuple[float, Callable[[], BlockTransform]]],
             W0: BlockTransform, opts: Optional[OptimOptions] = None) -> Solution:
    """L-BFGS with an Armijo backtracking line search.

    fun(W) returns the value at W and a function giving the gradient there.
    That function is called, before the next call of fun, only at W0 and at
    each accepted step that does not end the run. n_evals counts fun calls.

    Each search first tries the step a = 1 (on the first iteration, the
    shorter step that moves an entry by typical_x on average) and halves it
    until f(x + a d) <= f + ARMIJO_C * a * g^T d, for at most MAX_HALVINGS
    trials. A search in which no trial passes ends the run with
    LineSearchFail rather than raising, or with MaxEval if it ran into the
    evaluation cap. Otherwise the run terminates when
    |df| < tol_fun*(1+|f|), when the accepted step has ||dW||_inf < tol_x,
    or at the iteration/evaluation caps. A RankError or DefinitenessError at
    a trial point counts as f = +inf there; at W0 it propagates.
    """
    opts = opts or OptimOptions()
    stops = np.cumsum([b.size for b in W0.blocks]).tolist()
    spans = [(a, b, Wm.shape) for a, b, Wm in zip([0, *stops], stops, W0.blocks)]

    def blocks(x: np.ndarray) -> BlockTransform:
        return BlockTransform([x[a:b].reshape(shape) for a, b, shape in spans])

    def vec(W: BlockTransform) -> np.ndarray:
        return np.concatenate([b.ravel() for b in W.blocks])

    evals = [0]

    def value(x: np.ndarray) -> Tuple[float, Callable[[], np.ndarray]]:
        evals[0] += 1
        f, grad = fun(blocks(x))
        return float(f), lambda: vec(grad())

    x = vec(W0)
    f, grad = value(x)
    g = grad()
    pairs = deque(maxlen=opts.lbfgs_memory)  # the latest (s, y, rho), oldest first
    status = Status.MAX_ITER
    n_iter = 0

    for n_iter in range(1, opts.max_iters + 1):
        d = -lbfgs_direction(g, pairs)
        if g @ d >= 0:
            d = -g
        g0d = float(g @ d)
        if g0d == 0.0:
            status = Status.CONVERGED_X
            break

        if pairs:
            a = 1.0
        else:
            a = min(1.0, x.size * opts.typical_x / max(np.sum(np.abs(d)), 1e-12))
        for _ in range(min(MAX_HALVINGS, opts.max_fun_evals - evals[0])):
            x_new = x + a * d
            try:
                f_new, grad = value(x_new)
            except (RankError, DefinitenessError):
                # undefined at the trial point: f = +inf, so the step halves
                f_new = np.inf
            if f_new <= f + ARMIJO_C * a * g0d:
                break
            a *= 0.5
        else:
            status = (Status.MAX_EVAL if evals[0] >= opts.max_fun_evals
                      else Status.LINE_SEARCH_FAIL)
            break

        s = x_new - x
        df = abs(f - f_new)
        dx = float(np.max(np.abs(s))) if s.size else 0.0
        x, f = x_new, f_new
        if df < opts.tol_fun * (1.0 + abs(f_new)):
            status = Status.CONVERGED_FUN
            break
        if dx < opts.tol_x:
            status = Status.CONVERGED_X
            break
        if evals[0] >= opts.max_fun_evals:
            status = Status.MAX_EVAL
            break
        g_old, g = g, grad()
        y = g - g_old
        if y @ s > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / (y @ s)))

    return Solution(W_final=blocks(x), objective_value=f, status=status,
                    n_iters=n_iter, n_evals=evals[0])
