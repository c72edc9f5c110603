"""End-to-end quality gate for the whole package.

Each test covers one numbered criterion; the terminal summary prints one
CRITERION n: PASS/FAIL line per test (see conftest.py).
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import laplace, multivariate_normal

from misa import (
    PSI_GAUSS,
    PSI_LAPLACE,
    BlockTransform,
    DispersionChoice,
    MultiDataset,
    ObjectiveContext,
    OptimOptions,
    SimSpec,
    build_instance,
    evaluate,
    gen_mixing,
    hungarian,
    kotz_from_psi,
    kotz_log_pdf,
    misa_gp_mdm,
    misi,
    misi_from_interference,
    mmse,
    pre_gradient,
    pre_value,
    preset,
    run_experiment,
    run_misa,
    snr_scale,
)
from misa.gradcheck import fd_gradient, max_rel_error, random_instance
from misa.objective import Buffers


@pytest.fixture(scope="module")
def ica_runs(tmp_path_factory):
    """Run the ICA benchmark twice with persistence; shared by criteria 4 and 10."""
    base = tmp_path_factory.mktemp("ica")
    out = []
    for tag in ("r1", "r2"):
        cfg = preset("ica1")
        cfg.out_dir = str(base / tag)
        cfg.threads = 1
        t0 = time.perf_counter()
        records, summary = run_experiment(cfg)
        out.append((records, summary, base / tag, time.perf_counter() - t0))
    return out


def test_criterion_01_gradient_audit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = {mode: 0.0 for mode in DispersionChoice}
    for _ in range(20):
        M = int(rng.integers(1, 4))
        X, P, W = random_instance(rng, M=M, N=500)
        for mode in DispersionChoice:
            ctx = ObjectiveContext(X, P, dispersion=mode)
            buffers = Buffers(ctx)
            rep = evaluate(ctx, W, with_gradient=True, buffers=buffers)
            num = fd_gradient(lambda Wt: evaluate(ctx, Wt, buffers=buffers).value,
                              W, step=1e-5)
            worst[mode] = max(worst[mode], max_rel_error(rep.gradient, num))
    elapsed = time.perf_counter() - t0
    assert all(v < 1e-5 for v in worst.values()), worst
    assert elapsed < 30.0


def test_criterion_02_pre_audit():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        X = MultiDataset([rng.standard_normal((5, 500))])
        W = BlockTransform([rng.standard_normal((3, 5))])
        num = fd_gradient(lambda Wt: pre_value(Wt, X), W, step=1e-5)
        worst = max(worst, max_rel_error(pre_gradient(W, X), num))
    assert worst < 1e-5
    # invariance to invertible left-multiplication
    for _ in range(10):
        X = MultiDataset([rng.standard_normal((6, 100))])
        W = rng.standard_normal((3, 6))
        T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        v0 = pre_value(BlockTransform([W]), X)
        v1 = pre_value(BlockTransform([T @ W]), X)
        assert abs(v1 - v0) < 1e-10


def test_criterion_03_kotz_closed_forms():
    rng = np.random.default_rng(2)
    n_pts = 0
    for d in (1, 2, 3, 4):
        p = kotz_from_psi(PSI_GAUSS, d)
        A = rng.standard_normal((d, d))
        D = A @ A.T + d * np.eye(d)
        mvn = multivariate_normal(mean=np.zeros(d), cov=D)
        for _ in range(125):
            y = rng.standard_normal(d) * 2
            assert kotz_log_pdf(y, D, p) == pytest.approx(mvn.logpdf(y), abs=1e-12)
            n_pts += 1
    p = kotz_from_psi(PSI_LAPLACE, 1)
    D = np.array([[1.0 / p.alpha]])
    for _ in range(500):
        y = rng.standard_normal(1) * 3
        ref = laplace.logpdf(y[0], scale=1.0 / np.sqrt(2.0))
        assert kotz_log_pdf(y, D, p) == pytest.approx(ref, abs=1e-12)
        n_pts += 1
    assert n_pts == 1000


def test_criterion_04_ica_desk_scale(ica_runs):
    records, summary, _, elapsed = ica_runs[0]
    best = summary["best_misi_per_instance"]
    hits = sum(b < 0.05 for b in best)
    assert hits >= 9, best
    assert elapsed < 300.0


def test_criterion_05_iva_desk_scale():
    t0 = time.perf_counter()
    medians = {}
    for rho in (0.1, 0.3, 0.5):
        cfg = preset("iva1")
        cfg.sim = replace(cfg.sim, rho_max=rho)
        records, _ = run_experiment(cfg)
        vals = [r.misi for r in records if np.isfinite(r.misi)]
        medians[rho] = float(np.median(vals))
    elapsed = time.perf_counter() - t0
    assert medians[0.5] < 0.05, medians
    assert medians[0.1] > medians[0.3] > medians[0.5], medians
    assert elapsed < 600.0


def test_criterion_06_isa_desk_scale():
    t0 = time.perf_counter()
    cfg_gp = preset("isa1")
    records_gp, _ = run_experiment(cfg_gp)
    cfg_plain = preset("isa1")
    cfg_plain.solver = "misa"
    records_plain, _ = run_experiment(cfg_plain)
    elapsed = time.perf_counter() - t0
    med_gp = float(np.median([r.misi for r in records_gp]))
    med_plain = float(np.median([r.misi for r in records_plain]))
    assert med_gp < 0.1, (med_gp, med_plain)
    assert med_gp <= med_plain + 1e-12, (med_gp, med_plain)
    assert elapsed < 600.0


def test_criterion_07_mdm_subspace_permutation():
    # two datasets share three subspaces; two of them are unidimensional and
    # equal-sized, and the start point swaps their rows in dataset 0 only,
    # which plain numerical descent cannot undo
    opts = OptimOptions(tol_fun=1e-8, tol_x=1e-9)
    gp_ok = plain_stuck = 0
    for seed in range(10):
        spec = SimSpec(subspace_dims=np.array([[1, 1], [1, 1], [2, 2]]),
                       dims_v=[4, 4], n_obs=6000, cond_target=2.0,
                       rho_max=0.85, seed=seed)
        data, truth, P = build_instance(spec)
        rng = np.random.default_rng(1000 + seed)
        blocks = []
        for m, A in enumerate(truth.A.blocks):
            Wm = np.linalg.inv(A)
            if m == 0:
                Wm = Wm[[1, 0, 2, 3]]  # swap the two singleton subspaces
            blocks.append(Wm + 0.001 * rng.standard_normal(Wm.shape))
        W0 = BlockTransform(blocks)
        sol_plain = run_misa(data, P, W0, opts=opts)
        sol_gp = misa_gp_mdm(data, P, W0, T=2, opts=opts)
        plain_stuck += misi(sol_plain.W_final, truth.A, P) > 0.1
        gp_ok += misi(sol_gp.W_final, truth.A, P) < 0.1
    assert gp_ok >= 8, gp_ok
    assert plain_stuck >= 8, plain_stuck


def test_criterion_08_generators():
    rng = np.random.default_rng(3)
    for target in (1.0, 3.0, 7.0, 15.0):
        for shape in [(6, 6), (10, 5)]:
            A = gen_mixing(shape[0], shape[1], target, rng)
            assert abs(np.linalg.cond(A) - target) < 1e-8
    N = 100000
    A = rng.standard_normal((8, 5))
    for target_db in (3.0, 10.0, 20.0):
        a = snr_scale(A, 8, target_db)
        Y = rng.standard_normal((5, N))
        E = a * rng.standard_normal((8, N))
        realized = 10 * np.log10(1.0 + np.sum((A @ Y) ** 2) / np.sum(E ** 2))
        assert abs(realized - target_db) < 0.1


def test_criterion_09_metric_oracles():
    assert misi_from_interference(np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    assert misi_from_interference(np.ones((3, 3))) == pytest.approx(1.0, abs=1e-12)
    H = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert misi_from_interference(H) == pytest.approx(5.0 / 12.0, abs=1e-12)
    rng = np.random.default_rng(4)
    for trial in range(1000):
        n = 2 + trial % 6
        cost = rng.uniform(-10, 10, size=(n, n))
        perm = hungarian(cost)
        total = sum(cost[i, perm[i]] for i in range(n))
        best = min(sum(cost[i, p[i]] for i in range(n))
                   for p in itertools.permutations(range(n)))
        assert total == pytest.approx(best, abs=1e-9)
    assert mmse(np.eye(3)) == pytest.approx(0.0, abs=1e-12)
    assert mmse(np.eye(4)[[1, 0, 3, 2]]) == pytest.approx(0.0, abs=1e-12)
    assert mmse(np.zeros((3, 3))) == pytest.approx(2.0, abs=1e-12)


def test_criterion_10_determinism(ica_runs):
    _, _, dir1, _ = ica_runs[0]
    _, _, dir2, _ = ica_runs[1]
    assert (dir1 / "records.csv").read_bytes() == (dir2 / "records.csv").read_bytes()
    assert (dir1 / "summary.json").read_bytes() == (dir2 / "summary.json").read_bytes()
