"""Acceptance gate: one test per shipping criterion, each printing a
single pass line with its measured margin.

Tolerances are pinned here and nowhere else; these tests are the contract.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from specwin.cli import main
from specwin.errors import EmptyWindowError
from specwin.estimators import (
    NoiseModel,
    gcv_md_scalar,
    gcv_scalar,
    gcv_windowed_decoupled,
    gcv_windowed_true,
    gcv_windowed_true_md,
    mse_learning,
    upre_md_windowed,
    upre_scalar,
    upre_window_separable,
)
from specwin.optimize import SearchConfig, minimize_scalar, minimize_vector
from specwin.problems import gaussian_psf
from specwin.solver import ParamVector, solve_scalar, solve_windowed, \
    residual_norm_windowed, trace_windowed
from specwin.spectral import dct_decompose, gsvd
from specwin.windows import indicator_windows, make_partitions, trivial_window

from oracles import (
    dense_influence_windowed,
    dense_laplacian_2d,
    dense_solve_scalar,
    dense_solve_windowed,
    make_diag_system,
    press_windowed_gcv,
    reflexive_blur_matrix,
    tik_matrices,
    windows_from_members,
    windows_from_weights,
)

PENALTY_CYCLE = ("identity", "laplacian", "random")


def _random_problem(rng, max_m=16, max_n=12):
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(n, max_m + 1))
    penalty = PENALTY_CYCLE[int(rng.integers(len(PENALTY_CYCLE)))]
    A, L = tik_matrices(rng, m, n, penalty)
    d = rng.standard_normal(m)
    return A, L, d, gsvd(A, L)


def _split_windows(n, rng=None, overlap=False):
    """Two-window set over n spectral indices: index-split or random blend."""
    if overlap:
        w = rng.uniform(0.0, 1.0, n)
        return windows_from_weights(np.vstack([w, 1.0 - w]))
    h = n // 2 if n > 1 else 1
    lists = [list(range(h, n)), list(range(h))] if n > 1 else [[0], []]
    if not lists[1]:
        lists = [[0]]
    return windows_from_members(lists, n)


def test_criterion_01_filtered_solve_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        A, L, d, sys = _random_problem(rng)
        alpha = float(rng.uniform(0.05, 3.0))
        x = solve_scalar(sys, d, alpha).x
        ref = dense_solve_scalar(A, L, d, alpha)
        scale = max(float(np.linalg.norm(ref)), 1.0)
        worst = max(worst, float(np.linalg.norm(x - ref)) / scale)
        win = _split_windows(sys.n)
        alphas = list(rng.uniform(0.05, 2.0, win.P))
        xw = solve_windowed(sys, d, win, alphas).x
        refw = dense_solve_windowed(A, L, sys, win, alphas, d)
        scale = max(float(np.linalg.norm(refw)), 1.0)
        worst = max(worst, float(np.linalg.norm(xw - refw)) / scale)
        assert worst <= 1e-8
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 01: PASS - 50 dense systems, scalar+windowed solves "
          f"within {worst:.2e} of normal equations in {dt:.2f}s")


def test_criterion_02_residual_and_trace_lemmas():
    rng = np.random.default_rng(202)
    worst_r = worst_t = worst_s = 0.0
    for k in range(50):
        A, L, d, sys = _random_problem(rng)
        overlap = k % 2 == 1
        win = _split_windows(sys.n, rng, overlap=overlap)
        alphas = list(rng.uniform(0.05, 2.0, win.P))
        dhat = sys.analyze(d)

        x_ref = dense_solve_windowed(A, L, sys, win, alphas, d)
        r_ref = float(np.sum((A @ x_ref - d) ** 2))
        r_val = residual_norm_windowed(sys, dhat, win, alphas)
        worst_r = max(worst_r, abs(r_val - r_ref) / max(r_ref, 1.0))

        M = dense_influence_windowed(A, L, sys, win, alphas)
        t_ref = float(np.trace(M))
        t_val = trace_windowed(sys, win, alphas)
        worst_t = max(worst_t, abs(t_val - t_ref) / max(abs(t_ref), 1.0))

        asym = float(np.abs(M - M.T).max()) / max(float(np.abs(M).max()), 1.0)
        worst_s = max(worst_s, asym)
    assert worst_r <= 1e-10
    assert worst_t <= 1e-10
    assert worst_s <= 1e-12
    print(f"criterion 02: PASS - residual/trace within {worst_r:.1e}/"
          f"{worst_t:.1e} of dense, influence asymmetry {worst_s:.1e}")


def test_criterion_03_reduction_suite():
    grid = np.geomspace(1e-4, 10.0, 200)
    rng = np.random.default_rng(303)
    for _ in range(3):
        n = int(rng.integers(5, 10))
        m = n + int(rng.integers(2, 5))
        penalty = PENALTY_CYCLE[int(rng.integers(2))]
        A, L = tik_matrices(rng, m, n, penalty)
        x_true = rng.standard_normal(n)
        d = A @ x_true + 0.05 * rng.standard_normal(m)
        sys = gsvd(A, L)
        dhat = sys.analyze(d)
        s2 = 0.0025
        triv = trivial_window(sys)
        try:
            win2 = indicator_windows(make_partitions(sys, 2, "log"), sys, "log")
        except EmptyWindowError:
            win2 = _split_windows(sys.n)

        def argmin(f):
            return int(np.argmin([f(a) for a in grid]))

        iu = argmin(lambda a: upre_scalar(sys, dhat, a, s2))
        ig = argmin(lambda a: gcv_scalar(sys, dhat, a))
        im = argmin(lambda a: mse_learning([sys], [d], [x_true], triv, [a]))

        # P = 1 collapses
        assert argmin(lambda a: upre_md_windowed([sys], [dhat], triv, [a], s2)) == iu
        assert argmin(lambda a: upre_window_separable([sys], [dhat], triv, 0, a, s2)) == iu
        assert argmin(lambda a: gcv_windowed_true(sys, dhat, triv, [a])) == ig
        assert argmin(lambda a: gcv_windowed_true_md([sys], [dhat], triv, [a])) == ig
        assert argmin(lambda a: gcv_windowed_decoupled([sys], [dhat], triv, 0, a)) == ig

        # R = 1 / equal-copy MD collapses
        assert argmin(lambda a: gcv_md_scalar([sys], [dhat], a)) == ig
        assert argmin(lambda a: gcv_md_scalar([sys] * 3, [dhat] * 3, a)) == ig
        assert argmin(lambda a: upre_md_windowed([sys] * 3, [dhat] * 3, triv,
                                                 [a], s2)) == iu

        # equal per-window parameters
        assert argmin(lambda a: upre_md_windowed([sys], [dhat], win2,
                                                 [a, a], s2)) == iu
        assert argmin(lambda a: gcv_windowed_true(sys, dhat, win2, [a, a])) == ig
        assert argmin(lambda a: mse_learning([sys], [d], [x_true], win2,
                                             [a, a])) == im

        for alpha in (grid[iu], 0.3, 2.0):
            xs = solve_scalar(sys, d, alpha).x
            scale = max(float(np.abs(xs).max()), 1.0)
            x1 = solve_windowed(sys, d, triv, [alpha]).x
            x2 = solve_windowed(sys, d, win2, [alpha, alpha]).x
            assert np.abs(x1 - xs).max() <= 1e-14 * scale
            assert np.abs(x2 - xs).max() <= 1e-14 * scale
    print("criterion 03: PASS - windowed/MD estimators collapse to scalar "
          "ancestors on a 200-point grid (argmin index equality), solves to 1e-14")


def test_criterion_04_upre_unbiasedness():
    t0 = time.perf_counter()
    n = 32
    idx = np.arange(n)
    A = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / 8.0)
    A /= A.sum(axis=1)[:, None]  # 1D smoothing operator, full rank
    rng = np.random.default_rng(404)
    x_true = np.sin(np.linspace(0.0, 3.0 * np.pi, n)) + 0.2
    b = A @ x_true
    sigma = 0.05
    sys = gsvd(A, np.eye(n))
    grid = np.geomspace(5e-3, 2.0, 30)
    trials = 500
    diff_scalar = np.empty((trials, grid.size))
    diff_md = np.empty((trials, grid.size))
    triv = trivial_window(sys)
    for t in range(trials):
        d = b + sigma * rng.standard_normal(n)
        dhat = sys.analyze(d)
        for i, a in enumerate(grid):
            risk = float(np.sum((A @ solve_scalar(sys, d, a).x - b) ** 2)) / n
            diff_scalar[t, i] = upre_scalar(sys, dhat, a, sigma ** 2) - risk
            # the MD form drops the constant -sigma^2 (tail is empty at m = n)
            md = upre_md_windowed([sys], [dhat], triv, [a], sigma ** 2)
            diff_md[t, i] = (md - sigma ** 2) - risk
    for diff in (diff_scalar, diff_md):
        mean = diff.mean(axis=0)
        se = diff.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(mean) <= 2.0 * se), \
            f"bias {np.abs(mean / se).max():.2f} SE"
    dt = time.perf_counter() - t0
    assert dt < 30.0
    z = np.abs(diff_scalar.mean(axis=0)
               / (diff_scalar.std(axis=0, ddof=1) / np.sqrt(trials))).max()
    print(f"criterion 04: PASS - UPRE bias <= {z:.2f} SE over 30 grid points, "
          f"500 realizations, {dt:.1f}s")


def test_criterion_05_windowed_gcv_consistency():
    # index-limit adjudication first: the implemented estimator must equal
    # the brute-force leave-one-out value on representative deficient systems
    def norm(dl, lm):
        dl, lm = np.asarray(dl, float), np.asarray(lm, float)
        s = np.hypot(dl, lm)
        return dl / s, lm / s

    rng = np.random.default_rng(505)
    for delta, lam, members, alphas in [
        ([0.1, 0.4, 0.9, 1.0, 1.0], [1.1, 0.7, 0.5, 0.0, 0.0],
         [[2, 3, 4], [0, 1]], [0.4, 1.9]),
        ([0.0, 0.2, 0.6, 1.0, 1.0, 1.0], [1.0, 0.9, 0.7, 0.5, 0.0, 0.0],
         [[3, 4, 5], [1, 2], [0]], [0.2, 0.9, 3.0]),
    ]:
        dl, lm = norm(delta, lam)
        sys = make_diag_system(dl, lm, m=8)
        dhat = rng.standard_normal(8)
        win = windows_from_members(members, sys.n)
        val = gcv_windowed_true(sys, dhat, win, alphas)
        ref = press_windowed_gcv(sys.delta, sys.lam, win.weights, alphas, dhat)
        assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)

    grid = np.geomspace(0.05, 10.0, 12)
    worst = 0.0
    for _ in range(20):
        A, L, d, sys = _random_problem(rng)
        dhat = sys.analyze(d)
        triv = trivial_window(sys)
        for a in grid:
            ref = gcv_scalar(sys, dhat, a)
            val = gcv_windowed_true(sys, dhat, triv, [a])
            worst = max(worst, abs(val - ref) / max(abs(ref), 1.0))
    assert worst <= 1e-10
    print(f"criterion 05: PASS - leave-one-out oracle matched; P=1 windowed "
          f"GCV within {worst:.1e} of scalar GCV on 20 systems")


def test_criterion_06_separability():
    cfg = SearchConfig(alpha_min=1e-4, alpha_max=10.0, grid_points=80,
                       tol=1e-8, max_iter=400)
    rng = np.random.default_rng(606)
    worst = 0.0
    for k in range(10):
        P = 2 + (k % 2)
        n = 12
        g = np.geomspace(10.0 ** -1.5, 10.0 ** 1.5, n) \
            * np.exp(rng.uniform(-0.2, 0.2, n))
        g = np.sort(g)
        delta = g / np.hypot(g, 1.0)
        lam = 1.0 / np.hypot(g, 1.0)
        sys = make_diag_system(delta, lam, m=n + 3)
        win = indicator_windows(make_partitions(sys, P, "log"), sys, "log")
        dhats = [rng.standard_normal(sys.m) for _ in range(2)]
        systems = [sys, sys]
        noise = NoiseModel([0.01, 0.03])

        assembled = []
        for p in range(P):
            res = minimize_scalar(
                lambda a, p=p: upre_window_separable(systems, dhats, win, p,
                                                     a, noise), cfg)
            assembled.append(res.alpha)
        v_sep = upre_md_windowed(systems, dhats, win, assembled, noise)

        objective = lambda v: upre_md_windowed(systems, dhats, win, v, noise)
        diag = minimize_scalar(
            lambda a: objective(ParamVector(np.full(P, a))), cfg)
        starts = [ParamVector(np.full(P, diag.alpha)),
                  ParamVector(rng.uniform(0.01, 5.0, P)),
                  ParamVector(np.full(P, 0.5))]
        for ws in starts:
            v_joint = minimize_vector(objective, P, cfg, warm_start=ws).value
            gap = abs(v_sep - v_joint) / max(abs(v_sep), 1.0)
            worst = max(worst, gap)
            assert gap <= 1e-10, f"problem {k}, start {ws}: gap {gap:.2e}"
    print(f"criterion 06: PASS - separable per-window minimizers match joint "
          f"minimization to {worst:.1e} on 10 problems (P=2,3)")


def _dct_basis_1d(N):
    t = np.arange(N)
    B = np.cos(np.pi * (2.0 * t[None, :] + 1.0) * np.arange(N)[:, None]
               / (2.0 * N))
    B *= np.sqrt(2.0 / N)
    B[0] *= np.sqrt(0.5)
    return B  # rows are the orthonormal cosine basis vectors


def test_criterion_07_dct_bridge():
    for dims in [(4, 4), (6, 6), (8, 8), (9, 7), (12, 12), (16, 16)]:
        psf = gaussian_psf(2.0, dims)
        T = reflexive_blur_matrix(psf, dims)
        By, Bx = _dct_basis_1d(dims[0]), _dct_basis_1d(dims[1])
        # m x m matrix whose columns are the 2D cosine modes
        m = dims[0] * dims[1]
        V = np.empty((m, m))
        col = 0
        for ky in range(dims[0]):
            for kx in range(dims[1]):
                V[:, col] = np.outer(By[ky], Bx[kx]).ravel()
                col += 1
        # every cosine mode is an eigenvector of the dense blur
        TV = T @ V
        a = np.einsum("ij,ij->j", V, TV)
        assert np.abs(TV - V * a[None, :]).max() <= 1e-9
        for penalty in ("identity", "laplacian"):
            sys = dct_decompose(psf, penalty=penalty)
            assert np.abs(sys.delta ** 2 + sys.lam ** 2 - 1.0).max() <= 1e-12
            if penalty == "identity":
                l = np.ones(m)
            else:
                L2 = dense_laplacian_2d(dims)
                LV = L2 @ V
                l = np.einsum("ij,ij->j", V, LV)
                assert np.abs(LV - V * l[None, :]).max() <= 1e-9
                l = np.abs(l)
            s = np.hypot(np.abs(a), l)
            ref = np.sort(np.abs(a) / s)
            got = np.sort(sys.delta)
            assert np.abs(got - ref).max() <= 1e-9
            ref_lam = np.sort(l / s)
            got_lam = np.sort(sys.lam)
            assert np.abs(got_lam - ref_lam).max() <= 1e-9
    print("criterion 07: PASS - DCT-path spectral values match dense "
          "cosine-basis eigendecompositions (4x4..16x16), delta^2+lambda^2=1")


def test_criterion_08_desk_scale_error_table(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    config = {
        "image_size": 256, "xi": 36.0, "snr_db": 10.0, "seed": 20260814,
        "penalty": "identity", "window_kind": "nonoverlap_linear",
        "window_count": 2, "estimators": ["mse", "upre", "gcv_decoupled"],
        "r_train": 8, "val_count": 2, "include_best": False,
        "output_dir": "out",
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg), "train"]) == 0
    assert main(["--config", str(cfg), "validate"]) == 0
    means = json.loads((tmp_path / "out" / "report.json").read_text())["means"]
    tr = {k: v["train"] for k, v in means.items()}

    # (a) windowed UPRE and GCV within 1.0 pp of windowed MSE
    assert abs(tr["upre_windowed"] - tr["mse_windowed"]) <= 1.0
    assert abs(tr["gcv_decoupled_windowed"] - tr["mse_windowed"]) <= 1.0
    # (b) windowing beats the scalar parameter by at least 3 pp
    assert tr["upre_scalar"] - tr["upre_windowed"] >= 3.0
    assert tr["gcv_decoupled_scalar"] - tr["gcv_decoupled_windowed"] >= 3.0
    # (c) scalar ordering: learned MSE <= UPRE <= GCV
    assert tr["mse_scalar"] <= tr["upre_scalar"] <= tr["gcv_decoupled_scalar"]

    dt = time.perf_counter() - t0
    assert dt <= 600.0
    print(f"criterion 08: PASS - substitute-corpus orderings hold at 256^2 "
          f"(windowed gain {tr['upre_scalar'] - tr['upre_windowed']:.2f} pp, "
          f"UPRE-MSE gap {abs(tr['upre_windowed'] - tr['mse_windowed']):.2f} pp) "
          f"in {dt:.1f}s")


def test_criterion_09_parameter_stabilization(tmp_path, monkeypatch):
    config = {
        "image_size": 16, "xi": 2.0, "snr_db": 25.0, "seed": 1,
        "estimators": ["upre"], "window_count": 2, "r_train": 8,
        "val_count": 0, "include_best": False, "r_sweep": True,
        "output_dir": "out",
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg), "train"]) == 0
    rows = {}
    for line in (tmp_path / "out" / "trend.csv").read_text().splitlines()[1:]:
        r, _, alpha = line.split(",")
        rows[int(r)] = float(alpha)
    assert sorted(rows) == list(range(1, 9))
    early = abs(rows[2] - rows[1]) / rows[1]
    late = abs(rows[8] - rows[6]) / rows[6]
    assert late < early
    print(f"criterion 09: PASS - scalar MD parameter stabilizes: "
          f"|drel(6->8)|={late:.4f} < |drel(1->2)|={early:.4f}")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    config = {
        "image_size": 8, "xi": 1.0, "snr_db": 10.0, "seed": 77,
        "estimators": ["mse", "upre"], "window_kind": "nonoverlap_log",
        "window_count": 2, "r_train": 2, "val_count": 1,
        "include_best": False, "output_dir": "out",
        "search": {"grid_points": 20, "tol": 1e-3, "max_iter": 60},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for run in ("one", "two"):
        wd = tmp_path / run
        wd.mkdir()
        monkeypatch.chdir(wd)
        for cmd in (["gen"], ["train"], ["validate"], ["report"]):
            assert main(["--config", str(cfg)] + cmd) == 0
        outs.append(wd / "out")
    a, b = outs
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*")
                   if p.is_file() and p.name != "timings.txt")
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*")
                   if p.is_file() and p.name != "timings.txt")
    assert rel_a == rel_b and rel_a
    n_bytes = 0
    for rel in rel_a:
        pa, pb = (a / rel).read_bytes(), (b / rel).read_bytes()
        assert pa == pb, f"artifact differs: {rel}"
        n_bytes += len(pa)
    print(f"criterion 10: PASS - two end-to-end runs byte-identical across "
          f"{len(rel_a)} artifacts ({n_bytes} bytes)")
