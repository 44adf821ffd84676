"""Filtered solves and the windowed residual/trace identities against dense
normal-equations references."""

import numpy as np
import pytest

from specwin.solver import (
    ParamVector,
    phi_windowed,
    residual_norm_windowed,
    solve_scalar,
    solve_windowed,
    trace_windowed,
)
from specwin.errors import EmptyWindowError
from specwin.problems import gaussian_psf
from specwin.spectral import MAX_ALPHA, dct_decompose, filter_factors, gsvd
from specwin.windows import cosine_windows, indicator_windows, make_partitions, trivial_window

from oracles import (
    dense_influence_windowed,
    dense_solve_scalar,
    dense_solve_windowed,
    reflexive_blur_matrix,
    tik_matrices,
    windows_from_weights,
)

CASES = [
    (6, 4, "identity"),
    (9, 9, "identity"),
    (10, 7, "laplacian"),
    (12, 10, "random"),
    (16, 12, "laplacian"),
]


def _problem(m, n, penalty, seed):
    rng = np.random.default_rng(seed)
    A, L = tik_matrices(rng, m, n, penalty)
    d = rng.standard_normal(m)
    return A, L, d, gsvd(A, L)


@pytest.mark.parametrize("m,n,penalty", CASES)
def test_solve_scalar_matches_normal_equations(m, n, penalty):
    A, L, d, sys = _problem(m, n, penalty, seed=m * 37 + n)
    for alpha in [0.05, 0.7, 3.0]:
        sol = solve_scalar(sys, d, alpha)
        ref = dense_solve_scalar(A, L, d, alpha)
        assert np.linalg.norm(sol.x - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)
        assert sol.dhat.shape == (m,)
        assert sol.phi_win.shape == (n,)


def test_solve_scalar_rank_deficient_forward():
    rng = np.random.default_rng(11)
    m, n, r = 12, 9, 5
    A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    L = np.eye(n)
    d = rng.standard_normal(m)
    sys = gsvd(A, L)
    assert sys.ell == n - r
    for alpha in [0.1, 1.0]:
        ref = dense_solve_scalar(A, L, d, alpha)
        assert np.linalg.norm(solve_scalar(sys, d, alpha).x - ref) \
            <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("m,n,penalty", CASES)
@pytest.mark.parametrize("kind", ["indicator", "cosine"])
def test_solve_windowed_matches_dense_assembly(m, n, penalty, kind):
    A, L, d, sys = _problem(m, n, penalty, seed=m * 59 + n + len(kind))
    build = indicator_windows if kind == "indicator" else cosine_windows
    alphas = [0.4, 1.3, 0.08]
    try:
        win = build(make_partitions(sys, 3, spacing="log"), sys, spacing="log")
    except EmptyWindowError:  # clustered spectrum; two windows still cover it
        win = build(make_partitions(sys, 2, spacing="log"), sys, spacing="log")
        alphas = alphas[:2]
    sol = solve_windowed(sys, d, win, alphas)
    ref = dense_solve_windowed(A, L, sys, win, alphas, d)
    assert np.linalg.norm(sol.x - ref) <= 1e-9 * max(np.linalg.norm(ref), 1.0)


@pytest.mark.parametrize("m,n,penalty", CASES)
def test_windowed_residual_and_trace_match_dense(m, n, penalty):
    A, L, d, sys = _problem(m, n, penalty, seed=m + 97 * n)
    parts = make_partitions(sys, 2)
    for win in (indicator_windows(parts, sys), cosine_windows(parts, sys)):
        alphas = [0.9, 0.15]
        x = dense_solve_windowed(A, L, sys, win, alphas, d)
        r_ref = float(np.sum((A @ x - d) ** 2))
        r_val = residual_norm_windowed(sys, sys.analyze(d), win, alphas)
        assert abs(r_val - r_ref) <= 1e-10 * max(r_ref, 1.0)

        M = dense_influence_windowed(A, L, sys, win, alphas)
        assert np.abs(M - M.T).max() <= 1e-12
        t_ref = float(np.trace(M))
        t_val = trace_windowed(sys, win, alphas)
        assert abs(t_val - t_ref) <= 1e-10 * max(t_ref, 1.0)


def test_single_window_collapses_to_scalar():
    _, _, d, sys = _problem(10, 8, "laplacian", seed=13)
    win = trivial_window(sys)
    for alpha in [0.02, 0.6, 4.0]:
        xs = solve_scalar(sys, d, alpha).x
        xw = solve_windowed(sys, d, win, [alpha]).x
        assert np.abs(xw - xs).max() <= 1e-14 * max(np.abs(xs).max(), 1.0)


def test_equal_parameters_collapse_to_scalar():
    _, _, d, sys = _problem(12, 10, "identity", seed=17)
    parts = make_partitions(sys, 3)
    alpha = 0.37
    for win in (indicator_windows(parts, sys), cosine_windows(parts, sys)):
        xs = solve_scalar(sys, d, alpha).x
        xw = solve_windowed(sys, d, win, [alpha] * 3).x
        assert np.abs(xw - xs).max() <= 1e-14 * max(np.abs(xs).max(), 1.0)


def test_phi_windowed_blends_filter_factors():
    _, _, _, sys = _problem(9, 7, "identity", seed=19)
    parts = make_partitions(sys, 2)
    win = cosine_windows(parts, sys)
    alphas = ParamVector([0.5, 2.0])
    blend = phi_windowed(sys, win, alphas)
    manual = (win.weights[0] * filter_factors(sys, 0.5).phi
              + win.weights[1] * filter_factors(sys, 2.0).phi)
    assert np.array_equal(blend, manual)
    assert np.all((blend >= 0.0) & (blend <= 1.0))


def test_phi_windowed_cuts_no_members(monkeypatch):
    """Only the per-window forms cut window members at ell and q_star:
    phi_windowed on indicator windows makes no cut, and on each window's
    band members it equals that window's own filter bit for bit."""
    import specwin.solver as solver_mod

    sys = dct_decompose(gaussian_psf(2.0, (16, 16)), "laplacian")
    win = indicator_windows(make_partitions(sys, 3), sys)
    alphas = ParamVector([0.02, 0.3, 4.0])
    cuts = []
    real = solver_mod._cut
    monkeypatch.setattr(solver_mod, "_cut",
                        lambda *args: cuts.append(args) or real(*args))
    phi = phi_windowed(sys, win, alphas)
    assert cuts == []
    band = solver_mod._Band(sys, win)
    for p, cell in enumerate(band.cells):
        own = band.window_phi(p, alphas.values[p])
        assert np.array_equal(own, phi[sys.ell:sys.q_star][cell.mid])
    assert len(cuts) == 2 * win.P  # each window cut once, at first use


def test_dct_solve_matches_dense_eigensolve():
    dims = (6, 5)
    n1, n2 = dims
    r = np.arange(n1) - (n1 - 1) / 2.0
    c = np.arange(n2) - (n2 - 1) / 2.0
    psf = np.exp(-(r[:, None] ** 2 + c[None, :] ** 2) / 3.0)
    psf /= psf.sum()
    sys = dct_decompose(psf, penalty="identity")
    T = reflexive_blur_matrix(psf, dims)
    rng = np.random.default_rng(23)
    d = rng.standard_normal(dims)

    # scalar solve against dense normal equations on the assembled operator
    alpha = 0.21
    ref = dense_solve_scalar(T, np.eye(sys.n), d.ravel(), alpha)
    sol = solve_scalar(sys, d, alpha)
    assert sol.x.shape == dims
    assert np.abs(sol.x.ravel() - ref).max() <= 1e-9

    # windowed solve against an independent eigendecomposition of T; windows
    # keyed on |eigenvalue|, which is gamma for the identity penalty
    parts = make_partitions(sys, 2)
    win = indicator_windows(parts, sys)
    alphas = [0.05, 1.4]
    evals, V = np.linalg.eigh(T)
    gam = np.abs(evals)
    pos = np.searchsorted(parts[::-1], gam, side="left")
    widx = np.clip(win.P - pos, 0, win.P - 1)
    coef = np.array([evals[j] / (evals[j] ** 2 + alphas[widx[j]] ** 2)
                     for j in range(sys.n)])
    x_ref = V @ (coef * (V.T @ d.ravel()))
    x_win = solve_windowed(sys, d, win, alphas).x
    assert np.abs(x_win.ravel() - x_ref).max() <= 1e-9


def test_param_vector_validation():
    v = ParamVector([0.1, 2.0])
    assert v.P == 2 and len(v) == 2
    with pytest.raises(ValueError):
        ParamVector([])
    with pytest.raises(ValueError):
        ParamVector([1.0, 0.0])
    with pytest.raises(ValueError):
        ParamVector([1.0, -2.0])
    with pytest.raises(ValueError):
        ParamVector([np.nan])
    with pytest.raises(ValueError):
        ParamVector([np.inf])
    with pytest.raises(ValueError):
        ParamVector([[1.0, 2.0], [3.0, 4.0]])
    # a parameter must have a finite square: alpha**2 enters every filter
    assert ParamVector([MAX_ALPHA]).values[0] ** 2 < np.inf
    _, _, d, sys = _problem(8, 6, "identity", seed=31)
    for bad in (np.nextafter(MAX_ALPHA, np.inf), 1e200):
        with pytest.raises(ValueError, match="finite square"):
            ParamVector([1.0, bad])
        with pytest.raises(ValueError, match="finite square"):
            filter_factors(sys, bad)
        with pytest.raises(ValueError, match="finite square"):
            solve_scalar(sys, d, bad)


def test_shape_mismatches_are_rejected():
    _, _, d, sys = _problem(8, 6, "identity", seed=31)
    win = indicator_windows(make_partitions(sys, 2), sys)
    with pytest.raises(ValueError):
        solve_windowed(sys, d, win, [0.5])  # 1 parameter for 2 windows
    with pytest.raises(ValueError):
        solve_scalar(sys, d[:-1], 0.5)  # short data vector
    with pytest.raises(ValueError):
        residual_norm_windowed(sys, sys.analyze(d), win, [0.5, 0.5, 0.5])


def test_window_phi_rejects_bad_windows_and_parameters():
    import specwin.solver as solver_mod

    sys = dct_decompose(gaussian_psf(2.0, (8, 8)), "laplacian")
    parts = make_partitions(sys, 2)
    band = solver_mod._Band(sys, indicator_windows(parts, sys))
    for p in (-1, 2):
        with pytest.raises(IndexError, match="out of range"):
            band.window_phi(p, 0.5)
    for alpha in (0.0, -0.5, np.nan, np.inf, 2.0 * MAX_ALPHA):
        with pytest.raises(ValueError, match="positive"):
            band.window_phi(0, alpha)
    # overlapping windows give each window's partition cell, the indicator
    # window over the same partitions
    overlapping = solver_mod._Band(sys, cosine_windows(parts, sys))
    for p in range(2):
        assert np.array_equal(overlapping.window_phi(p, 0.5),
                              band.window_phi(p, 0.5))
    with pytest.raises(IndexError, match="out of range"):
        overlapping.window_phi(2, 0.5)
    weights = np.vstack([np.ones(sys.n), np.zeros(sys.n)])
    empty = solver_mod._Band(sys, windows_from_weights(weights))
    with pytest.raises(EmptyWindowError):
        empty.window_phi(1, 0.5)
    # a valid call returns a new array each time
    first = band.window_phi(0, 0.5)
    assert band.window_phi(0, 0.5) is not first
    first[:] = -1.0
    assert np.all(band.window_phi(0, 0.5) >= 0.0)
