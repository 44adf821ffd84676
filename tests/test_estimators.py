"""Selection objectives against dense references, the leave-one-out oracle,
and their documented reductions."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from specwin.errors import EmptyWindowError, SaturatedTraceError
from specwin.estimators import (
    MseObjective,
    NoiseModel,
    PooledObjectives,
    estimate_sigma2,
    gcv_md_scalar,
    gcv_scalar,
    gcv_windowed_decoupled,
    gcv_windowed_true,
    gcv_windowed_true_md,
    mse_learning,
    upre_md_windowed,
    upre_scalar,
    upre_window_separable,
    windowed_gcv_terms,
)
from specwin.optimize import SearchConfig, minimize_scalar, minimize_vector
from specwin.solver import (ParamVector, phi_windowed, residual_norm_windowed,
                            solve_windowed, trace_windowed)
from specwin.problems import gaussian_psf
from specwin.spectral import dct_decompose, filter_factors, gsvd
from specwin.windows import cosine_windows, indicator_windows, make_partitions, trivial_window

from oracles import (
    dense_gcv_scalar,
    dense_influence_scalar,
    dense_influence_windowed,
    dense_solve_scalar,
    dense_solve_windowed,
    dense_upre_scalar,
    direct_mse,
    loop_filters,
    loop_gcv_md_scalar,
    loop_gcv_windowed_decoupled,
    loop_gcv_windowed_true_md,
    loop_residual_windowed,
    loop_trace_windowed,
    loop_upre_md_windowed,
    loop_upre_window_separable,
    make_diag_system,
    press_windowed_gcv,
    tik_matrices,
    windows_from_members,
    windows_from_weights,
)

ALPHA_GRID = np.geomspace(5e-3, 8.0, 9)


def _problem(m, n, penalty, seed):
    rng = np.random.default_rng(seed)
    A, L = tik_matrices(rng, m, n, penalty)
    d = rng.standard_normal(m)
    sys = gsvd(A, L)
    return A, L, d, sys, sys.analyze(d)


def _md_problem(seed, m=10, n=7, penalty="laplacian", R=2):
    """One dense system with R data sets: (A, L, sys, data, dhats)."""
    rng = np.random.default_rng(seed)
    A, L = tik_matrices(rng, m, n, penalty)
    sys = gsvd(A, L)
    data = [rng.standard_normal(m) for _ in range(R)]
    return A, L, sys, data, [sys.analyze(d) for d in data]


# ---------------------------------------------------------------------------
# scalar UPRE
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,penalty", [(8, 6, "identity"), (12, 9, "laplacian"),
                                         (10, 10, "random")])
def test_upre_scalar_matches_dense(m, n, penalty):
    A, L, d, sys, dhat = _problem(m, n, penalty, seed=m + n)
    s2 = 0.04
    for alpha in ALPHA_GRID:
        val = upre_scalar(sys, dhat, alpha, s2)
        ref = dense_upre_scalar(A, L, d, alpha, s2)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_upre_scalar_noiseless_reduces_to_residual():
    _, _, _, sys, dhat = _problem(9, 7, "identity", seed=41)
    vals = np.array([upre_scalar(sys, dhat, a, 0.0) for a in ALPHA_GRID])
    # with sigma = 0 the objective is the pure residual, decreasing toward 0+
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.argmin(vals) == 0


def test_upre_scalar_large_alpha_limit():
    _, _, d, sys, dhat = _problem(8, 8, "identity", seed=43)
    s2 = 0.1
    val = upre_scalar(sys, dhat, 1e8, s2)
    lim = float(d @ d) / sys.m - s2
    assert abs(val - lim) <= 1e-6 * abs(lim)


def test_upre_scalar_rejects_bad_alpha_and_noise():
    _, _, _, sys, dhat = _problem(6, 5, "identity", seed=47)
    with pytest.raises(ValueError):
        upre_scalar(sys, dhat, 0.0, 0.1)
    with pytest.raises(ValueError):
        upre_scalar(sys, dhat, -1.0, 0.1)
    with pytest.raises(ValueError):
        upre_scalar(sys, dhat, 1.0, -0.5)


def test_noise_model_validation():
    nm = NoiseModel([0.1, 0.2])
    assert len(nm) == 2
    NoiseModel(0.0)  # noiseless is representable
    with pytest.raises(ValueError):
        NoiseModel([-0.1])
    with pytest.raises(ValueError):
        NoiseModel([np.nan])
    with pytest.raises(ValueError):
        NoiseModel([np.inf])


# ---------------------------------------------------------------------------
# MD windowed UPRE and its separable form
# ---------------------------------------------------------------------------

def test_upre_md_windowed_offset_from_scalar_is_constant():
    _, _, _, sys, dhat = _problem(11, 7, "laplacian", seed=53)
    s2 = 0.03
    win = trivial_window(sys)
    tail = float(np.sum(dhat[sys.n:] ** 2))
    expected_offset = s2 - tail / sys.m
    for alpha in ALPHA_GRID:
        md = upre_md_windowed([sys], [dhat], win, [alpha], s2)
        sc = upre_scalar(sys, dhat, alpha, s2)
        assert abs((md - sc) - expected_offset) <= 1e-12
    grid = [upre_md_windowed([sys], [dhat], win, [a], s2) for a in ALPHA_GRID]
    ref = [upre_scalar(sys, dhat, a, s2) for a in ALPHA_GRID]
    assert int(np.argmin(grid)) == int(np.argmin(ref))


def test_upre_md_windowed_matches_dense_assembly():
    A, L, sys, data, dhats = _md_problem(seed=59)
    sigma2 = [0.02, 0.05]
    win = indicator_windows(make_partitions(sys, 2, spacing="log"), sys,
                            spacing="log")
    alphas = [0.6, 0.09]
    val = upre_md_windowed([sys] * 2, dhats, win, alphas, NoiseModel(sigma2))
    tr = float(np.trace(dense_influence_windowed(A, L, sys, win, alphas)))
    ref = 0.0
    for d, dhat, s2 in zip(data, dhats, sigma2):
        x = dense_solve_windowed(A, L, sys, win, alphas, d)
        tail = float(np.sum(dhat[sys.n:] ** 2))
        ref += float(np.sum((A @ x - d) ** 2)) - tail + 2.0 * s2 * tr
    ref /= 2 * sys.m
    assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_upre_md_windowed_equal_systems_average():
    _, _, _, sys, dhat = _problem(9, 6, "identity", seed=61)
    win = trivial_window(sys)
    one = upre_md_windowed([sys], [dhat], win, [0.4], 0.02)
    three = upre_md_windowed([sys] * 3, [dhat] * 3, win, [0.4], 0.02)
    assert abs(three - one) <= 1e-12 * max(abs(one), 1.0)


def test_upre_separable_sums_to_the_coupled_value():
    _, _, sys, _, dhats = _md_problem(seed=67, R=3)
    noise = NoiseModel([0.01, 0.04, 0.02])
    for P in (2, 3):
        win = indicator_windows(make_partitions(sys, P, spacing="log"), sys,
                                spacing="log")
        alphas = list(np.geomspace(0.08, 1.5, P))
        total = sum(upre_window_separable([sys] * 3, dhats, win, p, alphas[p],
                                          noise) for p in range(P))
        coupled = upre_md_windowed([sys] * 3, dhats, win, alphas, noise)
        assert abs(total - coupled) <= 1e-14 * max(abs(coupled), 1.0)


def test_upre_separable_rejects_overlap_and_empty_windows():
    _, _, _, sys, dhat = _problem(10, 8, "identity", seed=71)
    cos = cosine_windows(make_partitions(sys, 2, spacing="log"), sys, spacing="log")
    with pytest.raises(ValueError, match="separable form invalid"):
        upre_window_separable([sys], [dhat], cos, 0, 0.5, 0.01)
    empty = windows_from_weights(np.vstack([np.ones(sys.n), np.zeros(sys.n)]))
    with pytest.raises(EmptyWindowError):
        upre_window_separable([sys], [dhat], empty, 1, 0.5, 0.01)


def test_md_shape_mismatches_are_rejected():
    _, _, sys, _, dhats = _md_problem(seed=73)
    win = trivial_window(sys)
    with pytest.raises(ValueError):
        upre_md_windowed([sys] * 2, dhats[:1], win, [0.5], 0.01)
    with pytest.raises(ValueError):
        upre_md_windowed([sys] * 2, dhats, win, [0.5], NoiseModel([0.1, 0.1, 0.1]))
    with pytest.raises(ValueError):
        upre_md_windowed([sys] * 2, dhats, win, [0.5, 0.7], 0.01)


def test_multi_data_forms_reject_distinct_systems():
    # two systems of the same shape: only their identity tells them apart
    _, _, sys_a, data, dhats = _md_problem(seed=75)
    _, _, sys_b, _, _ = _md_problem(seed=76)
    systems = [sys_a, sys_b]
    win = indicator_windows(make_partitions(sys_a, 2), sys_a)
    truths = [np.zeros(sys_a.n)] * 2
    forms = [
        lambda: upre_md_windowed(systems, dhats, win, [0.5, 0.7], 0.01),
        lambda: upre_window_separable(systems, dhats, win, 0, 0.5, 0.01),
        lambda: gcv_md_scalar(systems, dhats, 0.5),
        lambda: gcv_windowed_true_md(systems, dhats, win, [0.5, 0.7]),
        lambda: gcv_windowed_decoupled(systems, dhats, win, 0, 0.5),
        lambda: mse_learning(systems, data, truths, win, [0.5, 0.7]),
    ]
    for form in forms:
        with pytest.raises(ValueError, match="one common system"):
            form()


# ---------------------------------------------------------------------------
# GCV family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,penalty", [(8, 6, "identity"), (12, 9, "laplacian"),
                                         (11, 11, "random")])
def test_gcv_scalar_matches_dense(m, n, penalty):
    A, L, d, sys, dhat = _problem(m, n, penalty, seed=m * n)
    for alpha in ALPHA_GRID:
        val = gcv_scalar(sys, dhat, alpha)
        ref = dense_gcv_scalar(A, L, d, alpha)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_gcv_scalar_limits_and_saturation():
    _, _, d, sys, dhat = _problem(9, 9, "identity", seed=79)
    lim = float(d @ d) / sys.m
    assert abs(gcv_scalar(sys, dhat, 1e8) - lim) <= 1e-6 * lim
    with pytest.raises(SaturatedTraceError, match="saturated trace"):
        gcv_scalar(sys, dhat, 1e-12)  # m == n full rank: trace -> m


def test_gcv_md_scalar_reductions_and_dense():
    A, L, sys, data, dhats = _md_problem(seed=83)
    one = gcv_md_scalar([sys], dhats[:1], 0.7)
    assert one == gcv_scalar(sys, dhats[0], 0.7)
    rep = gcv_md_scalar([sys] * 3, [dhats[0]] * 3, 0.7)
    assert abs(rep - one) <= 1e-12 * abs(one)
    # dense assembly for two data sets
    M = 2 * sys.m
    for alpha in [0.09, 0.8]:
        rsum = trsum = 0.0
        for d in data:
            x = dense_solve_scalar(A, L, d, alpha)
            rsum += float(np.sum((A @ x - d) ** 2))
            trsum += float(np.trace(dense_influence_scalar(A, L, alpha)))
        ref = (rsum / M) / (1.0 - trsum / M) ** 2
        val = gcv_md_scalar([sys] * 2, dhats, alpha)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_windowed_gcv_terms_bounds():
    _, _, _, sys, _ = _problem(12, 9, "identity", seed=89)
    win = cosine_windows(make_partitions(sys, 3, spacing="log"), sys, spacing="log")
    terms = windowed_gcv_terms(sys, win, [0.3, 0.9, 2.7])
    assert terms.mu.shape == (3,) and terms.nu.shape == (3,)
    assert np.all(terms.mu > 0.0) and np.all(terms.mu <= 1.0)
    assert np.all(terms.nu >= terms.mu) and np.all(terms.nu <= 1.0)
    single = windowed_gcv_terms(sys, trivial_window(sys), [0.5])
    assert single.mu[0] == pytest.approx(single.nu[0], abs=1e-15)


def _normalized(delta, lam):
    delta = np.asarray(delta, float)
    lam = np.asarray(lam, float)
    s = np.hypot(delta, lam)
    return delta / s, lam / s


PRESS_CASES = [
    # (delta, lam, m, window member lists, alphas)
    ([0.1, 0.5, 0.9, 1.3], [1.0, 0.8, 0.6, 0.4], 4, [[2, 3], [0, 1]], [0.3, 1.7]),
    ([0.1, 0.3, 0.7, 1.1, 1.6], [1.2, 1.0, 0.8, 0.5, 0.3], 8,
     [[3, 4], [0, 1, 2]], [0.5, 2.2]),
    # penalty-null tail: q* < n
    ([0.1, 0.4, 0.9, 1.0, 1.0], [1.1, 0.7, 0.5, 0.0, 0.0], 8,
     [[2, 3, 4], [0, 1]], [0.4, 1.9]),
    # forward-null head: ell > 0
    ([0.0, 0.0, 0.5, 0.9, 1.4], [1.0, 0.9, 0.8, 0.6, 0.3], 8,
     [[3, 4], [0, 1, 2]], [0.6, 1.4]),
    # both deficiencies, three windows
    ([0.0, 0.2, 0.6, 1.0, 1.0, 1.0], [1.0, 0.9, 0.7, 0.5, 0.0, 0.0], 8,
     [[3, 4, 5], [1, 2], [0]], [0.2, 0.9, 3.0]),
]


@pytest.mark.parametrize("case", range(len(PRESS_CASES)))
def test_gcv_windowed_true_equals_leave_one_out(case):
    delta, lam, m, members, alphas = PRESS_CASES[case]
    delta, lam = _normalized(delta, lam)
    sys = make_diag_system(delta, lam, m=m)
    rng = np.random.default_rng(100 + case)
    dhat = rng.standard_normal(m)
    win = windows_from_members(members, sys.n)
    val = gcv_windowed_true(sys, dhat, win, alphas)
    ref = press_windowed_gcv(sys.delta, sys.lam, win.weights, alphas, dhat)
    assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_gcv_windowed_true_equals_leave_one_out_overlapping():
    delta, lam = _normalized([0.2, 0.5, 0.8, 1.1, 1.5], [1.2, 1.0, 0.7, 0.5, 0.2])
    sys = make_diag_system(delta, lam, m=8)
    rng = np.random.default_rng(131)
    dhat = rng.standard_normal(8)
    w = np.array([[0.0, 0.25, 0.5, 0.75, 1.0], [1.0, 0.75, 0.5, 0.25, 0.0]])
    win = windows_from_weights(w)
    val = gcv_windowed_true(sys, dhat, win, [0.7, 2.5])
    ref = press_windowed_gcv(sys.delta, sys.lam, w, [0.7, 2.5], dhat)
    assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_gcv_windowed_true_collapses_to_scalar():
    for seed, (m, n, penalty) in enumerate([(8, 6, "identity"), (10, 7, "laplacian"),
                                            (9, 9, "random")]):
        _, _, _, sys, dhat = _problem(m, n, penalty, seed=140 + seed)
        win = trivial_window(sys)
        for alpha in ALPHA_GRID:
            ref = gcv_scalar(sys, dhat, alpha)
            val = gcv_windowed_true(sys, dhat, win, [alpha])
            assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_gcv_windowed_true_single_index_toy():
    # one spectral value gamma = 1 at alpha = 1: the leave-one-out coefficient
    # collapses to 1 and the value is exactly the squared data coefficient
    delta, lam = _normalized([1.0], [1.0])
    sys = make_diag_system(delta, lam)
    win = windows_from_members([[0]], 1)
    for c in [0.3, -1.7]:
        val = gcv_windowed_true(sys, np.array([c]), win, [1.0])
        assert val == pytest.approx(c * c, rel=1e-15)


def test_gcv_windowed_true_large_alpha_limit():
    _, _, d, sys, dhat = _problem(10, 10, "identity", seed=149)
    win = indicator_windows(make_partitions(sys, 2, spacing="log"), sys,
                            spacing="log")
    val = gcv_windowed_true(sys, dhat, win, [1e8, 1e8])
    lim = float(d @ d) / sys.m
    assert abs(val - lim) <= 1e-6 * lim


def test_gcv_windowed_true_saturates_on_vanishing_mu():
    delta, lam = _normalized([0.5, 0.9, 1.2], [1.0, 0.7, 0.3])
    sys = make_diag_system(delta, lam)
    win = windows_from_members([[1, 2], [0]], 3)
    with pytest.raises(SaturatedTraceError, match="saturated window trace"):
        gcv_windowed_true(sys, np.ones(3), win, [1e-12, 1e-12])


def test_gcv_windowed_true_saturates_where_gcv_scalar_does():
    # near saturation the coupled form cancels terms of size 1/mu: it must
    # raise where the scalar form does, not return a value short of
    # log10(1/mu) digits
    g = np.geomspace(1e-3, 1e3, 9)
    sys = make_diag_system(g / np.hypot(g, 1.0), 1.0 / np.hypot(g, 1.0))
    dhat = np.random.default_rng(211).standard_normal(9)
    win = trivial_window(sys)
    saturated = []
    for alpha in (1e-3, 1e-5, 1e-7, 1e-9):
        try:
            ref = gcv_scalar(sys, dhat, alpha)
        except SaturatedTraceError:
            saturated.append(alpha)
            with pytest.raises(SaturatedTraceError, match="saturated window trace"):
                gcv_windowed_true(sys, dhat, win, [alpha])
            continue
        assert gcv_windowed_true(sys, dhat, win, [alpha]) == pytest.approx(ref, rel=1e-10)
    assert saturated == [1e-7, 1e-9]


def test_gcv_windowed_true_md_averages_per_set_values():
    _, _, sys, _, dhats = _md_problem(seed=151, R=3)
    win = indicator_windows(make_partitions(sys, 2, spacing="log"), sys,
                            spacing="log")
    alphas = [0.4, 1.2]
    vals = [gcv_windowed_true(sys, dh, win, alphas) for dh in dhats]
    md = gcv_windowed_true_md([sys] * 3, dhats, win, alphas)
    assert md == pytest.approx(np.mean(vals), rel=1e-15)


def test_gcv_windowed_decoupled_reduction_and_masked_residual():
    _, _, sys, _, dhats = _md_problem(seed=157)
    systems = [sys] * 2
    # P = 1 is exactly the pooled scalar GCV
    for alpha in [0.07, 0.9]:
        assert gcv_windowed_decoupled(systems, dhats, trivial_window(sys), 0,
                                      alpha) == gcv_md_scalar(systems, dhats, alpha)
    # window-masked numerator assembled by hand from the filter factors
    win = indicator_windows(make_partitions(sys, 2, spacing="log"), sys,
                            spacing="log")
    M = 2 * sys.m
    for p, alpha in [(0, 0.5), (1, 0.12)]:
        ff = filter_factors(sys, alpha)
        idx = win.member_indices(p)
        num = 0.0
        tr = 0.0
        for dh in dhats:
            num += float(np.sum((ff.psi[idx] * dh[idx]) ** 2))
            tr += float(np.sum(ff.phi[idx]))
            if p == win.P - 1:
                num += float(np.sum(dh[sys.n:] ** 2))
        ref = (num / M) / (1.0 - tr / M) ** 2
        val = gcv_windowed_decoupled(systems, dhats, win, p, alpha)
        assert val == pytest.approx(ref, rel=1e-14)


def test_gcv_windowed_decoupled_rejects_overlap():
    _, _, _, sys, dhat = _problem(10, 8, "identity", seed=163)
    cos = cosine_windows(make_partitions(sys, 2, spacing="log"), sys, spacing="log")
    with pytest.raises(ValueError, match="non-overlapping"):
        gcv_windowed_decoupled([sys], [dhat], cos, 0, 0.5)


# ---------------------------------------------------------------------------
# learning objective and the variance fallback
# ---------------------------------------------------------------------------

def test_mse_learning_zero_at_truth_and_plain_error():
    rng = np.random.default_rng(167)
    A, L = tik_matrices(rng, 9, 7, "identity")
    sys = gsvd(A, L)
    d = rng.standard_normal(9)
    win = trivial_window(sys)
    sol = solve_windowed(sys, d, win, [0.3])
    assert mse_learning([sys], [d], [sol.x], win, [0.3]) <= 1e-28
    truth = rng.standard_normal(7)
    val = mse_learning([sys], [d], [truth], win, [0.3])
    assert val == pytest.approx(float(np.sum((sol.x - truth) ** 2)), rel=1e-12)


def test_mse_learning_averages_and_validates():
    _, _, sys, data, dhats = _md_problem(seed=173)
    systems = [sys] * 2
    win = trivial_window(sys)
    rng = np.random.default_rng(0)
    truths = [rng.standard_normal(sys.n) for _ in systems]
    per_set = [mse_learning([sys], [d], [t], win, [0.4])
               for d, t in zip(data, truths)]
    both = mse_learning(systems, data, truths, win, [0.4])
    assert both == pytest.approx(np.mean(per_set), rel=1e-14)
    # precomputed spectral data takes the same path
    fast = mse_learning(systems, data, truths, win, [0.4], dhats=dhats)
    assert fast == both
    with pytest.raises(ValueError, match="missing truths"):
        mse_learning(systems, data, None, win, [0.4])
    with pytest.raises(ValueError):
        mse_learning(systems, data, truths[:1], win, [0.4])
    with pytest.raises(ValueError, match="count mismatch"):
        mse_learning(systems, data, truths, win, [0.4, 0.5])


def _no_transform(v):
    raise AssertionError("transform called inside an objective evaluation")


def _box_psf(dims, widths):
    """Separable centered box blur.  Its reflexive spectrum along a side n
    vanishes at every frequency k = 2 n j / w below n, which gives ell > 0
    wherever such a k is an integer."""
    rows = []
    for n, w in zip(dims, widths):
        v = np.zeros(n)
        v[(n - w) // 2: (n - w) // 2 + w] = 1.0
        rows.append(v)
    psf = np.outer(*rows)
    return psf / psf.sum()


@st.composite
def windowed_dct_cases(draw):
    """A DCT system with ell >= 0 (box PSFs) and q_star <= n (Laplacian
    penalty), indicator or cosine windows, P and R in 1..4, and parameters
    across six decades."""
    dims = (draw(st.integers(4, 24)), draw(st.integers(4, 24)))
    if draw(st.booleans()):
        # widths share the parity of the side, so the box stays centered
        widths = [draw(st.sampled_from(range(2 + n % 2, min(n, 7) + 1, 2)))
                  for n in dims]
        psf = _box_psf(dims, widths)
    else:
        psf = gaussian_psf(draw(st.floats(0.3, 6.0)), dims)
    sys = dct_decompose(psf, draw(st.sampled_from(["identity", "laplacian"])))
    P = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([indicator_windows, cosine_windows]))
    spacing = draw(st.sampled_from(["linear", "log"]))
    try:
        windows = kind(make_partitions(sys, P, spacing), sys, spacing)
    except EmptyWindowError:
        assume(False)
    R = draw(st.integers(1, 4))
    alphas = [10.0 ** e for e in draw(st.lists(
        st.floats(-3.0, 3.0), min_size=P, max_size=P))]
    return sys, windows, R, alphas, draw(st.integers(0, 2 ** 32 - 1))


# both deficiencies at once: ell > 0 and q_star < n
_BOX = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
DEFICIENT_CASE = (_BOX, cosine_windows(make_partitions(_BOX, 3), _BOX), 3,
                  [0.01, 0.4, 20.0], 7)


@given(windowed_dct_cases())
@example(DEFICIENT_CASE)
@settings(max_examples=80, deadline=None)
def test_mse_objective_coefficient_space_matches_direct_property(case):
    sys, windows, R, alphas, seed = case
    rng = np.random.default_rng(seed)
    truths = [rng.standard_normal(sys.dims) for _ in range(R)]
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(R)]
    ref = direct_mse([sys] * R, dhats, truths, windows, alphas)
    # the prepared objective may not transform anything
    blind = replace(sys, _analyze=_no_transform, _synthesize=_no_transform)
    val = MseObjective(blind, dhats, truths, windows)(alphas)
    assert abs(val - ref) <= 1e-12 * ref


@given(windowed_dct_cases())
@example(DEFICIENT_CASE)
@settings(max_examples=80, deadline=None)
def test_windowed_kernel_matches_per_window_loops_property(case):
    sys, windows, R, alphas, seed = case
    rng = np.random.default_rng(seed)
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(R)]
    sigma2 = rng.uniform(0.0, 0.1, R)
    # windowed objectives work on spectral data only: no transform allowed
    blind = replace(sys, _analyze=_no_transform, _synthesize=_no_transform)
    phi, _ = loop_filters(sys, windows, alphas)
    assert np.abs(phi_windowed(blind, windows, alphas) - phi).max() \
        <= 1e-12 * np.abs(phi).max()
    pairs = [
        (residual_norm_windowed(blind, dhats[0], windows, alphas),
         loop_residual_windowed(sys, dhats[0], windows, alphas)),
        (trace_windowed(blind, windows, alphas),
         loop_trace_windowed(sys, windows, alphas)),
        (upre_md_windowed([blind] * R, dhats, windows, alphas, NoiseModel(sigma2)),
         loop_upre_md_windowed([sys] * R, dhats, windows, alphas, sigma2)),
        (gcv_windowed_true_md([blind] * R, dhats, windows, alphas),
         loop_gcv_windowed_true_md([sys] * R, dhats, windows, alphas)),
    ]
    for val, ref in pairs:
        assert abs(val - ref) <= 1e-12 * abs(ref)


@st.composite
def pooled_cases(draw):
    """One diagonal system with m >= n, ell > 0 and q_star < n allowed, one
    window set (P in 1..4), R in 1..6 data sets, and two parameter vectors:
    one across [1e-2, 1e2] and one below 1e-12, at which every phi of the
    band rounds to 1, so the GCV traces saturate where m == n and ell == 0.

    The generalized values span [1e-3, 1e3] with both ends present, so at
    the first vector no GCV denominator comes near the saturation floor."""
    P = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([indicator_windows, cosine_windows]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(9, 16))
    m = n + draw(st.sampled_from([0, 0, 3]))
    ell, nulls = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    g = np.sort(np.concatenate([[1e-3, 1e3], 10.0 ** rng.uniform(-3, 3, n - 2)]))
    delta, lam = g / np.hypot(g, 1.0), 1.0 / np.hypot(g, 1.0)
    delta[:ell], lam[:ell] = 0.0, 1.0
    delta[n - nulls:], lam[n - nulls:] = 1.0, 0.0
    sys = make_diag_system(delta, lam, m=m)
    try:
        windows = kind(make_partitions(sys, P, "log"), sys, "log")
    except EmptyWindowError:
        assume(False)
    alphas = [10.0 ** e for e in draw(st.lists(
        st.floats(-2.0, 2.0), min_size=P, max_size=P))]
    tiny = [10.0 ** e for e in draw(st.lists(
        st.floats(-14.0, -12.0), min_size=P, max_size=P))]
    return sys, windows, draw(st.integers(1, 6)), alphas, tiny, seed


def _same_or_both_saturate(value, oracle):
    """value() equals oracle() to 1e-12 relative, or both saturate."""
    try:
        ref = oracle()
    except SaturatedTraceError:
        with pytest.raises(SaturatedTraceError):
            value()
        return
    assert abs(value() - ref) <= 1e-12 * abs(ref)


@given(pooled_cases())
@settings(max_examples=150, deadline=None)
def test_pooled_objectives_match_per_system_loops_property(case):
    sys, windows, R, alphas, tiny, seed = case
    rng = np.random.default_rng(seed)
    systems = [sys] * R
    dhats = [rng.standard_normal(sys.m) for _ in range(R)]
    sigma2 = rng.uniform(0.0, 0.1, R)
    noise = NoiseModel(sigma2)
    separable = windows.nonoverlapping
    for a in (alphas, tiny):
        forms = [
            (lambda: upre_md_windowed(systems, dhats, windows, a, noise),
             lambda: loop_upre_md_windowed(systems, dhats, windows, a, sigma2)),
            (lambda: gcv_windowed_true_md(systems, dhats, windows, a),
             lambda: loop_gcv_windowed_true_md(systems, dhats, windows, a)),
            (lambda: gcv_md_scalar(systems, dhats, a[0]),
             lambda: loop_gcv_md_scalar(systems, dhats, a[0])),
        ]
        for p in range(len(a) if separable else 0):
            forms += [
                (lambda p=p: upre_window_separable(systems, dhats, windows, p,
                                                   a[p], noise),
                 lambda p=p: loop_upre_window_separable(systems, dhats, windows,
                                                        p, a[p], sigma2)),
                (lambda p=p: gcv_windowed_decoupled(systems, dhats, windows, p,
                                                    a[p]),
                 lambda p=p: loop_gcv_windowed_decoupled(systems, dhats, windows,
                                                         p, a[p])),
            ]
        for value, oracle in forms:
            _same_or_both_saturate(value, oracle)
    if not separable:
        with pytest.raises(ValueError, match="separable form invalid"):
            upre_window_separable(systems, dhats, windows, 0, alphas[0], noise)
        with pytest.raises(ValueError, match="non-overlapping"):
            gcv_windowed_decoupled(systems, dhats, windows, 0, alphas[0])


def test_pooled_forms_reject_bad_inputs():
    _, _, sys, _, dhats = _md_problem(seed=193)
    systems = [sys] * 2
    win = indicator_windows(make_partitions(sys, 2, "log"), sys, "log")
    noise = NoiseModel([0.01, 0.02])
    separable = [lambda d, w, p=0, a=0.5, nz=noise: upre_window_separable(
                     systems, d, w, p, a, nz),
                 lambda d, w, p=0, a=0.5, nz=None: gcv_windowed_decoupled(
                     systems, d, w, p, a)]
    coupled = [lambda d, w, v=(0.5, 0.7), nz=noise: upre_md_windowed(
                   systems, d, w, v, nz),
               lambda d, w, v=(0.5, 0.7), nz=None: gcv_windowed_true_md(
                   systems, d, w, v)]
    for form in separable + coupled:
        with pytest.raises(ValueError):          # one data vector too few
            form(dhats[:1], win)
        with pytest.raises(ValueError):          # data length != m
            form([dhats[0], dhats[1][:-1]], win)
    with pytest.raises(ValueError):
        gcv_md_scalar(systems, dhats[:1], 0.5)
    with pytest.raises(ValueError):
        gcv_md_scalar(systems, [dhats[0], dhats[1][:-1]], 0.5)
    with pytest.raises(ValueError):
        PooledObjectives(sys, [], win, 0.01)
    for form in coupled:
        with pytest.raises(ValueError, match="count mismatch"):
            form(dhats, win, v=(0.5,))
    for form in (separable[0], coupled[0]):
        with pytest.raises(ValueError):          # three variances, two sets
            form(dhats, win, nz=NoiseModel([0.1, 0.1, 0.1]))
    empty = windows_from_weights(np.vstack([np.ones(sys.n), np.zeros(sys.n)]))
    overlap = cosine_windows(make_partitions(sys, 2, "log"), sys, "log")
    for form in separable:
        with pytest.raises(IndexError):
            form(dhats, win, p=2)
        with pytest.raises(ValueError):
            form(dhats, win, a=0.0)
        with pytest.raises(ValueError):
            form(dhats, overlap)
        with pytest.raises(EmptyWindowError):
            form(dhats, empty, p=1)


def test_upre_window_of_the_one_window_is_upre_bit_for_bit():
    """Both forms square alpha as alpha * alpha and sum the energy below ell
    with np.sum.  The alphas include every draw whose square Python's float
    power rounds apart from alpha * alpha, where a per-window form that
    squared by that power drifted from upre in the last digit."""
    from specwin.cli import ExperimentConfig, _build_system, _split_datasets

    config = ExperimentConfig(image_size=128, xi=16.0, snr_db=10.0, seed=3,
                              r_train=8, val_count=0)
    sys = _build_system(config)
    assert sys.ell > 0
    datasets = _split_datasets(config, "train")
    pooled = PooledObjectives(sys, [sys.analyze(ds.d) for ds in datasets],
                              trivial_window(sys),
                              NoiseModel([ds.sigma2 for ds in datasets]))
    draws = 10.0 ** np.random.default_rng(3).uniform(-6.0, 1.0, 100_000)
    alphas = draws[:200].tolist() + [a for a in draws.tolist()
                                     if a ** 2 != a * a]
    assert len(alphas) > 250
    for a in alphas:
        assert pooled.upre_window(0, a) == pooled.upre([a]), a


def test_per_window_forms_on_windows_that_are_not_one_run():
    """Windows whose members are scattered, and straddle ell and q_star,
    take the index-array path of the per-window forms: each share is the
    brute-force sum over member_indices(p), and the UPRE and MSE shares sum
    to the coupled value."""
    g = np.geomspace(1e-2, 1e2, 8)
    delta = np.concatenate([[0.0, 0.0], g / np.hypot(g, 1.0), [1.0, 1.0]])
    lam = np.concatenate([[1.0, 1.0], 1.0 / np.hypot(g, 1.0), [0.0, 0.0]])
    sys = make_diag_system(delta, lam, m=15)
    assert (sys.ell, sys.q_star) == (2, 10)
    win = windows_from_members([[0, 3, 6, 9, 10], [1, 4, 7, 11], [2, 5, 8]],
                               sys.n)
    assert all(isinstance(idx, np.ndarray) for idx in win.members)
    rng = np.random.default_rng(227)
    R = 3
    systems = [sys] * R
    dhats = [rng.standard_normal(sys.m) for _ in range(R)]
    sigma2 = rng.uniform(0.01, 0.1, R)
    pooled = PooledObjectives(sys, dhats, win, NoiseModel(sigma2))
    alphas = [0.05, 0.7, 3.0]
    for p, a in enumerate(alphas):
        ref = loop_upre_window_separable(systems, dhats, win, p, a, sigma2)
        assert abs(pooled.upre_window(p, a) - ref) <= 1e-12 * abs(ref)
        ref = loop_gcv_windowed_decoupled(systems, dhats, win, p, a)
        assert abs(pooled.gcv_window(p, a) - ref) <= 1e-12 * abs(ref)
    shares = sum(pooled.upre_window(p, a) for p, a in enumerate(alphas))
    assert abs(shares - pooled.upre(alphas)) <= 1e-12 * abs(pooled.upre(alphas))

    # the MSE shares, on a DCT system with ell > 0 and q_star < n
    dct = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    assert 0 < dct.ell and dct.q_star < dct.n
    win = windows_from_members([range(p, dct.n, 3) for p in range(3)], dct.n)
    assert all(isinstance(idx, np.ndarray) for idx in win.members)
    for p in range(3):
        idx = win.member_indices(p)
        assert idx[0] < dct.ell <= idx[-1] and idx[0] < dct.q_star
    assert dct.n - 1 in win.member_indices(2)
    dhats = [dct.analyze(rng.standard_normal(dct.dims)) for _ in range(R)]
    truths = [rng.standard_normal(dct.dims) for _ in range(R)]
    mse = MseObjective(dct, dhats, truths, win)
    us = [dct.delta_pinv() * dh[: dct.n] / dct.synthesis_scale for dh in dhats]
    ts = [dct.solution_coefficients(x) for x in truths]
    for p, a in enumerate(alphas):
        idx = win.member_indices(p)
        phi = filter_factors(dct, a).phi[idx]
        ref = sum(np.sum((phi * u[idx] - t[idx]) ** 2)
                  for u, t in zip(us, ts)) / R
        assert abs(mse.window(p, a) - ref) <= 1e-12 * ref
    shares = sum(mse.window(p, a) for p, a in enumerate(alphas))
    assert abs(shares - mse(alphas)) <= 1e-12 * mse(alphas)


def test_pooled_objectives_run_no_transform_and_do_not_depend_on_R():
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    assert sys.ell > 0 and sys.q_star < sys.n
    windows = indicator_windows(make_partitions(sys, 2, "log"), sys, "log")
    rng = np.random.default_rng(197)
    dhat = sys.analyze(rng.standard_normal(sys.dims))
    blind = replace(sys, _analyze=_no_transform, _synthesize=_no_transform)
    alphas = [0.03, 2.0]

    def values(pooled, scalar):
        return ([pooled.upre(alphas), pooled.gcv_true(alphas),
                 scalar.upre([0.4]), scalar.gcv_window(0, 0.4)]
                + [pooled.upre_window(p, a) for p, a in enumerate(alphas)]
                + [pooled.gcv_window(p, a) for p, a in enumerate(alphas)])

    def prepared(R):
        dhats = [dhat.copy() for _ in range(R)]
        pair = (PooledObjectives(blind, dhats, windows, 0.02),
                PooledObjectives(blind, dhats, trivial_window(sys), 0.02))
        return pair, dhats

    (one, one_scalar), _ = prepared(1)
    (many, many_scalar), dhats = prepared(32)
    before = values(many, many_scalar)
    for d in dhats:
        d *= 3.0
    assert values(many, many_scalar) == before
    for a, b in zip(values(one, one_scalar), before):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_mse_objective_dense_fallback_is_the_direct_loop():
    # one gemm over the column stack rounds apart from per-set matvecs
    _, _, sys, data, dhats = _md_problem(seed=179)
    assert sys.synthesis_scale is None
    systems = [sys] * 2
    win = indicator_windows(make_partitions(sys, 2), sys)
    rng = np.random.default_rng(3)
    truths = [rng.standard_normal(sys.n) for _ in systems]
    obj = MseObjective(sys, dhats, truths, win)
    for alphas in ([0.05, 0.7], [1.3, 0.2]):
        ref = direct_mse(systems, dhats, truths, win, alphas)
        assert abs(obj(alphas) - ref) <= 1e-12 * ref
        assert abs(mse_learning(systems, data, truths, win, alphas) - ref) \
            <= 1e-12 * ref


@pytest.fixture(scope="module")
def blocked_dense():
    """A GSVD system large enough (n = 256) that the BLAS product blocks."""
    rng = np.random.default_rng(187)
    A, L = tik_matrices(rng, 288, 256, "laplacian")
    return gsvd(A, L)


@pytest.mark.parametrize("R", [1, 3, 8])
def test_mse_objective_dense_product_matches_direct_loop(blocked_dense, R):
    sys = blocked_dense
    rng = np.random.default_rng(191 + R)
    win = cosine_windows(make_partitions(sys, 3, "log"), sys, "log")
    dhats = [sys.analyze(rng.standard_normal(sys.m)) for _ in range(R)]
    truths = [rng.standard_normal(sys.n) for _ in range(R)]
    flat = MseObjective(sys, dhats, truths, win)
    # 2-D truths are flattened in C order, as the solver flattens images
    square = MseObjective(sys, dhats, [t.reshape(16, 16) for t in truths], win)
    for alphas in ([0.01, 0.3, 5.0], [2.0, 2.0, 0.02], [1e-4, 1e3, 1.0]):
        ref = direct_mse([sys] * R, dhats, truths, win, alphas)
        assert abs(flat(alphas) - ref) <= 1e-12 * ref
        assert square(alphas) == flat(alphas)


def test_mse_objective_dense_rejects_mismatched_truths():
    _, _, sys, _, dhats = _md_problem(seed=193)
    win = trivial_window(sys)
    with pytest.raises(ValueError, match="does not match"):
        MseObjective(sys, dhats, [np.zeros(sys.n + 1)] * 2, win)


def test_mse_objective_matches_direct_loop_on_each_backend():
    rng = np.random.default_rng(181)
    box = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    assert box.ell > 0 and box.q_star < box.n
    blur = dct_decompose(gaussian_psf(1.5, (5, 7)), "identity")
    _, _, dense, _, _ = _md_problem(seed=181, m=8, n=6, penalty="identity")
    for sys in (box, blur, dense):
        win = cosine_windows(make_partitions(sys, 3, "log"), sys, "log")
        truths = [rng.standard_normal(sys.dims or sys.n) for _ in range(3)]
        dhats = [sys.analyze(rng.standard_normal(sys.m)) for _ in range(3)]
        obj = MseObjective(sys, dhats, truths, win)
        for alphas in ([0.01, 0.3, 5.0], [2.0, 2.0, 0.02]):
            ref = direct_mse([sys] * 3, dhats, truths, win, alphas)
            assert abs(obj(alphas) - ref) <= 1e-12 * ref


def test_mse_objective_rejects_data_of_the_wrong_size():
    dct = dct_decompose(gaussian_psf(1.5, (8, 8)), "identity")
    _, _, dense, _, _ = _md_problem(seed=199, m=8, n=6, penalty="identity")
    rng = np.random.default_rng(199)
    for sys in (dct, dense):
        win = trivial_window(sys)
        dhats = [sys.analyze(rng.standard_normal(sys.m)) for _ in range(2)]
        truths = [rng.standard_normal(sys.n) for _ in range(2)]
        long_dhat = np.append(dhats[1], np.ones(5))
        wide_truth = rng.standard_normal(sys.n + 3)
        data = [np.ones(sys.m)] * 2
        for bad_dhats, bad_truths, message in [
                ([dhats[0], long_dhat], truths,
                 f"data length {sys.m + 5} does not match m={sys.m}"),
                (dhats, [truths[0], wide_truth],
                 f"truth size {sys.n + 3} does not match n={sys.n}")]:
            with pytest.raises(ValueError, match=message):
                MseObjective(sys, bad_dhats, bad_truths, win)
            with pytest.raises(ValueError, match=message):
                mse_learning([sys] * 2, data, bad_truths, win, [0.5],
                             dhats=bad_dhats)


# criterion 06's search settings: tight enough that a per-window line search
# and a coupled L-BFGS-B search agree to 1e-10
TIGHT = SearchConfig(alpha_min=1e-4, alpha_max=10.0, grid_points=80,
                     tol=1e-8, max_iter=400)


@pytest.mark.parametrize("penalty", ["identity", "laplacian"])
def test_mse_window_shares_are_separable(penalty):
    """On non-overlapping windows the MSE splits into one share per window,
    as the separable UPRE does (criterion 06)."""
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), penalty)
    assert sys.ell > 0 and (sys.q_star < sys.n) == (penalty == "laplacian")
    rng = np.random.default_rng(211)
    for P, R in [(2, 1), (3, 3), (2, 3), (3, 1)]:
        win = indicator_windows(make_partitions(sys, P, "log"), sys, "log")
        dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(R)]
        truths = [rng.standard_normal(sys.dims) for _ in range(R)]
        mse = MseObjective(sys, dhats, truths, win)
        # window p's share from the full coefficient vectors (Parseval)
        us = [sys.delta_pinv() * dh[: sys.n] / sys.synthesis_scale
              for dh in dhats]
        ts = [sys.solution_coefficients(x) for x in truths]
        for alphas in (rng.uniform(0.01, 5.0, P), np.full(P, 0.3)):
            for p, a in enumerate(alphas):
                idx = win.member_indices(p)
                phi = filter_factors(sys, a).phi[idx]
                ref = sum(np.sum((phi * u[idx] - t[idx]) ** 2)
                          for u, t in zip(us, ts)) / R
                assert abs(mse.window(p, a) - ref) <= 1e-12 * ref
            shares = sum(mse.window(p, a) for p, a in enumerate(alphas))
            assert abs(shares - mse(alphas)) <= 1e-12 * mse(alphas)

        assembled = [minimize_scalar(lambda a, p=p: mse.window(p, a),
                                     TIGHT).alpha for p in range(P)]
        v_sep = mse(assembled)
        diag = minimize_scalar(lambda a: mse(np.full(P, a)), TIGHT).alpha
        for start in (np.full(P, diag), rng.uniform(0.01, 5.0, P),
                      np.full(P, 0.5)):
            v_joint = minimize_vector(mse, P, TIGHT,
                                      warm_start=ParamVector(start)).value
            assert abs(v_sep - v_joint) <= 1e-10 * max(v_sep, 1.0), (P, R, start)

        # the one share of the single all-ones window is the value itself
        scalar = MseObjective(sys, dhats, truths, trivial_window(sys))
        for a in np.geomspace(1e-4, 10.0, 40):
            assert scalar.window(0, a) == scalar([a])


def test_mse_window_rejects_what_the_pooled_window_forms_reject():
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    rng = np.random.default_rng(223)
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(2)]
    truths = [rng.standard_normal(sys.dims) for _ in range(2)]
    parts = make_partitions(sys, 2, "log")
    empty = windows_from_weights(np.vstack([np.ones(sys.n), np.zeros(sys.n)]))
    for windows, p, error in [
            (indicator_windows(parts, sys, "log"), 2, IndexError),
            (cosine_windows(parts, sys, "log"), 0, ValueError),
            (empty, 1, EmptyWindowError)]:
        pooled = PooledObjectives(sys, dhats, windows, 0.01)
        forms = [MseObjective(sys, dhats, truths, windows).window,
                 pooled.upre_window, pooled.gcv_window]
        for form in forms:
            with pytest.raises(error):
                form(p, 0.5)
    # the dense backend has no orthonormal synthesis to split the error by
    _, _, dense, _, dense_dhats = _md_problem(seed=223)
    win = indicator_windows(make_partitions(dense, 2, "log"), dense, "log")
    mse = MseObjective(dense, dense_dhats, [np.zeros(dense.n)] * 2, win)
    with pytest.raises(ValueError, match="DCT backend"):
        mse.window(0, 0.5)


def test_estimate_sigma2_from_spectral_tail():
    rng = np.random.default_rng(179)
    m, n = 200, 50
    delta = np.sort(rng.uniform(0.3, 0.9, n))
    lam = np.sqrt(1.0 - delta ** 2)
    sys = make_diag_system(delta, np.sort(lam)[::-1], m=m)
    sigma = 0.25
    dhat = np.zeros(m)
    dhat[:n] = rng.standard_normal(n) * 3.0      # signal-bearing head
    dhat += rng.standard_normal(m) * sigma       # white noise everywhere
    est = estimate_sigma2(sys, dhat)
    assert 0.7 * sigma ** 2 <= est <= 1.3 * sigma ** 2


def test_estimate_sigma2_square_system_uses_smallest_gamma_band():
    rng = np.random.default_rng(181)
    n = 64
    g = np.geomspace(1e-3, 10.0, n)
    delta = g / np.hypot(g, 1.0)
    lam = 1.0 / np.hypot(g, 1.0)
    sys = make_diag_system(delta, lam)
    sigma = 0.1
    dhat = rng.standard_normal(n) * sigma
    dhat[n // 2:] += rng.standard_normal(n - n // 2) * 2.0  # signal on large gamma
    est = estimate_sigma2(sys, dhat)
    assert 0.3 * sigma ** 2 <= est <= 2.5 * sigma ** 2


# ---------------------------------------------------------------------------
# noise-covariance structure behind the whitening assumption
# ---------------------------------------------------------------------------

def test_residual_second_moment_tracks_covariance_trace():
    # E||(I - M) d||^2 = ||(I - M) b||^2 + trace((I - M) Sigma (I - M)^T)
    # for d = b + e with e ~ N(0, Sigma); Monte-Carlo on a small dense system
    rng = np.random.default_rng(191)
    A, L = tik_matrices(rng, 10, 8, "identity")
    b = A @ rng.standard_normal(8)
    B = rng.standard_normal((10, 10)) * 0.1
    Sigma = B @ B.T + 0.05 * np.eye(10)
    Rm = np.eye(10) - dense_influence_scalar(A, L, 0.6)
    analytic = float(np.sum((Rm @ b) ** 2) + np.trace(Rm @ Sigma @ Rm.T))
    chol = np.linalg.cholesky(Sigma)
    N = 4000
    draws = b[:, None] + chol @ rng.standard_normal((10, N))
    samples = np.sum((Rm @ draws) ** 2, axis=0)
    se = samples.std(ddof=1) / np.sqrt(N)
    assert abs(samples.mean() - analytic) <= 3.0 * se
