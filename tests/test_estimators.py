"""Selection objectives against dense references, the leave-one-out oracle,
and their documented reductions."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from specwin.errors import EmptyWindowError, SaturatedTraceError
from specwin.estimators import (
    DataPool,
    GcvObjective,
    MseObjective,
    NoiseModel,
    UpreObjective,
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
    _trace_complements,
)
from specwin.optimize import SearchConfig, minimize_scalar, minimize_vector
from specwin.solver import (ParamVector, _Band, phi_windowed,
                            residual_norm_windowed, solve_windowed,
                            trace_windowed)
from specwin.problems import gaussian_psf
from specwin.spectral import SpectralSystem, dct_decompose, filter_factors, gsvd
from specwin.windows import (cosine_windows, indicator_windows, make_partitions,
                             make_windows, trivial_window)

import oracles
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
    with pytest.raises(ValueError, match="non-overlapping"):
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


def test_trace_complements_bounds():
    """The coupled windowed GCV's trace complements: the unweighted
    mu_p = 1 - (1/m) sum_j phi_j(alpha_p) and the window-weighted nu_p lie
    in (0, 1] with nu >= mu, as the weights are <= 1, and agree for P = 1."""
    _, _, _, sys, _ = _problem(12, 9, "identity", seed=89)
    win = cosine_windows(make_partitions(sys, 3, spacing="log"), sys, spacing="log")
    _, mu, nu = _trace_complements(_Band(sys, win), [0.3, 0.9, 2.7], sys.m)
    assert mu.shape == (3,) and nu.shape == (3,)
    assert np.all(mu > 0.0) and np.all(mu <= 1.0)
    assert np.all(nu >= mu) and np.all(nu <= 1.0)
    _, mu, nu = _trace_complements(_Band(sys, trivial_window(sys)), [0.5],
                                   sys.m)
    assert mu[0] == pytest.approx(nu[0], abs=1e-15)


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


class _BlindSystem(SpectralSystem):
    """A system whose transforms fail: the objectives built on it must work
    on spectral data only."""

    def analyze(self, v):
        raise AssertionError("transform called inside an objective evaluation")

    synthesize = analyze


def _blind(sys):
    return _BlindSystem(**{f.name: getattr(sys, f.name)
                           for f in fields(sys) if f.init})


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
    blind = _blind(sys)
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
    blind = _blind(sys)
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
        with pytest.raises(ValueError, match="non-overlapping"):
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
        UpreObjective(sys, [], win, 0.01)
    with pytest.raises(ValueError):
        GcvObjective(sys, [], win)
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
    datasets = list(_split_datasets(config, "train"))
    upre = UpreObjective(sys, [sys.analyze(ds.d) for ds in datasets],
                         trivial_window(sys),
                         NoiseModel([ds.sigma2 for ds in datasets]))
    draws = 10.0 ** np.random.default_rng(3).uniform(-6.0, 1.0, 100_000)
    alphas = draws[:200].tolist() + [a for a in draws.tolist()
                                     if a ** 2 != a * a]
    assert len(alphas) > 250
    for a in alphas:
        assert upre.window(0, a) == upre([a]), a


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
    upre = UpreObjective(sys, dhats, win, NoiseModel(sigma2))
    gcv = GcvObjective(sys, dhats, win)
    alphas = [0.05, 0.7, 3.0]
    for p, a in enumerate(alphas):
        ref = loop_upre_window_separable(systems, dhats, win, p, a, sigma2)
        assert abs(upre.window(p, a) - ref) <= 1e-12 * abs(ref)
        ref = loop_gcv_windowed_decoupled(systems, dhats, win, p, a)
        assert abs(gcv.window(p, a) - ref) <= 1e-12 * abs(ref)
    shares = sum(upre.window(p, a) for p, a in enumerate(alphas))
    assert abs(shares - upre(alphas)) <= 1e-12 * abs(upre(alphas))

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
    blind = _blind(sys)
    alphas = [0.03, 2.0]

    def values(objectives):
        upre, gcv, scalar_upre, scalar_gcv = objectives
        return ([upre(alphas), gcv(alphas),
                 scalar_upre([0.4]), scalar_gcv.window(0, 0.4)]
                + [upre.window(p, a) for p, a in enumerate(alphas)]
                + [gcv.window(p, a) for p, a in enumerate(alphas)])

    def prepared(R):
        dhats = [dhat.copy() for _ in range(R)]
        objectives = (UpreObjective(blind, dhats, windows, 0.02),
                      GcvObjective(blind, dhats, windows),
                      UpreObjective(blind, dhats, trivial_window(sys), 0.02),
                      GcvObjective(blind, dhats, trivial_window(sys)))
        return objectives, dhats

    one, _ = prepared(1)
    many, dhats = prepared(32)
    before = values(many)
    for d in dhats:
        d *= 3.0
    assert values(many) == before
    for a, b in zip(values(one), before):
        assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("estimator", ["upre", "gcv", "mse"])
def test_objective_surface_is_the_one_shot_path(estimator):
    """obj(alphas) and obj.window(p, alpha) are the public one-shot
    functions, bit for bit, on non-overlapping windows of a system with
    ell > 0 and q_star < n."""
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    assert 0 < sys.ell and sys.q_star < sys.n
    win = indicator_windows(make_partitions(sys, 3, "log"), sys, "log")
    assert win.nonoverlapping and win.P == 3
    rng = np.random.default_rng(229)
    R = 3
    systems = [sys] * R
    data = [rng.standard_normal(sys.dims) for _ in range(R)]
    dhats = [sys.analyze(d) for d in data]
    alphas = [0.05, 0.7, 3.0]
    if estimator == "upre":
        noise = NoiseModel(rng.uniform(0.01, 0.1, R))
        obj = UpreObjective(sys, dhats, win, noise)
        pairs = [(obj(alphas),
                  upre_md_windowed(systems, dhats, win, alphas, noise))]
        pairs += [(obj.window(p, a),
                   upre_window_separable(systems, dhats, win, p, a, noise))
                  for p, a in enumerate(alphas)]
    elif estimator == "gcv":
        obj = GcvObjective(sys, dhats, win)
        scalar = GcvObjective(sys, dhats, trivial_window(sys))
        pairs = [(obj(alphas), gcv_windowed_true_md(systems, dhats, win,
                                                    alphas))]
        pairs += [(obj.window(p, a),
                   gcv_windowed_decoupled(systems, dhats, win, p, a))
                  for p, a in enumerate(alphas)]
        pairs += [(scalar.window(0, a), gcv_md_scalar(systems, dhats, a))
                  for a in alphas]
    else:
        truths = [rng.standard_normal(sys.dims) for _ in range(R)]
        obj = MseObjective(sys, dhats, truths, win)
        pairs = [(obj(alphas), mse_learning(systems, data, truths, win,
                                            alphas))]
    for value, one_shot in pairs:
        assert value == one_shot


@pytest.mark.parametrize("kind", ["nonoverlap_linear", "cosine_log"])
def test_objectives_prepared_from_a_pool_are_the_list_objectives(kind):
    """Folded into a DataPool one set at a time, the data sets give after
    fold r, bit for bit, the objectives that the list constructors prepare
    on the first r sets, in every form; the UPRE and GCV pooled sums are the
    batch sums over those sets, bit for bit; the MSE's band energies, best
    filter and fixed costs, which the pool folds recursively, are the
    two-pass sums of the oracle to rounding; and an objective prepared from
    the pool owns its arrays, so the sets folded after it leave it as it
    was.  Some band coefficients are zero, at indices that differ between
    sets: zero in every set (no energy ever), zero before any energy and
    nonzero after only zeros, and zero after energy."""
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    lo, hi = sys.ell, sys.q_star
    assert 0 < lo and hi < sys.n and hi - lo >= 8
    win = make_windows(sys, kind, 3)
    assert win.nonoverlapping == (kind == "nonoverlap_linear")
    rng = np.random.default_rng(233)
    R = 5
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(R)]
    j = np.arange(hi - lo) % 4
    for r, dhat in enumerate(dhats):
        zero = (j == 0) | ((j == 1) & (r < 2)) | ((j == 2) & (r % 2 == 1))
        dhat[lo:hi][zero] = 0.0
    truths = [rng.standard_normal(sys.dims) for _ in range(R)]
    sigma2 = rng.uniform(0.01, 0.1, R)
    alphas = [0.05, 0.7, 3.0]

    def values(obj) -> list:
        return ([obj(alphas)] + [obj.window(None, a) for a in alphas]
                + [obj.window(p, a) for p, a in enumerate(alphas)])

    pool = DataPool(sys)
    prepared = []
    for r in range(1, R + 1):
        pool.fold(dhats[r - 1], sigma2[r - 1], truths[r - 1])
        folded = (UpreObjective.from_pool(pool, win),
                  GcvObjective.from_pool(pool, win),
                  MseObjective.from_pool(pool, win))
        listed = (UpreObjective(sys, dhats[:r], win, NoiseModel(sigma2[:r])),
                  GcvObjective(sys, dhats[:r], win),
                  MseObjective(sys, dhats[:r], truths[:r], win))
        for obj, want in zip(folded, listed):
            assert values(obj) == values(want), (type(obj).__name__, r)
        batch = oracles.batch_pooled_terms(sys, dhats[:r], sigma2[:r],
                                           truths[:r])
        upre, gcv, mse = folded
        for obj in (upre, gcv):
            assert obj.head_energy.tobytes() == batch["energy"][:lo].tobytes()
            assert obj.energy.tobytes() == batch["energy"][lo:hi].tobytes()
            assert obj.tail_energy.tobytes() == batch["energy"][hi:].tobytes()
            assert obj.beyond == batch["beyond"]
        assert upre.s2 == batch["s2"]
        # the oracle's einsums may round apart from sequential sums (fused
        # multiply-adds, another order), and the recursive fixed cost from
        # the two-pass residuals at the best filter: each may differ by the
        # rounding of the sums it is made of
        tt = sum(sys.solution_coefficients(truth) ** 2 for truth in truths[:r])
        a, target = batch["mse_energy"], batch["mse_target"]
        assert np.all(np.abs(mse.energy - a) <= 1e-14 * a)
        assert np.all(np.abs(mse.target - target) <= 1e-14 * np.sqrt(
            np.divide(tt[lo:hi], a, out=np.zeros(hi - lo), where=a > 0.0)))
        assert np.all(np.abs(mse._fixed_at - batch["mse_fixed"]) <= 1e-14 * tt)
        for out in (slice(None, lo), slice(hi, None)):  # no fit off the band
            assert mse._fixed_at[out].tobytes() == batch["mse_fixed"][out].tobytes()
        if r == 1:  # one set: the best filter fits every nonzero u exactly
            assert np.all(mse._fixed_at[lo:hi][a > 0.0] == 0.0)
        assert not np.any(a[j == 0])
        assert np.all(mse._fixed_at[lo:hi][j == 0] == tt[lo:hi][j == 0])
        prepared.append((folded, [values(obj) for obj in folded]))
    for folded, before in prepared:
        assert [values(obj) for obj in folded] == before


def test_pool_rejects_what_the_list_constructors_reject():
    """A pool folds nothing from a bad data set, and an MSE needs a truth
    for every set folded."""
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    win = make_windows(sys, "nonoverlap_linear", 2)
    rng = np.random.default_rng(239)
    dhat = sys.analyze(rng.standard_normal(sys.dims))
    pool = DataPool(sys)
    for bad in (dict(dhat=dhat[:-1]), dict(dhat=dhat, sigma2=-1.0),
                dict(dhat=dhat, sigma2=np.nan),
                dict(dhat=dhat, truth=np.zeros(sys.n + 1))):
        with pytest.raises(ValueError):
            pool.fold(**bad)
    assert pool.R == 0 and not pool.beyond and not np.any(pool.energy)
    for cls in (UpreObjective, GcvObjective, MseObjective):
        with pytest.raises(ValueError, match="at least one data set"):
            cls.from_pool(pool, win)
    pool.fold(dhat, 0.01, rng.standard_normal(sys.dims))
    pool.fold(dhat, 0.01)
    with pytest.raises(ValueError, match="missing truths"):
        MseObjective.from_pool(pool, win)
    # the dense backend has no orthonormal synthesis: its pool folds no
    # truth, so no MseObjective is prepared on it (mse_learning is its MSE)
    _, _, dense, _, dense_dhats = _md_problem(seed=241)
    with pytest.raises(ValueError, match="dense backend"):
        DataPool(dense).fold(dense_dhats[0], 0.01, np.zeros(dense.n))
    with pytest.raises(ValueError, match="dense backend"):
        MseObjective(dense, dense_dhats, [np.zeros(dense.n)] * 2,
                     trivial_window(dense))


def test_mse_objective_dense_fallback_is_the_direct_loop():
    """The dense MSE is mse_learning's one product; one gemm over the
    column stack rounds apart from per-set matvecs."""
    _, _, sys, data, dhats = _md_problem(seed=179)
    assert sys.synthesis_scale is None
    systems = [sys] * 2
    win = indicator_windows(make_partitions(sys, 2), sys)
    rng = np.random.default_rng(3)
    truths = [rng.standard_normal(sys.n) for _ in systems]
    for alphas in ([0.05, 0.7], [1.3, 0.2]):
        ref = direct_mse(systems, dhats, truths, win, alphas)
        val = mse_learning(systems, data, truths, win, alphas)
        assert abs(val - ref) <= 1e-12 * ref
        assert mse_learning(systems, data, truths, win, alphas,
                            dhats=dhats) == val


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
    data = [rng.standard_normal(sys.m) for _ in range(R)]
    dhats = [sys.analyze(d) for d in data]
    truths = [rng.standard_normal(sys.n) for _ in range(R)]
    # 2-D truths are flattened in C order, as the solver flattens images
    squares = [t.reshape(16, 16) for t in truths]
    for alphas in ([0.01, 0.3, 5.0], [2.0, 2.0, 0.02], [1e-4, 1e3, 1.0]):
        ref = direct_mse([sys] * R, dhats, truths, win, alphas)
        flat = mse_learning([sys] * R, data, truths, win, alphas, dhats=dhats)
        assert abs(flat - ref) <= 1e-12 * ref
        assert mse_learning([sys] * R, data, squares, win, alphas,
                            dhats=dhats) == flat


def test_mse_objective_dense_rejects_mismatched_truths():
    _, _, sys, _, dhats = _md_problem(seed=193)
    win = trivial_window(sys)
    with pytest.raises(ValueError, match="does not match"):
        MseObjective(sys, dhats, [np.zeros(sys.n + 1)] * 2, win)


def test_mse_objective_matches_direct_loop_on_each_backend():
    """mse_learning: a prepared MseObjective on the DCT backend, the one
    product on the dense backend."""
    rng = np.random.default_rng(181)
    box = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    assert box.ell > 0 and box.q_star < box.n
    blur = dct_decompose(gaussian_psf(1.5, (5, 7)), "identity")
    _, _, dense, _, _ = _md_problem(seed=181, m=8, n=6, penalty="identity")
    for sys in (box, blur, dense):
        win = cosine_windows(make_partitions(sys, 3, "log"), sys, "log")
        truths = [rng.standard_normal(sys.dims or sys.n) for _ in range(3)]
        data = [rng.standard_normal(sys.m) for _ in range(3)]
        dhats = [sys.analyze(d) for d in data]
        for alphas in ([0.01, 0.3, 5.0], [2.0, 2.0, 0.02]):
            ref = direct_mse([sys] * 3, dhats, truths, win, alphas)
            val = mse_learning([sys] * 3, data, truths, win, alphas,
                               dhats=dhats)
            assert abs(val - ref) <= 1e-12 * ref


def test_mse_objective_rejects_data_of_the_wrong_size():
    dct = dct_decompose(gaussian_psf(1.5, (8, 8)), "identity")
    _, _, dense, _, _ = _md_problem(seed=199, m=8, n=6, penalty="identity")
    rng = np.random.default_rng(199)
    # the dense backend has no MseObjective: mse_learning is its MSE
    for sys, prepared in [(dct, True), (dense, False)]:
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
            if prepared:
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
    as the separable UPRE does (criterion 06).  One band index has a zero
    data coefficient in every set, so its pooled energy is 0 and its best
    filter is taken as 0 rather than 0/0."""
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), penalty)
    assert sys.ell > 0 and (sys.q_star < sys.n) == (penalty == "laplacian")
    rng = np.random.default_rng(211)
    zero = (sys.ell + sys.q_star) // 2
    for P, R in [(2, 1), (3, 3), (2, 3), (3, 1), (3, 8)]:
        win = indicator_windows(make_partitions(sys, P, "log"), sys, "log")
        dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(R)]
        for dh in dhats:
            dh[zero] = 0.0
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


def test_mse_objective_memory_does_not_grow_with_the_data_sets():
    """A DCT MseObjective keeps its pooled band energies, best filter and
    fixed sums, not each data set's band rows: prepared on eight data sets
    of a 128x128 system and evaluated on each window, it retains at most
    1.25 times what it retains on one.  tracemalloc sees every numpy array
    it allocates; one preparation before tracing loads the transforms."""
    sys = dct_decompose(gaussian_psf(9.0, (128, 128)), "identity")
    win = indicator_windows(make_partitions(sys, 2, "linear"), sys)
    rng = np.random.default_rng(227)

    def retained(R: int) -> int:
        dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(R)]
        truths = [rng.standard_normal(sys.dims) for _ in range(R)]
        MseObjective(sys, dhats, truths, win).window(0, 0.5)
        tracemalloc.start()
        try:
            mse = MseObjective(sys, dhats, truths, win)
            for p in range(win.P):
                mse.window(p, 0.5)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return size

    one, eight = retained(1), retained(8)
    assert 0 < eight <= 1.25 * one, (one, eight)


def test_mse_window_rejects_what_the_pooled_window_forms_reject():
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    rng = np.random.default_rng(223)
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(2)]
    truths = [rng.standard_normal(sys.dims) for _ in range(2)]
    parts = make_partitions(sys, 2, "log")
    empty = windows_from_weights(np.vstack([np.ones(sys.n), np.zeros(sys.n)]))
    for windows, p, error in [
            (indicator_windows(parts, sys, "log"), 2, IndexError),
            (empty, 1, EmptyWindowError)]:
        forms = [MseObjective(sys, dhats, truths, windows).window,
                 UpreObjective(sys, dhats, windows, 0.01).window,
                 GcvObjective(sys, dhats, windows).window]
        for form in forms:
            with pytest.raises(error):
                form(p, 0.5)
            assert np.isfinite(form(None, 0.5))  # the all-ones window
    # on overlapping windows each form reads the indicator cell of the same
    # partitions; where one of those is empty, every cell raises
    cosine = cosine_windows(parts, sys, "log")
    cells = indicator_windows(parts, sys, "log")
    for make in (lambda w: MseObjective(sys, dhats, truths, w),
                 lambda w: UpreObjective(sys, dhats, w, 0.01),
                 lambda w: GcvObjective(sys, dhats, w)):
        obj, cell = make(cosine), make(cells)
        for p in range(2):
            assert obj.window(p, 0.5) == cell.window(p, 0.5)
        with pytest.raises(IndexError):
            obj.window(2, 0.5)
    wide = dct_decompose(gaussian_psf(36.0, (8, 8)), "laplacian")
    wide_cosine = make_windows(wide, "cosine_linear", 3)
    with pytest.raises(EmptyWindowError):
        indicator_windows(wide_cosine.partitions, wide)
    wide_dhats = [wide.analyze(rng.standard_normal(wide.dims)) for _ in range(2)]
    wide_truths = [rng.standard_normal(wide.dims) for _ in range(2)]
    for obj in (MseObjective(wide, wide_dhats, wide_truths, wide_cosine),
                UpreObjective(wide, wide_dhats, wide_cosine, 0.01),
                GcvObjective(wide, wide_dhats, wide_cosine)):
        for p in range(3):
            with pytest.raises(EmptyWindowError):
                obj.window(p, 0.5)
        assert np.isfinite(obj.window(None, 0.5))
        assert np.isfinite(obj([0.5, 0.5, 0.5]))
    # the dense backend has no orthonormal synthesis to split the error by,
    # so no MseObjective and no per-window MSE; the pooled forms' all-ones
    # window is still the trivial window's
    _, _, dense, _, dense_dhats = _md_problem(seed=223)
    win = indicator_windows(make_partitions(dense, 2, "log"), dense, "log")
    with pytest.raises(ValueError, match="dense backend"):
        MseObjective(dense, dense_dhats, [np.zeros(dense.n)] * 2, win)
    trivial = trivial_window(dense)
    for obj, one in [(UpreObjective(dense, dense_dhats, win, 0.01),
                      UpreObjective(dense, dense_dhats, trivial, 0.01)),
                     (GcvObjective(dense, dense_dhats, win),
                      GcvObjective(dense, dense_dhats, trivial))]:
        for a in ALPHA_GRID:
            assert obj.window(None, a) == one.window(0, a)


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


@pytest.mark.parametrize("R", [1, 3])
def test_window_kernels_round_as_their_plain_expressions(R):
    """The per-window forms build phi, phi u - t and (1 - phi)**2 E in place;
    each element goes through the same operations as the plain expressions,
    so every value is bit for bit theirs, on slice and index-array members
    of a system with ell > 0 and q_star < n; so are the filter rows of all
    windows and the scalar filter, which share phi's one-buffer form.  The
    UPRE and MSE values at a parameter vector run the same in-place kernel
    on the blended filter, and are bit for bit their plain expressions on
    every window set.

    On any window set, window(None, alpha) is the trivial window's
    window(0, alpha) bit for bit: on overlapping cosine windows too, and on
    tail weights 0.7, 0.2 and 0.1, whose sum rounds to 1 - 2**-53.  On
    those two overlapping sets window(p, alpha) reads cell p, the indicator
    window over the same partitions, bit for bit."""
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    assert sys.ell > 0 and sys.q_star < sys.n
    rng = np.random.default_rng(229 + R)
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(R)]
    truths = [rng.standard_normal(sys.dims) for _ in range(R)]
    alphas = [*np.exp(rng.uniform(np.log(1e-6), np.log(10.0), 25)), 1e-6, 10.0]
    noise = rng.uniform(0.01, 0.1, R)

    def objectives(win):
        return [MseObjective(sys, dhats, truths, win),
                UpreObjective(sys, dhats, win, noise),
                GcvObjective(sys, dhats, win)]

    trivial = objectives(trivial_window(sys))
    cosine = cosine_windows(make_partitions(sys, 3, "log"), sys, "log")
    split = cosine.weights.copy()
    split[:, sys.q_star:] = np.array([[0.7], [0.2], [0.1]])
    tail_split = replace(cosine, weights=split)  # cosine's partitions
    assert tail_split.weights[:, sys.q_star:].sum(axis=0)[0] == 1.0 - 2.0 ** -53
    for win in (indicator_windows(make_partitions(sys, 3, "log"), sys, "log"),
                windows_from_members([range(p, sys.n, 3) for p in range(3)],
                                     sys.n),
                cosine, tail_split):
        assert win.P == 3
        objs = objectives(win)
        for obj, one in zip(objs, trivial):
            for a in alphas:
                assert obj.window(None, a) == one.window(0, a), (obj, a)
        for obj, expression in zip(objs, (oracles.mse_value,
                                          oracles.upre_value)):
            for trio in np.reshape(alphas[:27], (9, 3)):
                assert obj(trio) == expression(obj, trio), (obj, trio)
        if not win.nonoverlapping:
            cells = objectives(indicator_windows(win.partitions, sys))
            for obj, cell in zip(objs, cells):
                for p in range(3):
                    for a in alphas:
                        assert obj.window(p, a) == cell.window(p, a), (obj, p, a)
            continue
        forms = zip(objs, (oracles.mse_window, oracles.upre_window,
                           oracles.gcv_window))
        for obj, expression in forms:
            for p in range(3):
                for a in alphas:
                    assert obj.window(p, a) == expression(obj, p, a), (p, a)
        # the filter rows and the scalar filter share the one-buffer form
        band = objs[0].band
        for trio in np.reshape(alphas[:27], (9, 3)):
            rows = band.rows(trio)
            want = oracles.band_phi(band.d2, band.lam2, trio[:, None] ** 2)
            assert rows.tobytes() == want.tobytes()
    # with data only from q_star on and zero truths, the MSE is its tail
    # constant alone, which reads phi = 1 there and not the rounded sum of
    # the tail weights
    tail = [np.where(np.arange(sys.m) >= sys.q_star, dhat, 0.0) for dhat in dhats]
    zeros = [np.zeros(sys.dims)] * R
    one = MseObjective(sys, tail, zeros, trivial_window(sys))
    mse = MseObjective(sys, tail, zeros, tail_split)
    for a in alphas:
        assert mse.window(None, a) == one.window(0, a) > 0.0
    mid = slice(sys.ell, sys.q_star)
    for a in alphas:
        want = oracles.band_phi(sys.delta[mid] ** 2, sys.lam[mid] ** 2, a ** 2)
        assert filter_factors(sys, a).phi[mid].tobytes() == want.tobytes()


def test_gcv_window_saturates_where_its_plain_expression_does():
    # a mild blur with ell = 0: on the all-ones window the trace reaches m
    # as alpha falls, and the decoupled GCV raises there, as does the
    # all-ones window of three windows
    sys = dct_decompose(gaussian_psf(0.5, (6, 6)), "identity")
    assert sys.ell == 0 and sys.q_star == sys.n == sys.m
    rng = np.random.default_rng(233)
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(2)]
    gcv = GcvObjective(sys, dhats, trivial_window(sys))
    three = GcvObjective(sys, dhats, indicator_windows(
        make_partitions(sys, 3, "log"), sys, "log"))
    raised = 0
    for a in np.geomspace(1e-6, 10.0, 61):
        try:
            want = oracles.gcv_window(gcv, 0, a)
        except SaturatedTraceError as exc:
            raised += 1
            with pytest.raises(SaturatedTraceError) as got:
                gcv.window(0, a)
            assert str(got.value) == str(exc)
            with pytest.raises(SaturatedTraceError):
                three.window(None, a)
        else:
            assert gcv.window(0, a) == want
            assert three.window(None, a) == want
    assert 0 < raised < 61


def _windows_at_case(obj, one, a, expression=None) -> int:
    """Check obj.windows_at(a) against window(None|p, a), the trivial
    window's value `one` and, on non-overlapping windows, the plain
    per-window expression; return how many values read +inf."""
    got = obj.windows_at(a)
    assert len(got) == obj.P + 1
    infs = 0
    for p, value in zip([None, *range(obj.P)], got):
        try:
            want = obj.window(p, a)
        except SaturatedTraceError:
            assert value == np.inf, (obj, p, a)
            infs += 1
            continue
        assert value == want, (obj, p, a)
        if p is None:
            assert value == one.window(0, a), (obj, a)
        elif expression is not None:
            assert value == expression(obj, p, a), (obj, p, a)
    return infs


@pytest.mark.parametrize("R", [1, 3])
def test_windows_at_is_every_window_form_bit_for_bit(R):
    """One pass over the band gives [window(None, a), window(0, a), ...]:
    bit for bit the per-window forms and their plain expressions, for each
    objective on slice and index-array cells of a system with ell > 0 and
    q_star < n, on the non-overlapping and cosine kinds, at every grid alpha
    and at random ones.  A GCV value whose trace saturates reads +inf
    exactly where window(p, a) raises; every other value is finite."""
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    assert sys.ell > 0 and sys.q_star < sys.n
    rng = np.random.default_rng(331 + R)
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(R)]
    truths = [rng.standard_normal(sys.dims) for _ in range(R)]
    noise = rng.uniform(0.01, 0.1, R)
    alphas = [*SearchConfig().grid,
              *np.exp(rng.uniform(np.log(1e-6), np.log(10.0), 20))]

    def objectives(win):
        return [MseObjective(sys, dhats, truths, win),
                UpreObjective(sys, dhats, win, noise),
                GcvObjective(sys, dhats, win)]

    trivial = objectives(trivial_window(sys))
    sets = [make_windows(sys, kind, P)
            for kind in ("nonoverlap_linear", "nonoverlap_log", "cosine_log")
            for P in (2, 3)]
    sets.append(windows_from_members([range(p, sys.n, 3) for p in range(3)],
                                     sys.n))
    assert all(isinstance(cell.mid, slice)
               for cell in objectives(sets[0])[0].band.cells)
    assert not any(isinstance(cell.mid, slice)
                   for cell in objectives(sets[-1])[0].band.cells)
    for win in sets:
        expressions = ((oracles.mse_window, oracles.upre_window,
                        oracles.gcv_window) if win.nonoverlapping
                       else (None,) * 3)
        for obj, one, expression in zip(objectives(win), trivial, expressions):
            for a in alphas:
                assert _windows_at_case(obj, one, a, expression) == 0

    # a mild blur whose all-ones GCV trace saturates at small alpha
    mild = dct_decompose(gaussian_psf(0.5, (6, 6)), "identity")
    mild_dhats = [mild.analyze(rng.standard_normal(mild.dims))
                  for _ in range(R)]
    one = GcvObjective(mild, mild_dhats, trivial_window(mild))
    infs = 0
    for win in (trivial_window(mild), make_windows(mild, "nonoverlap_log", 3)):
        gcv = GcvObjective(mild, mild_dhats, win)
        infs += sum(_windows_at_case(gcv, one, a) for a in alphas)
    assert infs > 0


def test_windows_at_rejects_what_window_rejects():
    """An empty cell raises EmptyWindowError with window(p, a)'s message,
    on hand-built and on overlapping windows; the dense backend has no
    MseObjective and so no per-window MSE."""
    sys = dct_decompose(_box_psf((8, 6), (4, 2)), "laplacian")
    rng = np.random.default_rng(337)
    dhats = [sys.analyze(rng.standard_normal(sys.dims)) for _ in range(2)]
    truths = [rng.standard_normal(sys.dims) for _ in range(2)]
    empty = windows_from_weights(np.vstack([np.ones(sys.n), np.zeros(sys.n)]))
    wide = dct_decompose(gaussian_psf(36.0, (8, 8)), "laplacian")
    wide_cosine = make_windows(wide, "cosine_linear", 3)
    wide_dhats = [wide.analyze(rng.standard_normal(wide.dims))
                  for _ in range(2)]
    wide_truths = [rng.standard_normal(wide.dims) for _ in range(2)]
    for s, ds, ts, win, p in [(sys, dhats, truths, empty, 1),
                              (wide, wide_dhats, wide_truths, wide_cosine, 0)]:
        for obj in (MseObjective(s, ds, ts, win),
                    UpreObjective(s, ds, win, 0.01), GcvObjective(s, ds, win)):
            with pytest.raises(EmptyWindowError) as want:
                obj.window(p, 0.5)
            with pytest.raises(EmptyWindowError) as got:
                obj.windows_at(0.5)
            assert str(got.value) == str(want.value)
    _, _, dense, _, dense_dhats = _md_problem(seed=337)
    win = indicator_windows(make_partitions(dense, 2, "log"), dense, "log")
    with pytest.raises(ValueError, match="dense backend"):
        MseObjective(dense, dense_dhats, [np.zeros(dense.n)] * 2, win)


def test_pool_folds_the_truth_dct_its_blur_took_bit_for_bit():
    """iter_datasets keeps each truth's orthonormal DCT, the one its blur
    took; a pool that folds it in place of transforming the truth is bit
    for bit the pool folded from the truth, on a system with ell > 0 and
    q_star < n, and so is every objective prepared from it.  The dense
    backend has no DCT to read it by."""
    from scipy.fft import dctn

    from specwin.problems import iter_datasets

    psf = _box_psf((8, 6), (4, 2))
    sys = dct_decompose(psf, "laplacian")
    assert sys.ell > 0 and sys.q_star < sys.n
    rng = np.random.default_rng(347)
    truths = [rng.uniform(size=sys.dims) for _ in range(3)]
    from_truth, from_dct = DataPool(sys), DataPool(sys)
    for ds in iter_datasets(truths, psf, 20.0, [5, 6, 7]):
        assert (ds.truth_dct.tobytes()
                == dctn(ds.x_true, type=2, norm="ortho").tobytes())
        dhat = sys.analyze(ds.d)
        from_truth.fold(dhat, ds.sigma2, ds.x_true)
        from_dct.fold(dhat, ds.sigma2, ds.x_true, ds.truth_dct)
    for name in ("energy", "_a", "_s", "_fixed"):
        assert (getattr(from_dct, name).tobytes()
                == getattr(from_truth, name).tobytes()), name
    assert (from_dct.beyond, from_dct.sigma2, from_dct.R, from_dct.truths) == \
        (from_truth.beyond, from_truth.sigma2, from_truth.R, from_truth.truths)
    windows = make_windows(sys, "nonoverlap_log", 3)
    want = MseObjective.from_pool(from_truth, windows)
    got = MseObjective.from_pool(from_dct, windows)
    for a in ALPHA_GRID:
        assert got.windows_at(a) == want.windows_at(a)
        assert got([a, 2 * a, 3 * a]) == want([a, 2 * a, 3 * a])
    _, _, dense, _, dense_dhats = _md_problem(seed=347)
    with pytest.raises(ValueError, match="no orthonormal synthesis"):
        DataPool(dense).fold(dense_dhats[0], 0.01, np.zeros(dense.n),
                             np.zeros(dense.n))
