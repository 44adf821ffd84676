"""Factorization backends against dense linear-algebra references."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy import fft as sfft

from specwin.errors import JointNullSpaceError, KernelSymmetryError, SpecwinError
from specwin.problems import gaussian_psf
from specwin.solver import solve_windowed
from specwin.spectral import (
    dct_decompose,
    diag_to_gsvd_check,
    filter_factors,
    gsvd,
    laplacian_spectrum,
    reflexive_kernel,
)

from oracles import (
    dense_laplacian_2d,
    laplacian_1d,
    make_diag_system,
    reflexive_blur_matrix,
    stacked_pair_gsvd,
    symmetric_kernel,
    tik_matrices,
    windows_from_members,
)

SIZES = [(6, 4), (8, 8), (12, 7), (16, 12)]
PENALTIES = ["identity", "laplacian", "random"]


def _seed(m: int, n: int, penalty: str) -> int:
    return m * 1009 + n * 13 + PENALTIES.index(penalty)


def _reconstruct(sys):
    """A rebuilt from the factors as U[:, :n] diag(delta) Y^{-1}."""
    return sys.U[:, : sys.n] @ np.diag(sys.delta) @ np.linalg.inv(sys.Y)


@pytest.mark.parametrize("m,n", SIZES)
@pytest.mark.parametrize("penalty", PENALTIES)
def test_gsvd_reconstructs_both_factors(m, n, penalty):
    # A Y == U[:, :n] diag(delta), and L Y has orthogonal columns of norms lam
    rng = np.random.default_rng(_seed(m, n, penalty))
    A, L = tik_matrices(rng, m, n, penalty)
    sys = gsvd(A, L)
    assert np.linalg.norm(_reconstruct(sys) - A) <= 1e-10 * np.linalg.norm(A)
    U1Delta = sys.U[:, : sys.n] @ np.diag(sys.delta)
    assert np.linalg.norm(A @ sys.Y - U1Delta) <= 1e-10 * np.sqrt(n)
    LY = L @ sys.Y
    assert np.abs(LY.T @ LY - np.diag(sys.lam ** 2)).max() <= 1e-10


@pytest.mark.parametrize("m,n", SIZES)
def test_gsvd_factors_are_orthonormal(m, n):
    rng = np.random.default_rng(_seed(m, n, "random") + 71)
    A, L = tik_matrices(rng, m, n, "random")
    sys = gsvd(A, L)
    assert np.abs(sys.U.T @ sys.U - np.eye(m)).max() <= 1e-12
    # Y is not orthonormal up to a diagonal scale
    assert sys.synthesis_scale is None
    with pytest.raises(ValueError, match="no orthonormal synthesis"):
        sys.solution_coefficients(np.zeros(n))


@pytest.mark.parametrize("m,n", [(12, 7), (8, 8)])
def test_gsvd_analyze_adjoint_inverts_analyze(m, n):
    # U is orthogonal, so on tall and square pairs analyze_adjoint is both
    # the adjoint and the inverse of analyze
    rng = np.random.default_rng(_seed(m, n, "random") + 213)
    A, L = tik_matrices(rng, m, n, "random")
    sys = gsvd(A, L)
    v, c = rng.standard_normal(m), rng.standard_normal(m)
    assert np.abs(sys.analyze_adjoint(sys.analyze(v)) - v).max() <= 1e-12
    gap = sys.analyze(v) @ c - v @ sys.analyze_adjoint(c)
    assert abs(gap) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(c)


@pytest.mark.parametrize("m,n", SIZES)
@pytest.mark.parametrize("penalty", PENALTIES)
def test_gsvd_value_contract(m, n, penalty):
    rng = np.random.default_rng(_seed(m, n, penalty) + 142)
    A, L = tik_matrices(rng, m, n, penalty)
    sys = gsvd(A, L)
    report = diag_to_gsvd_check(sys)
    assert report.passed
    assert report.unit_defect <= 1e-12
    assert np.all(np.diff(sys.delta) >= 0.0)
    assert np.all(np.diff(sys.lam) <= 0.0)
    assert sys.ell == np.count_nonzero(sys.delta == 0.0)
    assert sys.q_star == sys.n - np.count_nonzero(sys.lam == 0.0)
    # zeros of delta lead, zeros of lam trail
    assert not np.any(sys.delta[sys.ell:] == 0.0)
    assert not np.any(sys.lam[: sys.q_star] == 0.0)
    assert np.all(sys.lam[sys.q_star:] == 0.0)
    assert np.all(sys.gamma[sys.q_star:] == np.inf)


def test_gsvd_rank_deficient_forward_operator():
    rng = np.random.default_rng(3)
    m, n, r = 12, 9, 6
    A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    L = np.eye(n)
    sys = gsvd(A, L)
    assert sys.ell == n - r
    assert sys.q_star == n
    Ar = _reconstruct(sys)
    assert np.linalg.norm(Ar - A) <= 1e-10 * np.linalg.norm(A)
    # annihilated directions pass nothing through the pseudo-inverse
    assert np.all(sys.delta_pinv()[: sys.ell] == 0.0)


def test_gsvd_singular_penalty_tail():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((10, 7))
    sys = gsvd(A, laplacian_1d(7))
    assert sys.q_star == 6
    assert np.count_nonzero(sys.lam == 0.0) == 1
    assert sys.lam[-1] == 0.0
    assert sys.delta[-1] > 0.0


def test_gsvd_rejects_wide_and_mismatched_inputs():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        gsvd(rng.standard_normal((3, 5)), np.eye(5))
    with pytest.raises(ValueError):
        gsvd(rng.standard_normal((6, 4)), np.eye(5))


def test_gsvd_rejects_joint_null_space():
    rng = np.random.default_rng(6)
    n = 8
    A0 = rng.standard_normal((12, n))
    A = A0 - A0.mean(axis=1, keepdims=True)  # constants in null(A)
    with pytest.raises(JointNullSpaceError):
        gsvd(A, laplacian_1d(n))  # constants in null(L) too


@pytest.mark.parametrize("scale,singular", [(1e-14, True), (1e-6, False)])
def test_gsvd_rank_check_on_a_scaled_column(scale, singular):
    # scaling one column of the stacked pair scales the condition number of
    # its triangular factor by about 1/scale
    rng = np.random.default_rng(7)
    A, L = tik_matrices(rng, 12, 8, "random")
    A[:, 3] *= scale
    L[:, 3] *= scale
    if singular:
        with pytest.raises(JointNullSpaceError):
            gsvd(A, L)
    else:
        sys = gsvd(A, L)
        assert diag_to_gsvd_check(sys).passed
        assert np.linalg.norm(_reconstruct(sys) - A) <= 1e-8 * np.linalg.norm(A)


def test_gsvd_makes_one_svd_and_a_c_ordered_y(monkeypatch):
    calls = []
    svd = scipy.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    # gsvd imports scipy.linalg.svd when called, so it reads the patch
    monkeypatch.setattr(scipy.linalg, "svd", counted)
    rng = np.random.default_rng(8)
    A, L = tik_matrices(rng, 20, 16, "laplacian")
    sys = gsvd(A, L)
    assert calls == [(20, 16)]  # the top block of the stacked Q only
    # the dense analysis and synthesis speeds depend on this layout
    assert sys.U.flags.c_contiguous
    assert sys.Y.flags.c_contiguous


def test_gsvd_transient_memory_stays_below_nine_n_squared():
    """The traced peak of one gsvd call on a 256 x 256 pair with a square
    penalty is at most 9 n**2 doubles (in-place LAPACK reads ~8; stacking,
    copying QR and copying SVD read ~10).

    tracemalloc sees every numpy array allocation, scipy's f2py work arrays
    included, but not the internal workspace that numpy.linalg mallocs
    itself; the modules gsvd imports are loaded before tracing starts.
    """
    n = 256
    rng = np.random.default_rng(9)
    A, L = tik_matrices(rng, n, n, "random")
    gsvd(A, L)
    tracemalloc.start()
    try:
        gsvd(A, L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * n * n * np.dtype(float).itemsize


ORACLE_PAIRS = {
    "tall-random": lambda rng: tik_matrices(rng, 16, 12, "random"),
    "laplacian": lambda rng: tik_matrices(rng, 12, 7, "laplacian"),
    "fewer-penalty-rows": lambda rng: (rng.standard_normal((10, 8)),
                                       np.diff(np.eye(8), axis=0)),
    "no-penalty-rows": lambda rng: (rng.standard_normal((9, 6)),
                                    np.zeros((0, 6))),
    "rank-deficient-A": lambda rng: (rng.standard_normal((12, 6))
                                     @ rng.standard_normal((6, 9)), np.eye(9)),
}


@pytest.mark.parametrize("case", ORACLE_PAIRS)
def test_gsvd_matches_the_stacked_pair_oracle(case):
    # U and Y are not compared entry by entry: another LAPACK build may flip
    # the sign of a singular-vector pair
    rng = np.random.default_rng(sorted(ORACLE_PAIRS).index(case) + 21)
    A, L = ORACLE_PAIRS[case](rng)
    sys, ref = gsvd(A, L), stacked_pair_gsvd(A, L)
    assert (sys.ell, sys.q_star) == (ref.ell, ref.q_star)
    assert np.abs(sys.delta - ref.delta).max() <= 1e-13
    assert np.abs(sys.lam - ref.lam).max() <= 1e-13
    half = sys.n // 2
    windows = windows_from_members([range(half), range(half, sys.n)], sys.n)
    d = rng.standard_normal(sys.m)
    for alphas in ([0.3, 2.0], [1e-3, 1e-3], [5.0, 0.05]):
        x = solve_windowed(sys, d, windows, alphas).x
        x_ref = solve_windowed(ref, d, windows, alphas).x
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


# ---------------------------------------------------------------------------
# reflexive-boundary DCT backend
# ---------------------------------------------------------------------------


def _gauss_psf(dims, width):
    n1, n2 = dims
    r = np.arange(n1) - (n1 - 1) / 2.0
    c = np.arange(n2) - (n2 - 1) / 2.0
    g = np.exp(-(r[:, None] ** 2 + c[None, :] ** 2) / (2.0 * width))
    return g / g.sum()


def test_reflexive_kernel_matches_independent_coding():
    rng = np.random.default_rng(7)
    for shape in [(3, 3), (5, 5), (4, 4), (2, 5), (5, 2), (1, 1)]:
        psf = rng.standard_normal(shape)
        k = reflexive_kernel(psf)
        assert np.array_equal(k, symmetric_kernel(psf))
        assert k.shape[0] % 2 == 1 and k.shape[1] % 2 == 1
        assert np.allclose(k, k[::-1, :]) and np.allclose(k, k[:, ::-1])
        assert np.isclose(k.sum(), psf.sum())


def test_reflexive_kernel_fixes_symmetric_odd_input():
    psf = _gauss_psf((5, 5), 1.3)
    assert np.allclose(reflexive_kernel(psf), psf, atol=1e-16)


@pytest.mark.parametrize("dims", [(4, 4), (8, 8), (6, 9)])
def test_dct_backend_diagonalizes_the_dense_blur(dims):
    psf = _gauss_psf(dims, 2.0)
    sys = dct_decompose(psf, penalty="identity")
    T = reflexive_blur_matrix(psf, dims)
    assert np.abs(T - T.T).max() <= 1e-12
    # every DCT basis vector is an eigenvector; recover its eigenvalue and
    # cross it against the normalized spectral pair (delta, lam)
    n1, n2 = dims
    a = np.zeros(dims)
    for i in range(n1):
        for j in range(n2):
            e = np.zeros(dims)
            e[i, j] = 1.0
            v = sfft.idctn(e, type=2, norm="ortho").ravel()
            Tv = T @ v
            a[i, j] = v @ Tv
            assert np.linalg.norm(Tv - a[i, j] * v) <= 1e-10
    scale = np.hypot(a.ravel(), 1.0)
    delta_dense = np.sort(np.abs(a.ravel()) / scale)
    lam_dense = np.sort(1.0 / scale)[::-1]
    assert np.abs(delta_dense - sys.delta).max() <= 1e-9
    assert np.abs(lam_dense - sys.lam).max() <= 1e-9


def test_dct_backend_transforms_are_orthonormal_and_consistent():
    dims = (7, 5)
    psf = _gauss_psf(dims, 1.1)
    sys = dct_decompose(psf, penalty="identity")
    rng = np.random.default_rng(8)
    x = rng.standard_normal(dims)
    c = sys.analyze(x)
    assert c.shape == (sys.m,)
    assert np.isclose(np.linalg.norm(c), np.linalg.norm(x))
    back = sys.analyze_adjoint(c)
    assert back.shape == dims
    assert np.abs(back - x).max() <= 1e-12
    # synthesize is orthonormal after the diagonal synthesis scale, so
    # solution-space distances equal coefficient-space ones
    t = sys.solution_coefficients(x)
    assert np.abs(sys.synthesize(sys.synthesis_scale * t) - x).max() <= 1e-12
    y = rng.standard_normal(sys.n)
    gap = np.linalg.norm(sys.synthesize(y) - x)
    assert gap == pytest.approx(
        np.linalg.norm(y / sys.synthesis_scale - t), rel=1e-12)


def test_replaced_systems_transform_as_their_originals():
    # the transforms read only the stored factors, so a dataclasses.replace
    # copy of either backend applies them bit for bit alike; the box blur's
    # spectrum has negative entries, so the DCT signs are exercised
    rng = np.random.default_rng(29)
    A, L = tik_matrices(rng, 12, 7, "laplacian")
    box = np.zeros((7, 5))
    box[2:5, 1:4] = 1.0 / 9.0
    dct = dct_decompose(box, "laplacian")
    assert np.any(dct.sign < 0.0)
    for sys in (gsvd(A, L), dct):
        copy = replace(sys)
        assert copy is not sys and copy.backend == sys.backend
        v, c = rng.standard_normal(sys.m), rng.standard_normal(sys.m)
        for name, arg in (("analyze", v), ("analyze_adjoint", c),
                          ("synthesize", c[: sys.n])):
            out = getattr(copy, name)(arg)
            assert np.array_equal(out, getattr(sys, name)(arg)), name
        assert np.abs(copy.analyze_adjoint(copy.analyze(v)).ravel()
                      - v).max() <= 1e-12
        if sys.backend == "dct":
            assert np.array_equal(copy.solution_coefficients(v),
                                  sys.solution_coefficients(v))
        else:
            with pytest.raises(ValueError, match="no orthonormal synthesis"):
                copy.solution_coefficients(v[: sys.n])


def test_dct_backend_applies_the_blur_spectrally():
    dims = (8, 8)
    psf = _gauss_psf(dims, 3.0)
    sys = dct_decompose(psf, penalty="identity")
    T = reflexive_blur_matrix(psf, dims)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(dims)
    # analyze diagonalizes the dense operator: the per-coefficient multiplier
    # it implies must equal gamma in magnitude (gamma de-normalizes to the
    # raw blur eigenvalue when the penalty is the identity)
    y = sys.analyze(T @ x.ravel())
    z = sys.analyze(x)
    nz = sys.delta > 0
    implied = y[nz] / z[nz]
    assert np.abs(np.abs(implied) - sys.gamma[nz]).max() <= 1e-8
    # unfiltered inversion through the transform pair recovers the image
    # (all blur eigenvalues are nonzero for this kernel)
    assert sys.ell == 0
    x_rec = sys.synthesize(sys.delta_pinv() * y)
    assert np.abs(x_rec - x).max() <= 1e-8


def test_dct_backend_laplacian_penalty_nullspace():
    dims = (6, 6)
    psf = _gauss_psf(dims, 1.5)
    sys = dct_decompose(psf, penalty="laplacian")
    assert sys.q_star == sys.n - 1
    assert np.count_nonzero(sys.lam == 0.0) == 1
    # the unpenalized direction is the constant image
    coef = np.zeros(sys.n)
    coef[-1] = 1.0
    img = sys.synthesize(coef)
    assert np.abs(img - img.ravel()[0]).max() <= 1e-12
    report = diag_to_gsvd_check(sys)
    assert report.passed


def test_laplacian_spectrum_matches_dense_eigendecomposition():
    for dims in [(4, 4), (5, 3), (8, 8)]:
        lap = laplacian_spectrum(dims)
        dense = dense_laplacian_2d(dims)
        assert np.abs(np.sort(lap.ravel())
                      - np.sort(np.linalg.eigvalsh(dense))).max() <= 1e-10
        # eigenpair check for a few basis vectors
        n1, n2 = dims
        for (i, j) in [(0, 0), (1, 0), (n1 - 1, n2 - 1)]:
            e = np.zeros(dims)
            e[i, j] = 1.0
            v = sfft.idctn(e, type=2, norm="ortho").ravel()
            assert np.linalg.norm(dense @ v - lap[i, j] * v) <= 1e-10
    assert laplacian_spectrum((6, 6))[0, 0] == 0.0


@pytest.mark.parametrize("xi", [2.0, 9.0])
@pytest.mark.parametrize("dims", [(4, 4), (6, 6), (8, 8), (9, 7), (12, 12),
                                  (16, 16)])
def test_gsvd_and_dct_decompose_agree_on_the_identity_penalty(dims, xi):
    psf = gaussian_psf(xi, dims)
    n = dims[0] * dims[1]
    dense = gsvd(reflexive_blur_matrix(psf, dims), np.eye(n))
    dct = dct_decompose(psf, penalty="identity")
    assert (dense.ell, dense.q_star) == (dct.ell, dct.q_star)
    assert np.abs(dense.delta - np.sort(dct.delta)).max() <= 1e-9
    assert np.abs(dense.lam - np.sort(dct.lam)[::-1]).max() <= 1e-9


def test_dct_decompose_rejects_asymmetric_kernels():
    psf = _gauss_psf((6, 6), 2.0).copy()
    psf[0, 1] += 1e-3
    with pytest.raises(KernelSymmetryError):
        dct_decompose(psf)


def test_dct_decompose_rejects_joint_null_space():
    # zero-sum symmetric kernel kills the constant mode, as does the
    # Laplacian penalty
    k = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
    psf = np.zeros((7, 7))
    psf[2:5, 2:5] = k
    with pytest.raises(JointNullSpaceError):
        dct_decompose(psf, penalty="laplacian")
    dct_decompose(psf, penalty="identity")  # fine with a full-rank penalty


def test_blur_spectrum_keeps_its_last_build(monkeypatch):
    """blur_spectrum returns its last build, read-only, while the PSF's
    values and the grid stay the same; another grid, another PSF or the
    same PSF array changed in place builds again, and an error is raised on
    every call and never kept.  So one PSF's data sets and its system share
    one build."""
    from specwin import problems, spectral

    builds = []
    real = spectral._first_column_spectrum
    monkeypatch.setattr(spectral, "_first_column_spectrum",
                        lambda *a: builds.append(a) or real(*a))
    spectral._spectrum.cache_clear()
    psf = gaussian_psf(2.0, (12, 12))
    first = spectral.blur_spectrum(psf, (12, 12))
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 0.0
    assert spectral.blur_spectrum(psf.copy(), [12, 12]) is first
    assert len(builds) == 1
    assert spectral.blur_spectrum(psf, (14, 12)).shape == (14, 12)
    assert len(builds) == 2
    spectral.blur_spectrum(gaussian_psf(3.0, (12, 12)), (12, 12))
    assert len(builds) == 3
    psf *= 2.0
    doubled = spectral.blur_spectrum(psf, (12, 12))
    assert len(builds) == 4
    assert np.array_equal(doubled, 2.0 * first)

    bad = psf.copy()
    bad[0, 1] += 1e-3
    for _ in range(2):
        with pytest.raises(KernelSymmetryError):
            spectral.blur_spectrum(bad, (12, 12))
    assert spectral.blur_spectrum(psf, (12, 12)) is doubled
    assert len(builds) == 4

    spectral._spectrum.cache_clear()
    builds.clear()
    for seed in range(5):
        problems.make_dataset(problems.synthetic_image(12, seed), psf, 10.0,
                              seed)
    dct_decompose(psf)
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# filter factors and system accessors
# ---------------------------------------------------------------------------


def test_filter_factors_piecewise_definition():
    sys = make_diag_system([0.0, 0.0, 0.6, 0.8, 1.0, 1.0],
                           [1.0, 0.9, 0.8, 0.6, 0.0, 0.0])
    alpha = 0.7
    ff = filter_factors(sys, alpha)
    expected_mid = np.array([0.6 ** 2 / (0.6 ** 2 + alpha ** 2 * 0.8 ** 2),
                             0.8 ** 2 / (0.8 ** 2 + alpha ** 2 * 0.6 ** 2)])
    assert np.all(ff.phi[:2] == 0.0)
    assert np.all(ff.phi[4:] == 1.0)
    assert np.abs(ff.phi[2:4] - expected_mid).max() <= 1e-15
    assert np.array_equal(ff.psi, 1.0 - ff.phi)
    assert np.all((ff.phi >= 0.0) & (ff.phi <= 1.0))


def test_filter_factors_monotone_in_alpha():
    rng = np.random.default_rng(10)
    A, L = tik_matrices(rng, 10, 8, "random")
    sys = gsvd(A, L)
    alphas = np.geomspace(1e-3, 10.0, 12)
    stack = np.array([filter_factors(sys, a).phi for a in alphas])
    assert np.all(np.diff(stack, axis=0) <= 1e-15)


def test_system_accessors_on_explicit_values():
    sys = make_diag_system([0.0, 0.3, 0.8, 1.0], [1.0, 0.9, 0.5, 0.0])
    assert sys.gamma_max_finite == pytest.approx(0.8 / 0.5)
    assert sys.gamma_min_positive == pytest.approx(0.3 / 0.9)
    pinv = sys.delta_pinv()
    assert pinv[0] == 0.0
    assert pinv[1:] == pytest.approx([1 / 0.3, 1 / 0.8, 1.0])


def test_system_derives_its_layout_from_the_values():
    sys = make_diag_system([0.0, 0.0, 0.6, 0.8, 1.0, 1.0],
                           [1.0, 1.0, 0.8, 0.6, 0.0, 0.0])
    assert (sys.n, sys.ell, sys.q_star) == (6, 2, 4)
    assert np.all(sys.gamma[:2] == 0.0)
    assert np.array_equal(sys.gamma[2:4], [0.6 / 0.8, 0.8 / 0.6])
    assert np.all(sys.gamma[4:] == np.inf)
    assert sys.backend == "dense"
    assert replace(sys, synthesis_scale=np.ones(6), dims=(2, 3),
                   perm=np.arange(6), sign=np.ones(6)).backend == "dct"
    # each backend needs the factors of its transforms
    with pytest.raises(ValueError, match="a dct system needs dims, perm, sign"):
        replace(sys, synthesis_scale=np.ones(6))
    with pytest.raises(ValueError, match="a dense system needs Y"):
        replace(sys, Y=None)
    assert gsvd(np.eye(3), np.eye(3)).backend == "dense"
    assert dct_decompose(_gauss_psf((4, 4), 1.0)).backend == "dct"
    # dataclasses.replace derives the layout of the new values
    moved = replace(sys, delta=[0.0, 0.3, 0.6, 0.8, 1.0, 1.0],
                    lam=[1.0, 0.9, 0.8, 0.6, 0.5, 0.0])
    assert (moved.n, moved.ell, moved.q_star) == (6, 1, 5)
    assert moved.gamma[1] == 0.3 / 0.9 and moved.gamma[4] == 2.0
    assert moved.gamma[5] == np.inf
    assert moved.gamma_min_positive == 0.3 / 0.9
    assert moved.gamma_max_finite == 2.0


def test_system_snaps_relative_zeros():
    sys = make_diag_system([1e-15, 0.6, 1.0], [1.0, 0.8, 1e-15])
    assert sys.delta[0] == 0.0 and sys.lam[-1] == 0.0
    assert (sys.ell, sys.q_star) == (1, 2)
    assert sys.gamma[-1] == np.inf
    # just above the threshold a value stays
    kept = make_diag_system([1.01e-14, 0.6, 1.0], [1.0, 0.8, 0.5])
    assert kept.ell == 0 and kept.delta[0] == 1.01e-14


def test_system_rejects_joint_and_misplaced_zeros():
    with pytest.raises(JointNullSpaceError):
        make_diag_system([0.0, 1.0], [0.0, 0.0])
    sys = make_diag_system([0.6, 0.8, 1.0], [0.8, 0.6, 0.1])
    with pytest.raises(JointNullSpaceError):  # both zero once snapped
        replace(sys, delta=[1e-16, 1.0, 1.0], lam=[1e-16, 1.0, 1.0])
    for delta, lam in (([0.6, 0.0, 0.8], [0.8, 1.0, 0.6]),
                       ([0.6, 1.0, 0.8], [0.8, 0.0, 0.6])):
        with pytest.raises(SpecwinError, match="out of layout") as info:
            replace(sys, delta=delta, lam=lam)
        assert info.type is SpecwinError


def test_diag_to_gsvd_check_flags_unnormalized_values():
    sys = make_diag_system([0.5, 1.2], [2.0, 1.0])
    report = diag_to_gsvd_check(sys)
    assert not report.passed
    assert report.unit_defect > 1.0
