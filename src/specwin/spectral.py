"""Mutual spectral decompositions of a (forward, penalty) operator pair.

Two backends produce the same `SpectralSystem`.  Each hands the system its
spectral values delta and lam and the factors of its transforms; the system
checks the layout of the values, derives ell, q_star and gamma = delta/lam,
and applies the transforms from the factors itself:

* `gsvd` factors a dense pair (A, L) with an orthogonal U and an invertible
  Y such that A Y = U[:, :n] diag(delta) and (L Y)^T (L Y) = diag(lam**2),
  via QR of the stacked pair followed by an SVD of the top block (the CS
  decomposition of the stacked orthonormal factor).  Both LAPACK calls
  overwrite their inputs, so a square pair peaks at about 8 n**2 doubles.
  The system keeps U and Y: analyze is U^T, synthesize is Y.
* `dct_decompose` simultaneously diagonalizes a symmetric convolution operator
  under reflexive (half-sample symmetric) boundary conditions and an
  identity/Laplacian penalty with the orthonormal 2D DCT-II, then rescales so
  that delta_j**2 + lam_j**2 == 1.  The system keeps the image dims, the
  permutation that sorts the DCT coefficients, the signs of the blur
  spectrum and the rescaling (`synthesis_scale`), the last two in sorted
  order.  Its eigenvalues come from `blur_spectrum`, which `blur` and the
  data sets of `problems` share, so system and data agree by construction;
  it keeps the last spectrum it built, so one PSF's is built once.

Either way the solution of  min ||A x - d||^2 + alpha^2 ||L x||^2  is
x = synthesize(phi * pinv(delta) * analyze(d)[:n]) with the filter factors
phi from `filter_factors`.  On the DCT backend synthesize is an orthonormal
transform times a diagonal scale, which the system exposes
(`synthesis_scale`, `solution_coefficients`) so that solution-space norms can
be taken in coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from scipy import fft as sfft

from .errors import JointNullSpaceError, KernelSymmetryError, SpecwinError

__all__ = [
    "SpectralSystem",
    "FilterDiagonal",
    "DiagonalizationReport",
    "gsvd",
    "dct_decompose",
    "filter_factors",
    "diag_to_gsvd_check",
    "laplacian_spectrum",
    "reflexive_kernel",
    "blur_spectrum",
    "blur",
]

# Relative threshold below which a spectral value counts as an exact zero.
ZERO_RTOL = 1e-14

# The stacked pair [A; L] counts as rank deficient when the estimated
# reciprocal 1-norm condition number of its triangular factor is at most this.
RANK_RTOL = 1e-12

# Largest regularization parameter whose square is finite (about 1.34e154);
# the filter factors need alpha**2.
MAX_ALPHA = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class SpectralSystem:
    """A mutual diagonalization of a forward operator and a penalty operator.

    A backend gives delta (nondecreasing) and lam (nonincreasing); on
    construction, and again under dataclasses.replace, each value at most
    ZERO_RTOL times its array's largest snaps to 0 and the layout is derived:
    delta == 0 on [0, ell) and lam == 0 on [q_star, n), so gamma =
    delta/lam is 0 on [0, ell), finite positive on the active band
    [ell, q_star) and +inf on [q_star, n).  Zeros of delta that do not
    lead or zeros of lam that do not trail raise SpecwinError, a joint zero
    JointNullSpaceError.
    analyze maps data vectors to spectral coefficients (length m, sorted
    order); synthesize maps filtered coefficients (length n) back to the
    solution space.  The system applies both from the factors it keeps,
    branching on `backend`: "dense" when synthesis_scale is None, else "dct";
    a backend's missing factors raise ValueError.

    * dense: analyze(v) == U^T v and synthesize(c) == Y c.
    * dct: with Q the orthonormal 2D DCT-II of a dims image and perm the
      permutation that sorts its coefficients, analyze(v) ==
      sign * (Q^T v)[perm] and synthesize(c) == Q(c / synthesis_scale),
      where synthesize scatters c back to DCT order before Q.  The forward
      map x -> (Q^T x)[perm] is `solution_coefficients`, so by Parseval
      ||synthesize(c) - x|| equals
      ||c / synthesis_scale - solution_coefficients(x)||.
    """

    m: int
    delta: np.ndarray
    lam: np.ndarray
    # dense factors, None on the DCT backend
    U: Optional[np.ndarray] = field(default=None, repr=False)
    Y: Optional[np.ndarray] = field(default=None, repr=False)
    # DCT factors, None on the dense backend: the image shape, and in sorted
    # order the scale, the DCT index of each coefficient and its sign
    dims: Optional[Tuple[int, int]] = None
    synthesis_scale: Optional[np.ndarray] = field(default=None, repr=False)
    perm: Optional[np.ndarray] = field(default=None, repr=False)
    sign: Optional[np.ndarray] = field(default=None, repr=False)
    n: int = field(init=False)
    ell: int = field(init=False)
    q_star: int = field(init=False)
    gamma: np.ndarray = field(init=False)

    def __post_init__(self):
        needs = ("U", "Y") if self.backend == "dense" else ("dims", "perm", "sign")
        missing = [name for name in needs if getattr(self, name) is None]
        if missing:
            raise ValueError(f"a {self.backend} system needs {', '.join(missing)}")
        delta = np.array(self.delta, dtype=float)
        lam = np.array(self.lam, dtype=float)
        for values in (delta, lam):
            values[values <= ZERO_RTOL * values.max()] = 0.0
        delta_zero, lam_zero = delta == 0.0, lam == 0.0
        if np.any(delta_zero & lam_zero):
            raise JointNullSpaceError("joint null space nonempty")
        n = delta.size
        ell = int(np.count_nonzero(delta_zero))
        q_star = n - int(np.count_nonzero(lam_zero))
        if not (np.all(delta_zero[:ell]) and np.all(lam_zero[q_star:])):
            raise SpecwinError("spectral values out of layout: the zeros of "
                               "delta must lead and the zeros of lam trail")
        gamma = np.full(n, np.inf)
        gamma[:q_star] = delta[:q_star] / lam[:q_star]
        for name, value in (("delta", delta), ("lam", lam), ("n", n),
                            ("ell", ell), ("q_star", q_star),
                            ("gamma", gamma)):
            object.__setattr__(self, name, value)

    @property
    def backend(self) -> str:
        """The backend name: "dct" with an orthonormal synthesis, else
        "dense"."""
        return "dense" if self.synthesis_scale is None else "dct"

    def analyze(self, v: np.ndarray) -> np.ndarray:
        """Spectral coefficients of a data vector (2D input is flattened)."""
        v = np.asarray(v, dtype=float)
        if self.backend == "dense":
            return self.U.T @ v.ravel()
        return self.sign * self._dct(v)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Solution-space vector from length-n filtered coefficients.  On the
        dense backend an n-by-k column stack maps to the k solutions as
        columns, in one matrix product."""
        c = np.asarray(c, dtype=float)
        if self.backend == "dense":
            return self.Y @ c
        return self._idct(c / self.synthesis_scale)

    def analyze_adjoint(self, c: np.ndarray) -> np.ndarray:
        """Adjoint of analyze; analyze_adjoint(analyze(v)) == v."""
        c = np.asarray(c, dtype=float)
        if self.backend == "dense":
            return self.U @ c
        return self._idct(self.sign * c)

    def solution_coefficients(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal coefficients Q^T x of a solution-space vector, in sorted
        order (2D input is flattened); needs a synthesis_scale."""
        if self.backend == "dense":
            raise ValueError("the dense backend has no orthonormal synthesis")
        return self._dct(np.asarray(x, dtype=float))

    def _dct(self, v: np.ndarray) -> np.ndarray:
        """Sorted orthonormal DCT-II coefficients of an image or its
        flattening."""
        return self._sorted(_dct2(v.reshape(self.dims)))

    def _sorted(self, coef: np.ndarray) -> np.ndarray:
        """Orthonormal DCT-II coefficients in DCT order (an image's, or
        their flattening) in sorted order."""
        return np.ravel(coef)[self.perm]

    def _idct(self, c: np.ndarray) -> np.ndarray:
        """Image whose sorted DCT-II coefficients are c."""
        z = np.zeros(self.n)
        z[self.perm] = c
        return _idct2(z.reshape(self.dims))

    @property
    def gamma_max_finite(self) -> float:
        """Largest finite generalized spectral value."""
        return float(self.gamma[self.ell:self.q_star].max())

    @property
    def gamma_min_positive(self) -> float:
        """Smallest strictly positive finite generalized spectral value."""
        return float(self.gamma[self.ell:self.q_star].min())

    def delta_pinv(self) -> np.ndarray:
        """Entrywise pseudo-inverse of delta (zero where delta is zero)."""
        out = np.zeros(self.n)
        out[self.ell:] = 1.0 / self.delta[self.ell:]
        return out


@dataclass(frozen=True)
class FilterDiagonal:
    """Diagonal spectral filter: phi shrinks, psi = 1 - phi is the residual part."""

    phi: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class DiagonalizationReport:
    """Diagnostics for a normalized system: unit-circle defect and ordering."""

    unit_defect: float
    ordering_defect: float
    passed: bool


def gsvd(A: np.ndarray, L: np.ndarray) -> SpectralSystem:
    """Dense mutual factorization of the pair (A, L).

    Requires m >= n and full column rank of the stacked pair [A; L]: with
    the QR factorization [A; L] = Q R, a LAPACK 1-norm condition estimate
    of the triangular R (`trcon`) at most RANK_RTOL raises
    JointNullSpaceError.  The CS decomposition of Q is one SVD of its top
    block.  The returned values satisfy delta nondecreasing, lam
    nonincreasing and delta**2 + lam**2 == 1 (CS normalization).  The system
    keeps the m-by-m orthogonal U and the invertible n-by-n Y (both
    C-ordered) with A @ Y == U[:, :n] @ diag(delta) and
    (L @ Y).T @ (L @ Y) == diag(lam**2), the factors of the filtered
    solution x = Y (phi / delta) (U^T d)[:n].

    LAPACK works in place: the pair is stacked into one buffer that the QR
    overwrites with Q, the SVD overwrites its copy of the top block, and
    each intermediate is released once read.  For m == q == n the
    transient peak is about 8 n**2 doubles beyond the inputs, of which the
    returned U and Y keep 2 n**2.
    """
    # scipy.linalg is imported here, its only user, to keep `import specwin`
    # light
    from scipy.linalg import qr, solve_triangular, svd
    from scipy.linalg.lapack import dtrcon

    A = np.atleast_2d(np.asarray(A, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    m, n = A.shape
    q, nL = L.shape
    if nL != n:
        raise ValueError(f"column counts differ: A has {n}, L has {nL}")
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {m} < {n}")

    # one Fortran-ordered buffer holds [A; L], and the QR overwrites it with Q
    Q = np.empty((m + q, n), order="F")
    Q[:m] = A
    Q[m:] = L
    Q, R = qr(Q, mode="economic", overwrite_a=True, check_finite=False)
    rcond, info = dtrcon(R, norm="1", uplo="U", diag="N")
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dtrcon failed with info={info}")
    if not rcond > RANK_RTOL:
        raise JointNullSpaceError("joint null space nonempty")

    # Q1 in Fortran order, so that the SVD overwrites it in place
    Q1 = np.asfortranarray(Q[:m])
    Q2 = np.ascontiguousarray(Q[m:])
    del Q
    Uf, dvals, Zt = svd(Q1, full_matrices=True, overwrite_a=True,
                        check_finite=False, lapack_driver="gesdd")
    del Q1
    # Reverse the singular-value order so delta is nondecreasing; columns of U
    # beyond n span the data-space complement of range(A) union range under Q1.
    delta = np.clip(dvals[::-1], 0.0, 1.0)
    U = np.empty((m, m))
    U[:, :n] = Uf[:, :n][:, ::-1]
    U[:, n:] = Uf[:, n:]
    del Uf
    Ztr = Zt[::-1, :]

    # L Y == Q2 Ztr^T, whose columns are orthogonal with norms lam_j
    lam = np.clip(np.linalg.norm(Q2 @ Ztr.T, axis=0), 0.0, 1.0)
    del Q2

    # Y = (Ztr R)^-1 = R^-1 Ztr^T; the solve returns Fortran order, and the
    # C-ordered copy makes the products Y @ c about twice as fast
    Y = np.ascontiguousarray(solve_triangular(R, Ztr.T))
    return SpectralSystem(m=m, delta=delta, lam=lam, U=U, Y=Y)


def reflexive_kernel(psf: np.ndarray) -> np.ndarray:
    """Symmetrized integer-shift kernel defining the reflexive blur operator.

    The PSF array is averaged with its three reflections about the array
    center (h-1)//2; for odd sizes this returns the PSF itself.  The result
    has odd size, is exactly even in both axes, and keeps the kernel sum.
    """
    p = np.asarray(psf, dtype=float)
    h, w = p.shape
    ch, cw = (h - 1) // 2, (w - 1) // 2
    Sh, Sw = max(ch, h - 1 - ch), max(cw, w - 1 - cw)
    canvas = np.zeros((2 * Sh + 1, 2 * Sw + 1))
    canvas[Sh - ch: Sh - ch + h, Sw - cw: Sw - cw + w] = p
    return 0.25 * (canvas + canvas[::-1, :] + canvas[:, ::-1] + canvas[::-1, ::-1])


def _dct2(img: np.ndarray) -> np.ndarray:
    return sfft.dctn(img, type=2, norm="ortho")


def _idct2(coef: np.ndarray) -> np.ndarray:
    return sfft.idctn(coef, type=2, norm="ortho")


def _first_column_spectrum(kernel: np.ndarray, dims: Tuple[int, int]) -> np.ndarray:
    """Eigenvalues of the reflexive-boundary convolution in DCT-II order.

    Applies the operator to the impulse at index (0, 0) -- whose reflexive
    extension carries unit images at the four indices {0,-1} x {0,-1} -- and
    divides the transformed column by the transform of the impulse.
    """
    n1, n2 = dims
    Sh, Sw = kernel.shape[0] // 2, kernel.shape[1] // 2
    kpos = np.zeros((n1 + 1, n2 + 1))
    smax, tmax = min(Sh, n1), min(Sw, n2)
    kpos[: smax + 1, : tmax + 1] = kernel[Sh: Sh + smax + 1, Sw: Sw + tmax + 1]
    col = (kpos[0:n1, 0:n2] + kpos[1:n1 + 1, 0:n2]
           + kpos[0:n1, 1:n2 + 1] + kpos[1:n1 + 1, 1:n2 + 1])
    impulse = np.zeros(dims)
    impulse[0, 0] = 1.0
    return _dct2(col) / _dct2(impulse)


def laplacian_spectrum(dims: Tuple[int, int]) -> np.ndarray:
    """Eigenvalues of the 2D negative Laplacian with reflexive boundaries.

    In DCT-II order: l[i, j] = (2 - 2 cos(pi i / n1)) + (2 - 2 cos(pi j / n2)),
    with exactly one zero at (0, 0) for the constant mode.
    """
    n1, n2 = dims
    l1 = 2.0 - 2.0 * np.cos(np.pi * np.arange(n1) / n1)
    l2 = 2.0 - 2.0 * np.cos(np.pi * np.arange(n2) / n2)
    return l1[:, None] + l2[None, :]


def _check_doubly_symmetric(psf: np.ndarray) -> None:
    """ValueError unless the PSF is 2D; KernelSymmetryError unless it equals
    its flips in both axes to 1e-12 relative to its largest magnitude."""
    if psf.ndim != 2:
        raise ValueError("psf must be a 2D array")
    tol = 1e-12 * np.abs(psf).max()
    if (np.abs(psf - psf[::-1, :]).max() > tol
            or np.abs(psf - psf[:, ::-1]).max() > tol):
        raise KernelSymmetryError(
            "kernel not diagonalizable by DCT: PSF must be symmetric about "
            "its center in both axes")


def _embedded_kernel(psf: np.ndarray, dims: Tuple[int, int]) -> np.ndarray:
    """Center a (possibly smaller) PSF on an image-sized canvas.

    The PSF's center sample (hp-1)//2 lands on the canvas center (H-1)//2.
    """
    hp, wp = psf.shape
    H, W = dims
    if hp > H or wp > W:
        raise ValueError(f"PSF {psf.shape} larger than image {dims}")
    if (hp, wp) == (H, W):
        return psf
    canvas = np.zeros((H, W))
    r0 = (H - 1) // 2 - (hp - 1) // 2
    c0 = (W - 1) // 2 - (wp - 1) // 2
    canvas[r0:r0 + hp, c0:c0 + wp] = psf
    return canvas


def blur_spectrum(psf: np.ndarray, dims: Tuple[int, int]) -> np.ndarray:
    """Eigenvalues of the reflexive-boundary blur on a dims-sized grid, in
    the cosine basis (unsorted, one per 2D frequency).

    The operator is defined by the symmetrized integer-shift kernel of the
    PSF, which is exact for odd sizes and the canonical symmetric extension
    for even ones.  The result is read-only and reused: the last spectrum
    built is kept, keyed by the PSF's values and dims, so that the system
    and every data set of one PSF share one build."""
    psf = np.asarray(psf, dtype=float)
    return _spectrum(psf.shape, psf.tobytes(), tuple(dims))


@lru_cache(maxsize=1)  # one PSF per process: a CLI command, a benchmark run
def _spectrum(shape: tuple, values: bytes, dims: tuple) -> np.ndarray:
    """blur_spectrum of the float64 PSF with this shape and these bytes; an
    error is raised and not kept."""
    psf = np.frombuffer(values).reshape(shape)
    _check_doubly_symmetric(psf)
    kern = _embedded_kernel(psf, dims)
    spectrum = _first_column_spectrum(reflexive_kernel(kern), dims)
    spectrum.flags.writeable = False
    return spectrum


def blur(image: np.ndarray, psf: np.ndarray) -> np.ndarray:
    """Apply the reflexive-boundary blur: cosine transform, multiply by the
    kernel spectrum, transform back."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("image must be 2D")
    return _idct2(blur_spectrum(psf, image.shape) * _dct2(image))


def dct_decompose(psf: np.ndarray, penalty: str = "identity") -> SpectralSystem:
    """Simultaneous DCT-II diagonalization of a symmetric blur and a penalty.

    The PSF must be doubly symmetric and share the image dimensions.  The
    spectral values are normalized so delta**2 + lam**2 == 1 and sorted so
    that delta is nondecreasing; the system keeps the sorting permutation,
    from which it applies its transforms in sorted order.
    """
    psf = np.asarray(psf, dtype=float)
    a = blur_spectrum(psf, psf.shape).ravel()
    dims = psf.shape
    n = a.size

    if penalty == "identity":
        l = np.ones(n)
    elif penalty == "laplacian":
        l = laplacian_spectrum(dims).ravel()
    else:
        raise ValueError(f"unknown penalty kind: {penalty!r}")

    a_abs, l_abs = np.abs(a), np.abs(l)
    a_abs[a_abs <= ZERO_RTOL * a_abs.max()] = 0.0
    l_abs[l_abs <= ZERO_RTOL * l_abs.max()] = 0.0
    if np.any((a_abs == 0.0) & (l_abs == 0.0)):
        raise JointNullSpaceError("joint null space nonempty")

    scale = np.hypot(a_abs, l_abs)
    sign = np.where(a < 0.0, -1.0, 1.0)
    d_un = a_abs / scale
    l_un = l_abs / scale
    perm = np.argsort(d_un, kind="stable")
    return SpectralSystem(
        m=n, delta=d_un[perm], lam=l_un[perm], dims=dims,
        synthesis_scale=scale[perm], perm=perm, sign=sign[perm],
    )


def _band_phi(d2: np.ndarray, lam2: np.ndarray, alpha2):
    """Middle-band filter factors d2 / (d2 + alpha2 lam2) from squared values
    on [ell, q_star); a column of P squared parameters alpha2 gives P rows,
    in one new array."""
    phi = alpha2 * lam2
    phi += d2
    return np.divide(d2, phi, out=phi)


def _positive_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= MAX_ALPHA:
        raise ValueError(f"regularization parameter must be positive with a "
                         f"finite square (at most {MAX_ALPHA:.4g}), got {alpha}")
    return alpha


def filter_factors(sys: SpectralSystem, alpha: float) -> FilterDiagonal:
    """Spectral shrinkage factors phi for one regularization parameter.

    phi[j] = delta[j]**2 / (delta[j]**2 + alpha**2 lam[j]**2) in the middle
    band, 0 where delta[j] == 0, 1 where lam[j] == 0; psi = 1 - phi exactly.
    """
    alpha = _positive_alpha(alpha)
    phi = np.zeros(sys.n)
    # lam > 0 throughout the middle band: penalty-null directions sort past
    # q_star and rank-deficient forward directions sort below ell
    mid = slice(sys.ell, sys.q_star)
    phi[mid] = _band_phi(sys.delta[mid] ** 2, sys.lam[mid] ** 2, alpha ** 2)
    phi[sys.q_star:] = 1.0
    psi = 1.0 - phi
    return FilterDiagonal(phi=phi, psi=psi)


def diag_to_gsvd_check(sys: SpectralSystem) -> DiagonalizationReport:
    """Verify the normalized-diagonalization contract of a system.

    Reports max |delta**2 + lam**2 - 1| and the worst ordering violation
    (delta must be nondecreasing, lam nonincreasing); passes when both are
    at most 1e-12.
    """
    unit = float(np.abs(sys.delta ** 2 + sys.lam ** 2 - 1.0).max())
    d_viol = float(np.maximum(sys.delta[:-1] - sys.delta[1:], 0.0).max()) if sys.n > 1 else 0.0
    l_viol = float(np.maximum(sys.lam[1:] - sys.lam[:-1], 0.0).max()) if sys.n > 1 else 0.0
    ordering = max(d_viol, l_viol)
    return DiagonalizationReport(
        unit_defect=unit,
        ordering_defect=ordering,
        passed=(unit <= 1e-12 and ordering <= 1e-12),
    )
