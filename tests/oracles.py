"""Independent reference computations backing the test suite.

Everything here goes through dense matrices, explicit loops, or literal
boundary-index arithmetic.  None of it calls the library's spectral
shortcuts, so agreement between these values and the library is evidence
rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import hadamard, solve_triangular
from scipy.optimize import Bounds, minimize

from specwin.errors import InfeasibleError, SaturatedTraceError
from specwin.estimators import SATURATION_FLOOR
from specwin.optimize import (BOUNDARY_RTOL, SearchConfig, VectorSearchResult,
                              minimize_scalar, minimize_vector)
from specwin.solver import ParamVector
from specwin.spectral import SpectralSystem, filter_factors
from specwin.windows import WindowSet

# ---------------------------------------------------------------------------
# dense generalized-Tikhonov references
# ---------------------------------------------------------------------------


def laplacian_1d(n: int) -> np.ndarray:
    """Second difference with reflecting (half-sample Neumann) ends.

    Corner entries are 1, so the row sums vanish and constants lie in the
    null space; the eigenvalues are 2 - 2 cos(pi k / n).
    """
    T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    T[0, 0] = 1.0
    T[n - 1, n - 1] = 1.0
    return T


def tik_matrices(rng: np.random.Generator, m: int, n: int,
                 penalty: str = "identity") -> tuple[np.ndarray, np.ndarray]:
    """A random forward operator paired with one of three penalty shapes."""
    A = rng.standard_normal((m, n))
    if penalty == "identity":
        L = np.eye(n)
    elif penalty == "laplacian":
        L = laplacian_1d(n)
    elif penalty == "random":
        L = rng.standard_normal((n, n))
    else:
        raise ValueError(f"unknown penalty shape {penalty!r}")
    return A, L


def dense_solve_scalar(A: np.ndarray, L: np.ndarray, d: np.ndarray,
                       alpha: float) -> np.ndarray:
    """Normal-equations solution of min ||Ax - d||^2 + alpha^2 ||Lx||^2."""
    H = A.T @ A + alpha ** 2 * (L.T @ L)
    return np.linalg.solve(H, A.T @ d)


def dense_solve_windowed(A: np.ndarray, L: np.ndarray, sys: SpectralSystem,
                         windows: WindowSet, alphas, d: np.ndarray) -> np.ndarray:
    """Sum of per-window normal-equations solves on window-masked data.

    The mask acts on the first n spectral data coefficients; components
    beyond n are annihilated by A^T regardless of masking.
    """
    Un = sys.U[:, : sys.n]
    dhat = sys.U.T @ d
    x = np.zeros(sys.n)
    for p in range(windows.P):
        H = A.T @ A + float(alphas[p]) ** 2 * (L.T @ L)
        rhs = A.T @ (Un @ (windows.weights[p] * dhat[: sys.n]))
        x += np.linalg.solve(H, rhs)
    return x


def dense_influence_windowed(A: np.ndarray, L: np.ndarray, sys: SpectralSystem,
                             windows: WindowSet, alphas) -> np.ndarray:
    """Dense windowed data-resolution matrix, assembled window by window:
    sum_p A (A^T A + alpha_p^2 L^T L)^{-1} A^T U_n W_p U_n^T."""
    Un = sys.U[:, : sys.n]
    M = np.zeros((sys.m, sys.m))
    for p in range(windows.P):
        H = A.T @ A + float(alphas[p]) ** 2 * (L.T @ L)
        mask = (Un * windows.weights[p][None, :]) @ Un.T
        M += A @ np.linalg.solve(H, A.T @ mask)
    return M


def dense_influence_scalar(A: np.ndarray, L: np.ndarray, alpha: float) -> np.ndarray:
    H = A.T @ A + alpha ** 2 * (L.T @ L)
    return A @ np.linalg.solve(H, A.T)


def dense_upre_scalar(A: np.ndarray, L: np.ndarray, d: np.ndarray,
                      alpha: float, sigma2: float) -> float:
    x = dense_solve_scalar(A, L, d, alpha)
    r = A @ x - d
    m = A.shape[0]
    tr = float(np.trace(dense_influence_scalar(A, L, alpha)))
    return float(r @ r) / m + 2.0 * sigma2 * tr / m - sigma2


def dense_gcv_scalar(A: np.ndarray, L: np.ndarray, d: np.ndarray,
                     alpha: float) -> float:
    x = dense_solve_scalar(A, L, d, alpha)
    r = A @ x - d
    m = A.shape[0]
    tr = float(np.trace(dense_influence_scalar(A, L, alpha)))
    return (float(r @ r) / m) / (1.0 - tr / m) ** 2


def stacked_pair_gsvd(A: np.ndarray, L: np.ndarray) -> SpectralSystem:
    """The dense mutual factorization by numpy's out-of-place routines.

    np.vstack of the pair, np.linalg.qr of the stack, np.linalg.svd of the
    top block of Q (the CS decomposition), then the same value ordering and
    factors as `gsvd`: U (m x m) and Y = R^-1 Ztr^T (n x n).  No rank check:
    the pair must have full column rank.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    m, n = A.shape
    Q, R = np.linalg.qr(np.vstack((A, L)), mode="reduced")
    Uf, dvals, Zt = np.linalg.svd(Q[:m], full_matrices=True)
    U = np.concatenate((Uf[:, :n][:, ::-1], Uf[:, n:]), axis=1)
    Ztr = Zt[::-1, :]
    delta = np.clip(dvals[::-1], 0.0, 1.0)
    lam = np.clip(np.linalg.norm(Q[m:] @ Ztr.T, axis=0), 0.0, 1.0)
    Y = solve_triangular(R, Ztr.T)
    return SpectralSystem(m=m, delta=delta, lam=lam, U=U, Y=Y)


# ---------------------------------------------------------------------------
# windowed spectral quantities by an explicit loop over windows
# ---------------------------------------------------------------------------


def loop_filters(sys: SpectralSystem, windows: WindowSet, alphas):
    """Window-blended filter and residual factors,
    sum_p weights[p] * phi(alpha_p) and sum_p weights[p] * psi(alpha_p),
    one filter_factors call per window."""
    phi = np.zeros(sys.n)
    psi = np.zeros(sys.n)
    for p in range(windows.P):
        ff = filter_factors(sys, float(alphas[p]))
        phi += windows.weights[p] * ff.phi
        psi += windows.weights[p] * ff.psi
    return phi, psi


def loop_residual_windowed(sys: SpectralSystem, dhat: np.ndarray,
                           windows: WindowSet, alphas) -> float:
    """||A x_win - d||^2: the blended residual factor on j < q_star plus the
    data tail beyond n."""
    _, psi = loop_filters(sys, windows, alphas)
    q = sys.q_star
    return float(np.sum((psi[:q] * dhat[:q]) ** 2) + np.sum(dhat[sys.n:] ** 2))


def loop_trace_windowed(sys: SpectralSystem, windows: WindowSet, alphas) -> float:
    """Influence trace as the sum of the blended filter over every index."""
    return float(np.sum(loop_filters(sys, windows, alphas)[0]))


def _loop_gcv_ratio(rsum: float, trsum: float, M: int) -> float:
    den = (1.0 - trsum / M) ** 2
    if den < SATURATION_FLOOR:
        raise SaturatedTraceError(f"saturated trace {trsum} ~ M={M}")
    return (rsum / M) / den


def loop_upre_md_windowed(systems, dhats, windows, alphas, sigma2) -> float:
    """Multi-data windowed UPRE without its alpha-independent constants."""
    total = 0.0
    for sys, dhat, s2 in zip(systems, dhats, sigma2):
        q = sys.q_star
        phi, psi = loop_filters(sys, windows, alphas)
        total += float(np.sum((psi[:q] * dhat[:q]) ** 2))
        total += 2.0 * s2 * float(np.sum(phi))
    return total / sum(sys.m for sys in systems)


def loop_upre_window_separable(systems, dhats, windows, p: int, alpha: float,
                               sigma2) -> float:
    """Window p's share of the multi-data windowed UPRE, set by set over the
    window's member indices."""
    total = 0.0
    idx = windows.member_indices(p)
    for sys, dhat, s2 in zip(systems, dhats, sigma2):
        ff = filter_factors(sys, alpha)
        total += float(np.sum((ff.psi[idx] * dhat[idx]) ** 2))
        total += 2.0 * s2 * float(np.sum(ff.phi[idx]))
    return total / sum(sys.m for sys in systems)


def loop_gcv_md_scalar(systems, dhats, alpha: float) -> float:
    """Multi-data scalar GCV: residuals and traces summed set by set."""
    rsum = trsum = 0.0
    for sys, dhat in zip(systems, dhats):
        ff = filter_factors(sys, alpha)
        rsum += float(np.sum((ff.psi * dhat[: sys.n]) ** 2)
                      + np.sum(dhat[sys.n:] ** 2))
        trsum += float(np.sum(ff.phi))
    return _loop_gcv_ratio(rsum, trsum, sum(sys.m for sys in systems))


def loop_gcv_windowed_decoupled(systems, dhats, windows, p: int,
                                alpha: float) -> float:
    """Decoupled GCV of window p, set by set over the window's member
    indices; the last window also carries the data tails beyond n."""
    num = trsum = 0.0
    idx = windows.member_indices(p)
    for sys, dhat in zip(systems, dhats):
        ff = filter_factors(sys, alpha)
        num += float(np.sum((ff.psi[idx] * dhat[idx]) ** 2))
        trsum += float(np.sum(ff.phi[idx]))
        if p == windows.P - 1:
            num += float(np.sum(dhat[sys.n:] ** 2))
    return _loop_gcv_ratio(num, trsum, sum(sys.m for sys in systems))


def loop_gcv_windowed_true_md(systems, dhats, windows, alphas) -> float:
    """Average over data sets of the coupled windowed GCV, from the full
    (P, n) stack of per-window filters."""
    vals = []
    for sys, dhat in zip(systems, dhats):
        phi = np.stack([filter_factors(sys, float(a)).phi for a in alphas])
        mu = 1.0 - phi.sum(axis=1) / sys.m
        if np.any(mu ** 2 < SATURATION_FLOOR):
            raise SaturatedTraceError(f"saturated window trace: mu = {mu}")
        nu = 1.0 - np.sum(windows.weights * phi, axis=1) / sys.m
        S = float(np.sum((1.0 - nu) / mu))
        coef = 1.0 + S - np.sum(windows.weights * phi / mu[:, None], axis=0)
        head = float(np.sum((coef * dhat[: sys.n]) ** 2))
        tail = (1.0 + S) ** 2 * float(np.sum(dhat[sys.n:] ** 2))
        vals.append((head + tail) / sys.m)
    return float(np.mean(vals))


def direct_mse(systems, dhats, truths, windows, alphas) -> float:
    """Supervised objective (1/R) sum_r ||x_win^(r) - x_true^(r)||^2 with every
    windowed solution synthesized in the solution space.

    This is the direct loop, one synthesis per data set, that the library
    replaces: by a coefficient-space evaluation on DCT systems and by one
    matrix product over the column stack of all data sets on dense systems.
    """
    R = len(systems)
    total = 0.0
    for sys, dhat, truth in zip(systems, dhats, truths):
        phiw, _ = loop_filters(sys, windows, alphas)
        x = sys.synthesize(phiw * sys.delta_pinv() * dhat[: sys.n])
        total += float(np.sum((x - truth) ** 2))
    return total / R


# ---------------------------------------------------------------------------
# reflexive-boundary convolution by literal index reflection
# ---------------------------------------------------------------------------


def refl_index(t: int, N: int) -> int:
    """Half-sample reflection of an out-of-range index into [0, N)."""
    while t < 0 or t >= N:
        t = -1 - t if t < 0 else 2 * N - 1 - t
    return t


def symmetric_kernel(psf: np.ndarray) -> np.ndarray:
    """Average of the four axis reflections about (h-1)//2 on an odd canvas.

    Reimplemented here (not imported) so the operator definition itself is
    cross-checked between two codings.
    """
    p = np.asarray(psf, dtype=float)
    h, w = p.shape
    ch, cw = (h - 1) // 2, (w - 1) // 2
    Sh, Sw = max(ch, h - 1 - ch), max(cw, w - 1 - cw)
    canvas = np.zeros((2 * Sh + 1, 2 * Sw + 1))
    canvas[Sh - ch: Sh - ch + h, Sw - cw: Sw - cw + w] = p
    return 0.25 * (canvas + canvas[::-1, :] + canvas[:, ::-1] + canvas[::-1, ::-1])


def reflexive_blur_apply(x: np.ndarray, psf: np.ndarray) -> np.ndarray:
    """Spatial convolution with the symmetrized kernel, out-of-range reads
    reflected back into the image.  Quadratic cost; test sizes only."""
    k = symmetric_kernel(psf)
    Sh, Sw = k.shape[0] // 2, k.shape[1] // 2
    n1, n2 = x.shape
    ridx = np.array([[refl_index(i - u, n1) for i in range(n1)]
                     for u in range(-Sh, Sh + 1)])
    cidx = np.array([[refl_index(j - v, n2) for j in range(n2)]
                     for v in range(-Sw, Sw + 1)])
    y = np.zeros((n1, n2))
    for a in range(k.shape[0]):
        for b in range(k.shape[1]):
            y += k[a, b] * x[np.ix_(ridx[a], cidx[b])]
    return y


def reflexive_blur_matrix(psf: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Dense matrix of the reflexive blur, one impulse response per column."""
    n1, n2 = dims
    N = n1 * n2
    T = np.zeros((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        T[:, j] = reflexive_blur_apply(e.reshape(dims), psf).ravel()
    return T


def dense_laplacian_2d(dims: tuple[int, int]) -> np.ndarray:
    """2D negative Laplacian with reflecting ends, row-major vectorization."""
    n1, n2 = dims
    return (np.kron(laplacian_1d(n1), np.eye(n2))
            + np.kron(np.eye(n1), laplacian_1d(n2)))


# ---------------------------------------------------------------------------
# synthetic corpus on the full grid
# ---------------------------------------------------------------------------


def full_grid_background(size: int, seed) -> np.ndarray:
    """The background of `problems.synthetic_image` (its image with no
    craters), each term c cos(2 pi (fx x + fy y) + phase) evaluated at every
    pixel, drawing the same random numbers in the same order."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(float) / size
    img = np.zeros((size, size))
    for _ in range(4):
        fx, fy = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        img += rng.uniform(0.3, 1.0) * np.cos(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    return 0.35 + 0.25 * (img - img.min()) / max(np.ptp(img), 1e-12)


def full_grid_synthetic_image(size: int, seed, craters: int | None = None) -> np.ndarray:
    """The cratered-terrain generator with each crater added on the whole
    grid, drawing the same random numbers in the same order as
    `problems.synthetic_image`.  Its background is written out in the
    generator's angle-addition form, so that the two agree bit for bit and
    a byte comparison tests the crater boxes; `full_grid_background` checks
    that form against the cosine at every pixel."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(float) / size
    axis = np.arange(size, dtype=float) / size
    img = np.zeros((size, size))
    for _ in range(4):
        fx, fy = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c = rng.uniform(0.3, 1.0)
        a = 2.0 * np.pi * fx * axis + phase
        b = 2.0 * np.pi * fy * axis
        img += (c * np.cos(b))[:, None] * np.cos(a)
        img -= (c * np.sin(b))[:, None] * np.sin(a)
    img = 0.35 + 0.25 * (img - img.min()) / max(np.ptp(img), 1e-12)

    k = int(craters) if craters is not None else int(rng.integers(8, 16))
    for _ in range(k):
        cx, cy = rng.uniform(0.05, 0.95, size=2)
        r = rng.uniform(0.04, 0.16)
        depth = rng.uniform(0.15, 0.35)
        rim = rng.uniform(0.10, 0.25)
        dist = np.hypot(xx - cx, yy - cy) / r
        bowl = np.where(dist < 1.0, depth * (1.0 - dist ** 2), 0.0)
        ridge = rim * np.exp(-((dist - 1.0) / 0.12) ** 2)
        img += ridge - bowl
    return np.clip(img, 0.0, 1.0)


# ---------------------------------------------------------------------------
# per-window kernels as plain expressions, on a prepared objective's own
# band values (the in-place kernels must round every element alike)
# ---------------------------------------------------------------------------


def band_phi(d2: np.ndarray, lam2: np.ndarray, alpha2) -> np.ndarray:
    """Filter factors d2 / (d2 + alpha2 lam2) on the active band."""
    return d2 / (d2 + alpha2 * lam2)


def _window_phi(band, p: int, alpha: float) -> np.ndarray:
    cell = band.cells[p]
    return band_phi(cell.d2, cell.lam2, alpha * alpha)


def mse_window(obj, p: int, alpha: float) -> float:
    """Window p's MSE share in pooled form:
    (fixed_p + sum a (phi - phi*)**2) / R, with the energies a and the best
    filter phi* on the window's band members."""
    fixed, energy, target = obj.window_terms[p]
    phi = _window_phi(obj.band, p, alpha)
    return (fixed + float(np.sum((phi - target) ** 2 * energy))) / obj.R


def _pooled_window(obj, p: int, alpha: float) -> tuple[float, float]:
    """Window p's pooled residual below_p + sum (1 - phi)**2 E and trace."""
    phi = _window_phi(obj.band, p, alpha)
    below, energy, _ = obj.window_terms[p]  # the target is 1
    resid = below + np.sum((1.0 - phi) ** 2 * energy)
    return float(resid), float(obj.band.tail_sums[p] + np.sum(phi))


def upre_window(obj, p: int, alpha: float) -> float:
    resid, trace = _pooled_window(obj, p, alpha)
    return (resid + 2.0 * obj.s2 * trace) / obj.M


def gcv_window(obj, p: int, alpha: float) -> float:
    num, trace = _pooled_window(obj, p, alpha)
    if p == obj.P - 1:
        num += obj.beyond
    trsum = obj.R * trace
    den = (1.0 - trsum / obj.M) ** 2
    if den < SATURATION_FLOOR:
        raise SaturatedTraceError(
            f"saturated trace: window {p} trace {trsum:.6g} ~ M={obj.M} "
            f"at alpha={alpha:.3g}")
    return (num / obj.M) / den


def _band_cost(obj, alphas) -> tuple[float, np.ndarray]:
    """The band cost fixed + sum E (phi_win - target)**2 at the blend of
    the band rows, and that blend."""
    phiw = obj.band.blend(obj.band.rows(alphas))
    return obj.fixed + float(np.sum((phiw - obj.target) ** 2 * obj.energy)), phiw


def mse_value(obj, alphas) -> float:
    """The DCT MSE at the parameter vector alphas in pooled form."""
    return _band_cost(obj, alphas)[0] / obj.R


def upre_value(obj, alphas) -> float:
    """The multi-data windowed UPRE at the parameter vector alphas: the
    pooled residual plus 2 s2 times one set's trace."""
    cost, phiw = _band_cost(obj, alphas)
    trace = obj.band.tail_size + float(np.sum(phiw))
    return (cost + 2.0 * obj.s2 * trace) / obj.M


# ---------------------------------------------------------------------------
# the pooled sums taken as one batch over every data set, as the multi-data
# objectives took them before the data sets were folded in one at a time
# ---------------------------------------------------------------------------


def batch_pooled_terms(sys: SpectralSystem, dhats, sigma2, truths) -> dict:
    """The energies sum_r dhat_r[:n]**2 and the beyond-n sum by a loop over
    the sets, s2 = np.sum(sigma2), and, on a DCT system, the MSE's band
    energies, best filter and per-index fixed costs from (R, q_star - ell)
    stacks of the rows u = pinv(delta) dhat / synthesis_scale and
    t = Q^T x_true.  The fixed costs are the two-pass reference: the best
    filter first, then the residuals of every set at it, where a
    `DataPool` folds them one set at a time by recursive least squares."""
    lo, hi, n = sys.ell, sys.q_star, sys.n
    energy, beyond = np.zeros(n), 0.0
    for dhat in dhats:
        energy += dhat[:n] ** 2
        beyond += float(dhat[n:] @ dhat[n:])
    R = len(dhats)
    dpinv, scale = 1.0 / sys.delta[lo:], sys.synthesis_scale[lo:]
    fixed = np.zeros(n)
    u, t = np.empty((R, hi - lo)), np.empty((R, hi - lo))
    for r, (dhat, truth) in enumerate(zip(dhats, truths)):
        u_r = dpinv * dhat[lo:n] / scale
        t_r = sys.solution_coefficients(truth)
        fixed[:lo] += t_r[:lo] ** 2
        fixed[hi:] += (u_r[hi - lo:] - t_r[hi:]) ** 2
        u[r], t[r] = u_r[: hi - lo], t_r[lo:hi]
    a = np.einsum("rj,rj->j", u, u)
    target = np.divide(np.einsum("rj,rj->j", u, t), a, out=np.zeros(hi - lo),
                       where=a > 0.0)
    res = target * u - t
    fixed[lo:hi] = np.einsum("rj,rj->j", res, res)
    return {"energy": energy, "beyond": beyond, "s2": float(np.sum(sigma2)),
            "mse_energy": a, "mse_target": target, "mse_fixed": fixed}


# ---------------------------------------------------------------------------
# leave-one-out cross-validation reference for the coupled windowed GCV
# ---------------------------------------------------------------------------


def flat_unitary(m: int) -> np.ndarray:
    """Real orthogonal matrix with every entry of modulus 1/sqrt(m)."""
    return hadamard(m).astype(float) / np.sqrt(m)


def press_windowed_gcv(delta: np.ndarray, lam: np.ndarray, weights: np.ndarray,
                       alphas, dhat: np.ndarray) -> float:
    """Brute-force leave-one-out PRESS value of the windowed spectral
    regularizer after a flat-modulus orthogonal remix of the data space.

    With |C_kj| = 1/sqrt(m) every remixed row carries identical leverage,
    which is exactly the situation the closed-form coupled windowed GCV
    models; this sum holds out one remixed observation at a time, refits all
    P subproblems densely, and averages the squared prediction errors.
    """
    delta = np.asarray(delta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    dhat = np.asarray(dhat, dtype=float)
    m, n = dhat.size, delta.size
    C = flat_unitary(m)
    G = C[:, :n] * delta[None, :]  # C @ [diag(delta); 0]
    dt = C @ dhat
    Lam2 = np.diag(lam ** 2)
    press = 0.0
    for k in range(m):
        Ek = np.eye(m)
        Ek[k, k] = 0.0
        GtE = G.T @ Ek
        y = np.zeros(n)
        for p in range(weights.shape[0]):
            H = GtE @ G + float(alphas[p]) ** 2 * Lam2
            y += np.linalg.solve(H, weights[p] * (GtE @ dt))
        press += float((dt[k] - G[k] @ y) ** 2)
    return press / m


# ---------------------------------------------------------------------------
# hand-built systems and windows
# ---------------------------------------------------------------------------


def make_diag_system(delta, lam, m: int | None = None) -> SpectralSystem:
    """SpectralSystem with identity transforms from explicit spectral values.

    Inputs must already respect the ordering contract: delta nondecreasing
    with its zeros leading, lam nonincreasing with its zeros trailing.
    """
    delta = np.asarray(delta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = delta.size
    m = n if m is None else int(m)
    if m < n or lam.size != n:
        raise ValueError("need m >= n and matching value lengths")
    if np.any(np.diff(delta) < 0.0) or np.any(np.diff(lam) > 0.0):
        raise ValueError("delta must be nondecreasing, lam nonincreasing")
    return SpectralSystem(m=m, delta=delta, lam=lam, U=np.eye(m), Y=np.eye(n))


def windows_from_members(members, n: int) -> WindowSet:
    """Non-overlapping WindowSet from explicit 0-based index lists."""
    P = len(members)
    w = np.zeros((P, n))
    for p, idx in enumerate(members):
        w[p, list(idx)] = 1.0
    return WindowSet(weights=w, partitions=np.zeros(P + 1))


def windows_from_weights(weights: np.ndarray) -> WindowSet:
    """WindowSet from an explicit (P, n) weight array (may overlap)."""
    w = np.asarray(weights, dtype=float)
    return WindowSet(weights=w, partitions=np.zeros(w.shape[0] + 1))


# ---------------------------------------------------------------------------
# derivative-free reference for the coupled search
# ---------------------------------------------------------------------------


def _simplex(z: np.ndarray, lo: float, hi: float, h: float) -> np.ndarray:
    """Axis-aligned simplex of edge h around z, stepped inward at bounds so
    no vertex coincides with another after clamping."""
    P = z.size
    S = np.tile(z, (P + 1, 1))
    for k in range(P):
        step = h if z[k] + h <= hi else -h
        S[k + 1, k] = min(max(z[k] + step, lo), hi)
    return S


def nelder_mead_vector(objective, P: int, config: SearchConfig,
                       warm_start: ParamVector) -> VectorSearchResult:
    """Coupled search over P > 1 parameters by a bound-clamped Nelder-Mead
    simplex in log coordinates, restarted with a smaller simplex while the
    value improves: minimize_vector's contract by a derivative-free route.

    Saturated or NaN evaluations count as +inf, the value never exceeds the
    start value, and `evaluations` counts every objective call.
    """
    counter = {"n": 0}

    def f_vec(z: np.ndarray) -> float:
        counter["n"] += 1
        z = np.clip(z, math.log(config.alpha_min), math.log(config.alpha_max))
        try:
            val = float(objective(ParamVector(np.exp(z))))
        except SaturatedTraceError:
            return math.inf
        return math.inf if math.isnan(val) else val

    z0 = np.log(np.clip(warm_start.values, config.alpha_min, config.alpha_max))
    f0 = f_vec(z0)
    if not math.isfinite(f0):
        raise InfeasibleError("infeasible start: objective non-finite at the "
                              "warm start")

    lo = math.log(config.alpha_min)
    hi = math.log(config.alpha_max)
    z_star, v_star = z0, f0
    # restart with a fresh full-volume simplex while the value improves: a
    # clamped simplex can collapse against the bounds at a non-stationary
    # point, and a restart there recovers the descent
    for h in (0.5, 0.1, 0.02, 0.004):
        res = minimize(f_vec, z_star, method="Nelder-Mead",
                       bounds=Bounds(np.full(P, lo), np.full(P, hi)),
                       options={"xatol": config.tol, "fatol": 1e-12,
                                "initial_simplex": _simplex(z_star, lo, hi, h),
                                "maxiter": config.max_iter * P,
                                "maxfev": config.max_iter * P * 4})
        improved = float(res.fun) < v_star - 1e-12 * max(1.0, abs(v_star))
        if float(res.fun) < v_star:
            z_star, v_star = np.clip(res.x, lo, hi), float(res.fun)
        if not improved:
            break
    if v_star > f0:  # never regress below the start point
        z_star, v_star = z0, f0
    alphas = ParamVector(np.clip(np.exp(z_star),
                                 config.alpha_min, config.alpha_max))
    flags = np.array([
        min(abs(a - config.alpha_min) / config.alpha_min,
            abs(a - config.alpha_max) / config.alpha_max) <= BOUNDARY_RTOL
        for a in alphas.values])
    return VectorSearchResult(alphas=alphas, value=v_star, boundary=flags,
                              evaluations=counter["n"])


# ---------------------------------------------------------------------------
# the search policy with one independent line search per window
# ---------------------------------------------------------------------------


def independent_learn(objective, decoupled: bool, search: SearchConfig):
    """cli._learn's search policy with every line search evaluating its own
    grid: the scalar search on objective.window(None, .), then one search
    per window on objective.window(p, .), then, unless decoupled, the
    coupled search from the per-window solution and from the diagonal at
    the scalar alpha, the lower end point winning (ties to the first)."""
    scalar = minimize_scalar(lambda a: objective.window(None, a), search)
    P = objective.P
    if P == 1:
        return scalar, ParamVector([scalar.alpha]), [scalar]
    per_window = [minimize_scalar(lambda a, p=p: objective.window(p, a), search)
                  for p in range(P)]
    alphas = ParamVector([res.alpha for res in per_window])
    if decoupled:
        return scalar, alphas, per_window
    found = min((minimize_vector(objective, P, search, warm_start=ws)
                 for ws in (alphas, ParamVector(np.full(P, scalar.alpha)))),
                key=lambda res: res.value)
    return scalar, found.alphas, found
