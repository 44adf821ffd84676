"""Parameter-selection objectives.

Every estimator is evaluated in the spectral domain from cached data
coefficients dhat = analyze(d):

* predictive-risk (UPRE) objectives, scalar and multi-data windowed, plus the
  per-window separable form valid for non-overlapping windows;
* cross-validation (GCV) objectives: scalar, multi-data scalar, the coupled
  windowed form, and the per-window decoupled approximation;
* the supervised learning objective (mean squared solution error against
  known truths), prepared once per search as an `MseObjective`; on the DCT
  backend it is evaluated in coefficient space, with no transform per call.

Scalar forms keep their constant terms; the multi-data windowed UPRE drops
alpha-independent constants, so cross-form tests must compare minimizers
rather than values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyWindowError, SaturatedTraceError
from .solver import _as_params, _residual_head, _trace, _windowed_filter
from .spectral import SpectralSystem, _band_phi, filter_factors
from .windows import WindowSet

__all__ = [
    "SATURATION_FLOOR",
    "NoiseModel",
    "WindowedGcvTerms",
    "upre_scalar",
    "upre_md_windowed",
    "upre_window_separable",
    "gcv_scalar",
    "gcv_md_scalar",
    "gcv_windowed_true",
    "gcv_windowed_true_md",
    "gcv_windowed_decoupled",
    "windowed_gcv_terms",
    "MseObjective",
    "mse_learning",
    "estimate_sigma2",
]

# Squared GCV denominators (and per-window trace complements) below this are
# treated as poles: raise instead of returning huge finite garbage.
SATURATION_FLOOR = 1e-14


@dataclass(frozen=True)
class NoiseModel:
    """Per-data-set white-noise variances sigma_r^2.

    Zero is accepted so noiseless reductions stay expressible; negative or
    non-finite variances are rejected.
    """

    sigma2: np.ndarray

    def __init__(self, sigma2) -> None:
        arr = np.atleast_1d(np.asarray(sigma2, dtype=float)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sigma2 must be a scalar or nonempty 1D sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError(f"noise variances must be finite and >= 0, got {arr}")
        object.__setattr__(self, "sigma2", arr)

    def __len__(self) -> int:
        return self.sigma2.size


@dataclass(frozen=True)
class WindowedGcvTerms:
    """Per-window trace complements for the coupled windowed GCV.

    mu[p] = 1 - (1/m) sum_j phi_j(alpha_p)          (unweighted)
    nu[p] = 1 - (1/m) sum_j w_j^(p) phi_j(alpha_p)  (window weighted)

    Both live in (0, 1] away from saturation, and nu >= mu whenever the
    weights are <= 1.
    """

    mu: np.ndarray
    nu: np.ndarray


def _noise_for(noise, R: int) -> np.ndarray:
    model = noise if isinstance(noise, NoiseModel) else NoiseModel(noise)
    if len(model) == 1:
        return np.full(R, model.sigma2[0])
    if len(model) != R:
        raise ValueError(f"noise model has {len(model)} entries for {R} data sets")
    return model.sigma2


def _windows_for(windows, R: int) -> list[WindowSet]:
    """Broadcast one shared WindowSet to R systems, or validate a sequence."""
    if isinstance(windows, WindowSet):
        return [windows] * R
    wlist = list(windows)
    if len(wlist) != R:
        raise ValueError(f"{len(wlist)} window sets for {R} systems")
    if any(w.P != wlist[0].P for w in wlist):
        raise ValueError("window sets must share the same window count P")
    return wlist


def _check_md_shapes(systems, dhats) -> None:
    if len(systems) != len(dhats):
        raise ValueError("systems and dhats must have equal lengths")
    for sys, dhat in zip(systems, dhats):
        if dhat.size != sys.m:
            raise ValueError(f"data length {dhat.size} does not match m={sys.m}")


def _gcv_ratio(rsum: float, trsum: float, M: int, what: str, alpha: float) -> float:
    """(rsum / M) / (1 - trsum / M)**2, raising at a saturated trace."""
    den = (1.0 - trsum / M) ** 2
    if den < SATURATION_FLOOR:
        raise SaturatedTraceError(
            f"saturated trace: {what} {trsum:.6g} ~ M={M} at alpha={alpha:.3g}")
    return (rsum / M) / den


def _window_members(systems, dhats, windows, p: int,
                    overlap_error: str) -> tuple[int, list[np.ndarray]]:
    """Checks shared by the per-window forms, then the window count P and
    window p's member indices in each system."""
    _check_md_shapes(systems, dhats)
    wlist = _windows_for(windows, len(systems))
    P = wlist[0].P
    if not 0 <= p < P:
        raise IndexError(f"window index {p} out of range for P={P}")
    if not all(wset.nonoverlapping for wset in wlist):
        raise ValueError(overlap_error)
    members = [wset.member_indices(p) for wset in wlist]
    if not any(idx.size for idx in members):
        raise EmptyWindowError(f"window {p} has no members in any system")
    return P, members


# ---------------------------------------------------------------------------
# UPRE family
# ---------------------------------------------------------------------------

def upre_scalar(sys: SpectralSystem, dhat: np.ndarray, alpha: float, noise) -> float:
    """Unbiased predictive-risk objective for one system, one parameter.

    (1/m) ||r(alpha)||^2 + (2 sigma^2 / m) trace(influence) - sigma^2,
    constants included.
    """
    s2 = float(_noise_for(noise, 1)[0])
    ff = filter_factors(sys, alpha)
    rnorm = _residual_head(sys, dhat, ff.psi) + float(np.sum(dhat[sys.n:] ** 2))
    tr = _trace(sys, ff.phi)
    m = sys.m
    return rnorm / m + 2.0 * s2 * tr / m - s2


def upre_md_windowed(systems: Sequence[SpectralSystem], dhats: Sequence[np.ndarray],
                     windows, alphas, noise) -> float:
    """Multi-data windowed UPRE with a shared parameter vector.

    (1/M) sum_r [ sum_{j<q_star} (1 - phi_win_j)^2 dhat_j^2
                  + 2 sigma_r^2 sum_j phi_win_j ],
    M = sum_r m_r, phi_win = sum_p w^(p) phi(alpha_p).  Terms independent of
    alpha (the beyond-n residual tail and the -sigma^2 offsets) are dropped.
    """
    alphas = _as_params(alphas)
    _check_md_shapes(systems, dhats)
    R = len(systems)
    wlist = _windows_for(windows, R)
    s2 = _noise_for(noise, R)
    M = sum(sys.m for sys in systems)
    total = 0.0
    for sys, dhat, wset, s in zip(systems, dhats, wlist, s2):
        _, phiw = _windowed_filter(sys, wset, alphas)
        total += _residual_head(sys, dhat, 1.0 - phiw) + 2.0 * s * _trace(sys, phiw)
    return total / M


def upre_window_separable(systems: Sequence[SpectralSystem],
                          dhats: Sequence[np.ndarray], windows, p: int,
                          alpha: float, noise) -> float:
    """Window p's share of the multi-data windowed UPRE.

    Valid for non-overlapping windows only; summing over p = 0..P-1
    reproduces upre_md_windowed at the assembled parameter vector exactly.
    """
    _, members = _window_members(systems, dhats, windows, p,
                                 "separable form invalid for overlapping windows")
    s2 = _noise_for(noise, len(systems))
    M = sum(sys.m for sys in systems)
    total = 0.0
    for sys, dhat, idx, s in zip(systems, dhats, members, s2):
        ff = filter_factors(sys, alpha)
        total += float(np.sum((ff.psi[idx] * dhat[idx]) ** 2))
        total += 2.0 * s * float(np.sum(ff.phi[idx]))
    return total / M


# ---------------------------------------------------------------------------
# GCV family
# ---------------------------------------------------------------------------

def gcv_scalar(sys: SpectralSystem, dhat: np.ndarray, alpha: float) -> float:
    """[(1/m) ||r(alpha)||^2] / [1 - trace(influence)/m]^2, the one-system
    case of gcv_md_scalar."""
    return gcv_md_scalar([sys], [dhat], alpha)


def gcv_md_scalar(systems: Sequence[SpectralSystem], dhats: Sequence[np.ndarray],
                  alpha: float) -> float:
    """Multi-data scalar GCV: pooled residual over pooled trace complement."""
    _check_md_shapes(systems, dhats)
    M = sum(sys.m for sys in systems)
    rsum = 0.0
    trsum = 0.0
    for sys, dhat in zip(systems, dhats):
        ff = filter_factors(sys, alpha)
        rsum += _residual_head(sys, dhat, ff.psi) + float(np.sum(dhat[sys.n:] ** 2))
        trsum += _trace(sys, ff.phi)
    return _gcv_ratio(rsum, trsum, M, "pooled trace", alpha)


def _true_gcv_filters(sys: SpectralSystem, windows: WindowSet,
                      alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band phi(alpha_p) rows and the per-window trace complements mu, nu.

    From q_star on every phi is 1, so the window-p sums there are n - q_star
    (unweighted) and the tail weight of window p, neither depending on alpha.
    """
    alphas = _as_params(alphas)
    rows, _ = _windowed_filter(sys, windows, alphas)
    lo, hi = sys.ell, sys.q_star
    mu = 1.0 - (rows.sum(axis=1) + (sys.n - hi)) / sys.m
    nu = 1.0 - (np.einsum("pj,pj->p", windows.weights[:, lo:hi], rows)
                + windows.weights[:, hi:].sum(axis=1)) / sys.m
    if np.any(mu <= SATURATION_FLOOR):
        bad = int(np.argmin(mu))
        raise SaturatedTraceError(
            f"saturated window trace: mu[{bad}] <= {SATURATION_FLOOR:g} at "
            f"alpha={alphas.values[bad]:.3g}")
    return rows, mu, nu


def windowed_gcv_terms(sys: SpectralSystem, windows: WindowSet,
                       alphas) -> WindowedGcvTerms:
    """Trace complements mu_p, nu_p entering the coupled windowed GCV."""
    _, mu, nu = _true_gcv_filters(sys, windows, alphas)
    return WindowedGcvTerms(mu=mu, nu=nu)


def gcv_windowed_true(sys: SpectralSystem, dhat: np.ndarray, windows: WindowSet,
                      alphas) -> float:
    """Coupled windowed GCV for a single data set.

    With S = sum_p (1 - nu_p)/mu_p the value is

      (1/m) [ sum_{j<=n} (1 + S - sum_p w_j phi_j(alpha_p)/mu_p)^2 dhat_j^2
              + sum_{j>n} (1 + S)^2 dhat_j^2 ].

    The leave-one-out derivation pins the weighted form of nu_p and the
    per-index weighted correction; with P = 1 the expression collapses to
    gcv_scalar exactly, including rank-deficient systems.
    """
    if dhat.size != sys.m:
        raise ValueError(f"data length {dhat.size} does not match m={sys.m}")
    rows, mu, nu = _true_gcv_filters(sys, windows, alphas)
    lo, hi = sys.ell, sys.q_star
    inv_mu = (1.0 / mu)[:, None]
    S = float(np.sum((1.0 - nu) / mu))
    coef = np.full(sys.n, 1.0 + S)
    coef[lo:hi] -= np.einsum("pj,pj->j", windows.weights[:, lo:hi], rows * inv_mu)
    coef[hi:] -= np.sum(windows.weights[:, hi:] * inv_mu, axis=0)
    head = float(np.sum((coef * dhat[: sys.n]) ** 2))
    tail = (1.0 + S) ** 2 * float(np.sum(dhat[sys.n:] ** 2))
    return (head + tail) / sys.m


def gcv_windowed_true_md(systems: Sequence[SpectralSystem],
                         dhats: Sequence[np.ndarray], windows, alphas) -> float:
    """Average of the per-set coupled windowed GCV values.

    A pragmatic surrogate: the coupled form does not pool across data sets
    the way the scalar GCV does, so multi-data use averages per-set values.
    """
    _check_md_shapes(systems, dhats)
    wlist = _windows_for(windows, len(systems))
    vals = [gcv_windowed_true(sys, dhat, wset, alphas)
            for sys, dhat, wset in zip(systems, dhats, wlist)]
    return float(np.mean(vals))


def gcv_windowed_decoupled(systems: Sequence[SpectralSystem],
                           dhats: Sequence[np.ndarray], windows, p: int,
                           alpha: float) -> float:
    """Per-window decoupled GCV approximation (non-overlapping windows).

    Numerator: pooled window-masked squared residual, with the beyond-n data
    tail charged to the last window so P = 1 reduces to gcv_md_scalar.
    Denominator: squared complement of the pooled single-window trace.
    """
    P, members = _window_members(systems, dhats, windows, p,
                                 "decoupled GCV requires non-overlapping windows")
    M = sum(sys.m for sys in systems)
    num = 0.0
    trsum = 0.0
    for sys, dhat, idx in zip(systems, dhats, members):
        ff = filter_factors(sys, alpha)
        num += float(np.sum((ff.psi[idx] * dhat[idx]) ** 2))
        trsum += float(np.sum(ff.phi[idx]))
        if p == P - 1:
            num += float(np.sum(dhat[sys.n:] ** 2))
    return _gcv_ratio(num, trsum, M, f"window {p} trace", alpha)


# ---------------------------------------------------------------------------
# Supervised learning objective
# ---------------------------------------------------------------------------

class MseObjective:
    """(1/R) sum_r ||x_win^(r)(alphas) - x_true^(r)||^2 as a function of the
    parameter vector, prepared once for fixed systems, data coefficients,
    truths and windows.

    On a system with an orthonormal synthesis (`synthesis_scale` set: the DCT
    backend) the error is taken in coefficient space by Parseval.  With
    u = pinv(delta) dhat[:n] / synthesis_scale and t = Q^T x_true,

      ||x_win - x_true||^2 = sum_j (phi_win_j u_j - t_j)^2.

    Indices below ell (u = 0) and from q_star on (phi = 1 in every window) do
    not depend on the parameters and are summed here once, so a call touches
    only the active band [ell, q_star) and runs no transform.  Data sets that
    share a system and a window set share one filter evaluation per call.
    Other systems (the dense backend) synthesize each solution per call.
    """

    def __init__(self, systems: Sequence[SpectralSystem],
                 dhats: Sequence[np.ndarray], truths: Sequence[np.ndarray],
                 windows) -> None:
        if truths is None:
            raise ValueError("missing truths: the learning objective needs x_true")
        R = len(systems)
        if R == 0 or not (len(dhats) == len(truths) == R):
            raise ValueError("systems, data, and truths must have equal, "
                             "nonzero lengths")
        wlist = _windows_for(windows, R)
        self.R = R
        self.P = wlist[0].P
        self._const = 0.0
        self._direct = []
        groups: dict = {}
        for sys, dhat, truth, wset in zip(systems, dhats, truths, wlist):
            if sys.synthesis_scale is None:
                self._direct.append(
                    (sys, wset, sys.delta_pinv(), dhat[: sys.n], truth))
                continue
            lo, hi = sys.ell, sys.q_star
            u = sys.delta_pinv() * dhat[: sys.n] / sys.synthesis_scale
            t = sys.solution_coefficients(truth)
            tail = wset.weights[:, hi:].sum(axis=0) * u[hi:] - t[hi:]
            self._const += float(np.sum(t[:lo] ** 2) + np.sum(tail ** 2))
            group = groups.setdefault((id(sys), id(wset)), (sys, wset, [], []))
            group[2].append(u[lo:hi])
            group[3].append(t[lo:hi])
        # per group: squared spectral values and window weights on the band,
        # then the stacked u and t rows of its data sets
        self._bands = [
            (sys.delta[sys.ell: sys.q_star] ** 2,
             sys.lam[sys.ell: sys.q_star] ** 2,
             wset.weights[:, sys.ell: sys.q_star], np.array(us), np.array(ts))
            for sys, wset, us, ts in groups.values()]

    def __call__(self, alphas) -> float:
        alphas = _as_params(alphas)
        if alphas.P != self.P:
            raise ValueError(
                f"parameter/window count mismatch: {alphas.P} vs {self.P}")
        total = self._const
        column = alphas.values[:, None]
        for d2, lam2, weights, u, t in self._bands:
            phiw = np.sum(weights * _band_phi(d2, lam2, column), axis=0)
            total += float(np.sum((phiw * u - t) ** 2))
        for sys, wset, dpinv, head, truth in self._direct:
            x = sys.synthesize(_windowed_filter(sys, wset, alphas)[1] * dpinv * head)
            total += float(np.sum((x - truth) ** 2))
        return total / self.R


def mse_learning(systems: Sequence[SpectralSystem], data: Sequence[np.ndarray],
                 truths: Sequence[np.ndarray], windows, alphas,
                 dhats: Sequence[np.ndarray] | None = None) -> float:
    """(1/R) sum_r ||x_win^(r)(alphas) - x_true^(r)||^2.

    One evaluation of a freshly prepared `MseObjective`; a search should
    prepare the objective once instead.  Pass precomputed dhats to skip the
    analyze transforms.
    """
    if len(data) != len(systems):
        raise ValueError("systems and data must have equal lengths")
    if dhats is None:
        dhats = [sys.analyze(d) for sys, d in zip(systems, data)]
    return MseObjective(systems, dhats, truths, windows)(alphas)


# ---------------------------------------------------------------------------
# Noise-variance fallback
# ---------------------------------------------------------------------------

def estimate_sigma2(sys: SpectralSystem, dhat: np.ndarray) -> float:
    """Median-absolute-deviation variance estimate from noise-dominated
    spectral coefficients.

    Uses the beyond-n coefficients when m > n; otherwise the quarter of the
    spectrum with the smallest signal-to-penalty ratio gamma.  Not part of
    the selection theory (UPRE assumes sigma known); provided as a practical
    fallback.
    """
    if dhat.size != sys.m:
        raise ValueError(f"data length {dhat.size} does not match m={sys.m}")
    if sys.m > sys.n:
        pool = dhat[sys.n:]
    else:
        k = max(16, sys.n // 4)
        k = min(k, sys.n)
        # penalty-null directions carry a gamma placeholder of 0 but are
        # signal-dominated: push them to the back of the ordering
        geff = np.where(sys.lambda_zero, np.inf, sys.gamma)
        order = np.argsort(geff, kind="stable")
        pool = dhat[order[:k]]
    sigma = np.median(np.abs(pool)) / 0.6745
    return float(sigma ** 2)
