"""Parameter-selection objectives.

Every estimator is evaluated in the spectral domain from cached data
coefficients dhat = analyze(d):

* predictive-risk (UPRE) objectives: scalar, multi-data windowed, and the
  per-window separable form for non-overlapping windows;
* cross-validation (GCV) objectives: scalar, multi-data scalar, the coupled
  windowed form, and the per-window decoupled approximation;
* the supervised learning objective (mean squared solution error against
  known truths), `MseObjective`: in coefficient space on the DCT backend,
  with per-window shares on non-overlapping windows, and by one matrix
  product per call on the dense backend.

The multi-data UPRE and GCV forms are evaluated from data pooled once per
search (`PooledObjectives`).  Every windowed form reads the active band
[ell, q_star) and its window weights from the solver's band object
(`solver._Band`), built when the objective is prepared.  It cuts each
window's members on first use: by a per-window form, or by preparing the
DCT `MseObjective` on non-overlapping windows.  Only single-alpha forms call
`filter_factors`.

Scalar forms keep their constant terms; the multi-data windowed UPRE drops
alpha-independent constants, so cross-form tests must compare minimizers
rather than values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SaturatedTraceError
from .solver import _Band, _params_for, _residual_head, _trace
from .spectral import SpectralSystem, filter_factors
from .windows import WindowSet, trivial_window

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
    "PooledObjectives",
    "MseObjective",
    "mse_learning",
    "estimate_sigma2",
]

# Squared GCV denominators, and the squared per-window trace complements
# mu_p**2 of the coupled form, below this are treated as poles: raise instead
# of returning finite values that cancellation has stripped of their digits.
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


def _common_system(systems: Sequence[SpectralSystem],
                   dhats: Sequence[np.ndarray]) -> SpectralSystem:
    """The one system that every data set of a multi-data form shares; the
    prepared objective checks the data sizes against it."""
    if not systems or len(systems) != len(dhats):
        raise ValueError("need one system per data set and at least one set")
    if any(sys is not systems[0] for sys in systems):
        raise ValueError("the multi-data objectives need one common system")
    return systems[0]


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
    One evaluation of freshly pooled data (`PooledObjectives.upre`).
    """
    sys = _common_system(systems, dhats)
    return PooledObjectives(sys, dhats, windows, noise).upre(alphas)


def upre_window_separable(systems: Sequence[SpectralSystem],
                          dhats: Sequence[np.ndarray], windows, p: int,
                          alpha: float, noise) -> float:
    """Window p's share of the multi-data windowed UPRE.

    Valid for non-overlapping windows only; summing over p = 0..P-1
    reproduces upre_md_windowed at the assembled parameter vector.
    """
    sys = _common_system(systems, dhats)
    return PooledObjectives(sys, dhats, windows, noise).upre_window(p, alpha)


# ---------------------------------------------------------------------------
# GCV family (the GCV forms do not read the noise variances)
# ---------------------------------------------------------------------------

def gcv_scalar(sys: SpectralSystem, dhat: np.ndarray, alpha: float) -> float:
    """[(1/m) ||r(alpha)||^2] / [1 - trace(influence)/m]^2, the one-system
    case of gcv_md_scalar."""
    return gcv_md_scalar([sys], [dhat], alpha)


def gcv_md_scalar(systems: Sequence[SpectralSystem], dhats: Sequence[np.ndarray],
                  alpha: float) -> float:
    """Multi-data scalar GCV: pooled residual over pooled trace complement.

    This is the decoupled GCV of the single all-ones window.
    """
    sys = _common_system(systems, dhats)
    return PooledObjectives(sys, dhats, trivial_window(sys), 0.0).gcv_window(0, alpha)


def _trace_complements(band: _Band, alphas,
                       m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weighted band rows w^(p) phi(alpha_p) and the per-window trace
    complements mu, nu; from q_star on every phi is 1, so the window-p sums
    there are the tail size (unweighted) and window p's tail weight."""
    alphas = _params_for(alphas, band.P)
    rows = band.rows(alphas)
    weighted = band.weights * rows
    mu = 1.0 - (rows.sum(axis=1) + band.tail_size) / m
    nu = 1.0 - (weighted.sum(axis=1) + band.tail_sums) / m
    if np.any(mu ** 2 < SATURATION_FLOOR):
        bad = int(np.argmin(mu))
        raise SaturatedTraceError(
            f"saturated window trace: mu[{bad}]**2 < {SATURATION_FLOOR:g} at "
            f"alpha={alphas.values[bad]:.3g}")
    return weighted, mu, nu


def windowed_gcv_terms(sys: SpectralSystem, windows: WindowSet,
                       alphas) -> WindowedGcvTerms:
    """Trace complements mu_p, nu_p entering the coupled windowed GCV."""
    _, mu, nu = _trace_complements(_Band(sys, windows), alphas, sys.m)
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
    return gcv_windowed_true_md([sys], [dhat], windows, alphas)


def gcv_windowed_true_md(systems: Sequence[SpectralSystem],
                         dhats: Sequence[np.ndarray], windows, alphas) -> float:
    """Average of the per-set coupled windowed GCV values.

    The coefficient (1 + S - ...) multiplying each dhat_j depends on the
    system, the windows and the parameters but not on the data, so the
    per-set average equals one pooled sum: the coefficients squared against
    sum_r dhat_r**2, over m and R.
    """
    sys = _common_system(systems, dhats)
    return PooledObjectives(sys, dhats, windows, 0.0).gcv_true(alphas)


def gcv_windowed_decoupled(systems: Sequence[SpectralSystem],
                           dhats: Sequence[np.ndarray], windows, p: int,
                           alpha: float) -> float:
    """Per-window decoupled GCV approximation (non-overlapping windows).

    Numerator: pooled window-masked squared residual, with the beyond-n data
    tail charged to the last window so P = 1 reduces to gcv_md_scalar.
    Denominator: squared complement of the pooled single-window trace.
    """
    sys = _common_system(systems, dhats)
    return PooledObjectives(sys, dhats, windows, 0.0).gcv_window(p, alpha)


# ---------------------------------------------------------------------------
# Pooled evaluation
# ---------------------------------------------------------------------------

class PooledObjectives:
    """The multi-data UPRE and GCV objectives of data sets sharing one system
    and one window set, prepared once for fixed data coefficients and noise
    variances.

    Each objective depends on the data only through the pooled energies
    sum_r dhat_r**2 and the pooled noise sum_r sigma_r**2.  Every phi is 0
    below ell and 1 from q_star on, so there the residual and trace terms do
    not depend on the parameters; they are summed here once, so an
    evaluation touches only the active band [ell, q_star), runs no transform
    and costs the same for any R.  The GCV forms do not read the noise
    variances.
    """

    def __init__(self, sys: SpectralSystem, dhats: Sequence[np.ndarray],
                 windows: WindowSet, noise) -> None:
        R = len(dhats)
        if R == 0:
            raise ValueError("need at least one data set")
        self.band = _Band(sys, windows)
        lo, hi, n = sys.ell, sys.q_star, sys.n
        energy = np.zeros(n)
        self.beyond = 0.0
        for dhat in dhats:
            if dhat.size != sys.m:
                raise ValueError(f"data length {dhat.size} does not match m={sys.m}")
            energy += dhat[:n] ** 2
            self.beyond += float(dhat[n:] @ dhat[n:])
        self.R = R
        self.m = sys.m
        self.M = R * sys.m
        self.s2 = float(np.sum(_noise_for(noise, R)))
        self.head_energy = energy[:lo]
        self.below = float(np.sum(self.head_energy))
        self.energy = energy[lo:hi]
        self.tail_energy = energy[hi:]

    @cached_property
    def window_energies(self) -> list:
        """Each window's pooled energy below ell (summed) and on the band."""
        return [(np.sum(self.head_energy[low]), self.energy[mid])
                for low, mid, _ in self.band.members]

    def upre(self, alphas) -> float:
        """upre_md_windowed at the parameter vector alphas."""
        phiw = self.band.blend(self.band.rows(alphas))
        resid = self.below + float(np.sum((1.0 - phiw) ** 2 * self.energy))
        trace = self.band.tail_size + float(np.sum(phiw))
        return (resid + 2.0 * self.s2 * trace) / self.M

    def _window(self, p: int, alpha: float,
                overlap_error: str) -> tuple[float, float]:
        """Window p's pooled squared residual and one set's window trace."""
        phi = self.band.window_phi(p, alpha, overlap_error)
        below, energy = self.window_energies[p]
        resid = below + np.sum((1.0 - phi) ** 2 * energy)
        return float(resid), float(self.band.tail_sums[p] + np.sum(phi))

    def upre_window(self, p: int, alpha: float) -> float:
        """upre_window_separable of window p at alpha."""
        resid, trace = self._window(
            p, alpha, "separable form invalid for overlapping windows")
        return (resid + 2.0 * self.s2 * trace) / self.M

    def gcv_window(self, p: int, alpha: float) -> float:
        """gcv_windowed_decoupled of window p at alpha; with the single
        all-ones window, gcv_md_scalar."""
        num, trace = self._window(
            p, alpha, "decoupled GCV requires non-overlapping windows")
        if p == self.band.P - 1:
            num += self.beyond
        trsum = self.R * trace
        den = (1.0 - trsum / self.M) ** 2
        if den < SATURATION_FLOOR:
            raise SaturatedTraceError(
                f"saturated trace: window {p} trace {trsum:.6g} ~ M={self.M} "
                f"at alpha={alpha:.3g}")
        return (num / self.M) / den

    def gcv_true(self, alphas) -> float:
        """gcv_windowed_true_md at the parameter vector alphas."""
        weighted, mu, nu = _trace_complements(self.band, alphas, self.m)
        # near saturation the rounding of nu and of w phi / mu is amplified
        # by 1/mu: sum pairwise and divide, as the per-window reference
        # does, so that both round alike
        S = float(np.sum((1.0 - nu) / mu))
        coef = 1.0 + S - np.divide(weighted, mu[:, None], out=weighted).sum(axis=0)
        tail = 1.0 + S - np.sum(self.band.tail_weights / mu[:, None], axis=0)
        return ((1.0 + S) ** 2 * (self.below + self.beyond)
                + float(coef @ (coef * self.energy))
                + float(tail @ (tail * self.tail_energy))) / self.m / self.R


# ---------------------------------------------------------------------------
# Supervised learning objective
# ---------------------------------------------------------------------------

class MseObjective:
    """(1/R) sum_r ||x_win^(r)(alphas) - x_true^(r)||^2 as a function of the
    parameter vector, prepared once for data sets sharing one system and one
    window set, with fixed data coefficients and truths.  For one data set
    its value is the squared solution error that `validate` reports.

    On a system with an orthonormal synthesis (`synthesis_scale` set: the DCT
    backend) the error is taken in coefficient space by Parseval.  With
    u = pinv(delta) dhat[:n] / synthesis_scale and t = Q^T x_true,

      ||x_win - x_true||^2 = sum_j (phi_win_j u_j - t_j)^2.

    Indices below ell (u = 0) and from q_star on (phi = 1 in every window) do
    not depend on the parameters and are summed here once, so a call touches
    only the active band [ell, q_star), evaluates the filter once for every
    data set and runs no transform.  Other systems (the dense backend) keep
    the heads dhat[:n] and the flattened truths as n-by-R column stacks H
    and X; a call synthesizes all R solutions in one matrix product,

      (1/R) ||synthesize(phi_win pinv(delta) H) - X||^2 (Frobenius).
    """

    def __init__(self, sys: SpectralSystem, dhats: Sequence[np.ndarray],
                 truths: Sequence[np.ndarray], windows: WindowSet) -> None:
        if truths is None:
            raise ValueError("missing truths: the learning objective needs x_true")
        R = len(dhats)
        if R == 0 or len(truths) != R:
            raise ValueError("data and truths must have equal, nonzero lengths")
        for dhat, truth in zip(dhats, truths):
            if dhat.size != sys.m:
                raise ValueError(f"data length {dhat.size} does not match m={sys.m}")
            if np.size(truth) != sys.n:
                raise ValueError(f"truth size {np.size(truth)} does not match "
                                 f"n={sys.n}")
        self.R = R
        self.P = windows.P
        band = self._band = _Band(sys, windows)
        dpinv = sys.delta_pinv()
        if sys.synthesis_scale is None:
            heads = np.stack([dhat[: sys.n] for dhat in dhats], axis=1)
            flat = np.stack([np.ravel(truth) for truth in truths], axis=1)
            self._dense = (sys, dpinv, heads, flat)
            return
        self._dense = None
        lo, hi = sys.ell, sys.q_star
        self._const = 0.0
        self._window_consts = np.zeros(self.P)
        us, ts = [], []
        for dhat, truth in zip(dhats, truths):
            u = dpinv * dhat[: sys.n] / sys.synthesis_scale
            t = sys.solution_coefficients(truth)
            below, tail = t[:lo] ** 2, (band.tail_phi * u[hi:] - t[hi:]) ** 2
            self._const += float(np.sum(below) + np.sum(tail))
            if band.members is not None:  # each window's share
                self._window_consts += [
                    float(np.sum(below[low]) + np.sum(tail[high]))
                    for low, _, high in band.members]
            us.append(u[lo:hi])
            ts.append(t[lo:hi])
        self._u = np.array(us)
        self._t = np.array(ts)
        if band.members is not None:
            self._parts = [(self._u[:, mid], self._t[:, mid])
                           for _, mid, _ in band.members]

    def __call__(self, alphas) -> float:
        if self._dense is not None:
            sys, dpinv, heads, flat = self._dense
            scaled = self._band.phi_win(alphas) * dpinv
            x = sys.synthesize(scaled[:, None] * heads)
            return float(np.sum((x - flat) ** 2)) / self.R
        phiw = self._band.blend(self._band.rows(alphas))
        return (self._const + float(np.sum((phiw * self._u - self._t) ** 2))) / self.R

    def window(self, p: int, alpha: float) -> float:
        """Window p's share of the value at alpha, on non-overlapping windows
        of a DCT system: the shares sum to the value at the assembled vector,
        and the single all-ones window's share is the value, bit for bit."""
        if self._dense is not None:
            raise ValueError("the per-window MSE needs an orthonormal "
                             "synthesis (the DCT backend)")
        phi = self._band.window_phi(
            p, alpha, "per-window MSE requires non-overlapping windows")
        u, t = self._parts[p]
        return (self._window_consts[p] + float(np.sum((phi * u - t) ** 2))) / self.R


def mse_learning(systems: Sequence[SpectralSystem], data: Sequence[np.ndarray],
                 truths: Sequence[np.ndarray], windows, alphas,
                 dhats: Sequence[np.ndarray] | None = None) -> float:
    """(1/R) sum_r ||x_win^(r)(alphas) - x_true^(r)||^2.

    One evaluation of a freshly prepared `MseObjective`; a search should
    prepare the objective once instead.  Pass precomputed dhats to skip the
    analyze transforms.
    """
    sys = _common_system(systems, data)
    if dhats is None:
        dhats = [sys.analyze(d) for d in data]
    return MseObjective(sys, dhats, truths, windows)(alphas)


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
