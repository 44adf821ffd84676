"""Parameter-selection objectives.

Every estimator is evaluated in the spectral domain from cached data
coefficients dhat = analyze(d):

* predictive-risk (UPRE) objectives, scalar and multi-data windowed, plus the
  per-window separable form valid for non-overlapping windows;
* cross-validation (GCV) objectives: scalar, multi-data scalar, the coupled
  windowed form, and the per-window decoupled approximation;
* the multi-data forms of both families evaluated from data pooled once per
  search (`PooledObjectives`): each depends on the data only through the
  pooled energies sum_r dhat_r**2 and noise sum_r sigma_r**2, so one
  evaluation costs the same for any number of data sets;
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
from .solver import (_as_params, _params_for, _residual_head, _trace,
                     _windowed_filter)
from .spectral import SpectralSystem, _band_phi, _positive_alpha, filter_factors
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
    return PooledObjectives(systems, dhats, windows, noise).upre(alphas)


def upre_window_separable(systems: Sequence[SpectralSystem],
                          dhats: Sequence[np.ndarray], windows, p: int,
                          alpha: float, noise) -> float:
    """Window p's share of the multi-data windowed UPRE.

    Valid for non-overlapping windows only; summing over p = 0..P-1
    reproduces upre_md_windowed at the assembled parameter vector.
    """
    return PooledObjectives(systems, dhats, windows, noise).upre_window(p, alpha)


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
    distinct = {id(sys): sys for sys in systems}
    trivial = {key: trivial_window(sys) for key, sys in distinct.items()}
    wlist = [trivial[id(sys)] for sys in systems]
    return PooledObjectives(systems, dhats, wlist, 0.0).gcv_window(0, alpha)


def _trace_complements(rows: np.ndarray, weighted: np.ndarray,
                       tail_weights: np.ndarray, tail_size: int, m: int,
                       alphas) -> tuple[np.ndarray, np.ndarray]:
    """Per-window trace complements mu, nu from the band rows phi(alpha_p)
    and the weighted rows w^(p) phi(alpha_p); from q_star on every phi is 1,
    so the window-p sums there are tail_size (unweighted) and
    tail_weights[p]."""
    mu = 1.0 - (rows.sum(axis=1) + tail_size) / m
    nu = 1.0 - (weighted.sum(axis=1) + tail_weights) / m
    if np.any(mu <= SATURATION_FLOOR):
        bad = int(np.argmin(mu))
        raise SaturatedTraceError(
            f"saturated window trace: mu[{bad}] <= {SATURATION_FLOOR:g} at "
            f"alpha={alphas.values[bad]:.3g}")
    return mu, nu


def windowed_gcv_terms(sys: SpectralSystem, windows: WindowSet,
                       alphas) -> WindowedGcvTerms:
    """Trace complements mu_p, nu_p entering the coupled windowed GCV."""
    alphas = _as_params(alphas)
    rows, _ = _windowed_filter(sys, windows, alphas)
    hi = sys.q_star
    mu, nu = _trace_complements(
        rows, windows.weights[:, sys.ell: hi] * rows,
        windows.weights[:, hi:].sum(axis=1), sys.n - hi, sys.m, alphas)
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
    per-set average equals one pooled sum: for data sets sharing a system,
    the coefficients squared against sum_r dhat_r**2, over m and R.
    """
    return PooledObjectives(systems, dhats, windows, 0.0).gcv_true(alphas)


def gcv_windowed_decoupled(systems: Sequence[SpectralSystem],
                           dhats: Sequence[np.ndarray], windows, p: int,
                           alpha: float) -> float:
    """Per-window decoupled GCV approximation (non-overlapping windows).

    Numerator: pooled window-masked squared residual, with the beyond-n data
    tail charged to the last window so P = 1 reduces to gcv_md_scalar.
    Denominator: squared complement of the pooled single-window trace.
    """
    return PooledObjectives(systems, dhats, windows, 0.0).gcv_window(p, alpha)


# ---------------------------------------------------------------------------
# Pooled evaluation
# ---------------------------------------------------------------------------

class _Group:
    """Data sets sharing one system and one window set: their pooled sums
    and the values on the active band [ell, q_star) that evaluations read.

    Every phi is 0 below ell and 1 from q_star on, so there the residual and
    trace terms do not depend on the parameters and are summed here once.
    """

    def __init__(self, sys: SpectralSystem, wset: WindowSet,
                 dhats: list[np.ndarray], sigma2: np.ndarray) -> None:
        lo, hi, n = sys.ell, sys.q_star, sys.n
        energy = np.zeros(n)
        self.beyond = 0.0
        for dhat in dhats:
            energy += dhat[:n] ** 2
            self.beyond += float(dhat[n:] @ dhat[n:])
        self.count = len(dhats)
        self.m = sys.m
        self.s2 = float(np.sum(sigma2))
        self.below = float(np.sum(energy[:lo]))
        self.d2 = sys.delta[lo:hi] ** 2
        self.lam2 = sys.lam[lo:hi] ** 2
        self.energy = energy[lo:hi]
        self.weights = wset.weights[:, lo:hi]
        self.tail_size = n - hi
        self.tail_energy = energy[hi:]
        self.tail_weights = wset.weights[:, hi:]
        self.tail_sums = self.tail_weights.sum(axis=1)
        self.sizes = np.count_nonzero(wset.weights > 0.0, axis=1)
        # per window, for the separable forms: the energy below ell and the
        # band members' values
        self.separable = wset.nonoverlapping
        if self.separable:
            self.below_w = wset.weights[:, :lo] @ energy[:lo]
            self.members = [(self.d2[idx], self.lam2[idx], self.energy[idx])
                            for idx in (np.flatnonzero(w) for w in self.weights)]

    def rows(self, alphas) -> np.ndarray:
        return _band_phi(self.d2, self.lam2, alphas.values[:, None])

    def upre(self, alphas) -> float:
        phiw = np.einsum("pj,pj->j", self.weights, self.rows(alphas))
        resid = self.below + float(np.sum((1.0 - phiw) ** 2 * self.energy))
        trace = self.tail_size + float(np.sum(phiw))
        return resid + 2.0 * self.s2 * trace

    def window(self, p: int, alpha: float) -> tuple[float, float]:
        """Window p's pooled squared residual and one set's window trace."""
        d2, lam2, energy = self.members[p]
        phi = _band_phi(d2, lam2, alpha)
        resid = self.below_w[p] + np.sum((1.0 - phi) ** 2 * energy)
        return float(resid), float(self.tail_sums[p] + np.sum(phi))

    def gcv_true(self, alphas) -> float:
        """The sum over the group's sets of the coupled windowed GCV."""
        rows = self.rows(alphas)
        weighted = self.weights * rows
        mu, nu = _trace_complements(rows, weighted, self.tail_sums,
                                    self.tail_size, self.m, alphas)
        # near saturation the rounding of nu and of w phi / mu is amplified
        # by 1/mu: sum pairwise and divide, as the per-window reference
        # does, so that both round alike
        S = float(np.sum((1.0 - nu) / mu))
        coef = 1.0 + S - np.divide(weighted, mu[:, None], out=weighted).sum(axis=0)
        tail = 1.0 + S - np.sum(self.tail_weights / mu[:, None], axis=0)
        return ((1.0 + S) ** 2 * (self.below + self.beyond)
                + float(coef @ (coef * self.energy))
                + float(tail @ (tail * self.tail_energy))) / self.m


class PooledObjectives:
    """The multi-data UPRE and GCV objectives, prepared once for fixed
    systems, data coefficients, window sets and noise variances.

    Data sets that share a system and a window set (by identity) form one
    group.  Each objective depends on a group's data only through the pooled
    energies sum_r dhat_r**2 and the pooled noise sum_r sigma_r**2, which are
    summed here once with every parameter-independent term, so an evaluation
    touches only each group's active band, runs no transform and costs the
    same for any R.  The GCV forms do not read the noise variances.
    """

    def __init__(self, systems: Sequence[SpectralSystem],
                 dhats: Sequence[np.ndarray], windows, noise) -> None:
        _check_md_shapes(systems, dhats)
        R = len(systems)
        if R == 0:
            raise ValueError("need at least one data set")
        wlist = _windows_for(windows, R)
        s2 = _noise_for(noise, R)
        groups: dict = {}
        for r, (sys, wset) in enumerate(zip(systems, wlist)):
            groups.setdefault((id(sys), id(wset)), (sys, wset, []))[2].append(r)
        self._groups = [_Group(sys, wset, [dhats[r] for r in rs], s2[rs])
                        for sys, wset, rs in groups.values()]
        self.R = R
        self.P = wlist[0].P
        self.M = sum(sys.m for sys in systems)

    def upre(self, alphas) -> float:
        """upre_md_windowed at the parameter vector alphas."""
        alphas = _params_for(alphas, self.P)
        return sum(g.upre(alphas) for g in self._groups) / self.M

    def _window(self, p: int, alpha: float, overlap_error: str) -> list:
        if not 0 <= p < self.P:
            raise IndexError(f"window index {p} out of range for P={self.P}")
        if not all(g.separable for g in self._groups):
            raise ValueError(overlap_error)
        if not any(g.sizes[p] for g in self._groups):
            raise EmptyWindowError(f"window {p} has no members in any system")
        alpha = _positive_alpha(alpha)
        return [g.window(p, alpha) for g in self._groups]

    def upre_window(self, p: int, alpha: float) -> float:
        """upre_window_separable of window p at alpha."""
        parts = self._window(p, alpha,
                             "separable form invalid for overlapping windows")
        return sum(resid + 2.0 * g.s2 * trace
                   for g, (resid, trace) in zip(self._groups, parts)) / self.M

    def gcv_window(self, p: int, alpha: float) -> float:
        """gcv_windowed_decoupled of window p at alpha; with the single
        all-ones window, gcv_md_scalar."""
        parts = self._window(p, alpha,
                             "decoupled GCV requires non-overlapping windows")
        num = sum(resid for resid, _ in parts)
        if p == self.P - 1:
            num += sum(g.beyond for g in self._groups)
        trsum = sum(g.count * trace for g, (_, trace) in zip(self._groups, parts))
        return _gcv_ratio(num, trsum, self.M, f"window {p} trace", alpha)

    def gcv_true(self, alphas) -> float:
        """gcv_windowed_true_md at the parameter vector alphas."""
        alphas = _params_for(alphas, self.P)
        return sum(g.gcv_true(alphas) for g in self._groups) / self.R


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
        alphas = _params_for(alphas, self.P)
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
