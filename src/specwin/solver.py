"""Scalar and windowed Tikhonov solutions in the spectral domain, plus the
residual-norm and trace quantities that every selection objective consumes.

With spectral coefficients dhat = analyze(d) and filter factors phi(alpha),
the scalar solution is x = synthesize(phi * pinv(delta) * dhat[:n]); the
windowed solution replaces phi by the weighted combination
sum_p weights[p] * phi(alpha_p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralSystem, _band_phi, filter_factors
from .windows import WindowSet

__all__ = [
    "ParamVector",
    "RegularizedSolution",
    "solve_scalar",
    "solve_windowed",
    "residual_norm_windowed",
    "trace_windowed",
]


@dataclass(frozen=True)
class ParamVector:
    """P positive regularization parameters (P = 1 for the scalar case)."""

    values: np.ndarray

    def __init__(self, values) -> None:
        arr = np.atleast_1d(np.asarray(values, dtype=float)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("parameter vector must be a nonempty 1D array")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError(f"parameters must be positive and finite, got {arr}")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    @property
    def P(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class RegularizedSolution:
    """Solution vector, spectral data coefficients, and the effective filter."""

    x: np.ndarray
    dhat: np.ndarray
    phi_win: np.ndarray


def _as_params(alphas) -> ParamVector:
    return alphas if isinstance(alphas, ParamVector) else ParamVector(alphas)


def _params_for(alphas, P: int) -> ParamVector:
    """The parameter vector of P windows, rejecting any other count."""
    alphas = _as_params(alphas)
    if alphas.P != P:
        raise ValueError(
            f"parameter/window count mismatch: {alphas.P} parameters for "
            f"{P} windows")
    return alphas


def _windowed_filter(sys: SpectralSystem, windows: WindowSet,
                     alphas) -> tuple[np.ndarray, np.ndarray]:
    """The windowed filter of one parameter vector.

    Returns the per-window rows phi(alpha_p) on the active band
    [ell, q_star), shape (P, q_star - ell), and the effective filter
    phi_win = sum_p weights[p] * phi(alpha_p) over all n indices.  Every phi
    is 0 below ell and 1 from q_star on, so phi_win is 0 there and the summed
    window weights here; only the band depends on the parameters.
    """
    alphas = _params_for(alphas, windows.P)
    lo, hi = sys.ell, sys.q_star
    rows = _band_phi(sys.delta[lo:hi] ** 2, sys.lam[lo:hi] ** 2,
                     alphas.values[:, None])
    phi_win = np.zeros(sys.n)
    phi_win[lo:hi] = np.einsum("pj,pj->j", windows.weights[:, lo:hi], rows)
    phi_win[hi:] = windows.weights[:, hi:].sum(axis=0)
    return rows, phi_win


def _residual_head(sys: SpectralSystem, dhat: np.ndarray, psi: np.ndarray) -> float:
    """sum over j < q_star of (psi_j dhat_j)**2 for a residual factor psi."""
    q = sys.q_star
    return float(np.sum((psi[:q] * dhat[:q]) ** 2))


def _trace(sys: SpectralSystem, phi: np.ndarray) -> float:
    """Influence trace (n - q_star) + sum over the band of a filter phi that
    is 0 below ell and sums to 1 from q_star on."""
    return (sys.n - sys.q_star) + float(np.sum(phi[sys.ell: sys.q_star]))


def phi_windowed(sys: SpectralSystem, windows: WindowSet,
                 alphas: ParamVector) -> np.ndarray:
    """Effective filter diagonal sum_p weights[p] * phi(alpha_p).

    The symmetric form W^(1/2) Phi W^(1/2) of the windowed filter equals
    W Phi entrywise because every factor is diagonal.
    """
    return _windowed_filter(sys, windows, alphas)[1]


def _solution(sys: SpectralSystem, dhat: np.ndarray,
              phi: np.ndarray) -> RegularizedSolution:
    """Filtered solution from the data coefficients dhat = analyze(d)."""
    if dhat.size != sys.m:
        raise ValueError(f"data length {dhat.size} does not match m={sys.m}")
    x = sys.synthesize(phi * sys.delta_pinv() * dhat[: sys.n])
    return RegularizedSolution(x=x, dhat=dhat, phi_win=phi)


def solve_scalar(sys: SpectralSystem, d: np.ndarray, alpha: float) -> RegularizedSolution:
    """Tikhonov solution for one scalar parameter."""
    return _solution(sys, sys.analyze(d), filter_factors(sys, alpha).phi)


def solve_windowed(sys: SpectralSystem, d: np.ndarray, windows: WindowSet,
                   alphas) -> RegularizedSolution:
    """Windowed Tikhonov solution with one parameter per window."""
    return _solution(sys, sys.analyze(d), phi_windowed(sys, windows, alphas))


def residual_norm_windowed(sys: SpectralSystem, dhat: np.ndarray,
                           windows: WindowSet, alphas) -> float:
    """Squared data-misfit norm ||A x_win - d||**2 from spectral quantities.

    Equals sum over j < q_star of (1 - phi_win_j)**2 dhat_j**2 plus the tail
    sum_{j>=n} dhat_j**2.  The residual factor 1 - phi_win equals
    sum_p w_j^p psi_j(alpha_p) because the window weights sum to one at
    every index (the WindowSet partition of unity).
    """
    psi = 1.0 - phi_windowed(sys, windows, alphas)
    return _residual_head(sys, dhat, psi) + float(np.sum(dhat[sys.n:] ** 2))


def trace_windowed(sys: SpectralSystem, windows: WindowSet, alphas) -> float:
    """Trace of the windowed data-resolution (influence) matrix.

    Equals (n - q_star) + sum over ell <= j < q_star of phi_win_j.
    """
    return _trace(sys, phi_windowed(sys, windows, alphas))
