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

from .spectral import SpectralSystem, filter_factors
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


def _check_pair(windows: WindowSet, alphas: ParamVector) -> None:
    if windows.P != alphas.P:
        raise ValueError(
            f"parameter/window count mismatch: {alphas.P} parameters for "
            f"{windows.P} windows")


def phi_windowed(sys: SpectralSystem, windows: WindowSet,
                 alphas: ParamVector) -> np.ndarray:
    """Effective filter diagonal sum_p weights[p] * phi(alpha_p).

    The symmetric form W^(1/2) Phi W^(1/2) of the windowed filter equals
    W Phi entrywise because every factor is diagonal.
    """
    alphas = _as_params(alphas)
    _check_pair(windows, alphas)
    out = np.zeros(sys.n)
    for p in range(windows.P):
        out += windows.weights[p] * filter_factors(sys, alphas.values[p]).phi
    return out


def solve_scalar(sys: SpectralSystem, d: np.ndarray, alpha: float) -> RegularizedSolution:
    """Tikhonov solution for one scalar parameter."""
    dhat = sys.analyze(d)
    if dhat.size != sys.m:
        raise ValueError(f"data length {dhat.size} does not match m={sys.m}")
    phi = filter_factors(sys, alpha).phi
    x = sys.synthesize(phi * sys.delta_pinv() * dhat[: sys.n])
    return RegularizedSolution(x=x, dhat=dhat, phi_win=phi)


def solve_windowed(sys: SpectralSystem, d: np.ndarray, windows: WindowSet,
                   alphas) -> RegularizedSolution:
    """Windowed Tikhonov solution with one parameter per window."""
    alphas = _as_params(alphas)
    dhat = sys.analyze(d)
    if dhat.size != sys.m:
        raise ValueError(f"data length {dhat.size} does not match m={sys.m}")
    phiw = phi_windowed(sys, windows, alphas)
    x = sys.synthesize(phiw * sys.delta_pinv() * dhat[: sys.n])
    return RegularizedSolution(x=x, dhat=dhat, phi_win=phiw)


def residual_norm_windowed(sys: SpectralSystem, dhat: np.ndarray,
                           windows: WindowSet, alphas) -> float:
    """Squared data-misfit norm ||A x_win - d||**2 from spectral quantities.

    Equals sum over j <= q_star of (sum_p w_j^p psi_j(alpha_p))**2 dhat_j**2
    plus the tail sum_{j>n} dhat_j**2.
    """
    alphas = _as_params(alphas)
    _check_pair(windows, alphas)
    swin = np.zeros(sys.n)
    for p in range(windows.P):
        swin += windows.weights[p] * filter_factors(sys, alphas.values[p]).psi
    head = float(np.sum((swin[: sys.q_star] * dhat[: sys.q_star]) ** 2))
    tail = float(np.sum(dhat[sys.n:] ** 2))
    return head + tail


def trace_windowed(sys: SpectralSystem, windows: WindowSet, alphas) -> float:
    """Trace of the windowed data-resolution (influence) matrix.

    Equals (n - q_star) + sum over ell < j <= q_star of
    sum_p w_j^p phi_j(alpha_p).
    """
    alphas = _as_params(alphas)
    _check_pair(windows, alphas)
    mid = slice(sys.ell, sys.q_star)
    acc = 0.0
    for p in range(windows.P):
        phi = filter_factors(sys, alphas.values[p]).phi
        acc += float(np.sum(windows.weights[p, mid] * phi[mid]))
    return (sys.n - sys.q_star) + acc

