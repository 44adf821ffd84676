"""Scalar and windowed Tikhonov solutions in the spectral domain, plus the
residual-norm and trace quantities that every selection objective consumes.

With spectral coefficients dhat = analyze(d) and filter factors phi(alpha),
the scalar solution is x = synthesize(phi * pinv(delta) * dhat[:n]); the
windowed solution replaces phi by the weighted combination
sum_p weights[p] * phi(alpha_p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyWindowError
from .spectral import (MAX_ALPHA, SpectralSystem, _band_phi, _positive_alpha,
                       filter_factors)
from .windows import WindowSet, indicator_windows

__all__ = [
    "ParamVector",
    "RegularizedSolution",
    "solve_scalar",
    "solve_windowed",
    "phi_windowed",
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
        if not np.all((arr > 0.0) & (arr <= MAX_ALPHA)):
            raise ValueError(f"parameters must be positive with a finite "
                             f"square (at most {MAX_ALPHA:.4g}), got {arr}")
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


def _cut(idx, lo: int, hi: int):
    """Members idx (a slice or an index array) in [lo, hi), counted from lo."""
    if isinstance(idx, slice):
        return slice(min(max(idx.start, lo), hi) - lo,
                     min(max(idx.stop, lo), hi) - lo)
    return idx[(idx >= lo) & (idx < hi)] - lo


class _Band:
    """The active band [ell, q_star) of one system under one window set,
    the one place that cuts window weights and members at ell and q_star.

    Every phi is 0 below ell and 1 from q_star on, so only the band depends
    on the parameters.  The band keeps delta**2, lam**2 and the window
    weights there, and the tail [q_star, n) weights with their sums per
    window (tail_sums) and per index (tail_phi, phi_win there).  The
    per-window forms read the partition `cells`, cut on first use.
    """

    def __init__(self, sys: SpectralSystem, windows: WindowSet) -> None:
        lo, hi = sys.ell, sys.q_star
        self.P = windows.P
        self.d2 = sys.delta[lo:hi] ** 2
        self.lam2 = sys.lam[lo:hi] ** 2
        self.weights = windows.weights[:, lo:hi]
        self.tail_weights = windows.weights[:, hi:]
        self.tail_sums = self.tail_weights.sum(axis=1)
        self.tail_phi = self.tail_weights.sum(axis=0)
        self.tail_size = sys.n - hi
        self.head = np.zeros(lo)
        self._sys = sys
        self._windows = windows

    @cached_property
    def cells(self) -> WindowSet:
        """The windows where they do not overlap, else indicator windows over
        their partitions (EmptyWindowError, naming the configured windows'
        partition cell from 0, where one of those is empty)."""
        if self._windows.nonoverlapping:
            return self._windows
        try:
            return indicator_windows(self._windows.partitions, self._sys)
        except EmptyWindowError as exc:
            raise EmptyWindowError(
                f"empty window: partition cell {exc.window} of the overlapping "
                f"windows holds no spectral value, and their per-window "
                f"searches run on these cells", window=exc.window) from exc

    @cached_property
    def members(self) -> list:
        """Each cell's members, cut once: members[p] indexes [0, ell), the
        band and [q_star, n)."""
        lo, hi, n = self._sys.ell, self._sys.q_star, self._sys.n
        return [(_cut(idx, 0, lo), _cut(idx, lo, hi), _cut(idx, hi, n))
                for idx in self.cells.members]

    @cached_property
    def cell_tails(self) -> np.ndarray:
        """Each cell's weight sum on the tail [q_star, n)."""
        return self.cells.weights[:, self._sys.q_star:].sum(axis=1)

    @cached_property
    def _values(self) -> list:
        """Cell p's band delta**2 and lam**2, or None where it has none."""
        return [None if isinstance(idx, np.ndarray) and not idx.size
                else (self.d2[mid], self.lam2[mid])
                for idx, (_, mid, _) in zip(self.cells.members, self.members)]

    def rows(self, alphas) -> np.ndarray:
        """The filter rows phi(alpha_p) on the band, shape (P, q_star - ell)."""
        alphas = _params_for(alphas, self.P)
        return _band_phi(self.d2, self.lam2, alphas.values[:, None] ** 2)

    def blend(self, rows: np.ndarray) -> np.ndarray:
        """sum_p weights[p] * rows[p] on the band."""
        return np.einsum("pj,pj->j", self.weights, rows)

    def phi_win(self, alphas) -> np.ndarray:
        """The effective filter over all n indices."""
        return np.concatenate((self.head, self.blend(self.rows(alphas)),
                               self.tail_phi))

    def window_phi(self, p: int | None, alpha: float) -> np.ndarray:
        """phi(alpha) on cell p's band members, or on the whole band for
        p = None (the single all-ones window), in a new array that the caller
        may overwrite, alpha squared as `rows` squares it; raises for an
        integer p out of range or an empty cell."""
        if p is not None:
            if not 0 <= p < self.P:
                raise IndexError(f"window index {p} out of range for P={self.P}")
            if self._values[p] is None:
                raise EmptyWindowError(f"window {p} has no members")
        alpha = _positive_alpha(alpha)
        values = (self.d2, self.lam2) if p is None else self._values[p]
        return _band_phi(*values, alpha * alpha)


def phi_windowed(sys: SpectralSystem, windows: WindowSet,
                 alphas: ParamVector) -> np.ndarray:
    """Effective filter diagonal sum_p weights[p] * phi(alpha_p).

    The symmetric form W^(1/2) Phi W^(1/2) of the windowed filter equals
    W Phi entrywise because every factor is diagonal.
    """
    return _Band(sys, windows).phi_win(alphas)


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
    q = sys.q_star
    psi = 1.0 - phi_windowed(sys, windows, alphas)
    return (float(np.sum((psi[:q] * dhat[:q]) ** 2))
            + float(np.sum(dhat[sys.n:] ** 2)))


def trace_windowed(sys: SpectralSystem, windows: WindowSet, alphas) -> float:
    """Trace of the windowed data-resolution (influence) matrix.

    Equals (n - q_star) + sum over ell <= j < q_star of phi_win_j.
    """
    phi = phi_windowed(sys, windows, alphas)
    return (sys.n - sys.q_star) + float(np.sum(phi[sys.ell: sys.q_star]))
