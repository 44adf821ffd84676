"""Scalar and windowed Tikhonov solutions in the spectral domain, plus the
residual-norm and trace quantities that every selection objective consumes.

With spectral coefficients dhat = analyze(d) and filter factors phi(alpha),
the scalar solution is x = synthesize(phi * pinv(delta) * dhat[:n]); the
windowed solution replaces phi by the weighted combination
sum_p weights[p] * phi(alpha_p).
"""

from __future__ import annotations

from collections import namedtuple
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


def _params_for(alphas, P: int) -> ParamVector:
    """The parameter vector of P windows, rejecting any other count."""
    if not isinstance(alphas, ParamVector):
        alphas = ParamVector(alphas)
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


_Cell = namedtuple("_Cell", "low mid members tail d2 lam2")


class _Band:
    """The active band [ell, q_star) of one system under one window set,
    the one place that cuts window weights and members at ell and q_star.

    Every phi is 0 below ell and 1 from q_star on, so only the band depends
    on the parameters.  The band keeps delta**2, lam**2 and the window
    weights there, and the tail [q_star, n) weights with their sums per
    window (tail_sums).  The per-window forms read the partition `cells`,
    each cut on first use into one record.
    """

    def __init__(self, sys: SpectralSystem, windows: WindowSet) -> None:
        lo, hi = sys.ell, sys.q_star
        self.P = windows.P
        self.d2 = sys.delta[lo:hi] ** 2
        self.lam2 = sys.lam[lo:hi] ** 2
        self.weights = windows.weights[:, lo:hi]
        self.tail_weights = windows.weights[:, hi:]
        self.tail_sums = self.tail_weights.sum(axis=1)
        self.tail_size = sys.n - hi
        self._sys = sys
        self._windows = windows

    @cached_property
    def cells(self) -> list:
        """Each partition cell cut once into one record, or None where it has
        no member: its members below ell (low) and on the band counted from
        ell (mid), all its members, its weight sum on the tail [q_star, n),
        and its band delta**2 and lam**2 (views where mid is a slice).  The
        cells are the windows where they do not overlap, else indicator
        windows over their partitions (EmptyWindowError, naming the
        configured windows' partition cell from 0, where one is empty)."""
        win = self._windows
        if not win.nonoverlapping:
            try:
                win = indicator_windows(win.partitions, self._sys)
            except EmptyWindowError as exc:
                raise EmptyWindowError(
                    f"empty window: partition cell {exc.window} of the "
                    f"overlapping windows holds no spectral value, and their "
                    f"per-window searches run on these cells",
                    window=exc.window) from exc
        lo, hi = self._sys.ell, self._sys.q_star
        mids = [_cut(idx, lo, hi) for idx in win.members]
        return [None if isinstance(idx, np.ndarray) and not idx.size
                else _Cell(_cut(idx, 0, lo), mid, idx, tail, self.d2[mid],
                           self.lam2[mid])
                for idx, mid, tail in zip(win.members, mids,
                                          win.weights[:, hi:].sum(axis=1))]

    def rows(self, alphas) -> np.ndarray:
        """The filter rows phi(alpha_p) on the band, shape (P, q_star - ell)."""
        alphas = _params_for(alphas, self.P)
        return _band_phi(self.d2, self.lam2, alphas.values[:, None] ** 2)

    def blend(self, rows: np.ndarray) -> np.ndarray:
        """sum_p weights[p] * rows[p] on the band."""
        return np.einsum("pj,pj->j", self.weights, rows)

    def phi_win(self, alphas) -> np.ndarray:
        """The effective filter over all n indices."""
        return np.concatenate((np.zeros(self._sys.ell),
                               self.blend(self.rows(alphas)),
                               self.tail_weights.sum(axis=0)))

    def cell(self, p: int):
        """Partition cell p's record; raises for p out of range or an empty
        cell."""
        if not 0 <= p < self.P:
            raise IndexError(f"window index {p} out of range for P={self.P}")
        cell = self.cells[p]
        if cell is None:
            raise EmptyWindowError(f"window {p} has no members")
        return cell

    def window_phi(self, p: int | None, alpha: float) -> np.ndarray:
        """phi(alpha) on cell p's band members, or on the whole band for
        p = None (the single all-ones window), in a new array that the caller
        may overwrite, alpha squared as `rows` squares it; raises for an
        integer p out of range or an empty cell."""
        # p = None reads the whole band's delta**2 and lam**2
        cell = self if p is None else self.cell(p)
        alpha = _positive_alpha(alpha)
        return _band_phi(cell.d2, cell.lam2, alpha * alpha)


def phi_windowed(sys: SpectralSystem, windows: WindowSet,
                 alphas: ParamVector) -> np.ndarray:
    """Effective filter diagonal sum_p weights[p] * phi(alpha_p).

    The symmetric form W^(1/2) Phi W^(1/2) of the windowed filter equals
    W Phi entrywise because every factor is diagonal.
    """
    return _Band(sys, windows).phi_win(alphas)


def _check_set(sys: SpectralSystem, dhat: np.ndarray, truth=None) -> None:
    """ValueError unless dhat has m entries and a truth, if any, n."""
    if dhat.size != sys.m:
        raise ValueError(f"data length {dhat.size} does not match m={sys.m}")
    if truth is not None and np.size(truth) != sys.n:
        raise ValueError(f"truth size {np.size(truth)} does not match n={sys.n}")


def _solution(sys: SpectralSystem, dhat: np.ndarray,
              phi: np.ndarray) -> RegularizedSolution:
    """Filtered solution from the data coefficients dhat = analyze(d)."""
    _check_set(sys, dhat)
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
