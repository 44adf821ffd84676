"""Spectral windows: partition values over the generalized spectral values,
non-overlapping indicator windows, and overlapping raised-cosine windows.

All generators return a `WindowSet` whose P weight vectors form a partition
of unity over every spectral index.  Windows are counted from 0.  Indices
with lam == 0 (infinite generalized value) always belong to window 0;
indices with delta == 0 (zero generalized value) always belong to the last
window, P - 1.  `make_windows` maps a window kind in `KINDS` and a window
count to its window set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyWindowError
from .spectral import SpectralSystem

__all__ = [
    "KINDS",
    "WindowSet",
    "make_partitions",
    "make_windows",
    "indicator_windows",
    "cosine_windows",
    "trivial_window",
]

# Window kinds: indicator ("nonoverlap") or raised-cosine windows over
# linearly or logarithmically spaced partitions.
KINDS = ("nonoverlap_linear", "nonoverlap_log", "cosine_linear", "cosine_log")

# Relative nudge applied below the smallest positive gamma so that the
# strict lower comparison still captures it.
_EDGE_NUDGE = 1e-12


@dataclass(frozen=True)
class WindowSet:
    """P weight vectors over n spectral indices forming a partition of unity.

    Construction raises ValueError unless the weights are (P, n) with
    P >= 1, entries in [0, 1] and every column summing to 1 within 1e-12,
    and there are P + 1 partitions.
    """

    weights: np.ndarray  # shape (P, n), entries in [0, 1]
    partitions: np.ndarray  # P + 1 nonincreasing values

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 2 or w.shape[0] < 1:
            raise ValueError(f"weights must be (P, n) with P >= 1, got shape "
                             f"{w.shape}")
        if np.shape(self.partitions) != (w.shape[0] + 1,):
            raise ValueError(f"{w.shape[0]} windows need {w.shape[0] + 1} "
                             f"partitions, got shape {np.shape(self.partitions)}")
        if not np.all((w >= 0.0) & (w <= 1.0)):
            raise ValueError("window weights must lie in [0, 1]")
        if not np.all(np.abs(w.sum(axis=0) - 1.0) <= 1e-12):
            raise ValueError("window weights must sum to 1 at every index")

    @property
    def P(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def nonoverlapping(self) -> bool:
        w = self.weights
        return bool(np.all((w == 0.0) | (w == 1.0)))

    @cached_property
    def members(self) -> tuple:
        """Each window's member indices: a slice where they are one run (every
        generated window's are), so indexing gives a view; else an array."""
        return tuple(slice(int(i[0]), int(i[-1]) + 1)
                     if i.size and i[-1] - i[0] + 1 == i.size else i
                     for i in map(self.member_indices, range(self.P)))

    def member_indices(self, p: int) -> np.ndarray:
        """Indices with nonzero weight in window p (0-based)."""
        return np.flatnonzero(self.weights[p] > 0.0)


def make_partitions(sys: SpectralSystem, P: int, spacing: str = "linear") -> np.ndarray:
    """P + 1 nonincreasing partition values spanning the finite gamma range.

    The first value equals the largest finite gamma; the last sits just below
    the smallest positive gamma so that upper-inclusive/lower-exclusive
    windowing captures every index.  Spacing is linear or logarithmic.
    """
    if P < 1:
        raise ValueError(f"window count must be at least 1, got {P}")
    if spacing not in ("linear", "log"):
        raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    g = sys.gamma[sys.ell:sys.q_star]
    if g.size == 0:
        raise EmptyWindowError("no positive finite spectral values to partition")
    gmax = float(g.max())
    gmin = float(g.min())
    if P >= np.unique(g).size:
        raise EmptyWindowError(
            f"empty window: {P} windows over {np.unique(g).size} distinct values")
    if spacing == "linear":
        parts = np.linspace(gmax, gmin, P + 1)
    else:
        parts = np.geomspace(gmax, gmin, P + 1)
    parts[-1] = gmin * (1.0 - _EDGE_NUDGE)
    return parts


def make_windows(sys: SpectralSystem, kind: str, P: int) -> WindowSet:
    """The P windows of a kind in KINDS over make_partitions' values with
    that kind's spacing; P = 1 gives the single all-ones window."""
    if kind not in KINDS:
        raise ValueError(f"window kind must be one of {KINDS}, got {kind!r}")
    if P == 1:
        return trivial_window(sys)
    shape, spacing = kind.split("_")
    build = cosine_windows if shape == "cosine" else indicator_windows
    return build(make_partitions(sys, P, spacing), sys, spacing)


def _windows(partitions: np.ndarray, sys: SpectralSystem, place) -> WindowSet:
    """The window set over these partitions whose weights on the active band
    [ell, q_star) `place(weights, parts, gamma, columns)` writes; the
    penalty-null tail [q_star, n) goes to window 0 and the forward-null head
    [0, ell) to window P - 1.  EmptyWindowError names an empty window by
    its index."""
    parts = np.asarray(partitions, dtype=float)
    if parts.ndim != 1 or parts.size < 2:
        raise ValueError("partitions must be a 1D array of at least two values")
    if np.any(np.diff(parts) > 0.0):
        raise ValueError("partitions must be nonincreasing")
    weights = np.zeros((parts.size - 1, sys.n))
    place(weights, parts, sys.gamma[sys.ell:sys.q_star],
          np.arange(sys.ell, sys.q_star))
    weights[0, sys.q_star:] = 1.0
    weights[-1, :sys.ell] = 1.0
    empty = np.flatnonzero(weights.max(axis=1) == 0.0)
    if empty.size:
        raise EmptyWindowError(f"empty window: window {empty[0]} has no weight",
                               window=int(empty[0]))
    return WindowSet(weights=weights, partitions=parts)


def indicator_windows(partitions: np.ndarray, sys: SpectralSystem,
                      spacing: str = "linear") -> WindowSet:
    """Non-overlapping 0/1 windows: index j lands in window p when
    partitions[p-1] >= gamma[j] > partitions[p].  `spacing` does not change
    the windows; it is accepted so that both generators take the same
    arguments."""
    def place(weights, parts, g, cols):
        P = weights.shape[0]
        # np.searchsorted over the ascending reversed partitions: count of
        # interior partition values >= gamma gives the 0-based window index.
        pos = np.searchsorted(parts[::-1], g, side="left")
        weights[np.clip(P - pos, 0, P - 1), cols] = 1.0

    return _windows(partitions, sys, place)


def cosine_windows(partitions: np.ndarray, sys: SpectralSystem,
                   spacing: str = "linear") -> WindowSet:
    """Overlapping raised-cosine windows with exact pairwise complementarity.

    Transitions between windows p and p+1 span the band between the
    midpoints of the two adjacent partition cells (computed in log coordinates
    for log spacing); inside the band window p carries cos(theta)**2 and
    window p+1 carries 1 - cos(theta)**2, so the partition of unity is exact.
    """
    def place(weights, parts, t, cols):
        if spacing == "log":
            if np.any(parts <= 0.0):
                raise ValueError("log spacing needs positive partition values")
            parts, t = np.log(parts), np.log(t)
        mids = 0.5 * (parts[:-1] + parts[1:])  # cell midpoints, decreasing
        hi = t >= mids[0]
        lo = t <= mids[-1]
        band = ~(hi | lo)
        weights[0, cols[hi]] = 1.0
        weights[-1, cols[lo]] = 1.0
        tb = t[band]
        cb = cols[band]
        # mids[p] >= t > mids[p+1]: transition between windows p and p+1
        p = np.searchsorted(-mids, -tb, side="right") - 1
        theta = 0.5 * np.pi * (mids[p] - tb) / (mids[p] - mids[p + 1])
        c2 = np.cos(theta) ** 2
        weights[p, cb] = c2
        weights[p + 1, cb] = 1.0 - c2

    return _windows(partitions, sys, place)


def trivial_window(sys: SpectralSystem) -> WindowSet:
    """The single all-ones window (scalar regularization as a window set)."""
    g = sys.gamma[sys.ell:sys.q_star]
    if g.size:
        parts = np.array([float(g.max()), float(g.min()) * (1.0 - _EDGE_NUDGE)])
    else:
        parts = np.array([1.0, 0.0])
    return WindowSet(weights=np.ones((1, sys.n)), partitions=parts)
