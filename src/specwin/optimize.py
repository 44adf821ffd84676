"""Bounded minimization of the selection objectives.

Scalar objectives get a global log-spaced bracketing grid followed by
golden-section refinement; coupled vector objectives get bounded L-BFGS-B in
log-parameter coordinates, started where the caller says.  Saturated-trace
evaluations count as +inf rather than aborting the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import Bounds, minimize

from .errors import InfeasibleError, SaturatedTraceError
from .solver import ParamVector
from .spectral import MAX_ALPHA

__all__ = [
    "BOUNDARY_RTOL",
    "SearchConfig",
    "ScalarSearchResult",
    "VectorSearchResult",
    "minimize_scalar",
    "minimize_vector",
]

# A minimizer ending this close (relatively) to a bound is flagged.
BOUNDARY_RTOL = 1e-6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Coupled search, in log coordinates: the relative step of the difference
# gradient (scipy's absolute 1e-8 drowns in rounding) and the first probe step.
_FD_STEP = 1e-6
_PROBE_STEP = 0.5


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and termination settings shared by both minimizers.

    `tol` is the golden-section bracket width in log(alpha); `max_iter` caps
    golden-section steps, L-BFGS-B iterations per run and the runs of one
    coupled search.  The upper bound default of 10 matches the experiment
    setups; the lower bound and tolerances are artifact choices.
    """

    alpha_min: float = 1e-6
    alpha_max: float = 10.0
    grid_points: int = 60
    tol: float = 1e-4
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha_min < self.alpha_max):
            raise ValueError(
                f"need 0 < alpha_min < alpha_max, got "
                f"[{self.alpha_min}, {self.alpha_max}]")
        if not self.alpha_max <= MAX_ALPHA:
            raise ValueError(f"alpha bounds must have a finite square: need "
                             f"alpha_max <= {MAX_ALPHA:.4g}, got "
                             f"{self.alpha_max}")
        if self.grid_points < 8:
            raise ValueError(f"grid_points must be >= 8, got {self.grid_points}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


class ScalarSearchResult(NamedTuple):
    alpha: float
    value: float
    boundary: bool
    evaluations: int
    trace: np.ndarray  # evaluated (alpha, value) pairs, evaluation order


class VectorSearchResult(NamedTuple):
    alphas: ParamVector
    value: float
    boundary: np.ndarray  # per-coordinate bound flags
    evaluations: int


def _near_bound(alpha: float, config: SearchConfig) -> bool:
    lo = abs(alpha - config.alpha_min) <= BOUNDARY_RTOL * config.alpha_min
    hi = abs(alpha - config.alpha_max) <= BOUNDARY_RTOL * config.alpha_max
    return bool(lo or hi)


def minimize_scalar(objective: Callable[[float], float],
                    config: SearchConfig | None = None) -> ScalarSearchResult:
    """Global grid bracketing plus golden-section refinement in log(alpha).

    Saturated evaluations are treated as +inf; if every grid point is
    infeasible the search aborts.  Ties prefer the smallest alpha.
    """
    config = config or SearchConfig()
    seen: list[tuple[float, float]] = []

    def f(alpha: float) -> float:
        try:
            val = float(objective(alpha))
        except SaturatedTraceError:
            val = math.inf
        if math.isnan(val):
            val = math.inf
        seen.append((alpha, val))
        return val

    grid = np.geomspace(config.alpha_min, config.alpha_max, config.grid_points)
    vals = np.array([f(a) for a in grid])
    if not np.any(np.isfinite(vals)):
        raise InfeasibleError(
            "no feasible alpha: objective saturated or non-finite on the "
            f"whole grid [{config.alpha_min:g}, {config.alpha_max:g}]")
    i = int(np.argmin(vals))  # first minimal index = smallest alpha on ties

    # refine inside the one-cell-each-side bracket around the grid winner
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, config.grid_points - 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    it = 0
    while (b - a) > config.tol and it < config.max_iter:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(math.exp(d))
        it += 1

    # winner over everything evaluated; ties break toward smaller alpha
    pts = np.array(seen)
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    alpha_star, value = pts[order[0]]
    if not math.isfinite(value):
        raise InfeasibleError("no feasible alpha after refinement")
    return ScalarSearchResult(alpha=float(alpha_star), value=float(value),
                              boundary=_near_bound(float(alpha_star), config),
                              evaluations=len(seen), trace=pts)


def minimize_vector(objective: Callable[[ParamVector], float], P: int,
                    config: SearchConfig | None = None,
                    warm_start: ParamVector | None = None) -> VectorSearchResult:
    """Coupled search over P parameters in log coordinates.

    P == 1 is the scalar grid plus golden-section search.  For P > 1 bounded
    L-BFGS-B runs from `warm_start` until no decrease is representable; as a
    saturated window filter is flat to rounding (difference gradient 0),
    coordinate probes, doubled while the value falls, follow each run, and a
    lower probe starts another.  Saturated or NaN values count as +inf, a
    wall above the start value to L-BFGS-B.  The lowest point evaluated wins;
    `evaluations` counts every objective call.
    """
    config = config or SearchConfig()
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    if P == 1:
        res = minimize_scalar(lambda a: objective(ParamVector([a])), config)
        return VectorSearchResult(alphas=ParamVector([res.alpha]),
                                  value=res.value,
                                  boundary=np.array([res.boundary]),
                                  evaluations=res.evaluations)

    if warm_start is None:
        raise ValueError(f"a search over P={P} parameters needs a warm start")
    if warm_start.P != P:
        raise ValueError(f"warm start has {warm_start.P} entries, need {P}")
    lo, hi = math.log(config.alpha_min), math.log(config.alpha_max)
    best = SimpleNamespace(z=None, alphas=None, value=math.inf, evaluations=0)

    def f_vec(z: np.ndarray) -> float:
        alphas = ParamVector(np.clip(np.exp(z), config.alpha_min,
                                     config.alpha_max))
        try:
            val = float(objective(alphas))
        except SaturatedTraceError:
            val = math.nan
        best.evaluations += 1
        if val < best.value:
            best.z, best.alphas, best.value = np.array(z), alphas, val
        return val if math.isfinite(val) else wall

    def probe(k: int, step: float) -> bool:  # best.z + step e_k lower?
        z = best.z.copy()
        z[k] = min(max(z[k] + step, lo), hi)
        value = best.value
        return z[k] != best.z[k] and f_vec(z) < value

    wall = math.inf  # until the start value is known
    f_vec(np.clip(np.log(warm_start.values), lo, hi))
    if best.z is None:
        raise InfeasibleError("infeasible start: objective non-finite at the "
                              "warm start")
    wall = best.value + max(1.0, abs(best.value))
    for _ in range(config.max_iter):
        minimize(f_vec, best.z, method="L-BFGS-B", jac="2-point",
                 bounds=Bounds(np.full(P, lo), np.full(P, hi)),
                 options={"finite_diff_rel_step": _FD_STEP, "ftol": 0.0,
                          "gtol": 0.0, "maxiter": config.max_iter})
        value = best.value
        for k in range(P):
            for step in (-_PROBE_STEP, _PROBE_STEP):
                while probe(k, step):
                    step *= 2.0
        if not best.value < value:
            break
    flags = np.array([_near_bound(a, config) for a in best.alphas.values])
    return VectorSearchResult(alphas=best.alphas, value=best.value,
                              boundary=flags, evaluations=best.evaluations)
