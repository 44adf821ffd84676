"""Parameter-selection objectives.

Every estimator is evaluated in the spectral domain from cached data
coefficients dhat = analyze(d):

* predictive-risk (UPRE) objectives: scalar, multi-data windowed, and the
  per-window separable form for non-overlapping windows;
* cross-validation (GCV) objectives: scalar, multi-data scalar, the coupled
  windowed form, and the per-window decoupled approximation;
* the supervised learning objective (mean squared solution error against
  known truths): on the DCT backend the weighted fit to the best filter of
  the pooled data sets, with per-window shares on non-overlapping windows;
  on the dense backend `mse_learning` alone, one matrix product per call.

Each estimator has one objective class (`UpreObjective`, `GcvObjective`,
`MseObjective`), prepared once for data sets sharing one system and one
window set, and evaluated as obj(alphas), obj.window(p, alpha) or, on the
single all-ones window, obj.window(None, alpha), or as every window form at
one alpha in one pass over the band, obj.windows_at(alpha); each public
function is one evaluation of a freshly prepared objective.  A `DataPool`
folds the data sets in one at a time, and `cls.from_pool(pool, windows)`
prepares an objective from the sets folded so far (the list constructors
fold each set, then prepare), so a caller need not hold a corpus.  UPRE,
the decoupled GCV and the MSE evaluate one band cost (`_Pooled`) on the
active band [ell, q_star) of the solver's band object (`solver._Band`), one
built per prepared objective; obj.window(p, alpha) reads its partition cell
p, window p or, on overlapping windows, p's indicator window over the same
partitions, where coupled searches start.

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
from .solver import _Band, _check_set, _params_for, phi_windowed
from .spectral import SpectralSystem
from .windows import WindowSet, trivial_window

__all__ = [
    "SATURATION_FLOOR",
    "NoiseModel",
    "upre_scalar",
    "upre_md_windowed",
    "upre_window_separable",
    "gcv_scalar",
    "gcv_md_scalar",
    "gcv_windowed_true",
    "gcv_windowed_true_md",
    "gcv_windowed_decoupled",
    "UpreObjective",
    "GcvObjective",
    "MseObjective",
    "DataPool",
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
    constants included: the windowed UPRE of the single all-ones window plus
    the beyond-n residual tail and the -sigma^2 offset that it drops.
    """
    upre = UpreObjective(sys, [dhat], trivial_window(sys), noise)
    return upre([alpha]) + upre.beyond / upre.M - upre.s2


def upre_md_windowed(systems: Sequence[SpectralSystem], dhats: Sequence[np.ndarray],
                     windows, alphas, noise) -> float:
    """Multi-data windowed UPRE with a shared parameter vector.

    (1/M) sum_r [ sum_{j<q_star} (1 - phi_win_j)^2 dhat_j^2
                  + 2 sigma_r^2 sum_j phi_win_j ],
    M = sum_r m_r, phi_win = sum_p w^(p) phi(alpha_p).  Terms independent of
    alpha (the beyond-n residual tail and the -sigma^2 offsets) are dropped.
    One evaluation of a freshly prepared `UpreObjective`.
    """
    sys = _common_system(systems, dhats)
    return UpreObjective(sys, dhats, windows, noise)(alphas)


def upre_window_separable(systems: Sequence[SpectralSystem],
                          dhats: Sequence[np.ndarray], windows, p: int,
                          alpha: float, noise) -> float:
    """Window p's share of the multi-data windowed UPRE.

    Valid for non-overlapping windows only; summing over p = 0..P-1
    reproduces upre_md_windowed at the assembled parameter vector.
    """
    sys = _common_system(systems, dhats)
    if not windows.nonoverlapping:
        raise ValueError("the separable UPRE needs non-overlapping windows")
    return UpreObjective(sys, dhats, windows, noise).window(p, alpha)


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
    return GcvObjective(sys, dhats, trivial_window(sys)).window(0, alpha)


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
    return GcvObjective(sys, dhats, windows)(alphas)


def gcv_windowed_decoupled(systems: Sequence[SpectralSystem],
                           dhats: Sequence[np.ndarray], windows, p: int,
                           alpha: float) -> float:
    """Per-window decoupled GCV approximation (non-overlapping windows).

    Numerator: pooled window-masked squared residual, with the beyond-n data
    tail charged to the last window so P = 1 reduces to gcv_md_scalar.
    Denominator: squared complement of the pooled single-window trace.
    """
    sys = _common_system(systems, dhats)
    if not windows.nonoverlapping:
        raise ValueError("the decoupled GCV needs non-overlapping windows")
    return GcvObjective(sys, dhats, windows).window(p, alpha)


# ---------------------------------------------------------------------------
# Prepared objectives
# ---------------------------------------------------------------------------

class DataPool:
    """Data sets of one system folded in one at a time, so that a caller
    holds one set at a time: the pooled sums through which alone
    `UpreObjective`, `GcvObjective` and `MseObjective` read their data.
    `UpreObjective.from_pool(pool, windows)`, and likewise the other two,
    prepares one from the sets folded so far; it owns its arrays, so sets
    folded later leave it unchanged.

    fold(dhat, sigma2, truth) adds dhat[:n]**2 to the per-index energies,
    sum dhat[n:]**2 to `beyond` and sigma2 to the noise variances, each in
    the order the sets arrive.  A truth (the learning objective) also adds
    its parameter-free costs below ell and from q_star on, and folds its band
    rows u = pinv(delta) dhat / synthesis_scale and t = Q^T x_true on
    [ell, q_star) (t read from the truth's DCT where the caller kept it,
    else transformed) into a = sum u**2, s = sum u t and the fixed cost c at
    the best filter s / a by the recursive least-squares update (Bjorck,
    Numerical Methods for Least Squares Problems, SIAM 1996)

      c += (phi_old u - t)**2 a_old / (a_old + u**2),  phi_old = s_old / a_old

    (phi_old = 0 where a_old = 0, weight 1 where a_old + u**2 = 0).  So only
    the list of variances grows with R.  Folding a truth needs an
    orthonormal synthesis: on the dense backend it raises, and so does the
    `MseObjective` list constructor, which folds one."""

    def __init__(self, sys: SpectralSystem) -> None:
        self.sys = sys
        self.R = 0
        self.energy = np.zeros(sys.n)
        self.beyond = 0.0
        self.sigma2: list[float] = []
        self.truths = 0  # sets folded with a truth
        self._fixed = None

    def fold(self, dhat: np.ndarray, sigma2: float = 0.0,
             truth: np.ndarray | None = None,
             truth_dct: np.ndarray | None = None) -> None:
        """Add one data set: its coefficients dhat = analyze(d), its noise
        variance and, for the learning objective, its truth.  truth_dct,
        where given with the truth, is the truth's orthonormal 2D DCT-II
        (`DataSet.truth_dct`, which its blur took), read in place of
        transforming the truth again: the pool is bit for bit the same."""
        sys = self.sys
        _check_set(sys, dhat, truth)
        sigma2 = float(sigma2)
        if not 0.0 <= sigma2 < np.inf:
            raise ValueError(f"noise variances must be finite and >= 0, got "
                             f"{sigma2}")
        if truth is not None:
            self._fold_truth(dhat, truth, truth_dct)
        n = sys.n
        self.energy += dhat[:n] ** 2
        self.beyond += float(dhat[n:] @ dhat[n:])
        self.sigma2.append(sigma2)
        self.R += 1

    def _fold_truth(self, dhat: np.ndarray, truth: np.ndarray,
                    truth_dct: np.ndarray | None) -> None:
        """The learning objective's sums of one set: its costs below ell
        and from q_star on, and a, s and c by the update above.  Its rows
        die on return, before fold forms the energies."""
        sys = self.sys
        lo, hi, n = sys.ell, sys.q_star, sys.n
        # solution_coefficients raises on the dense backend
        t_r = (sys._sorted(truth_dct)
               if truth_dct is not None and sys.backend == "dct"
               else sys.solution_coefficients(truth))
        if self._fixed is None:
            self._fixed = np.zeros(n)  # each index's parameter-free cost
            self._a = np.zeros(hi - lo)
            self._s = np.zeros(hi - lo)
            self._dpinv = 1.0 / sys.delta[lo:]
            self._scale = sys.synthesis_scale[lo:]
        u_r = self._dpinv * dhat[lo:n] / self._scale
        self._fixed[:lo] += t_r[:lo] ** 2
        # phi = 1 on the tail itself, not the tail weights' sum, which
        # rounds off 1 on some hand-built window sets
        self._fixed[hi:] += (u_r[hi - lo:] - t_r[hi:]) ** 2
        u, t = u_r[: hi - lo], t_r[lo:hi]
        a = self._a + u * u
        # the residual at the best filter so far, weighted into c
        res = np.divide(self._s, self._a, out=np.zeros(hi - lo),
                        where=self._a > 0.0) * u - t
        self._fixed[lo:hi] += res * res * np.divide(
            self._a, a, out=np.ones(hi - lo), where=a > 0.0)
        self._a = a
        self._s += u * t
        self.truths += 1


def _pool(sys: SpectralSystem, dhats: Sequence[np.ndarray], sigma2=None,
          truths=None) -> DataPool:
    """These data sets folded in order, with their variances and truths
    where given."""
    pool = DataPool(sys)
    for r, dhat in enumerate(dhats):
        pool.fold(dhat, 0.0 if sigma2 is None else sigma2[r],
                  None if truths is None else truths[r])
    return pool


class _Pooled:
    """The band cost sum_j energy_j (phi_j - target_j)**2 plus a fixed cost,
    through which alone UPRE, GCV (the pooled energies sum_r dhat_r**2, target
    1 and their sum below ell) and the MSE read the data.  Every phi is 0
    below ell and 1 from q_star on, so an evaluation touches only the active
    band [ell, q_star), runs no transform and costs the same for any R.  The
    list constructors fold each data set into a `DataPool`, then prepare."""

    # whether the value reads one set's trace (UPRE, GCV) or not (the MSE)
    _traced = True

    def __init__(self, sys: SpectralSystem, dhats: Sequence[np.ndarray],
                 windows: WindowSet) -> None:
        self._prepare(_pool(sys, dhats), windows)

    @classmethod
    def from_pool(cls, pool: DataPool, windows: WindowSet):
        """The objective of the data sets folded into pool so far, over
        these windows; the pool may go on folding."""
        obj = cls.__new__(cls)
        obj._prepare(pool, windows)
        return obj

    def _setup(self, sys: SpectralSystem, R: int, windows: WindowSet) -> None:
        """R data sets of one system and the active band of one window set."""
        if not R:
            raise ValueError("need at least one data set")
        self.R = R
        self.P = windows.P
        self.band = _Band(sys, windows)

    def _prepare(self, pool: DataPool, windows: WindowSet) -> None:
        sys = pool.sys
        self._setup(sys, pool.R, windows)
        lo, hi = sys.ell, sys.q_star
        energy = pool.energy.copy()
        self.beyond = pool.beyond
        self.m = sys.m
        self.M = self.R * sys.m
        self.head_energy = energy[:lo]
        self.fixed = float(np.sum(self.head_energy))
        self.energy = energy[lo:hi]
        self.target = np.ones(hi - lo)
        self.tail_energy = energy[hi:]

    @cached_property
    def window_terms(self) -> list:
        """Each cell's fixed cost, energy and target, or None if it is empty."""
        return [None if cell is None else (self._cell_fixed(cell),
                                           self.energy[cell.mid],
                                           self.target[cell.mid])
                for cell in self.band.cells]

    def _cell_fixed(self, cell) -> float:
        """A cell's fixed cost: its energy below ell."""
        return np.sum(self.head_energy[cell.low])

    def _resid(self, p: int | None, phi: np.ndarray) -> float:
        """Window p's (None: the whole band's) cost at phi, in phi's buffer."""
        fixed, energy, target = ((self.fixed, self.energy, self.target)
                                 if p is None else self.window_terms[p])
        phi -= target
        phi *= phi
        phi *= energy
        return float(fixed + np.add.reduce(phi))

    def _trace(self, p: int | None, phi: np.ndarray) -> float:
        """One set's trace at cell p's (None: the whole band's) filter."""
        tail = self.band.tail_size if p is None else self.band.cells[p].tail
        return float(tail + np.add.reduce(phi))

    def _at(self, p: int | None, phi: np.ndarray, alpha) -> float:
        """Cell p's (None: the whole band's) value at its filter phi, formed
        in phi's buffer, the trace summed first."""
        trace = self._trace(p, phi) if self._traced else None
        return self._value(p, self._resid(p, phi), trace, alpha)

    def __call__(self, alphas) -> float:
        """The value at the parameter vector alphas (UPRE and MSE; GCV
        couples the windows through its trace complements instead)."""
        return self._at(None, self.band.blend(self.band.rows(alphas)), None)

    def window(self, p: int | None, alpha: float) -> float:
        """Cell p's value at alpha; p = None gives the value of the single
        all-ones window on the same band."""
        return self._at(p, self.band.window_phi(p, alpha), alpha)

    def windows_at(self, alpha: float) -> list[float]:
        """[window(None, alpha), window(0, alpha), ..., window(P-1, alpha)],
        each bit for bit, from one pass over the band: phi(alpha) is filtered
        once, the traces (UPRE, GCV) are summed over the band and over each
        cell, then (phi - target)**2 energy is formed once in place and summed
        the same way.  The cells partition the band, so each element goes
        through the operations that window(p, alpha) applies to it.  A value
        whose trace saturates (GCV) reads +inf; an empty cell raises as
        window(p, alpha) does."""
        phi = self.band.window_phi(None, alpha)
        cells = [(None, slice(None))] + [(p, self.band.cell(p).mid)
                                         for p in range(self.P)]
        traces = [self._trace(p, phi[mid]) if self._traced else None
                  for p, mid in cells]
        resids = [self._resid(None, phi)]  # leaves the cost in phi's buffer
        resids += [float(self.window_terms[p][0] + np.add.reduce(phi[mid]))
                   for p, mid in cells[1:]]
        values = []
        for (p, _), resid, trace in zip(cells, resids, traces):
            try:
                values.append(self._value(p, resid, trace, alpha))
            except SaturatedTraceError:
                values.append(np.inf)
        return values


class UpreObjective(_Pooled):
    """The multi-data windowed UPRE of data sets sharing one system and one
    window set, prepared once for fixed data coefficients and noise
    variances: obj(alphas) is upre_md_windowed, obj.window(p, alpha) is
    upre_window_separable on the cells, and obj.window(None, alpha) is the
    value of the single all-ones window."""

    def __init__(self, sys: SpectralSystem, dhats: Sequence[np.ndarray],
                 windows: WindowSet, noise) -> None:
        self._prepare(_pool(sys, dhats, _noise_for(noise, len(dhats))), windows)

    def _prepare(self, pool: DataPool, windows: WindowSet) -> None:
        super()._prepare(pool, windows)
        self.s2 = float(np.sum(pool.sigma2))

    def _value(self, p, resid: float, trace: float, alpha) -> float:
        return (resid + 2.0 * self.s2 * trace) / self.M


class GcvObjective(_Pooled):
    """The multi-data windowed GCV of data sets sharing one system and one
    window set, prepared once for fixed data coefficients: obj(alphas) is
    the coupled gcv_windowed_true_md, obj.window(p, alpha) the decoupled
    gcv_windowed_decoupled on the cells, and obj.window(None, alpha)
    gcv_md_scalar, the decoupled GCV of the single all-ones window."""

    def __call__(self, alphas) -> float:
        weighted, mu, nu = _trace_complements(self.band, alphas, self.m)
        # near saturation the rounding of nu and of w phi / mu is amplified
        # by 1/mu: sum pairwise and divide, as the per-window reference
        # does, so that both round alike
        S = float(np.sum((1.0 - nu) / mu))
        coef = 1.0 + S - np.divide(weighted, mu[:, None], out=weighted).sum(axis=0)
        tail = 1.0 + S - np.sum(self.band.tail_weights / mu[:, None], axis=0)
        return ((1.0 + S) ** 2 * (self.fixed + self.beyond)
                + float(coef @ (coef * self.energy))
                + float(tail @ (tail * self.tail_energy))) / self.m / self.R

    def _value(self, p, num: float, trace: float, alpha) -> float:
        if p is None or p == self.P - 1:
            num += self.beyond
        trsum = self.R * trace
        den = (1.0 - trsum / self.M) ** 2
        if den < SATURATION_FLOOR:
            raise SaturatedTraceError(
                f"saturated trace: window {p} trace {trsum:.6g} ~ M={self.M} "
                f"at alpha={alpha:.3g}")
        return (num / self.M) / den


class MseObjective(_Pooled):
    """(1/R) sum_r ||x_win^(r)(alphas) - x_true^(r)||^2 as a function of the
    parameter vector, prepared once for data sets sharing one system and one
    window set, with fixed data coefficients and truths.  For one data set
    its value is the squared solution error that `validate` reports.

    The error is taken in coefficient space by Parseval, so the system needs
    an orthonormal synthesis (`synthesis_scale` set: the DCT backend); on the
    dense backend the `DataPool` that prepares it raises.  With
    u_r = pinv(delta) dhat_r[:n] / synthesis_scale and t_r = Q^T x_true^(r),
    one filter shared by the R sets gives the `_Pooled` cost

      sum_rj (phi_win_j u_rj - t_rj)^2 = sum_j a_j (phi_win_j - phi*_j)^2 + c_j

    with energies a = sum_r u_r**2, the best filter phi* = sum_r u_r t_r / a
    (0 where a = 0) and c_j = sum_r (phi*_j u_rj - t_rj)^2 (Chung, Chung and
    O'Leary, SIAM J. Sci. Comput. 2011), which a `DataPool` folds one set at
    a time by recursive least squares.  Below ell (u = 0) and from q_star
    on (phi = 1) every term joins the fixed cost, so a call touches only the
    active band, runs no transform and costs the same for any R.
    window(p, alpha) is cell p's share of the value at alpha: on
    non-overlapping windows the shares sum to the value at the assembled
    vector, and the single all-ones window's share is the value, bit for bit.
    """

    _traced = False

    def __init__(self, sys: SpectralSystem, dhats: Sequence[np.ndarray],
                 truths: Sequence[np.ndarray], windows: WindowSet) -> None:
        _check_truths(dhats, truths)
        self._prepare(_pool(sys, dhats, truths=truths), windows)

    def _prepare(self, pool: DataPool, windows: WindowSet) -> None:
        """The energies, best filter and fixed costs from the band sums of
        a pool."""
        if pool.truths < pool.R:
            raise ValueError("missing truths: the learning objective needs x_true")
        self._setup(pool.sys, pool.R, windows)
        self.energy = pool._a.copy()
        self.target = np.divide(pool._s, self.energy,
                                out=np.zeros(self.energy.size),
                                where=self.energy > 0.0)
        self._fixed_at = pool._fixed.copy()
        self.fixed = float(np.sum(self._fixed_at))

    def _cell_fixed(self, cell) -> float:
        """A cell's share of the fixed cost, over all its members."""
        return float(np.sum(self._fixed_at[cell.members]))

    def _value(self, p, resid: float, trace, alpha) -> float:
        return resid / self.R


def _check_truths(dhats: Sequence[np.ndarray], truths) -> None:
    """ValueError unless there is one truth per data set."""
    if truths is None:
        raise ValueError("missing truths: the learning objective needs x_true")
    if len(truths) != len(dhats):
        raise ValueError("data and truths must have equal lengths")


def mse_learning(systems: Sequence[SpectralSystem], data: Sequence[np.ndarray],
                 truths: Sequence[np.ndarray], windows, alphas,
                 dhats: Sequence[np.ndarray] | None = None) -> float:
    """(1/R) sum_r ||x_win^(r)(alphas) - x_true^(r)||^2.

    On the DCT backend one evaluation of a freshly prepared `MseObjective`;
    a search should prepare the objective once instead.  On the dense
    backend, which has no orthonormal synthesis to pool the error by, the
    heads dhat[:n] and the flattened truths are stacked as n-by-R columns H
    and X and all R solutions are synthesized in one matrix product,

      (1/R) ||synthesize(phi_win pinv(delta) H) - X||^2 (Frobenius).

    Pass precomputed dhats to skip the analyze transforms.
    """
    sys = _common_system(systems, data)
    if dhats is None:
        dhats = [sys.analyze(d) for d in data]
    if sys.backend != "dense":
        return MseObjective(sys, dhats, truths, windows)(alphas)
    _check_truths(dhats, truths)
    for dhat, truth in zip(dhats, truths):
        _check_set(sys, dhat, truth)
    heads = np.stack([dhat[: sys.n] for dhat in dhats], axis=1)
    flat = np.stack([np.ravel(truth) for truth in truths], axis=1)
    scaled = phi_windowed(sys, windows, alphas) * sys.delta_pinv()
    x = sys.synthesize(scaled[:, None] * heads)
    return float(np.sum((x - flat) ** 2)) / len(dhats)


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
    _check_set(sys, dhat)
    if sys.m > sys.n:
        pool = dhat[sys.n:]
    else:
        k = max(16, sys.n // 4)
        k = min(k, sys.n)
        # penalty-null directions (gamma == +inf) sort last
        order = np.argsort(sys.gamma, kind="stable")
        pool = dhat[order[:k]]
    sigma = np.median(np.abs(pool)) / 0.6745
    return float(sigma ** 2)
