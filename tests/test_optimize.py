"""Search behavior: bracketing, refinement, boundary flags, feasibility."""

import math

import numpy as np
import pytest

from specwin.errors import InfeasibleError, SaturatedTraceError
from specwin.estimators import upre_scalar
from specwin.optimize import (
    SearchConfig,
    minimize_scalar,
    minimize_vector,
)
from specwin.solver import ParamVector
from specwin.spectral import gsvd

from oracles import tik_matrices


def test_scalar_recovers_smooth_minimum():
    cfg = SearchConfig(alpha_min=1e-3, alpha_max=50.0, tol=1e-6)
    res = minimize_scalar(lambda a: (a - 2.0) ** 2, cfg)
    assert abs(res.alpha - 2.0) <= 1e-4
    assert res.value <= 1e-8
    assert not res.boundary
    assert res.evaluations == len(res.trace)


def test_scalar_monotone_objective_flags_boundary():
    cfg = SearchConfig(alpha_min=1e-2, alpha_max=5.0)
    dec = minimize_scalar(lambda a: 1.0 / a, cfg)
    assert dec.boundary and dec.alpha == pytest.approx(5.0, rel=1e-9)
    inc = minimize_scalar(lambda a: a, cfg)
    assert inc.boundary and inc.alpha == pytest.approx(1e-2, rel=1e-9)


def test_scalar_beats_exhaustive_grid_on_a_real_objective():
    rng = np.random.default_rng(7)
    A, L = tik_matrices(rng, 14, 10, "laplacian")
    x = rng.standard_normal(10)
    d = A @ x + 0.05 * rng.standard_normal(14)
    sys = gsvd(A, L)
    dhat = sys.analyze(d)
    obj = lambda a: upre_scalar(sys, dhat, a, 0.05 ** 2)
    cfg = SearchConfig(alpha_min=1e-4, alpha_max=10.0, tol=1e-8)
    res = minimize_scalar(obj, cfg)
    grid = np.geomspace(1e-4, 10.0, 100_000)
    brute = min(obj(a) for a in grid)
    span = max(abs(brute), 1e-12)
    assert res.value <= brute + 1e-2 * span


def test_scalar_all_saturated_is_infeasible():
    def bad(_):
        raise SaturatedTraceError("saturated trace: test stub")
    with pytest.raises(InfeasibleError, match="no feasible alpha"):
        minimize_scalar(bad)
    with pytest.raises(InfeasibleError):
        minimize_scalar(lambda a: float("nan"))


def test_scalar_tie_breaks_toward_smaller_alpha():
    res = minimize_scalar(lambda a: 1.0, SearchConfig(alpha_min=0.1,
                                                      alpha_max=10.0))
    assert res.alpha == pytest.approx(0.1, rel=1e-12)
    assert res.value == 1.0


def test_scalar_skips_saturated_region():
    # infeasible below 0.05, smooth bowl above: the bracketing grid must
    # step over the raising region and still land on the interior minimum
    def obj(a):
        if a < 0.05:
            raise SaturatedTraceError("saturated trace: small alpha")
        return (math.log(a) - math.log(0.8)) ** 2
    res = minimize_scalar(obj, SearchConfig(alpha_min=1e-4, alpha_max=10.0,
                                            tol=1e-7))
    assert abs(res.alpha - 0.8) <= 1e-4
    assert not res.boundary


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(alpha_min=0.0)
    with pytest.raises(ValueError):
        SearchConfig(alpha_min=2.0, alpha_max=1.0)
    with pytest.raises(ValueError):
        SearchConfig(alpha_max=float("inf"))
    with pytest.raises(ValueError, match="finite square"):
        SearchConfig(alpha_max=1e200)
    with pytest.raises(ValueError):
        SearchConfig(grid_points=4)
    with pytest.raises(ValueError):
        SearchConfig(tol=0.0)
    with pytest.raises(ValueError):
        SearchConfig(max_iter=0)


def test_scalar_log_rescaling_consistency():
    # minima of f(a) and f(10 a) should land a decade apart
    f = lambda a: (math.log10(a)) ** 2
    cfg = SearchConfig(alpha_min=1e-4, alpha_max=100.0, tol=1e-8)
    r1 = minimize_scalar(f, cfg)
    r2 = minimize_scalar(lambda a: f(10.0 * a), cfg)
    assert r1.alpha == pytest.approx(10.0 * r2.alpha, rel=1e-3)


def test_vector_recovers_separable_quadratic():
    target = np.array([0.5, 1.0, 2.0])

    def obj(p):
        return float(np.sum((np.log(p.values) - np.log(target)) ** 2))

    cfg = SearchConfig(alpha_min=1e-3, alpha_max=10.0, tol=1e-7, max_iter=400)
    # start on the diagonal at the diagonal scalar optimum
    diag = minimize_scalar(lambda a: obj(ParamVector(np.full(3, a))), cfg)
    res = minimize_vector(obj, 3, cfg,
                          warm_start=ParamVector(np.full(3, diag.alpha)))
    assert np.allclose(res.alphas.values, target, rtol=1e-3)
    assert res.value <= 1e-10
    assert not res.boundary.any()


def test_vector_never_regresses_from_warm_start():
    calls = {"n": 0}

    def nasty(p):
        # adversarial: any move away from the start looks worse
        calls["n"] += 1
        v = p.values
        if np.allclose(v, [0.3, 0.7], rtol=1e-12):
            return 1.0
        return 2.0 + float(np.sum(v))

    res = minimize_vector(nasty, 2, warm_start=ParamVector([0.3, 0.7]))
    assert res.value <= 1.0
    assert np.allclose(res.alphas.values, [0.3, 0.7], rtol=1e-9)


def test_vector_infeasible_start():
    def obj(p):
        raise SaturatedTraceError("saturated trace: everything")
    with pytest.raises(InfeasibleError, match="no feasible alpha"):
        # P = 1 delegates to the scalar search, failing on the grid
        minimize_vector(obj, 1)
    with pytest.raises(InfeasibleError, match="infeasible start"):
        minimize_vector(obj, 2, warm_start=ParamVector([1.0, 1.0]))


def test_vector_p1_delegates_to_scalar():
    cfg = SearchConfig(alpha_min=1e-3, alpha_max=50.0, tol=1e-6)
    res = minimize_vector(lambda p: (p.values[0] - 2.0) ** 2, 1, cfg)
    assert res.alphas.P == 1
    assert abs(res.alphas.values[0] - 2.0) <= 1e-4
    assert res.boundary.shape == (1,)


def test_vector_boundary_flags_per_coordinate():
    # one coordinate pushed to the upper bound, the other interior
    def obj(p):
        a, b = p.values
        return 1.0 / a + (math.log(b) - math.log(0.5)) ** 2

    cfg = SearchConfig(alpha_min=1e-3, alpha_max=4.0, tol=1e-7, max_iter=400)
    res = minimize_vector(obj, 2, cfg, warm_start=ParamVector([1.0, 1.0]))
    assert res.boundary[0]
    assert not res.boundary[1]
    assert res.alphas.values[0] == pytest.approx(4.0, rel=1e-6)
    assert res.alphas.values[1] == pytest.approx(0.5, rel=1e-2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("saturate", ["raise", "nan"])
def test_vector_saturated_region_is_a_wall(saturate):
    """Where the objective saturates (alpha_0 < 0.05, with the unconstrained
    minimum at 0.01 inside) no difference quotient is inf - inf: the search
    ends finite, in the feasible part, no higher than its start, and counts
    every call."""
    calls = []

    def obj(p):
        calls.append(p)
        if p.values[0] < 0.05:
            if saturate == "raise":
                raise SaturatedTraceError("saturated trace: small alpha_0")
            return float("nan")
        return float(np.sum((np.log(p.values) - np.log([0.01, 0.5])) ** 2))

    start = ParamVector([1.0, 1.0])
    cfg = SearchConfig(alpha_min=1e-4, alpha_max=10.0)
    res = minimize_vector(obj, 2, cfg, warm_start=start)
    assert res.evaluations == len(calls)
    assert math.isfinite(res.value) and res.value <= obj(start)
    assert res.alphas.values[0] >= 0.05


def test_vector_rejects_bad_shapes():
    with pytest.raises(ValueError):
        minimize_vector(lambda p: 0.0, 0)
    with pytest.raises(ValueError, match="warm start"):
        minimize_vector(lambda p: float(np.sum(p.values)), 3,
                        warm_start=ParamVector([1.0, 2.0]))
    # a coupled search starts where its caller says; there is no default
    with pytest.raises(ValueError, match="needs a warm start"):
        minimize_vector(lambda p: float(np.sum(p.values)), 2)
