"""Window construction: partitions, indicator and cosine weights."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from specwin.errors import EmptyWindowError
from specwin.problems import gaussian_psf
from specwin.spectral import dct_decompose, gsvd
from specwin.windows import (
    KINDS,
    WindowSet,
    cosine_windows,
    indicator_windows,
    make_partitions,
    make_windows,
    trivial_window,
)

from oracles import make_diag_system, tik_matrices


def system_from_gammas(gammas, lam_zeros: int = 0, delta_zeros: int = 0):
    """Diag system whose finite positive spectral values are exactly `gammas`
    (ascending), padded with delta-null heads and penalty-null tails."""
    g = np.sort(np.asarray(gammas, dtype=float))
    delta = g / np.hypot(g, 1.0)
    lam = 1.0 / np.hypot(g, 1.0)
    delta = np.concatenate([np.zeros(delta_zeros), delta, np.ones(lam_zeros)])
    lam = np.concatenate([np.ones(delta_zeros), lam, np.zeros(lam_zeros)])
    return make_diag_system(delta, lam)


def test_make_partitions_spans_the_finite_range():
    sys = system_from_gammas([0.5, 1.0, 2.0, 4.0, 8.0])
    parts = make_partitions(sys, 3)
    assert parts.shape == (4,)
    assert np.all(np.diff(parts) < 0.0)
    assert parts[0] == 8.0
    assert 0.0 < 0.5 - parts[-1] <= 1e-11
    steps = np.diff(parts[:-1])
    assert np.abs(steps - steps[0]).max() <= 1e-12  # linear spacing


def test_make_partitions_log_spacing_is_geometric():
    sys = system_from_gammas([0.01, 0.1, 1.0, 10.0, 100.0])
    parts = make_partitions(sys, 4, spacing="log")
    ratios = parts[1:-1] / parts[:-2]
    assert np.abs(ratios - ratios[0]).max() <= 1e-12


def test_make_partitions_ignores_nonfinite_and_zero_directions():
    sys = system_from_gammas([1.0, 2.0, 4.0], lam_zeros=2, delta_zeros=1)
    parts = make_partitions(sys, 2)
    assert parts[0] == 4.0
    assert parts[-1] == pytest.approx(1.0, rel=1e-11)


def test_make_partitions_rejects_bad_requests():
    sys = system_from_gammas([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        make_partitions(sys, 0)
    with pytest.raises(ValueError):
        make_partitions(sys, 2, spacing="quadratic")
    with pytest.raises(EmptyWindowError):
        make_partitions(sys, 3)  # as many windows as distinct values
    all_null = make_diag_system([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(EmptyWindowError):
        make_partitions(all_null, 1)


def test_indicator_windows_upper_inclusive_membership():
    sys = system_from_gammas([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    parts = np.array([6.0, 4.0, 2.0, 0.9])
    win = indicator_windows(parts, sys)
    assert win.nonoverlapping
    # gamma == 4.0 sits exactly on an interior partition: upper-inclusive
    # puts it in the lower window (index 1), not window 0
    assert list(win.member_indices(0)) == [4, 5]   # gammas 5, 6
    assert list(win.member_indices(1)) == [2, 3]   # gammas 3, 4
    assert list(win.member_indices(2)) == [0, 1]   # gammas 1, 2
    assert np.array_equal(win.weights.sum(axis=0), np.ones(sys.n))


def test_indicator_windows_route_null_directions_to_the_ends():
    sys = system_from_gammas([1.0, 2.0, 3.0, 4.0], lam_zeros=2, delta_zeros=1)
    parts = make_partitions(sys, 2)
    win = indicator_windows(parts, sys)
    # delta-null heads (gamma == 0) belong to the last window, penalty-null
    # tails (gamma infinite) to the first
    assert win.weights[0, 0] == 0.0 and win.weights[1, 0] == 1.0
    assert np.all(win.weights[0, -2:] == 1.0)
    assert np.array_equal(win.weights.sum(axis=0), np.ones(sys.n))


def test_indicator_windows_raise_on_empty_window():
    sys = system_from_gammas([1.0, 2.0, 3.0])
    parts = np.array([3.0, 2.99, 2.98, 0.9])
    # windows are counted from 0, as WindowSet.member_indices counts them
    with pytest.raises(EmptyWindowError,
                       match="empty window: window 1 has no weight") as exc:
        indicator_windows(parts, sys)
    assert exc.value.window == 1


def test_cosine_windows_half_weight_on_cell_midpoints():
    # transition bands run between midpoints of adjacent cells; the shared
    # partition value lies mid-band and must get weight exactly 1/2
    sys = system_from_gammas([0.5, 1.5, 2.0, 2.5, 3.5, 4.5])
    parts = np.array([4.5, 2.5, 0.5 * (1.0 - 1e-12)])
    win = cosine_windows(parts, sys)
    assert not win.nonoverlapping
    j = int(np.flatnonzero(np.isclose(sys.gamma, 2.5))[0])
    assert win.weights[0, j] == pytest.approx(0.5, abs=1e-9)
    assert win.weights[1, j] == pytest.approx(0.5, abs=1e-9)
    assert np.all(win.weights.sum(axis=0) == 1.0)
    # outside the band the windows are saturated
    hi = int(np.flatnonzero(np.isclose(sys.gamma, 4.5))[0])
    lo = int(np.flatnonzero(np.isclose(sys.gamma, 0.5))[0])
    assert win.weights[0, hi] == 1.0
    assert win.weights[1, lo] == 1.0


def test_cosine_windows_log_spacing_midpoints():
    sys = system_from_gammas([0.01, 0.1, 1.0, 10.0, 100.0])
    parts = make_partitions(sys, 2, spacing="log")
    win = cosine_windows(parts, sys, spacing="log")
    # the middle gamma hits the shared partition value (geometric middle)
    j = int(np.flatnonzero(np.isclose(sys.gamma, 1.0))[0])
    assert win.weights[0, j] == pytest.approx(0.5, abs=1e-9)
    assert np.all(win.weights.sum(axis=0) == 1.0)
    with pytest.raises(ValueError):
        cosine_windows(np.array([1.0, 0.0, -1.0]), sys, spacing="log")


def test_cosine_windows_single_window_is_trivial():
    sys = system_from_gammas([0.01, 1.0, 2.0, 3.0], lam_zeros=1, delta_zeros=1)
    for spacing in ("linear", "log"):
        win = cosine_windows(make_partitions(sys, 1, spacing), sys, spacing)
        assert win.P == 1
        assert win.weights.shape == (1, sys.n)
        assert np.all(win.weights == 1.0)


def test_window_set_holds_weights_and_partitions_only():
    win = cosine_windows(np.array([3.0, 2.0, 1.5, 0.9]),
                         system_from_gammas([1.0, 1.8, 2.2, 3.0]))
    assert [f.name for f in dataclasses.fields(win)] == ["weights", "partitions"]
    assert win.P == win.weights.shape[0] == 3


@pytest.mark.parametrize("weights,partitions,message", [
    (np.ones(3), 2, r"\(P, n\) with P >= 1"),
    (np.ones((0, 3)), 1, r"\(P, n\) with P >= 1"),
    (np.ones((1, 3)), 3, "1 windows need 2 partitions"),
    ([[-0.1, 1.0], [1.0, 0.0]], 3, r"in \[0, 1\]"),
    ([[1.1, 1.0], [0.0, 0.0]], 3, r"in \[0, 1\]"),
    ([[np.nan, 1.0], [0.5, 0.0]], 3, r"in \[0, 1\]"),
    ([[0.5, 1.0], [0.5 + 2e-12, 0.0]], 3, "sum to 1"),
    ([[0.5, 0.0], [0.4, 1.0]], 3, "sum to 1"),
])
def test_window_set_rejects_a_broken_partition_of_unity(weights, partitions,
                                                        message):
    with pytest.raises(ValueError, match=message):
        WindowSet(weights=np.asarray(weights, dtype=float),
                  partitions=np.zeros(partitions))
    # within the tolerance the same shape is a valid window set
    WindowSet(weights=np.array([[0.5, 1.0], [0.5 + 1e-13, 0.0]]),
              partitions=np.zeros(3))


def test_trivial_window_shape():
    sys = system_from_gammas([1.0, 2.0], lam_zeros=1)
    win = trivial_window(sys)
    assert win.P == 1
    assert np.all(win.weights == 1.0)
    assert win.weights.shape == (1, sys.n)
    # one delta-null head and one penalty-null tail: the active band is
    # empty, so no finite positive gamma spans the partitions, and [1, 0]
    # stands in
    empty = make_diag_system([0.0, 1.0], [1.0, 0.0])
    assert empty.ell == empty.q_star == 1
    win = trivial_window(empty)
    assert win.P == 1 and np.all(win.weights == 1.0)
    assert win.weights.shape == (1, empty.n)
    assert np.array_equal(win.partitions, [1.0, 0.0])


def _builder_systems():
    psf = gaussian_psf(2.0, (12, 12))
    A, L = tik_matrices(np.random.default_rng(1), 14, 10, "identity")
    return {"dct_identity": dct_decompose(psf, penalty="identity"),
            "dct_laplacian": dct_decompose(psf, penalty="laplacian"),
            "gsvd": gsvd(A, L)}


def _built_by_hand(sys, kind, P):
    """A window set of `kind` from make_partitions and its generator."""
    if P == 1:
        return trivial_window(sys)
    shape, spacing = kind.split("_")
    build = cosine_windows if shape == "cosine" else indicator_windows
    return build(make_partitions(sys, P, spacing), sys, spacing)


@pytest.mark.parametrize("name", ["dct_identity", "dct_laplacian", "gsvd"])
def test_make_windows_matches_the_generators(name):
    sys = _builder_systems()[name]
    for kind in KINDS:
        for P in (1, 2, 3, 4):
            try:
                want = _built_by_hand(sys, kind, P)
            except EmptyWindowError as exc:
                with pytest.raises(EmptyWindowError, match=re.escape(str(exc))):
                    make_windows(sys, kind, P)
                continue
            got = make_windows(sys, kind, P)
            assert got.P == want.P == P == got.weights.shape[0]
            assert got.weights.tobytes() == want.weights.tobytes(), (kind, P)
            assert got.partitions.tobytes() == want.partitions.tobytes()
            assert got.nonoverlapping == (P == 1 or kind.startswith("nonoverlap"))


def test_make_windows_single_window_needs_no_partition():
    # one distinct spectral value leaves nothing to partition, but P = 1
    # is the all-ones window of every kind
    sys = system_from_gammas([2.0], lam_zeros=1, delta_zeros=1)
    for kind in KINDS:
        win = make_windows(sys, kind, 1)
        assert win.weights.tobytes() == trivial_window(sys).weights.tobytes()
        assert np.array_equal(win.partitions, trivial_window(sys).partitions)


def test_make_windows_rejects_an_unknown_kind():
    sys = system_from_gammas([1.0, 2.0, 3.0, 4.0])
    for kind in ("cosine", "gaussian_log", "nonoverlap_quadratic"):
        with pytest.raises(ValueError, match="window kind"):
            make_windows(sys, kind, 2)
    with pytest.raises(ValueError, match="window kind"):
        make_windows(sys, "indicator", 1)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def windowed_systems(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    exps = draw(st.lists(st.floats(-3.5, 3.5, allow_nan=False),
                         min_size=n, max_size=n, unique=True))
    gammas = np.unique(10.0 ** np.asarray(exps))
    # well-separated values keep the normalized pair strictly monotone
    assume(gammas.size >= 3)
    assume(bool(np.all(np.diff(gammas) / gammas[1:] > 1e-6)))
    P = draw(st.integers(min_value=1, max_value=min(5, gammas.size - 1)))
    spacing = draw(st.sampled_from(["linear", "log"]))
    kind = draw(st.sampled_from(["indicator", "cosine"]))
    return gammas, P, spacing, kind


def _cell_counts(sys, parts):
    g = sys.gamma[(sys.lam != 0.0) & (sys.gamma > 0.0)]
    return [int(np.count_nonzero((g <= parts[p]) & (g > parts[p + 1])))
            for p in range(parts.size - 1)]


@given(windowed_systems())
@settings(max_examples=120, deadline=None)
def test_windows_partition_unity_property(case):
    gammas, P, spacing, kind = case
    sys = system_from_gammas(gammas)
    parts = make_partitions(sys, P, spacing=spacing)
    build = indicator_windows if kind == "indicator" else cosine_windows
    try:
        win = build(parts, sys, spacing=spacing)
    except EmptyWindowError:
        # legitimate for clustered draws, but only when some partition cell
        # really contains no spectral value
        assert min(_cell_counts(sys, parts)) == 0
        return
    assert win.weights.shape == (P, sys.n)
    assert np.all(win.weights >= 0.0)
    assert np.all(win.weights <= 1.0)
    assert np.all(win.weights.sum(axis=0) == 1.0)
    # every window keeps at least one contributing index
    assert np.all(win.weights.max(axis=1) > 0.0)


@given(windowed_systems())
@settings(max_examples=80, deadline=None)
def test_indicator_membership_tracks_partitions_property(case):
    gammas, P, spacing, _ = case
    sys = system_from_gammas(gammas)
    parts = make_partitions(sys, P, spacing=spacing)
    try:
        win = indicator_windows(parts, sys, spacing=spacing)
    except EmptyWindowError:
        assert min(_cell_counts(sys, parts)) == 0
        return
    for p in range(P):
        g = sys.gamma[win.member_indices(p)]
        assert np.all(g <= parts[p] * (1.0 + 1e-15))
        assert np.all(g > parts[p + 1])
