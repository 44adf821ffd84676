"""Deblurring test-problem construction and the corpus toolchain."""

import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from specwin import problems
from specwin.errors import KernelSymmetryError
from specwin.problems import (
    _CRATER_REACH,
    _crater_reach,
    _crater_span,
    add_noise,
    blur,
    blur_spectrum,
    fit_to_size,
    gaussian_psf,
    iter_datasets,
    load_corpus,
    load_image,
    make_dataset,
    make_datasets,
    read_manifest,
    read_pgm,
    synthetic_image,
    write_manifest,
    write_pgm,
)
from specwin.spectral import laplacian_spectrum

from oracles import (dense_laplacian_2d, full_grid_background,
                     full_grid_synthetic_image, reflexive_blur_apply)


def test_gaussian_psf_properties():
    k = gaussian_psf(4.0, (7, 9))
    assert k.shape == (7, 9)
    assert k.sum() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_array_equal(k, k[::-1, :])
    np.testing.assert_array_equal(k, k[:, ::-1])
    assert np.all(k > 0.0)
    # even sizes use the half-integer grid and stay exactly flip-symmetric
    ke = gaussian_psf(2.0, (6, 6))
    np.testing.assert_array_equal(ke, ke[::-1, :])
    with pytest.raises(ValueError):
        gaussian_psf(0.0, (5, 5))
    with pytest.raises(ValueError):
        gaussian_psf(1.0, (2, 5))
    # a NaN width, and one so narrow that every sample underflows to 0 on
    # the half-integer grid, have no unit-sum kernel
    for xi in (np.nan, 1e-300):
        with pytest.raises(ValueError, match="kernel sum"):
            gaussian_psf(xi, (8, 8))


@pytest.mark.parametrize("dims,psf_shape", [((8, 8), (5, 5)), ((9, 7), (5, 3)),
                                            ((10, 10), (6, 6))])
def test_blur_matches_direct_reflexive_convolution(dims, psf_shape):
    rng = np.random.default_rng(sum(dims) * 31 + psf_shape[0])
    psf = gaussian_psf(3.0, psf_shape)
    x = rng.standard_normal(dims)
    got = blur(x, psf)
    ref = reflexive_blur_apply(x, psf)
    assert np.abs(got - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)


def test_blur_linearity_and_invariants():
    rng = np.random.default_rng(11)
    psf = gaussian_psf(2.5, (5, 5))
    x, y = rng.standard_normal((2, 8, 8))
    lhs = blur(2.0 * x - 3.0 * y, psf)
    rhs = 2.0 * blur(x, psf) - 3.0 * blur(y, psf)
    assert np.abs(lhs - rhs).max() <= 1e-10
    # a unit-sum kernel leaves constants untouched under reflexive boundaries
    const = blur(np.full((8, 8), 0.7), psf)
    assert np.abs(const - 0.7).max() <= 1e-12
    # a centered delta kernel is the identity
    delta = np.zeros((5, 5))
    delta[2, 2] = 1.0
    assert np.abs(blur(x, delta) - x).max() <= 1e-12


def test_blur_spectrum_rejects_asymmetric_kernels():
    psf = gaussian_psf(2.0, (5, 5))
    psf = psf.copy()
    psf[0, 1] += 0.01
    with pytest.raises(KernelSymmetryError, match="not diagonalizable"):
        blur_spectrum(psf, (8, 8))
    with pytest.raises(ValueError):
        blur_spectrum(np.ones(5), (8, 8))
    with pytest.raises(ValueError, match="larger than image"):
        blur_spectrum(gaussian_psf(1.0, (9, 9)), (6, 6))


def test_laplacian_penalty_matches_dense_eigenvalues():
    dims = (5, 4)
    vals = np.sort(laplacian_spectrum(dims).ravel())
    ref = np.sort(np.linalg.eigvalsh(dense_laplacian_2d(dims)))
    assert np.abs(vals - ref).max() <= 1e-10
    assert np.count_nonzero(np.abs(vals) <= 1e-12) == 1


def test_add_noise_hits_target_snr_exactly():
    rng = np.random.default_rng(13)
    b = rng.standard_normal((12, 12)) + 2.0
    for snr in [5.0, 10.0, 25.0]:
        d, sigma2 = add_noise(b, snr, seed=99)
        e = d - b
        achieved = 10.0 * np.log10(np.sum(b ** 2) / np.sum(e ** 2))
        assert achieved == pytest.approx(snr, abs=1e-10)
        assert sigma2 == pytest.approx(float(np.sum(e ** 2)) / b.size, rel=1e-14)
    d, sigma2 = add_noise(b, np.inf, seed=99)
    np.testing.assert_array_equal(d, b)
    assert sigma2 == 0.0
    with pytest.raises(ValueError, match="zero-signal"):
        add_noise(np.zeros((4, 4)), 10.0, seed=1)
    # NaN and -inf name no noise level; 10**(snr/10) overflows at 1e308 and
    # underflows to 0 at -4000
    for snr in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="number or \\+inf"):
            add_noise(b, snr, seed=99)
    for snr in (1e308, np.float64(1e308), -4000.0, np.float64(-4000.0)):
        with pytest.raises(ValueError, match="out of range"):
            add_noise(b, snr, seed=99)


def test_noise_that_vanishes_in_the_data_is_rejected():
    # at 400 dB the noise is ~1e-20 of the signal and is lost when added to
    # b; it used to come back as d == b with snr inf and a divide warning
    x = synthetic_image(16, 3)
    psf = gaussian_psf(2.0, (16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="noise vanishes"):
            make_dataset(x, psf, 400.0, 1)
        with pytest.raises(ValueError, match="noise vanishes"):
            add_noise(blur(x, psf), 400.0, seed=1)
        # at 320 dB about half the pixels lose their noise in the sum: the
        # data held 17% less noise than sigma2 said, and snr read 319.32
        with pytest.raises(ValueError, match="part of the noise is lost"):
            make_dataset(x, psf, 320.0, 1)
        with pytest.raises(ValueError, match="part of the noise is lost"):
            add_noise(blur(x, psf), 320.0, seed=1)
        # a high target whose noise survives the sum is kept
        ds = make_dataset(x, psf, 200.0, 1)
    assert np.all(ds.d != ds.b)
    assert ds.snr == pytest.approx(200.0, abs=1e-6)
    assert np.sum((ds.d - ds.b) ** 2) / ds.d.size == pytest.approx(ds.sigma2,
                                                                    rel=1e-6)


def test_add_noise_seed_determinism():
    b = np.ones((6, 6))
    d1, _ = add_noise(b, 10.0, seed=7)
    d2, _ = add_noise(b, 10.0, seed=7)
    d3, _ = add_noise(b, 10.0, seed=8)
    np.testing.assert_array_equal(d1, d2)
    assert np.abs(d1 - d3).max() > 0.0


def test_noise_sums_are_pinned():
    """sigma2 and the achieved SNR of two seeded 64x64 draws, bit for bit.
    sigma2 is the sum of e**2 taken after scaling, and at 230 dB the part
    of the noise that the sum b + e keeps moves the achieved SNR off its
    target."""
    psf = gaussian_psf(4.0, (64, 64))
    for seed, snr, sigma2, achieved in [
            (5, 10.0, 0.022289790389207656, 10.0),
            (6, 230.0, 2.1168532416881872e-24, 229.99999883923755)]:
        ds = make_dataset(synthetic_image(64, seed=seed), psf, snr, 100 + seed)
        assert (ds.sigma2, ds.snr) == (sigma2, achieved), seed


def test_make_datasets_is_make_dataset_per_image(monkeypatch):
    """Each set keeps the truth's DCT that its blur took, and its b is
    blur(x_true, psf) bit for bit."""
    psf = gaussian_psf(3.0, (12, 12))
    truths = [synthetic_image(12, seed=s) for s in (1, 2, 3)]
    seeds = [40, 41, 42]
    calls = []
    real = problems.blur_spectrum
    monkeypatch.setattr(problems, "blur_spectrum",
                        lambda *a: calls.append(a) or real(*a))
    batch = make_datasets(truths, psf, 10.0, seeds)
    assert len(calls) == 1  # one spectrum for all three images
    for got, x, seed in zip(batch, truths, seeds):
        want = make_dataset(x, psf, 10.0, seed)
        for field in ("x_true", "b", "d", "truth_dct"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got.sigma2, got.snr, got.seed, got.dims) == \
            (want.sigma2, want.snr, want.seed, want.dims)
        assert np.array_equal(blur(got.x_true, psf), got.b)
    # iter_datasets builds the same data sets one at a time under one
    # spectrum, and a truth of another shape raises only when it is reached
    calls.clear()
    stream = iter_datasets(iter(truths + [np.zeros((12, 13))]), psf, 10.0,
                           iter(seeds + [43]))
    for got, want in zip(itertools.islice(stream, len(truths)), batch):
        for field in ("x_true", "b", "d"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got.sigma2, got.snr, got.seed) == (want.sigma2, want.snr,
                                                   want.seed)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="differ in shape"):
        next(stream)
    calls.clear()
    assert make_datasets([], psf, 10.0, []) == []
    assert list(iter_datasets([], psf, 10.0, [])) == []
    assert calls == []
    with pytest.raises(ValueError, match="seeds"):
        make_datasets(truths, psf, 10.0, seeds[:2])
    # a bad truth raises the same message wherever it stands
    wrong, flat = np.zeros((12, 13)), np.zeros(12)
    for bad, message in (([truths[0], wrong], "differ in shape"),
                         ([*truths[:2], wrong], "differ in shape"),
                         ([flat], "image must be 2D"),
                         ([*truths[:2], flat], "image must be 2D")):
        with pytest.raises(ValueError, match=message):
            make_datasets(bad, psf, 10.0, seeds[:len(bad)])
    # an infinite SNR adds no noise: the data are the blurred truths
    for ds, x in zip(make_datasets(truths, psf, np.inf, seeds), truths):
        assert np.array_equal(ds.d, ds.b) and ds.d is not ds.b
        assert np.array_equal(ds.b, blur(x, psf))
        assert ds.sigma2 == 0.0 and ds.snr == np.inf


def test_make_dataset_fields():
    x = synthetic_image(16, seed=3)
    psf = gaussian_psf(2.0, (5, 5))
    ds = make_dataset(x, psf, snr_db=10.0, seed=42)
    assert ds.dims == (16, 16)
    assert ds.seed == 42
    assert ds.snr == pytest.approx(10.0, abs=1e-10)
    np.testing.assert_array_equal(ds.b, blur(x, psf))
    assert np.abs(ds.d - ds.b).max() > 0.0


def test_synthetic_image_deterministic_and_bounded():
    a = synthetic_image(24, seed=5, craters=6)
    b = synthetic_image(24, seed=5, craters=6)
    c = synthetic_image(24, seed=6, craters=6)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0.0
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert np.ptp(a) > 0.05  # actual content, not a constant


def _crater_boxes(size: int, seed: int) -> list[tuple[slice, slice]]:
    """The _CRATER_REACH row and column spans of each crater of
    synthetic_image(size, seed), over which it takes the least |pixel|, from
    a replay of its random draws."""
    rng = np.random.default_rng(seed)
    for _ in range(4):
        rng.uniform(0.5, 3.0, size=2), rng.uniform(), rng.uniform()
    boxes = []
    for _ in range(int(rng.integers(8, 16))):
        cx, cy = rng.uniform(0.05, 0.95, size=2)
        r = rng.uniform(0.04, 0.16)
        rng.uniform(), rng.uniform()
        boxes.append((_crater_span(cy, _CRATER_REACH * r, size),
                      _crater_span(cx, _CRATER_REACH * r, size)))
    return boxes


def test_synthetic_image_crater_box_matches_full_grid_oracle():
    # 360 distinct seeds over the six sizes
    counts = {4: 60, 5: 60, 32: 60, 33: 60, 128: 70, 256: 50}
    clipped = inside = first = 0
    for size, count in counts.items():
        for seed in range(first, first + count):
            got = synthetic_image(size, seed)
            assert got.tobytes() == full_grid_synthetic_image(size, seed).tobytes(), \
                (size, seed)
            for box in _crater_boxes(size, seed):
                for span in box:
                    if span.start == 0 or span.stop == size:
                        clipped += 1
                    else:
                        inside += 1
        first += count
        # a Generator in place of an integer seed
        gen = np.random.default_rng
        assert (synthetic_image(size, gen(size)).tobytes()
                == full_grid_synthetic_image(size, gen(size)).tobytes())
        for craters in (0, 1, 40):
            assert (synthetic_image(size, 9, craters=craters).tobytes()
                    == full_grid_synthetic_image(size, 9, craters=craters).tobytes())
    # boxes that reach the border and boxes that stop short of it both occur
    assert clipped > 0 and inside > 0


def test_synthetic_background_matches_the_full_grid_cosines():
    # the separable background is the cosine at every pixel to rounding
    # (1.05e-15 at most measured over 1720 images of these sizes), and
    # each image quantizes as the full-grid one does
    counts = {4: 40, 5: 40, 32: 40, 33: 40, 128: 30, 256: 20}
    first = worst = 0
    for size, count in counts.items():
        for seed in range(first, first + count):
            got = synthetic_image(size, seed, craters=0)
            want = np.clip(full_grid_background(size, seed), 0.0, 1.0)
            worst = max(worst, float(np.abs(got - want).max()))
            assert np.array_equal(np.rint(got * 65535.0),
                                  np.rint(want * 65535.0)), (size, seed)
        first += count
    assert worst <= 4e-15


def test_crater_reach_is_past_the_ridge_underflow():
    # a pixel outside a crater's box is at least _CRATER_REACH radii (less
    # rounding) from its center, where the ridge is exactly 0.0
    for dist in (_CRATER_REACH * (1.0 - 1e-9), _CRATER_REACH, 10.0, 1e3):
        assert 0.25 * np.exp(-((dist - 1.0) / 0.12) ** 2) == 0.0
    # nor is the reach much more than it needs to be: the ridge is still
    # positive at 4.25 radii
    assert np.exp(-((4.25 - 1.0) / 0.12) ** 2) > 0.0


def test_crater_reach_keeps_the_ridge_below_the_float_spacing():
    lows = [f * 2.0 ** k for k in range(-1070, 1) for f in (1.0, 1.5, 1.999)]
    for rim in np.linspace(0.10, 0.25, 7):
        for low in lows:
            reach = _crater_reach(rim, low)
            assert 1.0 < reach <= _CRATER_REACH
            ridge = rim * np.exp(-((reach - 1.0) / 0.12) ** 2)
            # below a quarter of half the spacing at low
            assert 8.0 * ridge < np.spacing(low), (rim, low)
            # so adding it changes no value of magnitude low or more, also
            # toward 0 from a negative power of two
            for v in (low, -low, 2.0 * low, -2.0 * low):
                assert v + ridge == v, (rim, low, v)
    # a zero pixel gets no spacing argument: the full box
    assert _crater_reach(0.25, 0.0) == _CRATER_REACH
    assert _crater_reach(0.10, 0.0) == _CRATER_REACH


def _recorded_reaches(monkeypatch, force_full_every: int = 0) -> list:
    """Record (low, reach) of every crater that synthetic_image adds from
    now on; with force_full_every = k, every k-th crater sees low == 0."""
    real = problems._crater_reach
    seen = []

    def reach(rim, low):
        if force_full_every and (len(seen) + 1) % force_full_every == 0:
            low = 0.0
        seen.append((low, real(rim, low)))
        return seen[-1][1]

    monkeypatch.setattr(problems, "_crater_reach", reach)
    return seen


def test_crater_reach_shrinks_on_a_typical_image(monkeypatch):
    # every crater of the 256x256 seed-1 image stops short of 2 radii, so a
    # return to the full 4.39-radius boxes fails here by count
    seen = _recorded_reaches(monkeypatch)
    spans = []
    real_span = problems._crater_span
    monkeypatch.setattr(problems, "_crater_span",
                        lambda *args: spans.append(real_span(*args)) or spans[-1])
    got = synthetic_image(256, 1)
    assert got.tobytes() == full_grid_synthetic_image(256, 1).tobytes()
    assert len(seen) == len(_crater_boxes(256, 1)) == 15
    assert all(reach < 2.0 for _, reach in seen)
    # per crater, the rows and columns of its full box, then those of the
    # narrower box it is added on: 174870 of 609190 pixels in all
    assert len(spans) == 4 * 15
    pixels = {"full": 0, "used": 0}
    for k in range(0, len(spans), 4):
        full, used = spans[k:k + 2], spans[k + 2:k + 4]
        for f, u in zip(full, used):
            assert f.start <= u.start and u.stop <= f.stop
            assert u.stop - u.start < f.stop - f.start
        for box, (rows, cols) in (("full", full), ("used", used)):
            pixels[box] += (rows.stop - rows.start) * (cols.stop - cols.start)
    assert pixels["used"] < 0.35 * pixels["full"]


@pytest.mark.parametrize("force_full_every", [0, 3])
def test_crater_dense_images_match_the_full_grid_oracle(monkeypatch,
                                                         force_full_every):
    # 200 craters on 48x48 pile up, and pixels cross 0 (low ~1e-5), but no
    # pixel is exactly 0 in these seeds: the full-box fallback of a zero
    # low is forced on every third crater, between shrunk boxes
    seen = _recorded_reaches(monkeypatch, force_full_every)
    for seed in range(5):
        assert (synthetic_image(48, seed, craters=200).tobytes()
                == full_grid_synthetic_image(48, seed, craters=200).tobytes())
    assert len(seen) == 5 * 200
    assert min(low for low, _ in seen if low > 0.0) < 1e-3
    full = sum(reach == _CRATER_REACH for _, reach in seen)
    assert full == (len(seen) // 3 if force_full_every else 0)


@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_roundtrip(tmp_path, maxval):
    rng = np.random.default_rng(17)
    img = rng.uniform(0.0, 1.0, (9, 7))
    p = tmp_path / "img.pgm"
    write_pgm(p, img, maxval=maxval)
    back = read_pgm(p)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / maxval + 1e-12


def test_pgm_reader_handles_comments_and_rejects_garbage(tmp_path):
    p = tmp_path / "c.pgm"
    payload = bytes([0, 128, 255, 64])
    p.write_bytes(b"P5\n# a comment line\n2 2\n# another\n255\n" + payload)
    img = read_pgm(p)
    assert img.shape == (2, 2)
    assert img[0, 0] == 0.0 and img[0, 1] == pytest.approx(128 / 255)
    q = tmp_path / "bad.pgm"
    q.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ValueError, match="P5"):
        read_pgm(q)
    t = tmp_path / "trunc.pgm"
    t.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(t)
    # maxval must lie in 1..65535: 0 would divide by zero, 70000 has no
    # sample width
    for maxval in (0, 70000):
        m = tmp_path / f"maxval{maxval}.pgm"
        m.write_bytes(f"P5\n2 2\n{maxval}\n".encode() + bytes(8))
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(m)
    # an image with no pixels
    for dims in ("0 4", "4 0"):
        z = tmp_path / "empty.pgm"
        z.write_bytes(f"P5\n{dims}\n255\n".encode())
        with pytest.raises(ValueError, match="empty.pgm: PGM has zero width"):
            read_pgm(z)


def test_load_image_csv_rescales(tmp_path):
    p = tmp_path / "m.csv"
    np.savetxt(p, np.array([[0.0, 50.0], [100.0, 200.0]]), delimiter=",")
    img = load_image(p)
    assert img.min() == 0.0 and img.max() == 1.0
    assert img[1, 0] == pytest.approx(0.5)
    q = tmp_path / "inrange.csv"
    np.savetxt(q, np.array([[0.2, 0.4], [0.6, 0.8]]), delimiter=",")
    np.testing.assert_allclose(load_image(q), [[0.2, 0.4], [0.6, 0.8]])
    with pytest.raises(ValueError, match="unsupported"):
        load_image(tmp_path / "x.bmp")
    # non-finite samples would otherwise surface as a bad SNR downstream
    for bad in ("nan", "inf", "-inf"):
        r = tmp_path / "nonfinite.csv"
        r.write_text(f"0.1,0.2\n{bad},0.4\n")
        with pytest.raises(ValueError, match="nonfinite.csv: .*NaN or infinite"):
            load_image(r)


def test_fit_to_size_crops_and_zooms():
    big = np.arange(100, dtype=float).reshape(10, 10) / 99.0
    crop = fit_to_size(big, 6)
    np.testing.assert_array_equal(crop, big[2:8, 2:8])
    small = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    up = fit_to_size(small, 8)
    assert up.shape == (8, 8)
    assert up.min() >= 0.0 and up.max() <= 1.0


def test_manifest_roundtrip_and_split_filter(tmp_path):
    imgs = {}
    for i, name in enumerate(["a.pgm", "b.pgm", "c.pgm"]):
        img = synthetic_image(12, seed=i)
        write_pgm(tmp_path / name, img)
        imgs[name] = read_pgm(tmp_path / name)
    records = [
        {"path": tmp_path / "a.pgm", "split": "train", "seed": 0},
        {"path": tmp_path / "b.pgm", "split": "train", "seed": 1},
        {"path": tmp_path / "c.pgm", "split": "validate", "seed": 2},
    ]
    mpath = tmp_path / "manifest.csv"
    write_manifest(mpath, records)
    assert mpath.read_bytes() == b"a.pgm,train,0\nb.pgm,train,1\nc.pgm,validate,2\n"
    back = read_manifest(mpath)
    assert [r["split"] for r in back] == ["train", "train", "validate"]
    assert [r["seed"] for r in back] == [0, 1, 2]
    assert all(r["path"].exists() for r in back)

    train, recs = load_corpus(mpath, split="train")
    assert len(train) == 2
    np.testing.assert_array_equal(train[0], imgs["a.pgm"])
    val, _ = load_corpus(mpath, split="validate", size=8)
    assert val[0].shape == (8, 8)
    with pytest.raises(ValueError, match="empty corpus"):
        load_corpus(mpath, split="test")

    # an empty split column leaves a record unlabelled: like a directory's,
    # it serves whichever split is asked, and "train" when none is
    plain = tmp_path / "plain.csv"
    write_manifest(plain, [{**r, "split": ""} for r in records])
    for split in ("train", "validation_1"):
        got, recs = load_corpus(plain, split=split)
        assert [r["split"] for r in recs] == [split] * 3
        np.testing.assert_array_equal(got[2], imgs["c.pgm"])
    _, recs = load_corpus(plain)
    assert [r["split"] for r in recs] == ["train"] * 3
    # in a mixed manifest the labelled records serve only their own split
    mixed = tmp_path / "mixed.csv"
    write_manifest(mixed, [{**records[0], "split": ""}, records[1],
                           records[2]])
    for split, names in (("train", ["a.pgm", "b.pgm"]),
                         ("validate", ["a.pgm", "c.pgm"]),
                         ("validation_1", ["a.pgm"])):
        _, recs = load_corpus(mixed, split=split)
        assert [r["path"].name for r in recs] == names
        assert {r["split"] for r in recs} == {split}
    _, recs = load_corpus(mixed)
    assert [r["split"] for r in recs] == ["train", "train", "validate"]


def test_load_corpus_from_directory_and_subimages(tmp_path):
    for i, name in enumerate(["x.pgm", "y.pgm"]):
        write_pgm(tmp_path / name, synthetic_image(10, seed=20 + i))
    images, recs = load_corpus(tmp_path, size=10)
    assert len(images) == 2
    assert [Path(r["path"]).name for r in recs] == ["x.pgm", "y.pgm"]
    subs, srecs = load_corpus(tmp_path, size=6, subimage=True)
    assert len(subs) == 4
    assert all(s.shape == (6, 6) for s in subs)
    assert [r["tag"] for r in srecs] == ["nw", "se", "nw", "se"]
    full = read_pgm(tmp_path / "x.pgm")
    np.testing.assert_array_equal(subs[0], full[:6, :6])
    np.testing.assert_array_equal(subs[1], full[-6:, -6:])
    with pytest.raises(ValueError, match="needs a target size"):
        load_corpus(tmp_path, subimage=True)


def test_load_corpus_missing_path_is_file_not_found(tmp_path):
    # a path naming nothing is a missing manifest, not a list of paths
    for missing in (str(tmp_path / "missing.csv"), tmp_path / "missing"):
        with pytest.raises(FileNotFoundError):
            load_corpus(missing, split="train")


def test_read_manifest_rejects_bad_rows(tmp_path):
    # a wrong field count, a header row and a seed that is not an integer:
    # each error names the file and the record
    p = tmp_path / "m.csv"
    for row in ("a.pgm,train", "path,split,seed", "a.pgm,train,x"):
        p.write_text(f"{row}\n")
        with pytest.raises(ValueError, match="bad manifest record") as info:
            read_manifest(p)
        assert str(p) in str(info.value), row
    p.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="empty manifest"):
        read_manifest(p)
