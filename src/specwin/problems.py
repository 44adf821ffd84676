"""Test-problem construction and corpus I/O.

Provides the pieces the experiment driver assembles: circularly symmetric
Gaussian point-spread functions, exact-SNR noise injection, data sets built
one at a time from a stream of truths under one blur spectrum
(`iter_datasets`; `make_datasets` is its list; `spectral.blur_spectrum`,
re-exported here with `blur`, builds and keeps the spectrum), and a small
grayscale corpus toolchain: binary PGM + CSV matrices, manifest files,
`corpus_records` (the records of a manifest or a directory that serve one
split, in file name order, which a caller loads one at a time with
`fit_to_size(load_image(r["path"]), size)`), and a synthetic
cratered-terrain generator used when no external imagery is available.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .spectral import _dct2, _idct2, blur, blur_spectrum

__all__ = [
    "DataSet",
    "gaussian_psf",
    "blur",
    "blur_spectrum",
    "add_noise",
    "make_dataset",
    "make_datasets",
    "iter_datasets",
    "synthetic_image",
    "read_pgm",
    "write_pgm",
    "load_image",
    "fit_to_size",
    "corpus_records",
    "read_manifest",
    "write_manifest",
]


@dataclass(frozen=True)
class DataSet:
    """One blurred-and-noisy observation with its provenance.

    b is exactly blur(x_true); d = b + e with e scaled so the achieved SNR
    matches the target to rounding; sigma2 = ||e||^2 / size is the noise
    power of d - b to 1e-6 relative.
    truth_dct, where kept (`iter_datasets` keeps it), is the orthonormal
    2D DCT-II of x_true that the blur took, so that a DCT system need not
    transform the truth again (`DataPool.fold`).
    """

    x_true: np.ndarray
    b: np.ndarray
    d: np.ndarray
    sigma2: float
    snr: float
    seed: int
    dims: tuple[int, int]
    truth_dct: np.ndarray | None = None


def gaussian_psf(xi: float, size: tuple[int, int]) -> np.ndarray:
    """Unit-sum circular Gaussian kernel exp(-(x^2+y^2)/(2 xi)) sampled on
    the integer grid centered at the peak.

    The grid x_i = i - (h-1)/2 is symmetric for odd and even sizes alike, so
    the kernel equals its flips exactly.
    """
    if xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    h, w = size
    if h < 3 or w < 3:
        raise ValueError(f"kernel size must be at least 3x3, got {size}")
    y = np.arange(h) - (h - 1) / 2.0
    x = np.arange(w) - (w - 1) / 2.0
    k = np.exp(-(y[:, None] ** 2 + x[None, :] ** 2) / (2.0 * xi))
    total = k.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"xi={xi} gives a kernel sum of {total}, not a "
                         f"positive finite number")
    return k / total


def add_noise(b: np.ndarray, target_snr_db: float, seed) -> tuple[np.ndarray, float]:
    """Add white Gaussian noise scaled so 10*log10(||b||^2/||e||^2) hits the
    target exactly.  A target of +inf returns the data untouched; NaN, -inf,
    targets whose noise scale overflows or underflows, and finite targets
    whose noise is lost, wholly (d == b) or in part, when added to b raise
    ValueError: in part means ||d - b||^2 differs from ||e||^2 by more than
    1e-6 relative, so the returned sigma2 would not describe d."""
    d, sigma2, _ = _noisy(b, target_snr_db, seed)
    return d, sigma2


def _noisy(b: np.ndarray, target_snr_db: float, seed):
    """add_noise's (d, sigma2) and the achieved SNR 10*log10(||b||^2 /
    ||d - b||^2) in dB, from the sums its checks take.  Every sum of squares
    goes through one scratch buffer the size of b."""
    b = np.asarray(b, dtype=float)
    if np.isnan(target_snr_db) or target_snr_db == -np.inf:
        raise ValueError(f"SNR target must be a number or +inf, got {target_snr_db}")
    if target_snr_db == np.inf:
        return b.copy(), 0.0, float("inf")
    buf = np.empty_like(b)
    bnorm2 = _sum_of_squares(b, buf)
    if bnorm2 == 0.0:
        raise ValueError("zero-signal SNR undefined")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    e = rng.standard_normal(b.shape)
    enorm2 = _sum_of_squares(e, buf)
    if enorm2 == 0.0:
        raise ValueError("degenerate zero noise draw")
    # a target whose power ratio overflows or underflows (a Python float
    # raises, a numpy one saturates) has no positive finite noise scale
    try:
        with np.errstate(over="ignore", divide="ignore"):
            scale = np.sqrt(bnorm2 / (enorm2 * 10.0 ** (target_snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if not 0.0 < scale < np.inf:
        raise ValueError(f"SNR target {target_snr_db} dB is out of range")
    e *= scale
    d = b + e
    # noise far below the rounding step of b is lost in the sum, wholly (the
    # achieved SNR would be infinite) or in part (it would miss the target,
    # and sigma2 would overstate the noise in d)
    kept = _sum_of_squares(np.subtract(d, b, out=buf), buf)
    if kept == 0.0:
        raise ValueError(f"SNR target {target_snr_db} dB is out of range: "
                         f"the noise vanishes when added to the data")
    # summed again after scaling, not taken as scale**2 * enorm2: sigma2's
    # bits rest on this sum
    noise2 = _sum_of_squares(e, buf)
    if abs(kept / noise2 - 1.0) > 1e-6:
        raise ValueError(f"SNR target {target_snr_db} dB is out of range: "
                         f"part of the noise is lost to rounding when added "
                         f"to the data")
    return d, noise2 / b.size, float(10.0 * np.log10(bnorm2 / kept))


def _sum_of_squares(x: np.ndarray, buf: np.ndarray) -> float:
    """np.sum(x ** 2), bit for bit, squaring into buf (which may be x)."""
    return float(np.add.reduce(np.square(x, out=buf), axis=None))


def make_dataset(x_true: np.ndarray, psf: np.ndarray, snr_db: float,
                 seed: int) -> DataSet:
    """Blur a truth image and inject seeded noise at the requested SNR."""
    return make_datasets([x_true], psf, snr_db, [seed])[0]


def make_datasets(truths: Sequence[np.ndarray], psf: np.ndarray,
                  snr_db: float, seeds: Sequence[int]) -> list[DataSet]:
    """make_dataset(x, psf, snr_db, seed) for each truth and its noise seed,
    with one blur spectrum for all of them: the list of iter_datasets.

    There must be one seed per truth, checked first; iter_datasets checks
    each truth's shape, and as the list is returned only once complete, a
    bad truth anywhere raises before any data set reaches the caller.  An
    empty list builds no spectrum and returns [].
    """
    if len(truths) != len(seeds):
        raise ValueError(f"{len(truths)} truth images but {len(seeds)} seeds")
    return list(iter_datasets(truths, psf, snr_db, seeds))


def iter_datasets(truths: Iterable[np.ndarray], psf: np.ndarray,
                  snr_db: float, seeds: Iterable[int]) -> Iterator[DataSet]:
    """make_dataset(x, psf, snr_db, seed) for each truth in turn, paired
    with the seeds as zip pairs them, so that a caller can hold one data set
    at a time.  Each truth must be 2D with the shape of the first, and one
    that is not raises when it is reached.  The first truth fixes that shape
    and takes the one blur spectrum; no truth takes no spectrum.  Each set
    keeps the truth's DCT that its blur took (`DataSet.truth_dct`).
    """
    dims = None
    for x_true, seed in zip(truths, seeds):
        x_true = np.asarray(x_true, dtype=float)
        if x_true.ndim != 2:
            raise ValueError("image must be 2D")
        if dims is None:
            dims = x_true.shape
            a = blur_spectrum(psf, dims)
        elif x_true.shape != dims:
            raise ValueError(f"truth images differ in shape from {dims}")
        t = _dct2(x_true)
        b = _idct2(a * t)
        d, sigma2, achieved = _noisy(b, snr_db, seed)
        yield DataSet(x_true=x_true, b=b, d=d, sigma2=sigma2, snr=achieved,
                      seed=int(seed), dims=(dims[0], dims[1]), truth_dct=t)
        del x_true, t, b, d  # the caller's set dies before the next is drawn


# A crater's ridge rim*exp(-((dist-1)/0.12)**2) is exactly 0.0 once the
# exponent passes ~745 (dist > 1 + 0.12*sqrt(745) ~ 4.28), where exp
# underflows, and its bowl is 0 from dist 1 on.  So a crater changes no pixel
# farther than this many radii from its center along either axis; 800 in
# place of 745 leaves room for the rounding of dist.
_CRATER_REACH = 1.0 + 0.12 * np.sqrt(800.0)


def _crater_reach(rim: float, low: float) -> float:
    """Radii past which a crater of this rim changes no pixel of magnitude
    at least low (all of them if low is 0): at most _CRATER_REACH.

    With low = f*2**e, f in [0.5, 1), t = 2**(e-56) is a quarter of half the
    float spacing in low's binade.  Next to any value v with |v| >= low it
    is at most half of half the spacing, even toward 0 from v = -2**(e-1),
    where the spacing halves.  At the returned reach the ridge is t/e, and
    it falls farther out, so there v + ridge rounds back to v (Goldberg,
    ACM Computing Surveys 1991).  The factor e leaves room for the rounding
    of dist and of exp.
    """
    if low == 0.0:
        return _CRATER_REACH
    e = np.frexp(low)[1]
    log_rim_over_t = np.log(rim) - (e - 56) * np.log(2.0)  # t may underflow
    return float(min(_CRATER_REACH, 1.0 + 0.12 * np.sqrt(log_rim_over_t + 1.0)))


def _crater_span(center: float, reach: float, size: int) -> slice:
    """Grid indices i whose coordinate i/size lies within reach of center,
    plus one index of padding on each side."""
    return slice(max(int((center - reach) * size) - 1, 0),
                 min(int((center + reach) * size) + 2, size))


def synthetic_image(size: int, seed, craters: int | None = None) -> np.ndarray:
    """Cratered-terrain stand-in for the experiment corpus.

    Smooth low-frequency background plus randomly placed bowl-and-rim
    craters: piecewise-smooth content with sharp circular edges, in [0,1].

    The background is four terms c cos(2 pi (fx x + fy y) + phase), each
    built by angle addition from 4*size cosines and sines of one row and
    one column, broadcast without a matrix product so that the image does
    not depend on the BLAS; it differs from the cosine evaluated at every
    pixel by rounding (at most ~1e-15).  Each crater is added only on its
    box of rows and columns within _crater_reach(rim, low) radii of its
    center, where low is the least |pixel| in its _CRATER_REACH box, and
    that is exact.  Past _CRATER_REACH radii its ridge underflows to exactly
    0.0; past _crater_reach it is positive but below a quarter of half the
    float spacing of every pixel in the box, so adding it rounds back to
    the pixel.  Its bowl is 0 in both.  A typical box shrinks from ~4.4 to
    ~1.8 radii.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # i/size, the coordinate of row i and of column i
    axis = np.arange(size, dtype=float) / size
    img = np.zeros((size, size))
    for _ in range(4):
        fx, fy = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c = rng.uniform(0.3, 1.0)
        # c cos(a + b) = c cos b cos a - c sin b sin a, by columns and rows
        a = 2.0 * np.pi * fx * axis + phase
        b = 2.0 * np.pi * fy * axis
        img += (c * np.cos(b))[:, None] * np.cos(a)
        img -= (c * np.sin(b))[:, None] * np.sin(a)
    img = 0.35 + 0.25 * (img - img.min()) / max(np.ptp(img), 1e-12)

    k = int(craters) if craters is not None else int(rng.integers(8, 16))
    for _ in range(k):
        cx, cy = rng.uniform(0.05, 0.95, size=2)
        r = rng.uniform(0.04, 0.16)
        depth = rng.uniform(0.15, 0.35)
        rim = rng.uniform(0.10, 0.25)
        rows = _crater_span(cy, _CRATER_REACH * r, size)
        cols = _crater_span(cx, _CRATER_REACH * r, size)
        reach = _crater_reach(rim, float(np.abs(img[rows, cols]).min())) * r
        rows = _crater_span(cy, reach, size)
        cols = _crater_span(cx, reach, size)
        dist = np.hypot(axis[cols] - cx, axis[rows, None] - cy) / r
        bowl = np.where(dist < 1.0, depth * (1.0 - dist ** 2), 0.0)
        ridge = rim * np.exp(-((dist - 1.0) / 0.12) ** 2)
        img[rows, cols] += ridge - bowl
    return np.clip(img, 0.0, 1.0)


# ---------------------------------------------------------------------------
# PGM / CSV image I/O and corpus handling
# ---------------------------------------------------------------------------

def write_pgm(path, image: np.ndarray, maxval: int = 65535) -> None:
    """Binary PGM (P5) writer; 16-bit samples are big-endian per the format.
    Input intensities are clipped to [0,1] before quantization."""
    if maxval not in (255, 65535):
        raise ValueError(f"maxval must be 255 or 65535, got {maxval}")
    arr = np.clip(np.asarray(image, dtype=float), 0.0, 1.0)
    quant = np.rint(arr * maxval)
    data = quant.astype(">u2" if maxval > 255 else "u1")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5) reader returning float intensities in [0,1]."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments running to end of line
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        m = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", raw[pos:])
        if m is None:
            raise ValueError(f"{path}: malformed PGM header")
        tokens.append(int(m.group(1)))
        pos += m.end()
    w, h, maxval = tokens
    if w == 0 or h == 0:
        raise ValueError(f"{path}: PGM has zero width or height ({w}x{h})")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval {maxval} outside 1..65535")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    count = w * h
    if len(raw) - pos < count * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    pix = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    return pix.reshape(h, w).astype(float) / maxval


def load_image(path) -> np.ndarray:
    """Read one grayscale image (PGM or CSV matrix) as floats in [0,1]."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        arr = np.atleast_2d(np.loadtxt(p, delimiter=",", dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: CSV image holds a NaN or infinite sample")
        lo, hi = float(arr.min()), float(arr.max())
        if lo < 0.0 or hi > 1.0:
            arr = (arr - lo) / (hi - lo) if hi > lo else np.zeros_like(arr)
        return arr
    if p.suffix.lower() in (".pgm", ".pnm"):
        return read_pgm(p)
    raise ValueError(f"{path}: unsupported image format (PGM or CSV only)")


def fit_to_size(image: np.ndarray, size: int) -> np.ndarray:
    """Center-crop larger images to size x size; interpolate smaller ones up."""
    h, w = image.shape
    if h < size or w < size:
        from scipy import ndimage  # ~0.08 s to import, and only zoom needs it

        image = ndimage.zoom(image, (size / h, size / w), order=1)
        image = np.clip(image, 0.0, 1.0)
        h, w = image.shape
    r0 = (h - size) // 2
    c0 = (w - size) // 2
    return image[r0:r0 + size, c0:c0 + size].copy()


def read_manifest(path) -> list[dict]:
    """Corpus manifest: one `path,split,seed` record per line, paths
    resolved relative to the manifest location; an empty split column
    leaves the record unlabelled (split "").  A directory reads as the
    manifest of its PGM, PNM and CSV files: unlabelled, in file name order,
    seeded by position, and empty if it holds none.  corpus_records keeps
    the records that serve one split, and gives an unlabelled one that
    split."""
    if Path(path).is_dir():
        paths = sorted(p for p in Path(path).iterdir()
                       if p.suffix.lower() in (".pgm", ".pnm", ".csv"))
        return [{"path": p, "split": "", "seed": i}
                for i, p in enumerate(paths)]
    base = Path(path).parent
    records = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:  # three fields, the last an integer seed
                name, split, seed = row
                records.append({"path": (base / name.strip()).resolve(),
                                "split": split.strip(), "seed": int(seed)})
            except ValueError:
                raise ValueError(f"{path}: bad manifest record {row!r}") from None
    if not records:
        raise ValueError(f"{path}: empty manifest")
    return records


def write_manifest(path, records: Iterable[dict]) -> None:
    base = Path(path).parent
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for rec in records:
            rel = Path(rec["path"])
            try:
                rel = rel.relative_to(base)
            except ValueError:
                pass
            writer.writerow([rel.as_posix(), rec["split"], rec["seed"]])


def corpus_records(source, split: str) -> list[dict]:
    """The records of a manifest file or a directory (read_manifest) that
    serve one split, in file name order.

    An unlabelled record (every record of a directory) takes the requested
    split; a labelled one serves only its own.  A source naming nothing
    raises FileNotFoundError, and no matching record raises ValueError.
    """
    records = sorted(({**r, "split": split} for r in read_manifest(source)
                      if r["split"] in ("", split)),
                     key=lambda r: Path(r["path"]).name)
    if not records:
        raise ValueError("empty corpus: no records match the requested split")
    return records
