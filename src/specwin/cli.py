"""Experiment driver.

Subcommands:

  gen       write the (possibly synthetic) corpus to disk as PGM previews
  train     learn scalar and per-window regularization parameters per estimator
  validate  apply frozen parameters to train/validation corpora, emit error tables
  report    reduce one or more validation reports to markdown + plot CSVs

A single flat JSON config drives everything; (config, seed) determines every
CSV/PGM/JSON output byte.  Wall-clock timings go to a separate plain-text log
so they cannot perturb the deterministic artifacts.

Every split serves its configured count: r_train images for train and
val_count for each validation split, drawn synthetically or taken as the
first records of a manifest or directory in file name order (a split that
holds fewer exits 2).  train and validate stream every split: a data set
is generated, used and dropped before the next one is drawn, so they hold
one image at a time.  train folds each set into a `DataPool`,
from which every objective (and each r_sweep step) is prepared; validate
scores each set as it comes.

Exit codes: 0 success, 2 config error, 3 numerical infeasibility, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys as _sysmod
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, SpecwinError
from .estimators import (DataPool, GcvObjective, MseObjective,
                         UpreObjective, estimate_sigma2)
from .optimize import SearchConfig, minimize_scalar, minimize_vector
from .problems import (DataSet, corpus_records, fit_to_size, gaussian_psf,
                       iter_datasets, load_image, synthetic_image,
                       write_manifest, write_pgm)
from .solver import ParamVector
from .spectral import SpectralSystem, dct_decompose
from .windows import KINDS, WindowSet, make_windows

__all__ = ["ExperimentConfig", "cmd_gen", "cmd_train", "cmd_validate",
           "cmd_report", "main"]

_ESTIMATORS = ("mse", "upre", "gcv_decoupled", "gcv_true")
_SPLITS = ("train", "validation_1", "validation_2")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description, loaded from a single JSON document."""

    image_size: int
    xi: float
    snr_db: float
    seed: int
    penalty: str = "identity"
    window_kind: str = "nonoverlap_linear"
    window_count: int = 2
    estimators: tuple[str, ...] = ("mse", "upre", "gcv_decoupled")
    r_train: int = 8
    val_count: int = 8
    train_manifest: str | None = None
    validation1_manifest: str | None = None
    validation2_manifest: str | None = None
    sigma_mode: str = "known"
    r_sweep: bool = False
    include_best: bool = True
    corpus_label: str | None = None
    output_dir: str = "out"
    search: SearchConfig = field(default_factory=SearchConfig)

    # the JSON types each key accepts (see _check_keys); null only where the
    # default is None
    _KEYS = {
        "image_size": int, "xi": float, "snr_db": float,
        "seed": int, "penalty": str, "window_kind": str, "window_count": int,
        "estimators": list, "r_train": int, "val_count": int,
        "train_manifest": (str, type(None)),
        "validation1_manifest": (str, type(None)),
        "validation2_manifest": (str, type(None)), "sigma_mode": str,
        "r_sweep": bool, "include_best": bool,
        "corpus_label": (str, type(None)), "output_dir": str, "search": dict,
    }

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        raw = _load_json(path, "config")
        _check_keys(raw, cls._KEYS, "config")
        missing = {"image_size", "xi", "snr_db", "seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        kwargs = dict(raw)
        if "estimators" in kwargs:
            kwargs["estimators"] = tuple(kwargs["estimators"])
        if "search" in kwargs:
            _check_keys(kwargs["search"],
                        {f.name: type(f.default) for f in fields(SearchConfig)},
                        "search")
            try:
                kwargs["search"] = SearchConfig(**kwargs["search"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad search settings: {exc}") from exc
        config = cls(**kwargs)
        config.validate()
        return config

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.image_size < 4:
            raise ConfigError(f"image_size must be >= 4, got {self.image_size}")
        if not 0 < self.xi < np.inf:
            raise ConfigError(f"xi must be positive and finite, got {self.xi}")
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ConfigError(f"snr_db must be a number or +Infinity "
                              f"(noiseless), got {self.snr_db}")
        if self.penalty not in ("identity", "laplacian"):
            raise ConfigError(f"unknown penalty {self.penalty!r}")
        if self.window_kind not in KINDS:
            raise ConfigError(f"unknown window_kind {self.window_kind!r}; "
                              f"expected one of {KINDS}")
        if self.window_count < 1:
            raise ConfigError(f"window_count must be >= 1, got {self.window_count}")
        bad = [e for e in self.estimators if e not in _ESTIMATORS]
        if (bad or not self.estimators
                or len(set(self.estimators)) < len(self.estimators)):
            raise ConfigError(f"estimators must be a nonempty subset of "
                              f"{_ESTIMATORS}, each named once, got "
                              f"{self.estimators}")
        if self.r_train < 1:
            raise ConfigError(f"r_train must be >= 1, got {self.r_train}")
        if self.val_count < 0:
            raise ConfigError(f"val_count must be >= 0, got {self.val_count}")
        if self.sigma_mode not in ("known", "estimate"):
            raise ConfigError(f"sigma_mode must be known|estimate, got "
                              f"{self.sigma_mode!r}")
        if ("gcv_decoupled" in self.estimators
                and self.window_kind.startswith("cosine")
                and self.window_count > 1):
            raise ConfigError("gcv_decoupled needs non-overlapping windows; "
                              "use nonoverlap_* kinds or drop the estimator")


def _is_json_type(value, want) -> bool:
    """Whether a JSON value has type `want`: an int serves as a float, and a
    bool only where a bool is declared."""
    want = (int, float) if want is float else want
    return isinstance(value, want) and isinstance(value, bool) == (want is bool)


def _check_keys(raw: dict, types: dict, what: str) -> None:
    """ConfigError unless every key of raw is in `types` with its JSON type."""
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in raw.items():
        if not _is_json_type(value, types[key]):
            raise ConfigError(f"{what} key {key!r} has the wrong type: {value!r}")


def _load_json(path, what: str, keys: Sequence[str] = ()) -> dict:
    """Read a JSON object holding every dotted key path in `keys`.

    Unreadable files, malformed JSON, a non-object document and a missing
    key all raise ConfigError naming the file.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    _require(doc, keys, f"{what} {path}")
    return doc


def _require(doc: dict, keys: Sequence[str], source: str) -> None:
    """ConfigError unless every dotted key path in `keys` exists in doc."""
    for key in keys:
        node = doc
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"{source} has no {key!r} entry")
            node = node[part]


# ---------------------------------------------------------------------------
# corpus assembly
# ---------------------------------------------------------------------------

def _split_seed(config: ExperimentConfig, stream: int, idx: int) -> int:
    """Seed of image idx in one stream: 1000 + split index draws the truth
    images, 2000 + split index their noise."""
    ss = np.random.SeedSequence((config.seed, stream, idx))
    return int(ss.generate_state(1)[0])


def _split_truths(config: ExperimentConfig, split: str) -> Iterator[np.ndarray]:
    """Truth images for one split, drawn lazily one image at a time.  The
    split's count is r_train for train and val_count for a validation
    split.  A synthetic split draws that many images; a manifest or
    directory split serves its first count records in file name order
    (problems.corpus_records: unlabelled records, and so every image of a
    directory, serve every split), fitted to image_size, and raises
    ConfigError before it reads an image if it holds fewer.
    """
    split_idx = _SPLITS.index(split)
    manifest = {"train": config.train_manifest,
                "validation_1": config.validation1_manifest,
                "validation_2": config.validation2_manifest}[split]
    key, count, name = (("r_train", config.r_train, "training")
                        if split == "train"
                        else ("val_count", config.val_count, split))
    if manifest is None:
        return (synthetic_image(config.image_size,
                                _split_seed(config, 1000 + split_idx, i))
                for i in range(count))
    try:
        records = corpus_records(manifest, split)
    except ValueError as exc:
        raise ConfigError(f"{split} corpus {manifest}: {exc}") from exc
    if len(records) < count:
        raise ConfigError(f"{key}={count} exceeds {name} corpus size "
                          f"{len(records)}")
    return (fit_to_size(load_image(r["path"]), config.image_size)
            for r in records[:count])


def _psf(config: ExperimentConfig) -> np.ndarray:
    try:
        return gaussian_psf(config.xi, (config.image_size, config.image_size))
    except ValueError as exc:
        raise ConfigError(f"blur kernel: {exc}") from exc


def _split_datasets(config: ExperimentConfig, split: str) -> Iterator[DataSet]:
    """One split's data sets, built one at a time as the caller takes them,
    under the configured PSF's one blur spectrum."""
    split_idx = _SPLITS.index(split)
    psf = _psf(config)
    truths = _split_truths(config, split)
    seeds = (_split_seed(config, 2000 + split_idx, i) for i in itertools.count())
    try:
        yield from iter_datasets(truths, psf, config.snr_db, seeds)
    except ValueError as exc:
        raise ConfigError(f"{split} data: {exc}") from exc


def _quantized(x: np.ndarray) -> bytes:
    """One truth as the 16-bit samples that the corpus fingerprint hashes:
    a corpus whose pixels move by rounding keeps its fingerprint."""
    return np.ascontiguousarray(np.rint(x * 65535.0).astype(">u2")).tobytes()


def _build_system(config: ExperimentConfig) -> SpectralSystem:
    return dct_decompose(_psf(config), penalty=config.penalty)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(config: ExperimentConfig, verbose: bool = False) -> Path:
    """Write the corpus (truth, blurred, noisy previews) plus a manifest,
    streaming each split: one data set in memory at a time.

    d previews are clipped into [0,1] for PGM storage; downstream stages
    regenerate the exact noisy data from the stored seeds.  Every split's
    count is checked before an earlier run's file is touched, and the
    earlier manifest goes before its previews do, so a gen that fails on an
    image leaves no manifest naming a missing file.
    """
    for split in _SPLITS:
        _split_truths(config, split)  # raises on a short split, reads no image
    out = Path(config.output_dir) / "gen"
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.csv").unlink(missing_ok=True)
    records = []
    for split in _SPLITS:
        split_dir = out / split
        split_dir.mkdir(exist_ok=True)
        for stale in split_dir.glob("img_*"):  # an earlier run's data sets
            stale.unlink()
        count = 0
        for ds in _split_datasets(config, split):
            stem = f"img_{count:03d}"
            write_pgm(split_dir / f"{stem}_x.pgm", ds.x_true)
            write_pgm(split_dir / f"{stem}_b.pgm", ds.b)
            write_pgm(split_dir / f"{stem}_d.pgm", ds.d)
            meta = {"seed": ds.seed, "sigma2": ds.sigma2, "snr_db": ds.snr,
                    "dims": list(ds.dims), "xi": config.xi}
            (split_dir / f"{stem}.json").write_text(
                json.dumps(meta, sort_keys=True, indent=1) + "\n")
            records.append({"path": split_dir / f"{stem}_x.pgm",
                            "split": split, "seed": ds.seed})
            count += 1
            del ds  # one data set in memory at a time
        if verbose:
            print(f"gen: wrote {count} data sets to {split_dir}")
    write_manifest(out / "manifest.csv", records)
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _write_trace(path: Path, trace) -> None:
    """One scalar search's evaluated (alpha, value) pairs as CSV."""
    np.savetxt(path, trace, delimiter=",", header="alpha,value", comments="",
               fmt="%.12g")


def _objective(name: str, pool: DataPool, windows: WindowSet):
    """One estimator's objective on one window set, prepared from the data
    sets folded into pool so far.  Both GCV variants share `GcvObjective`:
    its per-window form is the decoupled GCV, window(None, alpha) the scalar
    multi-data GCV."""
    cls = {"mse": MseObjective, "upre": UpreObjective}.get(name, GcvObjective)
    return cls.from_pool(pool, windows)


def _learn(objective, decoupled: bool, search: SearchConfig):
    """The search policy of `train` and of `validate`'s per-image best, on
    the objective over the configured windows: (scalar result, windowed
    parameters, per-window results or the coupled result).

    The scalar search is a line search on objective.window(None, .), the
    single all-ones window.  With one window the scalar result is the
    windowed one, its one per-window result.  Else each window gets a line
    search on objective.window(p, .), which reads partition cell p: window
    p where the windows do not overlap, else the indicator window over the
    same partitions.  These P + 1 line searches share one grid pass: at
    each grid alpha objective.windows_at filters the band once and gives
    every search its value, bit for bit window(p, alpha), so each search
    only refines and returns what it would return alone.  A coupled search
    starts from that solution
    and from the diagonal at the scalar alpha, and the lower end point wins
    (ties go to the first).  On 64x64, identity, cosine_log P=3, ten seeds,
    UPRE from the diagonal alone ends up to 8.1e-6 (relative) too high,
    while from the first start alone UPRE and the coupled GCV end within
    5.1e-14.  The diagonal stays as well: with it, the lower end point is
    never above the value at the scalar alpha on every window
    (test_validate_coupled_best_keeps_the_diagonal_start).
    """
    P = objective.P
    if P == 1:
        scalar = minimize_scalar(partial(objective.window, None), search)
        return scalar, ParamVector([scalar.alpha]), [scalar]
    grid = np.array([objective.windows_at(a) for a in search.grid])
    scalar, *per_window = [
        minimize_scalar(partial(objective.window, p), search,
                        grid_values=values)
        for p, values in zip([None, *range(P)], grid.T)]
    alphas = ParamVector([res.alpha for res in per_window])
    if decoupled:
        return scalar, alphas, per_window
    found = min((minimize_vector(objective, P, search, warm_start=ws)
                 for ws in (alphas, ParamVector(np.full(P, scalar.alpha)))),
                key=lambda res: res.value)
    return scalar, found.alphas, found


def cmd_train(config: ExperimentConfig, verbose: bool = False) -> Path:
    """Learn scalar and windowed parameters for every requested estimator
    by the search policy of _learn.

    The training sets stream through one `DataPool`: each is generated,
    analyzed, folded and dropped, and the corpus fingerprint is a running
    hash, so memory holds one image at a time.  An r_sweep learns the scalar
    parameter of the first r sets from the pool before set r + 1 joins it;
    r = R is the scalar result.
    """
    t_start = time.perf_counter()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    for stale in traces_dir.glob("*_trace.csv"):  # an earlier run's traces
        stale.unlink()

    system = _build_system(config)
    windows = make_windows(system, config.window_kind, config.window_count)
    search = config.search
    learn_mse = "mse" in config.estimators
    pool = DataPool(system)
    corpus = hashlib.sha256()
    sweep: dict = {name: [] for name in config.estimators}  # alpha at r < R
    for ds in _split_datasets(config, "train"):
        if config.r_sweep and pool.R:
            for name in config.estimators:  # no objective outlives its step
                sweep[name].append(minimize_scalar(partial(
                    _objective(name, pool, windows).window, None), search).alpha)
        corpus.update(_quantized(ds.x_true))
        dhat = system.analyze(ds.d)
        pool.fold(dhat, estimate_sigma2(system, dhat)
                  if config.sigma_mode == "estimate" else ds.sigma2,
                  ds.x_true if learn_mse else None, ds.truth_dct)
        del ds, dhat  # one data set in memory at a time

    params: dict = {"estimators": {}}
    timing_lines = [f"train data: {time.perf_counter() - t_start:.3f} s"]
    trend_rows = []
    for name in config.estimators:
        t0 = time.perf_counter()
        objective = _objective(name, pool, windows)
        decoupled = windows.nonoverlapping and name != "gcv_true"
        scal, alphas, found = _learn(objective, decoupled, search)
        _write_trace(traces_dir / f"{name}_scalar_trace.csv", scal.trace)
        windowed = {"alphas": [float(a) for a in alphas.values]}
        if isinstance(found, list):  # per-window results
            windowed["boundary"] = [res.boundary for res in found]
            if name == "gcv_decoupled":
                windowed["per_window_values"] = [res.value for res in found]
            else:
                windowed["value"] = objective(alphas)
            for p, res in enumerate(found):
                _write_trace(traces_dir / f"{name}_window{p}_trace.csv",
                             res.trace)
        else:
            windowed["value"] = found.value
            windowed["boundary"] = [bool(b) for b in found.boundary]
        params["estimators"][name] = {
            "scalar": {"alpha": scal.alpha, "value": scal.value,
                       "boundary": scal.boundary},
            "windowed": {"P": config.window_count,
                         "window_kind": config.window_kind, **windowed},
        }
        dt = time.perf_counter() - t0
        timing_lines.append(f"train {name}: {dt:.3f} s")
        if verbose:
            print(f"train {name}: scalar alpha={scal.alpha:.5g}, windowed "
                  f"alphas={windowed['alphas']}, {dt:.2f} s")
        if config.r_sweep:
            trend_rows += [(r, name, alpha) for r, alpha
                           in enumerate(sweep[name] + [scal.alpha], 1)]

    params["config"] = asdict(config)
    params["corpus"] = {
        "fingerprint": corpus.hexdigest()[:16],
        "label": config.corpus_label or (
            "external" if config.train_manifest else "substitute-synthetic"),
        "r_train": pool.R,
    }
    params["windows"] = {
        "P": config.window_count, "kind": config.window_kind,
        "partitions": [float(g) for g in windows.partitions],
    }
    path = out / "params.json"
    path.write_text(json.dumps(params, sort_keys=True, indent=1) + "\n")

    if trend_rows:
        with open(out / "trend.csv", "w") as fh:
            fh.write("R,estimator,alpha\n")
            for r, name, alpha in trend_rows:
                fh.write(f"{r},{name},{alpha:.12g}\n")
    else:
        (out / "trend.csv").unlink(missing_ok=True)

    timing_lines.append(f"train total: {time.perf_counter() - t_start:.3f} s")
    (out / "timings.txt").write_text("\n".join(timing_lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

# the settings that define the problem parameters were trained on: the
# operator, the penalty, the noise level and the windows
_TRAINED_UNDER = ("image_size", "xi", "snr_db", "penalty", "window_kind",
                  "window_count")


def _stored_params(values, P: int, source: str) -> ParamVector:
    """The stored parameters of one run; ConfigError unless they are a list
    of P positive finite numbers."""
    if not (isinstance(values, list) and len(values) == P
            and all(_is_json_type(v, float) for v in values)):
        raise ConfigError(f"{source}: need {P} positive number(s), got {values!r}")
    try:
        return ParamVector(values)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def cmd_validate(config: ExperimentConfig, params_path, verbose: bool = False) -> Path:
    """Apply frozen parameters to all corpora and emit the error tables.
    Each data set is scored as it is generated and then dropped: it is
    analyzed once and folded, with the truth's DCT that its blur took, into
    a one-set pool, and every run is scored by that data set's MSE
    objective from the pool: 100 sqrt(mse(alphas)) / ||x_true|| is the
    percent relative solution error, and no solution image is formed.  The
    per-image best (include_best) is train's MSE search policy (_learn) on
    that one data set.  The training split's fingerprint is checked when
    that split ends, before any output file is written or removed."""
    t_start = time.perf_counter()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = _load_json(params_path, "parameters",
                        ("estimators", "corpus.fingerprint", "corpus.label")
                        + tuple(f"config.{key}" for key in _TRAINED_UNDER))
    if not isinstance(params["estimators"], dict) or not params["estimators"]:
        raise ConfigError(f"parameters {params_path} hold no estimators")
    for key in _TRAINED_UNDER:
        stored, asked = params["config"][key], getattr(config, key)
        if stored != asked:
            raise ConfigError(
                f"parameter/config mismatch: params were trained with "
                f"{key}={stored!r}, config asks {key}={asked!r}")

    system = _build_system(config)
    windows = make_windows(system, config.window_kind, config.window_count)
    # run key -> (mode, stored parameters, or None for the per-image best)
    runs: dict = {}
    boundary: dict = {}
    for name, entry in sorted(params["estimators"].items()):
        source = f"estimator {name!r} in parameters {params_path}"
        if name not in _ESTIMATORS:
            raise ConfigError(f"{source}: not one of {_ESTIMATORS}")
        _require(entry, ("scalar.alpha", "scalar.boundary", "windowed.alphas",
                         "windowed.boundary"), source)
        for mode, P, values in (("scalar", 1, [entry["scalar"]["alpha"]]),
                                ("windowed", windows.P,
                                 entry["windowed"]["alphas"])):
            key = f"{name}_{mode}"
            runs[key] = (mode, _stored_params(values, P, f"{source}, {mode}"))
            boundary[key] = entry[mode]["boundary"]
    if config.include_best:
        runs.update({f"best_{mode}": (mode, None)
                     for mode in ("scalar", "windowed")})

    errors: dict = {}  # {split: {run key: [per-image pct errors]}}
    corpus = hashlib.sha256()  # of the training split
    for split in _SPLITS:
        table = {key: [] for key in runs}
        for ds in _split_datasets(config, split):
            if split == "train":
                corpus.update(_quantized(ds.x_true))
            dhat = system.analyze(ds.d)
            pool = DataPool(system)
            pool.fold(dhat, 0.0, ds.x_true, ds.truth_dct)
            mse = MseObjective.from_pool(pool, windows)
            del pool  # the objective owns its arrays
            if config.include_best:
                scal, alphas, _ = _learn(mse, windows.nonoverlapping,
                                         config.search)
                best = {"scalar": ParamVector([scal.alpha]), "windowed": alphas}
            norm = float(np.linalg.norm(ds.x_true))
            for key, (mode, alphas) in runs.items():
                if alphas is None:
                    alphas = best[mode]
                value = (mse(alphas) if mode == "windowed"
                         else mse.window(None, alphas.values[0]))
                table[key].append(float(100.0 * np.sqrt(value) / norm))
            del ds, dhat, mse  # one data set in memory at a time
        if split == "train":
            fingerprint = corpus.hexdigest()[:16]
            if fingerprint != params["corpus"]["fingerprint"]:
                raise ConfigError(
                    f"corpus mismatch: parameters were trained on corpus "
                    f"{params['corpus']['fingerprint']}, this config's "
                    f"training split is {fingerprint}")
        if any(table.values()):
            errors[split] = table
        else:
            (out / f"errors_{split}.csv").unlink(missing_ok=True)
    means = {key: {split: float(np.mean(table[key]))
                   for split, table in errors.items()} for key in runs}

    report = {"config": asdict(config),
              "corpus": {"fingerprint": params["corpus"]["fingerprint"],
                         "label": params["corpus"]["label"]},
              "params": params["estimators"], "means": means,
              "errors": errors, "boundary": boundary}
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=1) + "\n")

    with open(out / "report.csv", "w") as fh:
        fh.write("estimator,mode," + ",".join(errors) + "\n")
        for key in sorted(means):
            name, mode = key.rsplit("_", 1)
            fh.write(f"{name},{mode},"
                     + ",".join(f"{v:.6f}" for v in means[key].values()) + "\n")
    for split, table in errors.items():
        cols = sorted(table)
        with open(out / f"errors_{split}.csv", "w") as fh:
            fh.write("image," + ",".join(cols) + "\n")
            for i, row in enumerate(zip(*(table[c] for c in cols))):
                fh.write(f"{i}," + ",".join(f"{e:.6f}" for e in row) + "\n")

    with open(out / "timings.txt", "a") as fh:
        fh.write(f"validate total: {time.perf_counter() - t_start:.3f} s\n")
    if verbose:
        for key in sorted(means):
            print(f"validate {key}: " + ", ".join(
                f"{s}={v:.3f}%" for s, v in means[key].items()))
    return out / "report.json"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _load_report(path) -> dict:
    """One report.json; ConfigError unless `means` maps <name>_<mode> keys to
    objects of numbers and `errors` maps splits to objects of number lists
    under the same kind of keys."""
    rep = _load_json(path, "report", ("config.r_train", "config.window_kind",
                                      "config.window_count", "corpus.label",
                                      "means", "errors"))

    def numbers(values) -> bool:
        return all(_is_json_type(v, float) for v in values)

    def runs_of(value, cell) -> bool:
        """Whether value maps <name>_<mode> keys to values passing cell."""
        return (isinstance(value, dict) and all("_" in key for key in value)
                and all(map(cell, value.values())))

    errors = rep["errors"]
    if not (isinstance(rep["corpus"]["label"], str)
            and runs_of(rep["means"], lambda row: isinstance(row, dict)
                        and numbers(row.values()))
            and isinstance(errors, dict)
            and all(runs_of(table, lambda errs: isinstance(errs, list)
                            and numbers(errs)) for table in errors.values())):
        raise ConfigError(f"report {path} is malformed: need a string corpus "
                          f"label, means {{name_mode: {{split: number}}}} and "
                          f"errors {{split: {{name_mode: [number, ...]}}}}")
    return rep


def cmd_report(report_paths: Sequence, out_dir, verbose: bool = False) -> Path:
    """Reduce validation reports to a markdown table plus plot CSVs."""
    if not report_paths:
        raise ConfigError("empty report set: pass at least one report.json")
    reports = [_load_report(p) for p in report_paths]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    splits = sorted({s for rep in reports for key in rep["means"]
                     for s in rep["means"][key]},
                    key=lambda s: (_SPLITS.index(s) if s in _SPLITS else 99))
    lines = ["# Averaged percent relative errors", ""]
    header = ["R", "windows", "corpus", "estimator", "mode"] + splits
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for rep in reports:
        cfg = rep["config"]
        for key in sorted(rep["means"]):
            name, mode = key.rsplit("_", 1)
            cells = [str(cfg["r_train"]),
                     f"{cfg['window_kind']}:P{cfg['window_count']}",
                     rep["corpus"]["label"], name, mode]
            cells += [f"{rep['means'][key][s]:.2f}"
                      if s in rep["means"][key] else "" for s in splits]
            lines.append("| " + " | ".join(cells) + " |")
    (out / "summary.md").write_text("\n".join(lines) + "\n")

    with open(out / "boxplot.csv", "w") as fh:
        fh.write("report,split,estimator,mode,min,q1,median,q3,max\n")
        for ridx, rep in enumerate(reports):
            for split, table in sorted(rep["errors"].items()):
                for key, errs in sorted(table.items()):
                    if not errs:
                        continue
                    name, mode = key.rsplit("_", 1)
                    q = np.quantile(errs, [0.0, 0.25, 0.5, 0.75, 1.0])
                    fh.write(f"{ridx},{split},{name},{mode},"
                             + ",".join(f"{v:.6f}" for v in q) + "\n")

    if verbose:
        print(f"report: wrote {out / 'summary.md'} and boxplot.csv "
              f"({len(reports)} report(s))")
    return out / "summary.md"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specwin",
        description="Spectral-windowed regularization experiments")
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the config output directory")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="write the corpus to disk")
    sub.add_parser("train", help="learn regularization parameters")
    val = sub.add_parser("validate", help="apply frozen parameters")
    val.add_argument("--params", help="params.json path "
                                      "(default: <out>/params.json)")
    rep = sub.add_parser("report", help="summarize validation reports")
    rep.add_argument("reports", nargs="*", help="report.json paths "
                     "(default: <out>/report.json)")
    return parser


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
        config.validate()
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    return config


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            cmd_gen(_load_config(args), verbose=args.verbose)
        elif args.command == "train":
            cmd_train(_load_config(args), verbose=args.verbose)
        elif args.command == "validate":
            config = _load_config(args)
            params = args.params or str(Path(config.output_dir) / "params.json")
            cmd_validate(config, params, verbose=args.verbose)
        elif args.command == "report":
            if args.reports:
                paths, out = args.reports, args.out or "."
            else:
                if not (args.out or args.config):
                    raise ConfigError("report needs paths, --out, or --config")
                base = args.out or ExperimentConfig.from_json(args.config).output_dir
                paths, out = [str(Path(base) / "report.json")], base
            cmd_report(paths, out, verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sysmod.stderr)
        return 2
    except SpecwinError as exc:
        print(f"numerical infeasibility: {exc}", file=_sysmod.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sysmod.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
