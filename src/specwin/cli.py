"""Experiment driver.

Subcommands:

  gen       write the (possibly synthetic) corpus to disk as PGM previews
  train     learn scalar and per-window regularization parameters per estimator
  validate  apply frozen parameters to train/validation corpora, emit error tables
  report    reduce one or more validation reports to markdown + plot CSVs

A single flat JSON config drives everything; (config, seed) determines every
CSV/PGM/JSON output byte.  Wall-clock timings go to a separate plain-text log
so they cannot perturb the deterministic artifacts.

Exit codes: 0 success, 2 config error, 3 numerical infeasibility, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys as _sysmod
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (ConfigError, EmptyWindowError, InfeasibleError,
                     JointNullSpaceError, KernelSymmetryError,
                     SaturatedTraceError)
from .estimators import (MseObjective, NoiseModel, PooledObjectives,
                         estimate_sigma2)
from .optimize import SearchConfig, minimize_scalar, minimize_vector
from .problems import (DataSet, gaussian_psf, load_corpus, make_dataset,
                       read_manifest, synthetic_image, write_pgm)
from .solver import ParamVector, solve_windowed
from .spectral import SpectralSystem, dct_decompose
from .windows import (WindowSet, cosine_windows, indicator_windows,
                      make_partitions, trivial_window)

__all__ = ["ExperimentConfig", "EstimatorReport", "cmd_gen", "cmd_train",
           "cmd_validate", "cmd_report", "main"]

_WINDOW_KINDS = ("nonoverlap_linear", "nonoverlap_log",
                 "cosine_linear", "cosine_log")
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

    _KEYS = {
        "image_size": int, "xi": float, "snr_db": float, "seed": int,
        "penalty": str, "window_kind": str, "window_count": int,
        "estimators": list, "r_train": int, "val_count": int,
        "train_manifest": str, "validation1_manifest": str,
        "validation2_manifest": str, "sigma_mode": str, "r_sweep": bool,
        "include_best": bool, "corpus_label": str, "output_dir": str,
        "search": dict,
    }

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        raw = _load_json(path, "config")
        unknown = set(raw) - set(cls._KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"image_size", "xi", "snr_db", "seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        kwargs = dict(raw)
        if "estimators" in kwargs:
            kwargs["estimators"] = tuple(kwargs["estimators"])
        if "search" in kwargs:
            try:
                kwargs["search"] = SearchConfig(**kwargs["search"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad search settings: {exc}") from exc
        try:
            config = cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        config.validate()
        return config

    def validate(self) -> None:
        if self.image_size < 4:
            raise ConfigError(f"image_size must be >= 4, got {self.image_size}")
        if self.xi <= 0:
            raise ConfigError(f"xi must be positive, got {self.xi}")
        if self.penalty not in ("identity", "laplacian"):
            raise ConfigError(f"unknown penalty {self.penalty!r}")
        if self.window_kind not in _WINDOW_KINDS:
            raise ConfigError(f"unknown window_kind {self.window_kind!r}; "
                              f"expected one of {_WINDOW_KINDS}")
        if self.window_count < 1:
            raise ConfigError(f"window_count must be >= 1, got {self.window_count}")
        bad = [e for e in self.estimators if e not in _ESTIMATORS]
        if bad or not self.estimators:
            raise ConfigError(f"estimators must be a nonempty subset of "
                              f"{_ESTIMATORS}, got {self.estimators}")
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

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self._KEYS if k != "search"}
        d["estimators"] = list(self.estimators)
        d["search"] = {"alpha_min": self.search.alpha_min,
                       "alpha_max": self.search.alpha_max,
                       "grid_points": self.search.grid_points,
                       "tol": self.search.tol,
                       "max_iter": self.search.max_iter}
        return d


@dataclass
class EstimatorReport:
    """Validation result for one experiment run."""

    config: dict
    corpus: dict
    params: dict
    means: dict          # {estimator_mode: {split: mean_pct_error}}
    errors: dict         # {split: {estimator_mode: [per-image pct errors]}}
    boundary: dict       # {estimator_mode: flags}

    def to_dict(self) -> dict:
        return {"config": self.config, "corpus": self.corpus,
                "params": self.params, "means": self.means,
                "errors": self.errors, "boundary": self.boundary}


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


def relative_error_pct(xhat: np.ndarray, x: np.ndarray) -> float:
    """Percent relative error 100*||xhat - x||_2 / ||x||_2 (Frobenius)."""
    return 100.0 * float(np.linalg.norm(xhat - x) / np.linalg.norm(x))


# ---------------------------------------------------------------------------
# corpus assembly
# ---------------------------------------------------------------------------

def _image_seed(config: ExperimentConfig, split_idx: int, idx: int) -> int:
    ss = np.random.SeedSequence((config.seed, 1000 + split_idx, idx))
    return int(ss.generate_state(1)[0])


def _noise_seed(config: ExperimentConfig, split_idx: int, idx: int) -> int:
    ss = np.random.SeedSequence((config.seed, 2000 + split_idx, idx))
    return int(ss.generate_state(1)[0])


def _split_truths(config: ExperimentConfig, split: str) -> list[np.ndarray]:
    """Truth images for one split: external manifest if configured, else the
    synthetic corpus.  Deterministic ordering either way.

    A manifest (or directory) whose records carry none of the split labels
    serves every split with all of its records; a labelled manifest serves
    only its records of this split.
    """
    split_idx = _SPLITS.index(split)
    manifest = {"train": config.train_manifest,
                "validation_1": config.validation1_manifest,
                "validation_2": config.validation2_manifest}[split]
    count = config.r_train if split == "train" else config.val_count
    if manifest is not None:
        try:
            labelled = not Path(manifest).is_dir() and any(
                rec["split"] in _SPLITS for rec in read_manifest(manifest))
            images, _ = load_corpus(manifest, split=split if labelled else None,
                                    size=config.image_size)
        except ValueError as exc:
            raise ConfigError(f"{split} corpus {manifest}: {exc}") from exc
        if split == "train" and len(images) < config.r_train:
            raise ConfigError(f"r_train={config.r_train} exceeds training "
                              f"corpus size {len(images)}")
        return images[:count] if split == "train" else images
    return [synthetic_image(config.image_size,
                            _image_seed(config, split_idx, i))
            for i in range(count)]


def _split_datasets(config: ExperimentConfig, split: str) -> list[DataSet]:
    split_idx = _SPLITS.index(split)
    psf = gaussian_psf(config.xi, (config.image_size, config.image_size))
    return [make_dataset(x, psf, config.snr_db,
                         _noise_seed(config, split_idx, i))
            for i, x in enumerate(_split_truths(config, split))]


def _corpus_fingerprint(truths: Sequence[np.ndarray]) -> str:
    h = hashlib.sha256()
    for x in truths:
        h.update(np.ascontiguousarray(np.rint(x * 65535.0).astype(">u2")).tobytes())
    return h.hexdigest()[:16]


def _build_system(config: ExperimentConfig) -> SpectralSystem:
    psf = gaussian_psf(config.xi, (config.image_size, config.image_size))
    return dct_decompose(psf, penalty=config.penalty)


def _build_windows(config: ExperimentConfig, system: SpectralSystem,
                   P: int | None = None) -> WindowSet:
    P = config.window_count if P is None else P
    if P == 1:
        return trivial_window(system)
    spacing = "log" if config.window_kind.endswith("_log") else "linear"
    parts = make_partitions(system, P, spacing)
    if config.window_kind.startswith("cosine"):
        return cosine_windows(parts, system, spacing)
    return indicator_windows(parts, system, spacing)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(config: ExperimentConfig, verbose: bool = False) -> Path:
    """Write the corpus (truth, blurred, noisy previews) plus a manifest.

    d previews are clipped into [0,1] for PGM storage; downstream stages
    regenerate the exact noisy data from the stored seeds.
    """
    out = Path(config.output_dir) / "gen"
    out.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for split_idx, split in enumerate(_SPLITS):
        datasets = _split_datasets(config, split)
        split_dir = out / split
        split_dir.mkdir(exist_ok=True)
        for i, ds in enumerate(datasets):
            stem = f"img_{i:03d}"
            write_pgm(split_dir / f"{stem}_x.pgm", ds.x_true)
            write_pgm(split_dir / f"{stem}_b.pgm", ds.b)
            write_pgm(split_dir / f"{stem}_d.pgm", ds.d)
            meta = {"seed": ds.seed, "sigma2": ds.sigma2, "snr_db": ds.snr,
                    "dims": list(ds.dims), "xi": config.xi}
            (split_dir / f"{stem}.json").write_text(
                json.dumps(meta, sort_keys=True, indent=1) + "\n")
            manifest_lines.append(f"{split}/{stem}_x.pgm,{split},{ds.seed}")
        if verbose:
            print(f"gen: wrote {len(datasets)} data sets to {split_dir}")
    (out / "manifest.csv").write_text("\n".join(manifest_lines) + "\n")
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class _TrainContext:
    """Everything the estimator objectives need, computed once.

    dhats and noise may be passed in to reuse values computed for a larger
    context (see `subset`).  The objectives are prepared on first use, once
    per window set: the MSE objectives need truth images, and each search
    evaluates the pooled UPRE/GCV data of its window set.
    """

    def __init__(self, config: ExperimentConfig, datasets: list[DataSet],
                 system: SpectralSystem,
                 dhats: list[np.ndarray] | None = None,
                 noise: NoiseModel | None = None):
        self.config = config
        self.system = system
        self.datasets = datasets
        self.systems = [system] * len(datasets)
        self.truths = [ds.x_true for ds in datasets]
        self.data = [ds.d for ds in datasets]
        if dhats is None:
            dhats = [system.analyze(d) for d in self.data]
        self.dhats = dhats
        if noise is None:
            if config.sigma_mode == "estimate":
                sig = [estimate_sigma2(system, dh) for dh in self.dhats]
            else:
                sig = [ds.sigma2 for ds in datasets]
            noise = NoiseModel(sig)
        self.noise = noise
        self.trivial = trivial_window(system)
        self.windows = _build_windows(config, system)
        self.search = config.search

    def subset(self, r: int) -> "_TrainContext":
        """The context of the first r data sets."""
        return _TrainContext(self.config, self.datasets[:r], self.system,
                             dhats=self.dhats[:r],
                             noise=NoiseModel(self.noise.sigma2[:r]))

    @cached_property
    def mse_scalar(self) -> MseObjective:
        return MseObjective(self.systems, self.dhats, self.truths, self.trivial)

    @cached_property
    def mse_windowed(self) -> MseObjective:
        return MseObjective(self.systems, self.dhats, self.truths, self.windows)

    @cached_property
    def pooled_scalar(self) -> PooledObjectives:
        return PooledObjectives(self.systems, self.dhats, self.trivial, self.noise)

    @cached_property
    def pooled_windowed(self) -> PooledObjectives:
        return PooledObjectives(self.systems, self.dhats, self.windows, self.noise)

    @cached_property
    def pooled_warm(self) -> PooledObjectives:
        """Pooled data on the indicator windows over the configured
        partitions, whose separable searches warm-start the coupled ones."""
        if not self.windows.kind.startswith("cosine"):
            return self.pooled_windowed
        spacing = "log" if self.windows.kind.endswith("_log") else "linear"
        warm = indicator_windows(self.windows.partitions, self.system, spacing)
        return PooledObjectives(self.systems, self.dhats, warm, self.noise)


def _scalar_objective(ctx: _TrainContext, name: str):
    if name == "mse":
        return lambda a: ctx.mse_scalar([a])
    if name == "upre":
        return lambda a: ctx.pooled_scalar.upre([a])
    # both GCV variants share the scalar multi-data GCV ancestor, which is
    # the decoupled GCV of the single all-ones window
    return lambda a: ctx.pooled_scalar.gcv_window(0, a)


def _windowed_objective(ctx: _TrainContext, name: str):
    if name == "mse":
        return ctx.mse_windowed
    if name == "upre":
        return ctx.pooled_windowed.upre
    if name == "gcv_true":
        return ctx.pooled_windowed.gcv_true
    raise ValueError(f"no coupled objective for {name}")


def _train_separable(ctx: _TrainContext, name: str,
                     pooled: PooledObjectives) -> tuple[list, list, list, list]:
    """Per-window line searches for the separable/decoupled estimators."""
    window_objective = pooled.upre_window if name == "upre" else pooled.gcv_window
    alphas, values, flags, traces = [], [], [], []
    for p in range(pooled.P):
        obj = lambda a, p=p: window_objective(p, a)
        res = minimize_scalar(obj, ctx.search)
        alphas.append(res.alpha)
        values.append(res.value)
        flags.append(res.boundary)
        traces.append(res.trace)
    return alphas, values, flags, traces


def _train_windowed(ctx: _TrainContext, name: str) -> tuple[dict, list]:
    """Windowed training for one estimator: (params fragment, window traces)."""
    config = ctx.config
    P = config.window_count
    windows = ctx.windows
    entry: dict = {"P": P, "window_kind": config.window_kind}

    nonoverlap = windows.nonoverlapping
    if name in ("upre", "gcv_decoupled") and nonoverlap:
        alphas, values, flags, traces = _train_separable(
            ctx, name, ctx.pooled_windowed)
        entry["alphas"] = alphas
        entry["boundary"] = flags
        if name == "upre":
            entry["value"] = ctx.pooled_windowed.upre(alphas)
        else:
            entry["per_window_values"] = values
        return entry, traces

    # coupled estimators (and overlapping windows): warm start from the
    # matching non-overlapping solution, then simplex-descend the coupled
    # objective
    warm_name = "gcv_decoupled" if name.startswith("gcv") else "upre"
    if name == "mse":
        scal = minimize_scalar(_scalar_objective(ctx, "mse"), ctx.search)
        starts = [ParamVector(np.full(P, scal.alpha))]
    else:
        warm_alphas, _, _, _ = _train_separable(ctx, warm_name,
                                                ctx.pooled_warm)
        # two deterministic starts: the non-overlapping solution and the
        # scalar diagonal; coupled objectives can be multimodal and a
        # boundary-pinned warm start can trap the simplex in a corner basin
        starts = [ParamVector(warm_alphas), None]

    obj = _windowed_objective(ctx, name)
    res = min((minimize_vector(obj, P, ctx.search, warm_start=ws)
               for ws in starts), key=lambda r: r.value)
    entry["alphas"] = [float(a) for a in res.alphas.values]
    entry["value"] = res.value
    entry["boundary"] = [bool(b) for b in res.boundary]
    return entry, []


def cmd_train(config: ExperimentConfig, verbose: bool = False) -> Path:
    """Learn scalar and windowed parameters for every requested estimator."""
    t_start = time.perf_counter()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)

    system = _build_system(config)
    datasets = _split_datasets(config, "train")
    ctx = _TrainContext(config, datasets, system)
    for name in config.estimators:
        if name == "mse" and any(t is None for t in ctx.truths):
            raise ConfigError("mse estimator needs truth images")

    params: dict = {"estimators": {}}
    timing_lines = []
    trend_rows = []
    for name in config.estimators:
        t0 = time.perf_counter()
        scal = minimize_scalar(_scalar_objective(ctx, name), ctx.search)
        np.savetxt(traces_dir / f"{name}_scalar_trace.csv", scal.trace,
                   delimiter=",", header="alpha,value", comments="",
                   fmt="%.12g")
        windowed, win_traces = _train_windowed(ctx, name)
        for p, tr in enumerate(win_traces):
            np.savetxt(traces_dir / f"{name}_window{p}_trace.csv", tr,
                       delimiter=",", header="alpha,value", comments="",
                       fmt="%.12g")
        params["estimators"][name] = {
            "scalar": {"alpha": scal.alpha, "value": scal.value,
                       "boundary": scal.boundary},
            "windowed": windowed,
        }
        dt = time.perf_counter() - t0
        timing_lines.append(f"train {name}: {dt:.3f} s")
        if verbose:
            print(f"train {name}: scalar alpha={scal.alpha:.5g}, windowed "
                  f"alphas={windowed['alphas']}, {dt:.2f} s")
        if config.r_sweep:
            for r in range(1, len(datasets) + 1):
                sub = ctx.subset(r)
                res_r = minimize_scalar(_scalar_objective(sub, name), ctx.search)
                trend_rows.append((r, name, res_r.alpha))

    params["config"] = config.to_dict()
    params["corpus"] = {
        "fingerprint": _corpus_fingerprint(ctx.truths),
        "label": config.corpus_label or (
            "external" if config.train_manifest else "substitute-synthetic"),
        "r_train": len(datasets),
    }
    params["windows"] = {
        "P": config.window_count, "kind": config.window_kind,
        "partitions": [float(g) for g in ctx.windows.partitions],
    }
    path = out / "params.json"
    path.write_text(json.dumps(params, sort_keys=True, indent=1) + "\n")

    if trend_rows:
        with open(out / "trend.csv", "w") as fh:
            fh.write("R,estimator,alpha\n")
            for r, name, alpha in trend_rows:
                fh.write(f"{r},{name},{alpha:.12g}\n")

    timing_lines.append(f"train total: {time.perf_counter() - t_start:.3f} s")
    (out / "timings.txt").write_text("\n".join(timing_lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _solutions_errors(system: SpectralSystem, datasets: list[DataSet],
                      windows: WindowSet, alphas) -> list[float]:
    errs = []
    for ds in datasets:
        sol = solve_windowed(system, ds.d, windows, alphas)
        errs.append(relative_error_pct(sol.x, ds.x_true))
    return errs


def _per_image_best(system: SpectralSystem, datasets: list[DataSet],
                    windows: WindowSet, search: SearchConfig,
                    warm: ParamVector | None) -> list[float]:
    """Per-image minimal error achievable with this window setup (needs truth)."""
    errs = []
    for ds in datasets:
        obj = MseObjective([system], [system.analyze(ds.d)], [ds.x_true],
                           windows)
        if windows.P == 1:
            res = minimize_scalar(lambda a: obj(ParamVector([a])), search)
            best = ParamVector([res.alpha])
        else:
            best = minimize_vector(obj, windows.P, search, warm_start=warm).alphas
        sol = solve_windowed(system, ds.d, windows, best)
        errs.append(relative_error_pct(sol.x, ds.x_true))
    return errs


def cmd_validate(config: ExperimentConfig, params_path, verbose: bool = False) -> Path:
    """Apply frozen parameters to all corpora and emit the error tables."""
    t_start = time.perf_counter()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = _load_json(params_path, "parameters",
                        ("estimators", "corpus.fingerprint", "corpus.label"))
    for name, entry in params["estimators"].items():
        _require(entry, ("scalar.alpha", "scalar.boundary", "windowed.alphas",
                         "windowed.boundary"),
                 f"estimator {name!r} in parameters {params_path}")

    stored = params.get("windows", {})
    if (stored.get("P") != config.window_count
            or stored.get("kind") != config.window_kind):
        raise ConfigError(
            f"parameter/window mismatch: params were trained with "
            f"P={stored.get('P')} kind={stored.get('kind')}, config asks "
            f"P={config.window_count} kind={config.window_kind}")

    system = _build_system(config)
    windows = _build_windows(config, system)
    trivial = trivial_window(system)

    corpora: dict[str, list[DataSet]] = {}
    for split in _SPLITS:
        datasets = _split_datasets(config, split)
        if datasets:
            corpora[split] = datasets
    fingerprint = _corpus_fingerprint([ds.x_true for ds in corpora["train"]])
    if fingerprint != params["corpus"]["fingerprint"]:
        raise ConfigError(
            f"corpus mismatch: parameters were trained on corpus "
            f"{params['corpus']['fingerprint']}, this config's training split "
            f"is {fingerprint}")

    errors: dict = {split: {} for split in corpora}
    means: dict = {}
    boundary: dict = {}
    for name, entry in sorted(params["estimators"].items()):
        for mode in ("scalar", "windowed"):
            key = f"{name}_{mode}"
            if mode == "scalar":
                w, a = trivial, [entry["scalar"]["alpha"]]
                boundary[key] = entry["scalar"]["boundary"]
            else:
                w, a = windows, entry["windowed"]["alphas"]
                boundary[key] = entry["windowed"]["boundary"]
            means[key] = {}
            for split, datasets in corpora.items():
                errs = _solutions_errors(system, datasets, w, a)
                errors[split][key] = errs
                means[key][split] = float(np.mean(errs))

    if config.include_best:
        mse_entry = params["estimators"].get("mse")
        warm = (ParamVector(mse_entry["windowed"]["alphas"])
                if mse_entry and config.window_count > 1 else None)
        for mode, w in (("scalar", trivial), ("windowed", windows)):
            key = f"best_{mode}"
            means[key] = {}
            for split, datasets in corpora.items():
                if any(ds.x_true is None for ds in datasets):
                    continue
                errs = _per_image_best(system, datasets, w, config.search, warm)
                errors[split][key] = errs
                means[key][split] = float(np.mean(errs))

    report = EstimatorReport(
        config=config.to_dict(),
        corpus={"fingerprint": params["corpus"]["fingerprint"],
                "label": params["corpus"]["label"]},
        params={name: entry for name, entry in
                sorted(params["estimators"].items())},
        means=means, errors=errors, boundary=boundary)

    (out / "report.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")

    split_order = [s for s in _SPLITS if s in corpora]
    with open(out / "report.csv", "w") as fh:
        fh.write("estimator,mode," + ",".join(split_order) + "\n")
        for key in sorted(means):
            name, mode = key.rsplit("_", 1)
            cells = [f"{means[key][s]:.6f}" if s in means[key] else ""
                     for s in split_order]
            fh.write(f"{name},{mode}," + ",".join(cells) + "\n")
    for split in split_order:
        cols = sorted(errors[split])
        rows = max(len(errors[split][c]) for c in cols)
        with open(out / f"errors_{split}.csv", "w") as fh:
            fh.write("image," + ",".join(cols) + "\n")
            for i in range(rows):
                cells = [f"{errors[split][c][i]:.6f}"
                         if i < len(errors[split][c]) else "" for c in cols]
                fh.write(f"{i}," + ",".join(cells) + "\n")

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

def cmd_report(report_paths: Sequence, out_dir, verbose: bool = False) -> Path:
    """Reduce validation reports to a markdown table plus plot CSVs."""
    if not report_paths:
        raise ConfigError("empty report set: pass at least one report.json")
    reports = [_load_json(p, "report", ("config.r_train", "config.window_kind",
                                        "config.window_count", "corpus.label",
                                        "means", "errors"))
               for p in report_paths]
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
    except (InfeasibleError, SaturatedTraceError, JointNullSpaceError,
            EmptyWindowError, KernelSymmetryError) as exc:
        print(f"numerical infeasibility: {exc}", file=_sysmod.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sysmod.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
