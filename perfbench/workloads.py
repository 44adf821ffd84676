"""The benchmark's workloads: inputs from a seed, stages, and output checks.

* ``desk``: the 256x256 desk experiment through ``specwin.cli`` (criterion
  08's configuration with ``include_best``); time goes to the inverse DCTs
  inside ``mse_learning``.
* ``coupled``: 128x128 with a Laplacian penalty and overlapping cosine
  windows through ``specwin.cli``; time goes to the coupled Nelder-Mead
  search on ``gcv_windowed_true_md``, with no transform in the search loop.
* ``dense``: a 32x32 reflexive Gaussian blur as a dense 1024x1024 matrix with
  a 2-D difference (Laplacian) penalty on the GSVD backend, driven at library
  level by ``dense_train``/``dense_validate`` below.

Every workload exposes the same methods: ``setup`` builds the spectral system
and all data sets through the public constructors (what ``setup_s`` times),
``train`` and ``validate`` run one stage into a directory, ``check`` returns
named pass/fail output checks for a repetition's directory, and ``errors``
reads the windowed estimators' validation errors.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import specwin as sw
from specwin import cli

SPLITS = ("train", "validation_1", "validation_2")


def split_seed(seed: int, stream: int, idx: int) -> int:
    """Per-image seed; the same derivation specwin.cli uses for its corpus."""
    return int(np.random.SeedSequence((seed, stream, idx)).generate_state(1)[0])


def make_windows(system, kind: str, P: int):
    if P == 1:
        return sw.trivial_window(system)
    spacing = "log" if kind.endswith("_log") else "linear"
    parts = sw.make_partitions(system, P, spacing)
    if kind.startswith("cosine"):
        return sw.cosine_windows(parts, system, spacing)
    return sw.indicator_windows(parts, system, spacing)


def make_datasets(size: int, psf, snr_db: float, seed: int,
                  counts: dict, flatten: bool = False) -> dict:
    out = {}
    for k, split in enumerate(SPLITS):
        sets = []
        for i in range(counts[split]):
            x = sw.synthetic_image(size, split_seed(seed, 1000 + k, i))
            ds = sw.make_dataset(x, psf, snr_db, split_seed(seed, 2000 + k, i))
            if flatten:
                ds = replace(ds, x_true=ds.x_true.ravel(), b=ds.b.ravel(),
                             d=ds.d.ravel())
            sets.append(ds)
        out[split] = sets
    return out


def input_properties(system, windows, r_train: int) -> dict:
    return {"n": system.n, "m": system.m, "ell": system.ell,
            "q_star": system.q_star,
            "active_share": (system.q_star - system.ell) / system.n,
            "R": r_train, "P": windows.P,
            "overlapping": not windows.nonoverlapping,
            "backend": system.backend}


def artifacts(directory: Path) -> dict[str, bytes]:
    """Every file a repetition wrote, timings.txt excepted."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*"))
            if p.is_file() and p.name != "timings.txt"}


@contextmanager
def working_dir(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


def params_checks(params: dict, search: sw.SearchConfig) -> list[tuple[str, bool]]:
    """Every learned parameter in bounds, every objective value finite."""
    lo, hi = search.alpha_min, search.alpha_max
    out = []
    for name, entry in sorted(params["estimators"].items()):
        alphas = [entry["scalar"]["alpha"], *entry["windowed"]["alphas"]]
        out.append((f"{name}: parameters in [{lo:g}, {hi:g}]",
                    _finite(alphas) and all(lo <= a <= hi for a in alphas)))
        values = [entry["scalar"]["value"]]
        for key in ("value", "per_window_values"):
            values += np.atleast_1d(entry["windowed"].get(key, [])).tolist()
        out.append((f"{name}: objective values finite", _finite(values)))
    return out


def report_checks(means: dict) -> list[tuple[str, bool]]:
    return [(f"{key}: errors finite", _finite(list(by_split.values())))
            for key, by_split in sorted(means.items())]


def validation_mean(by_split: dict) -> float:
    return float(np.mean([by_split[s] for s in SPLITS[1:] if s in by_split]))


class Workload:
    """What both kinds of workload share: reading and checking the stage
    outputs ``params.json`` and ``report.json`` in a directory."""

    gcv = "gcv_decoupled"   # the estimator err_pct.gcv reads
    search = sw.SearchConfig()

    def check(self, seed: int, inputs, out: Path) -> list[tuple[str, bool]]:
        params = json.loads((out / "params.json").read_text())
        means = json.loads((out / "report.json").read_text())["means"]
        return params_checks(params, self.search) + report_checks(means)

    def errors(self, out: Path) -> dict[str, float]:
        """Mean validation error of each windowed estimator, by metric."""
        means = json.loads((out / "report.json").read_text())["means"]
        names = {"mse": "mse", "upre": "upre", "gcv": self.gcv}
        return {metric: validation_mean(means[f"{name}_windowed"])
                for metric, name in names.items()
                if f"{name}_windowed" in means}


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

class CliWorkload(Workload):
    """A workload driven through specwin.cli.cmd_train / cmd_validate."""

    def __init__(self, config: dict, gcv: str,
                 reference: tuple[str, ...] = (), orderings: bool = False):
        self.base = cli.ExperimentConfig(seed=0, **config)
        self.base.validate()
        self.search = self.base.search
        self.gcv = gcv
        self.reference = reference    # estimators learned outside the timing
        self.orderings = orderings    # check criterion 08 on the train split

    def config(self, seed: int, **changes) -> cli.ExperimentConfig:
        # stages run inside their output directory, so that the config
        # recorded in params.json and report.json is the same for every
        # repetition
        return replace(self.base, seed=seed, output_dir=".", **changes)

    def _psf(self):
        return sw.gaussian_psf(self.base.xi, (self.base.image_size,) * 2)

    def inputs(self, seed: int):
        """The spectral system; the CLI stages build their own data."""
        return sw.dct_decompose(self._psf(), penalty=self.base.penalty)

    def setup(self, seed: int):
        c = self.base
        counts = {"train": c.r_train, "validation_1": c.val_count,
                  "validation_2": c.val_count}
        return self.inputs(seed), make_datasets(c.image_size, self._psf(),
                                                c.snr_db, seed, counts)

    def properties(self, system) -> dict:
        c = self.base
        windows = make_windows(system, c.window_kind, c.window_count)
        return input_properties(system, windows, c.r_train)

    def train(self, seed: int, system, out: Path) -> None:
        with working_dir(out):
            cli.cmd_train(self.config(seed))

    def validate(self, seed: int, system, out: Path) -> None:
        with working_dir(out):
            cli.cmd_validate(self.config(seed), "params.json")

    def check(self, seed: int, system, out: Path) -> list[tuple[str, bool]]:
        checks = super().check(seed, system, out)
        if self.orderings:
            means = json.loads((out / "report.json").read_text())["means"]
            checks += criterion_08(means)
        return checks

    def learn_reference(self, seed: int, out: Path) -> None:
        """Learn the estimators the timed stages leave out, so that every
        err_pct metric has a value."""
        config = self.config(seed, estimators=self.reference,
                             include_best=False)
        out.mkdir(parents=True, exist_ok=True)
        with working_dir(out):
            cli.cmd_train(config)
            cli.cmd_validate(config, "params.json")


def criterion_08(means: dict) -> list[tuple[str, bool]]:
    """The desk error-table orderings on the train split."""
    tr = {k: v["train"] for k, v in means.items()}
    return [
        ("windowed UPRE within 1 pp of windowed MSE",
         abs(tr["upre_windowed"] - tr["mse_windowed"]) <= 1.0),
        ("windowed GCV within 1 pp of windowed MSE",
         abs(tr["gcv_decoupled_windowed"] - tr["mse_windowed"]) <= 1.0),
        ("windowing gains >= 3 pp for UPRE",
         tr["upre_scalar"] - tr["upre_windowed"] >= 3.0),
        ("windowing gains >= 3 pp for GCV",
         tr["gcv_decoupled_scalar"] - tr["gcv_decoupled_windowed"] >= 3.0),
        ("scalar ordering MSE <= UPRE <= GCV",
         tr["mse_scalar"] <= tr["upre_scalar"] <= tr["gcv_decoupled_scalar"]),
    ]


# ---------------------------------------------------------------------------
# dense GSVD workload
# ---------------------------------------------------------------------------

def reflexive_matrix(kernel: np.ndarray, n: int) -> np.ndarray:
    """1-D convolution with a centered odd-length kernel under half-sample
    symmetric (reflexive) boundaries, as a dense n x n matrix."""
    half = kernel.size // 2
    if half > n:
        raise ValueError("kernel wider than one reflection")
    rows = np.arange(n)
    A = np.zeros((n, n))
    for s in range(-half, half + 1):
        cols = rows - s
        cols = np.where(cols < 0, -cols - 1, cols)
        cols = np.where(cols >= n, 2 * n - 1 - cols, cols)
        np.add.at(A, (rows, cols), kernel[half + s])
    return A


def dense_pair(side: int, xi: float):
    """(psf, A, L): the reflexive Gaussian blur on side x side images as a
    dense matrix (the kernel is separable, so A is a Kronecker product) and
    the 2-D Neumann Laplacian built from first differences."""
    psf = sw.gaussian_psf(xi, (side, side))
    K = sw.reflexive_kernel(psf)
    c = K.shape[0] // 2
    k1 = K[:, c] / np.sqrt(K[c, c])
    k2 = K[c, :] / np.sqrt(K[c, c])
    A = np.kron(reflexive_matrix(k1, side), reflexive_matrix(k2, side))
    D = np.diff(np.eye(side), axis=0)
    L1 = D.T @ D
    eye = np.eye(side)
    L = np.kron(L1, eye) + np.kron(eye, L1)
    return psf, A, L


@dataclass
class DenseInputs:
    A: np.ndarray
    L: np.ndarray
    system: sw.SpectralSystem
    windows: sw.WindowSet
    datasets: dict


class DenseWorkload(Workload):
    """Library-level training and validation on the GSVD backend."""

    estimators = ("mse", "upre", "gcv_decoupled")

    def __init__(self, side: int, xi: float, snr_db: float, P: int,
                 spacing: str, r_train: int, val_count: int):
        self.side, self.xi, self.snr_db = side, xi, snr_db
        self.P, self.spacing = P, spacing
        self.counts = {"train": r_train, "validation_1": val_count,
                       "validation_2": val_count}

    def setup(self, seed: int) -> DenseInputs:
        psf, A, L = dense_pair(self.side, self.xi)
        system = sw.gsvd(A, L)
        windows = sw.indicator_windows(
            sw.make_partitions(system, self.P, self.spacing), system,
            self.spacing)
        datasets = make_datasets(self.side, psf, self.snr_db, seed,
                                 self.counts, flatten=True)
        return DenseInputs(A, L, system, windows, datasets)

    inputs = setup

    def properties(self, inputs: DenseInputs) -> dict:
        return input_properties(inputs.system, inputs.windows,
                                self.counts["train"])

    def train(self, seed: int, inputs: DenseInputs, out: Path) -> None:
        params = dense_train(inputs.system, inputs.datasets["train"],
                             inputs.windows, self.search, self.estimators)
        (out / "params.json").write_text(
            json.dumps(params, sort_keys=True, indent=1) + "\n")

    def validate(self, seed: int, inputs: DenseInputs, out: Path) -> None:
        params = json.loads((out / "params.json").read_text())
        means = dense_validate(inputs.system, inputs.datasets, inputs.windows,
                               params)
        (out / "report.json").write_text(
            json.dumps({"means": means}, sort_keys=True, indent=1) + "\n")

    def check(self, seed: int, inputs: DenseInputs,
              out: Path) -> list[tuple[str, bool]]:
        checks = super().check(seed, inputs, out)
        checks.append(("dense A reproduces the reflexive blur of every set",
                       blur_matches(inputs)))
        params = json.loads((out / "params.json").read_text())
        d = inputs.datasets["train"][0].d
        for name in self.estimators:
            alpha = params["estimators"][name]["scalar"]["alpha"]
            checks.append((f"{name}: scalar solve matches normal equations",
                           normal_equations_gap(inputs, d, alpha) <= 1e-8))
        return checks


def dense_train(system, datasets, windows, search, estimators) -> dict:
    """Scalar and per-window parameters for each estimator, pooled over the
    training sets: a grid+golden search for the scalar parameter, separable
    per-window searches for UPRE and decoupled GCV, and the coupled simplex
    search warm-started at the scalar parameter for MSE."""
    R = len(datasets)
    systems = [system] * R
    data = [ds.d for ds in datasets]
    truths = [ds.x_true for ds in datasets]
    dhats = [system.analyze(d) for d in data]
    noise = sw.NoiseModel([ds.sigma2 for ds in datasets])
    trivial = sw.trivial_window(system)
    scalar_objectives = {
        "mse": lambda a: sw.mse_learning(systems, data, truths, trivial, [a],
                                         dhats=dhats),
        "upre": lambda a: sw.upre_md_windowed(systems, dhats, trivial, [a],
                                              noise),
        "gcv_decoupled": lambda a: sw.gcv_md_scalar(systems, dhats, a),
    }
    params = {}
    for name in estimators:
        scal = sw.minimize_scalar(scalar_objectives[name], search)
        if name == "mse":
            res = sw.minimize_vector(
                lambda v: sw.mse_learning(systems, data, truths, windows, v,
                                          dhats=dhats),
                windows.P, search,
                warm_start=sw.ParamVector(np.full(windows.P, scal.alpha)))
            windowed = {"alphas": [float(a) for a in res.alphas.values],
                        "value": res.value,
                        "boundary": [bool(b) for b in res.boundary]}
        else:
            found = []
            for p in range(windows.P):
                if name == "upre":
                    obj = lambda a, p=p: sw.upre_window_separable(
                        systems, dhats, windows, p, a, noise)
                else:
                    obj = lambda a, p=p: sw.gcv_windowed_decoupled(
                        systems, dhats, windows, p, a)
                found.append(sw.minimize_scalar(obj, search))
            windowed = {"alphas": [r.alpha for r in found],
                        "per_window_values": [r.value for r in found],
                        "boundary": [r.boundary for r in found]}
        params[name] = {"scalar": {"alpha": scal.alpha, "value": scal.value,
                                   "boundary": scal.boundary},
                        "windowed": windowed}
    return {"estimators": params}


def dense_validate(system, datasets: dict, windows, params: dict) -> dict:
    """Mean percent relative error per estimator, mode and split."""
    trivial = sw.trivial_window(system)
    means = {}
    for name, entry in sorted(params["estimators"].items()):
        for mode, w, alphas in (("scalar", trivial, [entry["scalar"]["alpha"]]),
                                ("windowed", windows,
                                 entry["windowed"]["alphas"])):
            means[f"{name}_{mode}"] = {}
            for split, sets in datasets.items():
                errs = [100.0 * np.linalg.norm(
                            sw.solve_windowed(system, ds.d, w, alphas).x
                            - ds.x_true) / np.linalg.norm(ds.x_true)
                        for ds in sets]
                means[f"{name}_{mode}"][split] = float(np.mean(errs))
    return means


def blur_matches(inputs: DenseInputs) -> bool:
    """The dense matrix and specwin's DCT-based blur agree on every image."""
    return all(
        np.abs(inputs.A @ ds.x_true - ds.b).max() <= 1e-12 * np.abs(ds.b).max()
        for sets in inputs.datasets.values() for ds in sets)


def normal_equations_gap(inputs: DenseInputs, d: np.ndarray, alpha: float) -> float:
    """Relative gap between specwin's scalar solve and a direct solve of
    (A^T A + alpha^2 L^T L) x = A^T d."""
    A, L = inputs.A, inputs.L
    x_ref = np.linalg.solve(A.T @ A + alpha ** 2 * (L.T @ L), A.T @ d)
    x = sw.solve_scalar(inputs.system, d, alpha).x
    return float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))


# ---------------------------------------------------------------------------
# registry and the spectral size probe
# ---------------------------------------------------------------------------

WORKLOADS = {
    "desk": CliWorkload(
        {"image_size": 256, "xi": 36.0, "snr_db": 10.0, "penalty": "identity",
         "window_kind": "nonoverlap_linear", "window_count": 2,
         "estimators": ("mse", "upre", "gcv_decoupled"), "r_train": 8,
         "val_count": 8, "include_best": True},
        gcv="gcv_decoupled", orderings=True),
    "coupled": CliWorkload(
        {"image_size": 128, "xi": 9.0, "snr_db": 20.0, "penalty": "laplacian",
         "window_kind": "cosine_linear", "window_count": 3,
         "estimators": ("upre", "gcv_true"), "r_train": 8, "val_count": 4,
         "include_best": False},
        gcv="gcv_true", reference=("mse",)),
    "dense": DenseWorkload(side=32, xi=1.0, snr_db=20.0, P=3, spacing="log",
                           r_train=8, val_count=8),
}


def spectral_probe(dct_sides, gsvd_sides, repeats: int = 3) -> dict[str, float]:
    """Median milliseconds of decompositions and transform pairs by size."""
    def median_ms(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(1e3 * (time.perf_counter() - t0))
        return float(np.median(times))

    out = {}
    rng = np.random.default_rng(0)
    for side in dct_sides:
        psf = sw.gaussian_psf(side / 8.0, (side, side))
        out[f"probe.dct_decompose.{side}.ms"] = median_ms(
            lambda: sw.dct_decompose(psf))
        system = sw.dct_decompose(psf)
        img = rng.standard_normal((side, side))
        out[f"probe.pair.{side}.ms"] = median_ms(
            lambda: system.synthesize(system.analyze(img)))
    for side in gsvd_sides:
        _, A, L = dense_pair(side, side / 8.0)
        out[f"probe.gsvd.{side}.ms"] = median_ms(lambda: sw.gsvd(A, L))
    return out
