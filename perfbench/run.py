#!/usr/bin/env python3
"""specwin benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a specwin source tree:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced repetition instead.  Lines before it show every metric by name and
unit, the failure fraction and the provenance record.  The full record
(provenance, input properties, every sample) is also written to
``.perfbench_out/BENCH_<workload>_seed<seed>_trace<trace>.json``, and a traced
run writes its spans next to it.

Each run uses fresh worker processes with BLAS pinned to one thread: one per
set-up sample (``setup_s`` covers ``import specwin`` plus building the
workload's system and data sets) and one for the repetitions, whose own peak
resident memory is ``peak_rss_mb``.  A repetition trains once and then
validates until validating has taken VALIDATE_SHARE of that training time;
repetitions continue until ``--seconds`` have passed, with at least two, and
every repeated stage must reproduce the first one's artifacts byte for byte.
Timings are medians over the samples, whose counts are printed.  A traced
run adds the spectral size probe and one repetition under the tracer (set-up,
train and validate), and reports tracing overhead as traced minus untraced
``train_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
WORKLOADS = ("desk", "coupled", "dense")
END_TO_END = [("setup_s", "s"), ("train_s", "s"), ("validate_s", "s"),
              ("peak_rss_mb", "MB"), ("err_pct.mse", "%"),
              ("err_pct.upre", "%"), ("err_pct.gcv", "%")]
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
MIN_REPS = 2
MAX_REPS = 50
VALIDATE_SHARE = 0.35
WORKER_TIMEOUT_S = 160.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "work"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--result", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# parent: orchestrates the worker processes and prints the result
# ---------------------------------------------------------------------------

def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, role: str, root: Path, deadline: float,
               result: Path | None = None) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if result is not None:
        cmd += ["--result", str(result)]
    # subprocess.run kills the worker and waits for it on timeout
    subprocess.run(cmd, cwd=root, env=worker_env(root), check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main_role(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "specwin" / "__init__.py").is_file():
        print("perfbench: run from the root of a specwin source tree "
              "(src/specwin not found)", file=sys.stderr)
        return 2
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    setup_files = []
    try:
        if not args.trace:
            for k in range(SETUP_SAMPLES):
                path = out / f"{stem}.setup{k}.json"
                run_worker(args, "setup", root, deadline, path)
                setup_files.append(path)
        path = out / f"{stem}.json"
        run_worker(args, "work", root, deadline, path)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1

    record = json.loads(path.read_text())
    setups = [json.loads(p.read_text())["setup_s"] for p in setup_files]
    for p in setup_files:
        p.unlink()
    if setups:
        record["samples"]["setup_s"] = setups
        record["metrics"]["setup_s"] = statistics.median(setups)
    record["provenance"]["git_commit"] = git_commit(root)
    record["provenance"]["setup_samples"] = len(setups)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    specs = END_TO_END if not args.trace else per_layer_specs()
    metrics = {name: {"value": record["metrics"].get(name), "unit": unit}
               for name, unit, *_ in specs}
    report(args, record, metrics)
    complete = all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": record["failed"] == 0 and complete,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


def per_layer_specs():
    sys.path.insert(0, str(HERE))
    import tracing
    return tracing.PER_LAYER


def report(args, record: dict, metrics: dict) -> None:
    """Human-readable lines ahead of the JSON result line."""
    samples = record["samples"]
    reps = record["reps"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{reps['train']} train and {reps['validate']} validate "
          f"repetition(s) in {record['measured_s']:.1f} s")
    for name, m in metrics.items():
        n = len(samples.get(name, []))
        note = f"  (median of {n})" if n else ""
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"#   {name:<48} {value:>14} {m['unit']}{note}")
    frac = record["failed"] / record["attempted"]
    print(f"#   {'fail_frac':<48} {frac:>14.6g} "
          f"({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"#   FAILED: {failure}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("# inputs " + json.dumps(record["properties"], sort_keys=True))


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def setup_role(args) -> int:
    t0 = time.perf_counter()
    import specwin  # noqa: F401  (the import is part of what is timed)
    import workloads
    workloads.WORKLOADS[args.workload].setup(args.seed)
    elapsed = time.perf_counter() - t0
    Path(args.result).write_text(json.dumps({"setup_s": elapsed}) + "\n")
    return 0


class Operations:
    """Counts stage calls and output checks, and records what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, label: str, fn, *args) -> float | None:
        """Run one stage; its wall time in seconds, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            fn(*args)
        except Exception as exc:  # a failed stage is counted, not fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        return time.perf_counter() - t0

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {label}")

    def checks(self, label: str, fn, *args) -> None:
        try:
            results = fn(*args)
        except Exception as exc:  # an unreadable output fails the check
            self.attempted += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        for name, ok in results:
            self.check(f"{label}: {name}", ok)

    def values(self, label: str, fn, *args) -> dict[str, float]:
        """Named numbers read from a stage's output; counted as one check
        that fails if reading raises or a value is not finite."""
        self.attempted += 1
        try:
            values = fn(*args)
        except Exception as exc:  # an unreadable output fails the check
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return {}
        bad = sorted(k for k, v in values.items() if not math.isfinite(v))
        if bad:
            self.failures.append(f"{label}: non-finite {bad}")
        return values


def work_role(args) -> int:
    import resource

    import numpy as np
    import specwin
    import scipy
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    root = Path.cwd()
    run_dir = root / OUT_DIR / f"work_{args.workload}_seed{args.seed}_trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = Operations()
    probe = {}
    if args.trace:
        probe = workloads.spectral_probe(tracing.PROBE_DCT_SIDES,
                                         tracing.PROBE_GSVD_SIDES)
    inputs = wl.inputs(args.seed)
    props = wl.properties(inputs)

    train_s: list[float] = []
    validate_s: list[float] = []
    min_reps = 1 if args.trace else MIN_REPS
    t_start = time.perf_counter()

    # Each repetition trains once, then validates until validating has taken
    # VALIDATE_SHARE of that training time (at least once), so that samples
    # of both stages spread over the whole run.  Repeated stages must
    # reproduce the first repetition's artifacts byte for byte.
    k = 0
    while k < MAX_REPS and (k < min_reps
                            or time.perf_counter() - t_start < args.seconds):
        rep = run_dir / f"train{k}"
        rep.mkdir(parents=True)
        t_train = ops.call(f"train {k}", wl.train, args.seed, inputs, rep)
        if t_train is None:
            break
        train_s.append(t_train)
        if k:
            ops.check(f"train {k} artifacts byte-identical to train 0",
                      workloads.artifacts(rep) == workloads.artifacts(run_dir / "train0"))
        spent = 0.0
        while spent == 0.0 or spent < VALIDATE_SHARE * t_train:
            j = len(validate_s)
            rep = run_dir / f"validate{j}"
            rep.mkdir(parents=True)
            shutil.copy(run_dir / "train0" / "params.json", rep / "params.json")
            t_val = ops.call(f"validate {j}", wl.validate, args.seed, inputs, rep)
            if t_val is None:
                break
            validate_s.append(t_val)
            spent += t_val
            if j:
                ops.check(f"validate {j} artifacts byte-identical to validate 0",
                          workloads.artifacts(rep) == workloads.artifacts(run_dir / "validate0"))
            else:
                ops.checks("outputs", wl.check, args.seed, inputs, rep)
        if t_val is None:
            break
        k += 1
    measured_s = time.perf_counter() - t_start

    metrics: dict[str, float] = {}
    if train_s and validate_s:
        metrics["train_s"] = statistics.median(train_s)
        metrics["validate_s"] = statistics.median(validate_s)
    if args.trace and validate_s:
        rep = run_dir / "traced"
        rep.mkdir()
        tracer = tracing.Tracer()
        tracer.install(specwin)
        try:
            # the traced repetition also builds the inputs, so that the set-up
            # layers (decomposition, data generation) show in its spans
            with tracer.span("stage.setup"):
                ops.call("traced setup", wl.setup, args.seed)
            with tracer.span("stage.train"):
                t_train = ops.call("traced train", wl.train, args.seed, inputs, rep)
            with tracer.span("stage.validate"):
                ops.call("traced validate", wl.validate, args.seed, inputs, rep)
        finally:
            tracer.uninstall()
        expected = {**workloads.artifacts(run_dir / "train0"),
                    **workloads.artifacts(run_dir / "validate0")}
        ops.check("traced artifacts byte-identical to untraced ones",
                  workloads.artifacts(rep) == expected)
        tracer.write(run_dir.parent / f"BENCH_{args.workload}_seed{args.seed}_spans.tsv")
        metrics.update(tracing.layer_metrics(tracer.spans))
        if t_train is not None:
            metrics["trace.overhead_s"] = t_train - metrics["train_s"]
        metrics.update(probe)
    elif validate_s:
        errors = ops.values("errors", wl.errors, run_dir / "validate0")
        if getattr(wl, "reference", ()):
            ref = run_dir / "reference"
            if ops.call("reference train+validate", wl.learn_reference,
                        args.seed, ref) is not None:
                ops.checks("reference", wl.check, args.seed, inputs, ref)
                errors.update(ops.values("reference errors", wl.errors, ref))
        for key, value in errors.items():
            metrics[f"err_pct.{key}"] = value
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reps": {"train": len(train_s), "validate": len(validate_s)},
        "measured_s": measured_s,
        "samples": {"train_s": train_s, "validate_s": validate_s},
        "metrics": metrics, "properties": props,
        "attempted": ops.attempted, "failed": len(ops.failures),
        "failures": ops.failures,
        "provenance": provenance(np, scipy, specwin),
    }
    shutil.rmtree(run_dir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


def provenance(np, scipy, specwin) -> dict:
    import platform
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model() or platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "specwin": specwin.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "min_repetitions": MIN_REPS, "max_repetitions": MAX_REPS,
        "validate_share": VALIDATE_SHARE,
    }


def _read_first(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.readline().strip() or None
    except OSError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "setup":
        return setup_role(args)
    if args.role == "work":
        return work_role(args)
    return main_role(args)


if __name__ == "__main__":
    raise SystemExit(main())
