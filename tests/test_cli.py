"""Experiment driver: config handling, artifacts, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from specwin.cli import (
    ExperimentConfig,
    _build_system,
    _build_windows,
    _split_datasets,
    _split_truths,
    cmd_report,
    cmd_train,
    cmd_validate,
    main,
    relative_error_pct,
)
from specwin.errors import ConfigError
from specwin.estimators import NoiseModel, mse_learning, upre_md_windowed
from specwin.optimize import minimize_scalar
from specwin.problems import synthetic_image, write_pgm
from specwin.windows import trivial_window

BASE = {
    "image_size": 8,
    "xi": 1.0,
    "snr_db": 10.0,
    "seed": 11,
    "estimators": ["mse", "upre"],
    "window_kind": "nonoverlap_log",
    "window_count": 2,
    "r_train": 2,
    "val_count": 1,
    "include_best": False,
    "search": {"grid_points": 20, "tol": 1e-3, "max_iter": 60},
}


def _write_config(tmp_path, **overrides) -> Path:
    cfg = {**BASE, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_relative_error_pct():
    x = np.array([3.0, 4.0])
    assert relative_error_pct(x, x) == 0.0
    assert relative_error_pct(np.array([3.0, 4.0 + 5.0]), x) == pytest.approx(100.0)


def test_config_from_json_errors(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json(p)
    p.write_text(json.dumps({**BASE, "bogus_key": 1}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_json(p)
    p.write_text(json.dumps({"xi": 1.0}))
    with pytest.raises(ConfigError, match="missing required"):
        ExperimentConfig.from_json(p)
    p.write_text(json.dumps({**BASE, "search": {"grid_points": 2}}))
    with pytest.raises(ConfigError, match="bad search settings"):
        ExperimentConfig.from_json(p)
    with pytest.raises(ConfigError, match="cannot read config"):
        ExperimentConfig.from_json(tmp_path / "missing.json")
    # an int serves as a float, null where the default is None
    p.write_text(json.dumps({**BASE, "xi": 2, "corpus_label": None}))
    assert ExperimentConfig.from_json(p).xi == 2
    p.write_text(json.dumps({**BASE, "xi": "2"}))
    with pytest.raises(ConfigError, match="'xi' has the wrong type"):
        ExperimentConfig.from_json(p)
    # the search object follows the same rule, with SearchConfig's types
    p.write_text(json.dumps({**BASE, "search": {"alpha_max": 5}}))
    assert ExperimentConfig.from_json(p).search.alpha_max == 5
    p.write_text(json.dumps({**BASE, "search": {"max_iter": True}}))
    with pytest.raises(ConfigError, match="'max_iter' has the wrong type"):
        ExperimentConfig.from_json(p)
    p.write_text(json.dumps({**BASE, "search": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="unknown search keys"):
        ExperimentConfig.from_json(p)


def test_config_validate_rules():
    ok = ExperimentConfig(image_size=8, xi=1.0, snr_db=10.0, seed=1)
    ok.validate()
    cases = [
        {"image_size": 2},
        {"xi": -1.0},
        {"penalty": "tv"},
        {"window_kind": "hann"},
        {"window_count": 0},
        {"estimators": ()},
        {"estimators": ("upre", "mystery")},
        {"r_train": 0},
        {"val_count": -1},
        {"sigma_mode": "guess"},
    ]
    for bad in cases:
        cfg = ExperimentConfig(**{**dict(image_size=8, xi=1.0, snr_db=10.0,
                                         seed=1), **bad})
        with pytest.raises(ConfigError):
            cfg.validate()
    # decoupled GCV cannot ride on overlapping windows
    cfg = ExperimentConfig(image_size=8, xi=1.0, snr_db=10.0, seed=1,
                           estimators=("gcv_decoupled",),
                           window_kind="cosine_linear", window_count=2)
    with pytest.raises(ConfigError, match="non-overlapping"):
        cfg.validate()


def _run_pipeline(tmp_path, monkeypatch, workdir="run", **overrides):
    cfg_path = _write_config(tmp_path, **overrides)
    wd = tmp_path / workdir
    wd.mkdir()
    monkeypatch.chdir(wd)
    for cmd in (["gen"], ["train"], ["validate"]):
        rc = main(["--config", str(cfg_path)] + cmd)
        assert rc == 0, f"{cmd} failed"
    rc = main(["--config", str(cfg_path), "report"])
    assert rc == 0
    return wd / "out"


def test_end_to_end_artifacts(tmp_path, monkeypatch):
    out = _run_pipeline(tmp_path, monkeypatch)
    # gen artifacts
    gen = out / "gen"
    assert (gen / "manifest.csv").is_file()
    for split, count in [("train", 2), ("validation_1", 1), ("validation_2", 1)]:
        for i in range(count):
            stem = gen / split / f"img_{i:03d}"
            for suffix in ("_x.pgm", "_b.pgm", "_d.pgm", ".json"):
                assert stem.with_name(stem.name + suffix).is_file()
    meta = json.loads((gen / "train" / "img_000.json").read_text())
    assert set(meta) == {"seed", "sigma2", "snr_db", "dims", "xi"}
    assert meta["dims"] == [8, 8]

    # train artifacts
    params = json.loads((out / "params.json").read_text())
    assert set(params) == {"config", "corpus", "estimators", "windows"}
    assert set(params["estimators"]) == {"mse", "upre"}
    for entry in params["estimators"].values():
        assert {"scalar", "windowed"} <= set(entry)
        assert entry["scalar"]["alpha"] > 0.0
        assert len(entry["windowed"]["alphas"]) == 2
    assert params["windows"]["P"] == 2
    assert len(params["windows"]["partitions"]) == 3  # P+1 edges
    assert (out / "traces" / "upre_scalar_trace.csv").is_file()
    assert (out / "timings.txt").is_file()

    # validate artifacts
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"config", "corpus", "params", "means", "errors",
                           "boundary"}
    assert set(report["means"]) == {"mse_scalar", "mse_windowed",
                                    "upre_scalar", "upre_windowed"}
    for key, table in report["means"].items():
        assert set(table) == {"train", "validation_1", "validation_2"}
        for v in table.values():
            assert 0.0 < v < 200.0
    head = (out / "report.csv").read_text().splitlines()[0]
    assert head == "estimator,mode,train,validation_1,validation_2"
    err_head = (out / "errors_train.csv").read_text().splitlines()
    assert err_head[0] == "image,mse_scalar,mse_windowed,upre_scalar,upre_windowed"
    assert len(err_head) == 1 + 2  # two training images

    # report artifacts
    summary = (out / "summary.md").read_text().splitlines()
    table_rows = [l for l in summary if l.startswith("|") and "---" not in l]
    assert len(table_rows) == 1 + 4  # header + one row per estimator_mode
    box = (out / "boxplot.csv").read_text().splitlines()
    assert box[0] == "report,split,estimator,mode,min,q1,median,q3,max"
    assert len(box) == 1 + 3 * 4  # three splits x four estimator_modes


def test_trained_values_reproducible_from_params(tmp_path, monkeypatch):
    out = _run_pipeline(tmp_path, monkeypatch, workdir="reval")
    params = json.loads((out / "params.json").read_text())
    cfg = ExperimentConfig.from_json(tmp_path / "config.json")
    monkeypatch.chdir(tmp_path / "reval")

    system = _build_system(cfg)
    datasets = _split_datasets(cfg, "train")
    dhats = [system.analyze(ds.d) for ds in datasets]
    noise = NoiseModel([ds.sigma2 for ds in datasets])
    windows = _build_windows(cfg, system)

    entry = params["estimators"]["upre"]["windowed"]
    val = upre_md_windowed([system] * len(datasets), dhats, windows,
                           entry["alphas"], noise)
    assert abs(val - entry["value"]) <= 1e-12 * max(1.0, abs(val))


def test_pipeline_byte_identical_across_runs(tmp_path, monkeypatch):
    out_a = _run_pipeline(tmp_path, monkeypatch, workdir="a")
    out_b = _run_pipeline(tmp_path, monkeypatch, workdir="b")
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                     if p.is_file() and p.name != "timings.txt")
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*")
                     if p.is_file() and p.name != "timings.txt")
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_seed_override_changes_data(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path)
    for name, seed in [("s1", "11"), ("s2", "12")]:
        wd = tmp_path / name
        wd.mkdir()
        monkeypatch.chdir(wd)
        assert main(["--config", str(cfg_path), "--seed", seed, "gen"]) == 0
    a = (tmp_path / "s1" / "out" / "gen" / "train" / "img_000_x.pgm").read_bytes()
    b = (tmp_path / "s2" / "out" / "gen" / "train" / "img_000_x.pgm").read_bytes()
    assert a != b


def test_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({**BASE, "penalty": "tv"}))
    assert main(["--config", str(bad_cfg), "gen"]) == 2
    assert main(["--config", str(tmp_path / "nope.json"), "train"]) == 2

    # infeasible windowing: more windows than distinct spectral values
    over = _write_config(tmp_path, window_count=500,
                         estimators=["upre"])
    assert main(["--config", str(over), "train"]) == 3

    # output path collides with an existing regular file
    (tmp_path / "clobber").write_text("a file, not a directory")
    collide = tmp_path / "collide.json"
    collide.write_text(json.dumps({**BASE, "output_dir": "clobber"}))
    assert main(["--config", str(collide), "gen"]) == 4

    # malformed or incomplete parameter and report files
    good = _write_config(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{bad")
    assert main(["--config", str(good), "validate",
                 "--params", str(broken)]) == 2
    no_corpus = tmp_path / "no_corpus.json"
    no_corpus.write_text(json.dumps({
        "estimators": {}, "windows": {"P": 2, "kind": "nonoverlap_log"}}))
    assert main(["--config", str(good), "validate",
                 "--params", str(no_corpus)]) == 2
    assert main(["report", str(broken)]) == 2
    # parameters that hold no estimators
    assert main(["--config", str(good), "train"]) == 0
    params = json.loads((tmp_path / "out" / "params.json").read_text())
    no_estimators = tmp_path / "no_estimators.json"
    no_estimators.write_text(json.dumps({**params, "estimators": {}}))
    assert main(["--config", str(good), "validate",
                 "--params", str(no_estimators)]) == 2
    # malformed stored parameters: a non-number, a wrong count, a
    # non-positive value, a list for a scalar, a bool, a non-object windows
    for mode, key, value in [("windowed", "alphas", "abc"),
                             ("windowed", "alphas", [0.1]),
                             ("scalar", "alpha", -1.0),
                             ("scalar", "alpha", [1.0, 2.0]),
                             ("scalar", "alpha", True)]:
        bad = json.loads(json.dumps(params))
        bad["estimators"]["upre"][mode][key] = value
        bad_params = tmp_path / "bad_params.json"
        bad_params.write_text(json.dumps(bad))
        assert main(["--config", str(good), "validate",
                     "--params", str(bad_params)]) == 2, (mode, value)
    bad_params.write_text(json.dumps({**params, "windows": 5}))
    assert main(["--config", str(good), "validate",
                 "--params", str(bad_params)]) == 2

    # config values of the wrong JSON type
    for key, value in [("image_size", "abc"), ("xi", True), ("seed", 1.5),
                       ("estimators", "upre"), ("r_sweep", 1),
                       ("penalty", None),
                       ("search", {"grid_points": 20.5}),
                       ("search", {"tol": "small"})]:
        wrong = _write_config(tmp_path, **{key: value})
        assert main(["--config", str(wrong), "gen"]) == 2, (key, value)

    # a labelled manifest with no records for a split, and an image format
    # the corpus reader does not support
    _write_corpus(tmp_path, "train_only.csv", ["train", "train"])
    train_only = _write_config(tmp_path,
                               validation1_manifest=str(tmp_path / "train_only.csv"))
    assert main(["--config", str(train_only), "gen"]) == 2
    (tmp_path / "notes.txt").write_text("not an image")
    (tmp_path / "txt.csv").write_text("notes.txt,train,0\n")
    txt = _write_config(tmp_path, train_manifest=str(tmp_path / "txt.csv"))
    assert main(["--config", str(txt), "gen"]) == 2


def _write_corpus(tmp_path, name, splits):
    """PGM images with a manifest labelling image i with splits[i]."""
    lines = []
    for i, split in enumerate(splits):
        write_pgm(tmp_path / f"{name}_{i}.pgm", synthetic_image(8, seed=i))
        lines.append(f"{name}_{i}.pgm,{split},{i}")
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    return tmp_path / name


def test_manifest_split_labels(tmp_path):
    from dataclasses import replace
    cfg = ExperimentConfig(image_size=8, xi=1.0, snr_db=10.0, seed=1,
                           r_train=2, val_count=1)
    # records carrying none of the split labels serve every split
    plain = str(_write_corpus(tmp_path, "plain.csv", ["all"] * 3))
    cfg_plain = replace(cfg, train_manifest=plain, validation1_manifest=plain)
    assert len(_split_truths(cfg_plain, "train")) == 2
    assert len(_split_truths(cfg_plain, "validation_1")) == 3
    # a labelled manifest serves each split only its own records
    mixed = str(_write_corpus(tmp_path, "mixed.csv",
                              ["train", "train", "validation_1"]))
    cfg_mixed = replace(cfg, validation1_manifest=mixed,
                        validation2_manifest=mixed)
    assert len(_split_truths(cfg_mixed, "validation_1")) == 1
    with pytest.raises(ConfigError, match="empty corpus"):
        _split_truths(cfg_mixed, "validation_2")


def test_validate_window_mismatch(tmp_path, monkeypatch):
    out = _run_pipeline(tmp_path, monkeypatch, workdir="mm")
    cfg = ExperimentConfig.from_json(tmp_path / "config.json")
    from dataclasses import replace
    monkeypatch.chdir(tmp_path / "mm")
    wrong = replace(cfg, window_count=3)
    with pytest.raises(ConfigError, match="parameter/window mismatch"):
        cmd_validate(wrong, out / "params.json")


def test_validate_corpus_mismatch(tmp_path, monkeypatch):
    out = _run_pipeline(tmp_path, monkeypatch, workdir="fp")
    cfg = ExperimentConfig.from_json(tmp_path / "config.json")
    from dataclasses import replace
    monkeypatch.chdir(tmp_path / "fp")
    with pytest.raises(ConfigError, match="corpus mismatch"):
        cmd_validate(replace(cfg, seed=99), out / "params.json")
    assert main(["--config", str(tmp_path / "config.json"), "--seed", "99",
                 "validate"]) == 2


def test_validate_analyzes_each_data_set_once(tmp_path, monkeypatch):
    from dataclasses import replace

    from specwin.spectral import SpectralSystem

    monkeypatch.chdir(tmp_path)
    cfg = replace(ExperimentConfig.from_json(_write_config(tmp_path)),
                  image_size=16, estimators=("mse", "upre", "gcv_decoupled"),
                  r_train=3, val_count=2, include_best=True)
    params = cmd_train(cfg)
    calls = []
    real = SpectralSystem.analyze

    def counting(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(SpectralSystem, "analyze", counting)
    cmd_validate(cfg, params)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {"best_scalar", "best_windowed"} <= set(report["means"])
    assert len(calls) == 3 + 2 + 2


def test_train_r_sweep_and_sigma_estimate(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path, estimators=["mse", "upre"], r_train=3,
                             r_sweep=True, sigma_mode="estimate")
    wd = tmp_path / "sweep"
    wd.mkdir()
    monkeypatch.chdir(wd)
    cfg = ExperimentConfig.from_json(cfg_path)
    cmd_train(cfg)
    trend = (wd / "out" / "trend.csv").read_text().splitlines()
    assert trend[0] == "R,estimator,alpha"
    assert len(trend) == 1 + 2 * 3
    rows = [l.split(",") for l in trend[1:]]
    assert [(int(r), name) for r, name, _ in rows] == [
        (r, name) for name in ("mse", "upre") for r in (1, 2, 3)]
    alphas = [float(a) for _, _, a in rows]
    assert all(a > 0 for a in alphas)
    # each sweep step learns MSE on its own first r training sets
    system = _build_system(cfg)
    datasets = _split_datasets(cfg, "train")
    trivial = trivial_window(system)
    for r, _, alpha in rows[:3]:
        sets = datasets[: int(r)]
        res = minimize_scalar(
            lambda a: mse_learning([system] * len(sets), [ds.d for ds in sets],
                                   [ds.x_true for ds in sets], trivial, [a]),
            cfg.search)
        assert float(alpha) == pytest.approx(res.alpha, rel=1e-9)


def test_report_multiple_and_missing(tmp_path, monkeypatch):
    out = _run_pipeline(tmp_path, monkeypatch, workdir="rep")
    dup = tmp_path / "dup"
    dup.mkdir()
    cmd_report([out / "report.json", out / "report.json"], dup)
    rows = [l for l in (dup / "summary.md").read_text().splitlines()
            if l.startswith("|") and "---" not in l]
    assert len(rows) == 1 + 8  # two reports x four estimator_modes
    with pytest.raises(ConfigError, match="empty report set"):
        cmd_report([], dup)
    with pytest.raises(ConfigError, match="cannot read report"):
        cmd_report([tmp_path / "ghost.json"], dup)


def test_mse_training_requires_truths(tmp_path, monkeypatch):
    # blurred-only corpora are representable (x_true=None); the learning
    # objective must be refused for them before any optimization starts
    import dataclasses

    import specwin.cli as cli_mod

    cfg = ExperimentConfig(image_size=8, xi=1.0, snr_db=10.0, seed=3,
                           estimators=("mse",), r_train=2,
                           output_dir=str(tmp_path / "o"))
    real = cli_mod._split_datasets

    def truthless(config, split):
        return [dataclasses.replace(ds, x_true=None)
                for ds in real(config, split)]

    monkeypatch.setattr(cli_mod, "_split_datasets", truthless)
    with pytest.raises(ConfigError, match="needs truth images"):
        cmd_train(cfg)
