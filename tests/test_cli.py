"""Experiment driver: config handling, artifacts, exit codes, determinism."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from specwin.cli import (
    ExperimentConfig,
    _build_system,
    _split_datasets,
    _split_truths,
    _window_sets,
    cmd_gen,
    cmd_report,
    cmd_train,
    cmd_validate,
    main,
)
from specwin.errors import ConfigError
from specwin.estimators import (MseObjective, NoiseModel, estimate_sigma2,
                                 mse_learning, upre_md_windowed)
from specwin.optimize import minimize_scalar
from specwin.problems import synthetic_image, write_pgm
from specwin.windows import trivial_window

from oracles import nelder_mead_vector

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
    windows = _window_sets(cfg, system)["windowed"]

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


def test_exit_codes(tmp_path, monkeypatch, capsys):
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
    # non-positive value, a list for a scalar, a bool, a non-object config
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
    bad_params.write_text(json.dumps({**params, "config": 5}))
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

    # non-finite or degenerate blur widths and noise levels: a NaN width, one
    # whose Gaussian underflows to 0/0, a NaN or -inf SNR, and an SNR whose
    # power ratio overflows
    for key, value in [("xi", float("nan")), ("xi", 1e-300),
                       ("snr_db", float("nan")), ("snr_db", float("-inf")),
                       ("snr_db", 1e308)]:
        degenerate = _write_config(tmp_path, **{key: value})
        for cmd in ("gen", "train"):
            assert main(["--config", str(degenerate), cmd]) == 2, (key, value)

    # an SNR so high that the noise vanishes when added to the blurred data
    # (such data sets came out noiseless, and gen wrote "snr_db": Infinity),
    # or that part of it is lost there (the data held less noise than the
    # sigma2 that UPRE reads)
    for overrides, message in [({"snr_db": 400.0}, "noise vanishes"),
                               ({"snr_db": 320.0, "image_size": 16},
                                "part of the noise is lost")]:
        loud = _write_config(tmp_path, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cmd in ("gen", "train"):
                capsys.readouterr()
                assert main(["--config", str(loud), cmd]) == 2, cmd
                assert message in capsys.readouterr().err, cmd

    # malformed report structure: means not an object of objects, a run key
    # with no mode, errors not an object of objects of number lists, a
    # non-number error or mean, a non-string corpus label
    report = {"config": {"r_train": 2, "window_kind": "nonoverlap_log",
                         "window_count": 2},
              "corpus": {"label": "synthetic"},
              "means": {"upre_scalar": {"train": 5.0}},
              "errors": {"train": {"upre_scalar": [4.0, 6.0]}}}
    rep_path = tmp_path / "rep" / "report.json"
    rep_path.parent.mkdir()
    rep_path.write_text(json.dumps(report))
    report_argv = ["--out", str(rep_path.parent), "report", str(rep_path)]
    assert main(report_argv) == 0
    for edit in [{"means": {"a_b": 5}}, {"means": [1]},
                 {"means": {"upre": {"train": 5.0}}}, {"errors": []},
                 {"errors": {"train": {"upre_scalar": "x"}}},
                 {"errors": {"train": {"upre_scalar": ["x"]}}},
                 {"means": {"upre_scalar": {"train": "x"}}},
                 {"corpus": {"label": 5}}]:
        rep_path.write_text(json.dumps({**report, **edit}))
        assert main(report_argv) == 2, edit

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
    # a PGM whose maxval is 0
    (tmp_path / "maxval0.pgm").write_bytes(b"P5\n8 8\n0\n" + bytes(64))
    (tmp_path / "maxval0.csv").write_text("maxval0.pgm,train,0\n")
    maxval0 = _write_config(tmp_path,
                            train_manifest=str(tmp_path / "maxval0.csv"),
                            r_train=1)
    assert main(["--config", str(maxval0), "train"]) == 2

    # a PGM with no pixels and a CSV image holding NaN or inf: exit 2 with a
    # message naming the file
    (tmp_path / "empty.pgm").write_bytes(b"P5\n0 8\n255\n")
    (tmp_path / "nan.csv").write_text("0.1,0.2\nnan,0.4\n")
    (tmp_path / "inf.csv").write_text("0.1,inf\n0.3,0.4\n")
    for image in ("empty.pgm", "nan.csv", "inf.csv"):
        (tmp_path / "one.csv").write_text(f"{image},train,0\n")
        one = _write_config(tmp_path, train_manifest=str(tmp_path / "one.csv"),
                            r_train=1)
        capsys.readouterr()
        assert main(["--config", str(one), "train"]) == 2, image
        assert image in capsys.readouterr().err, image

    # a regularization parameter whose square overflows, and negative seeds
    # from the config or the command line
    huge = _write_config(tmp_path, search={"alpha_max": 1e200})
    capsys.readouterr()
    assert main(["--config", str(huge), "train"]) == 2
    assert "finite square" in capsys.readouterr().err
    assert main(["--config", str(_write_config(tmp_path, seed=-3)),
                 "train"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert main(["--config", str(good), "--seed", "-1", "gen"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


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


def test_split_datasets_are_make_dataset_per_image(tmp_path, monkeypatch):
    from dataclasses import replace

    from specwin import problems
    from specwin.cli import _SPLITS, _psf, _split_seed
    from specwin.problems import make_dataset

    calls = []
    real = problems.blur_spectrum
    monkeypatch.setattr(problems, "blur_spectrum",
                        lambda *a: calls.append(a) or real(*a))
    synthetic = ExperimentConfig(image_size=16, xi=2.0, snr_db=10.0, seed=5,
                                 r_train=3, val_count=2)
    # an external corpus of PGM (cropped) and CSV (zoomed) images under one
    # labelled manifest
    rng = np.random.default_rng(0)
    lines = []
    for i, split in enumerate(["train", "train", "validation_1",
                               "validation_2", "validation_2"]):
        if i % 2:
            np.savetxt(tmp_path / f"ext_{i}.csv", rng.uniform(size=(12, 12)),
                       delimiter=",")
            lines.append(f"ext_{i}.csv,{split},{i}")
        else:
            write_pgm(tmp_path / f"ext_{i}.pgm", synthetic_image(20, seed=i))
            lines.append(f"ext_{i}.pgm,{split},{i}")
    manifest = tmp_path / "ext.csv"
    manifest.write_text("\n".join(lines) + "\n")
    external = replace(synthetic, r_train=2, train_manifest=str(manifest),
                       validation1_manifest=str(manifest),
                       validation2_manifest=str(manifest))
    for cfg in (synthetic, external):
        for split_idx, split in enumerate(_SPLITS):
            calls.clear()
            got = _split_datasets(cfg, split)
            assert len(calls) == 1, split  # one blur spectrum per split
            truths = _split_truths(cfg, split)
            assert len(got) == len(truths) > 0
            for i, (ds, x) in enumerate(zip(got, truths)):
                want = make_dataset(x, _psf(cfg), cfg.snr_db,
                                    _split_seed(cfg, 2000 + split_idx, i))
                for field in ("x_true", "b", "d"):
                    assert (getattr(ds, field).tobytes()
                            == getattr(want, field).tobytes()), (split, i, field)
                assert (ds.sigma2, ds.snr, ds.seed, ds.dims) == \
                    (want.sigma2, want.snr, want.seed, want.dims)
    # an empty split builds no spectrum
    calls.clear()
    assert _split_datasets(replace(synthetic, val_count=0), "validation_1") == []
    assert calls == []


def test_validate_window_mismatch(tmp_path, monkeypatch):
    out = _run_pipeline(tmp_path, monkeypatch, workdir="mm")
    cfg = ExperimentConfig.from_json(tmp_path / "config.json")
    from dataclasses import replace
    monkeypatch.chdir(tmp_path / "mm")
    wrong = replace(cfg, window_count=3)
    with pytest.raises(ConfigError, match="parameter/config mismatch"):
        cmd_validate(wrong, out / "params.json")
    # parameters trained under another blur, noise level or penalty
    for key, value in [("xi", 2.5), ("snr_db", 5.0),
                       ("penalty", "laplacian")]:
        with pytest.raises(ConfigError, match=f"mismatch: .* with {key}="):
            cmd_validate(replace(cfg, **{key: value}), out / "params.json")
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({**BASE, "xi": 2.5}))
    assert main(["--config", str(changed), "validate",
                 "--params", str(out / "params.json")]) == 2


def test_validate_corpus_mismatch(tmp_path, monkeypatch):
    out = _run_pipeline(tmp_path, monkeypatch, workdir="fp")
    cfg = ExperimentConfig.from_json(tmp_path / "config.json")
    from dataclasses import replace
    monkeypatch.chdir(tmp_path / "fp")
    with pytest.raises(ConfigError, match="corpus mismatch"):
        cmd_validate(replace(cfg, seed=99), out / "params.json")
    assert main(["--config", str(tmp_path / "config.json"), "--seed", "99",
                 "validate"]) == 2


def test_second_run_leaves_none_of_the_first_runs_files(tmp_path, monkeypatch):
    from dataclasses import replace

    monkeypatch.chdir(tmp_path)
    base = ExperimentConfig.from_json(_write_config(tmp_path))
    first = replace(base, window_count=3, estimators=("upre", "gcv_decoupled"),
                    r_sweep=True, val_count=1)
    second = replace(base, window_count=2, estimators=("upre",), val_count=0)

    def run(config, out: str) -> set:
        config = replace(config, output_dir=out)
        cmd_validate(config, cmd_train(config))
        return {str(p.relative_to(out)) for p in Path(out).rglob("*")}

    run(first, "shared")
    assert {"trend.csv", "errors_validation_1.csv",
            "traces/gcv_decoupled_window2_trace.csv"} <= run(first, "first")
    assert run(second, "shared") == run(second, "fresh")


def test_second_gen_leaves_none_of_the_first_gens_files(tmp_path, monkeypatch):
    from dataclasses import replace

    monkeypatch.chdir(tmp_path)
    base = ExperimentConfig.from_json(_write_config(tmp_path))

    def gen(val_count: int, out: str) -> dict:
        root = cmd_gen(replace(base, val_count=val_count, output_dir=out))
        return {str(p.relative_to(root)): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    assert "validation_1/img_001.json" in gen(2, "shared")
    assert gen(1, "shared") == gen(1, "fresh")


def test_coupled_search_keeps_both_starts(tmp_path, monkeypatch):
    """Pins both coupled starts on this seed: from the diagonal alone UPRE
    ends 8.1e-6 higher, with alpha_2 at alpha_max.  From the non-overlapping
    solution alone, the all-alpha_min corner, the coupled GCV ends 2.6e-14
    higher (the Nelder-Mead search stopped at the corner, 25.1% higher).  A
    better search may go lower."""
    monkeypatch.chdir(tmp_path)
    config = ExperimentConfig(image_size=64, xi=9.0, snr_db=20.0, seed=612,
                              window_kind="cosine_log", window_count=3,
                              estimators=("upre", "gcv_true"), r_train=8)
    params = json.loads(cmd_train(config).read_text())["estimators"]
    for name, pinned in [("upre", 0.0021727652540126205),
                         ("gcv_true", 0.0021768993510252552)]:
        value = params[name]["windowed"]["value"]
        assert value <= pinned * (1.0 + 1e-10), (name, value)


@pytest.mark.parametrize("size,xi", [(48, 6.0), (64, 9.0)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coupled_search_matches_nelder_mead(tmp_path, monkeypatch, size, xi,
                                            seed):
    """On Laplacian cosine windows every coupled search of train, from each
    of its two starts, ends no higher than the Nelder-Mead oracle from the
    same start, and counts each objective call it makes."""
    import specwin.cli as cli_mod

    monkeypatch.chdir(tmp_path)
    config = ExperimentConfig(image_size=size, xi=xi, snr_db=20.0, seed=seed,
                              penalty="laplacian", window_kind="cosine_linear",
                              window_count=3, estimators=("upre", "gcv_true"),
                              r_train=4)
    real = cli_mod.minimize_vector
    pairs = []

    def against_oracle(objective, P, search, warm_start):
        calls = []
        found = real(lambda a: calls.append(a) or objective(a), P, search,
                     warm_start=warm_start)
        assert found.evaluations == len(calls)
        oracle = nelder_mead_vector(objective, P, search, warm_start)
        pairs.append((found.value, oracle.value))
        return found

    monkeypatch.setattr(cli_mod, "minimize_vector", against_oracle)
    cmd_train(config)
    assert len(pairs) == 4  # two estimators, two starts each
    for value, oracle in pairs:
        assert value <= oracle + 1e-10 * abs(oracle), (value, oracle)


def test_one_window_makes_no_second_search(tmp_path, monkeypatch):
    """With one window the windowed result is the scalar line search: train
    makes one line search per estimator and no coupled search, and
    validate's per-image best one line search per image."""
    import specwin.cli as cli_mod

    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(image_size=16, xi=2.0, snr_db=20.0, seed=3,
                           window_count=1, estimators=(
                               "mse", "upre", "gcv_decoupled", "gcv_true"),
                           r_train=3, val_count=2, include_best=True)
    calls = {"minimize_scalar": 0, "minimize_vector": 0}
    for name in calls:
        def counting(*args, real=getattr(cli_mod, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, name, counting)
    params = json.loads(cmd_train(cfg).read_text())["estimators"]
    assert calls == {"minimize_scalar": 4, "minimize_vector": 0}
    for name, entry in params.items():
        assert entry["windowed"]["alphas"] == [entry["scalar"]["alpha"]], name
        assert (tmp_path / "out" / "traces" / f"{name}_window0_trace.csv").exists()
    calls["minimize_scalar"] = 0
    cmd_validate(cfg, tmp_path / "out" / "params.json")
    assert calls == {"minimize_scalar": 3 + 2 + 2, "minimize_vector": 0}


def _validate_config(tmp_path, monkeypatch) -> ExperimentConfig:
    """16x16, P=2, three estimators, include_best, 3+2+2 data sets."""
    from dataclasses import replace

    monkeypatch.chdir(tmp_path)
    return replace(ExperimentConfig.from_json(_write_config(tmp_path)),
                   image_size=16, estimators=("mse", "upre", "gcv_decoupled"),
                   r_train=3, val_count=2, include_best=True)


def test_validate_analyzes_each_data_set_once(tmp_path, monkeypatch):
    from specwin.spectral import SpectralSystem

    cfg = _validate_config(tmp_path, monkeypatch)
    params = cmd_train(cfg)
    calls = {"analyze": 0, "synthesize": 0}
    for method in calls:
        real = getattr(SpectralSystem, method)

        def counting(self, v, real=real, method=method):
            calls[method] += 1
            return real(self, v)

        monkeypatch.setattr(SpectralSystem, method, counting)
    cmd_validate(cfg, params)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {"best_scalar", "best_windowed"} <= set(report["means"])
    # every run is scored by its data set's MSE objective: no solution is
    # synthesized
    assert calls == {"analyze": 3 + 2 + 2, "synthesize": 0}


def _per_window_search(mse, search) -> list[float]:
    """MseObjective.window minimized window by window."""
    return [minimize_scalar(lambda a, p=p: mse.window(p, a), search).alpha
            for p in range(mse.P)]


def test_validate_errors_are_solution_errors(tmp_path, monkeypatch):
    from specwin.solver import solve_windowed

    cfg = _validate_config(tmp_path, monkeypatch)
    params = json.loads(cmd_train(cfg).read_text())
    cmd_validate(cfg, tmp_path / "out" / "params.json")
    errors = json.loads((tmp_path / "out" / "report.json").read_text())["errors"]
    system = _build_system(cfg)
    window_sets = _window_sets(cfg, system)
    # the windowed MSE parameters are per-window line searches over the
    # training sets
    train = _split_datasets(cfg, "train")
    mse = MseObjective(system, [system.analyze(ds.d) for ds in train],
                       [ds.x_true for ds in train], window_sets["windowed"])
    assert (params["estimators"]["mse"]["windowed"]["alphas"]
            == _per_window_search(mse, cfg.search))
    for split, table in errors.items():
        datasets = _split_datasets(cfg, split)
        assert len(datasets) == len(table["best_windowed"])
        for name, entry in params["estimators"].items():
            for mode, alphas in (("scalar", [entry["scalar"]["alpha"]]),
                                 ("windowed", entry["windowed"]["alphas"])):
                for ds, err in zip(datasets, table[f"{name}_{mode}"]):
                    x = solve_windowed(system, ds.d, window_sets[mode], alphas).x
                    want = (100.0 * np.linalg.norm(x - ds.x_true)
                            / np.linalg.norm(ds.x_true))
                    assert err == pytest.approx(want, rel=1e-12), (split, name, mode)
        # the per-image best is the same per-window search on that image
        for ds, err in zip(datasets, table["best_windowed"]):
            one = MseObjective(system, [system.analyze(ds.d)], [ds.x_true],
                               window_sets["windowed"])
            alphas = _per_window_search(one, cfg.search)
            assert err == float(100.0 * np.sqrt(one(alphas))
                                / np.linalg.norm(ds.x_true))
        # the per-image best minimizes each window's share of that image's
        # error, so it does not end above the stored windowed MSE parameters
        for best, stored in zip(table["best_windowed"], table["mse_windowed"]):
            assert best <= stored * (1.0 + 1e-12)


def test_validate_coupled_best_keeps_the_diagonal_start(tmp_path, monkeypatch):
    from dataclasses import replace

    cfg = replace(_validate_config(tmp_path, monkeypatch),
                  window_kind="cosine_linear", estimators=("mse",))
    cmd_train(cfg)
    cmd_validate(cfg, tmp_path / "out" / "params.json")
    errors = json.loads((tmp_path / "out" / "report.json").read_text())["errors"]
    system = _build_system(cfg)
    windows = _window_sets(cfg, system)["windowed"]
    assert not windows.nonoverlapping
    for split, table in errors.items():
        datasets = _split_datasets(cfg, split)
        for ds, best in zip(datasets, table["best_windowed"]):
            dhat, truth = system.analyze(ds.d), ds.x_true
            scalar = MseObjective(system, [dhat], [truth], trivial_window(system))
            diagonal = [_per_window_search(scalar, cfg.search)[0]] * windows.P
            at_diagonal = (100.0 * np.sqrt(MseObjective(
                system, [dhat], [truth], windows)(diagonal))
                / np.linalg.norm(truth))
            assert best <= at_diagonal * (1.0 + 1e-12), split


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
    # ... and UPRE on those sets with their own estimated noise variances
    dhats = [system.analyze(ds.d) for ds in datasets]
    sigma2 = [estimate_sigma2(system, dhat) for dhat in dhats]
    for r, _, alpha in rows[3:]:
        r = int(r)
        res = minimize_scalar(
            lambda a: upre_md_windowed([system] * r, dhats[:r], trivial, [a],
                                       NoiseModel(sigma2[:r])),
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
