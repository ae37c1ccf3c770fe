import csv
import errno
import gc
import itertools
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from feattrans import affinity as aff
from feattrans import cli, errors, feature_io as fio, pipeline, retrieval, translator
from feattrans.cli import build_parser, main
from feattrans.errors import DataError, InvalidConfig, NumericError

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic two-member dataset plus trained models for every ordered pair."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    assert main([
        "synth", "--out", str(data), "--n", "120", "--dim", "16",
        "--latent-dim", "8", "--clusters", "4", "--noise", "0.01",
        "--seed", "1", "--members", "fx:orthogonal_linear,fy:orthogonal_linear",
    ]) == 0
    cfg = str(data / "config.json")
    models = root / "models"
    for s, t in itertools.product(("fx", "fy"), repeat=2):
        assert main([
            "train", "--config", cfg, "--source", s, "--target", t,
            "--latent", "8", "--lr", "1e-3", "--epochs", "15",
            "--patience", "15", "--seed", "0", "--out", str(models),
        ]) == 0
    return root


def test_synth_outputs_exist(workspace):
    data = workspace / "data"
    for name in ("fx", "fy"):
        assert (data / f"{name}.vec").exists()
        assert (data / f"{name}.ids").exists()
    assert (data / "gt.tsv").exists()
    registry = json.loads((data / "config.json").read_text())
    assert set(registry["features"]) == {"fx", "fy"}


def test_synth_idempotent(workspace, tmp_path):
    again = tmp_path / "again"
    assert main([
        "synth", "--out", str(again), "--n", "120", "--dim", "16",
        "--latent-dim", "8", "--clusters", "4", "--noise", "0.01",
        "--seed", "1", "--members", "fx:orthogonal_linear,fy:orthogonal_linear",
    ]) == 0
    for name in ("fx.vec", "fx.ids", "gt.tsv"):
        assert (again / name).read_bytes() == (workspace / "data" / name).read_bytes()


def test_train_produces_loadable_model(workspace):
    from feattrans import translator

    model = translator.load_model(workspace / "models" / "fx2fy.haet")
    assert model.kind == "hae"
    assert model.source_name == "fx"
    log = (workspace / "models" / "fx2fy.trainlog.csv").read_text().splitlines()
    assert log[0].startswith("epoch,")
    assert len(log) == 16  # header + 15 epochs


def test_train_mlp_kind(workspace, tmp_path):
    from feattrans import translator

    cfg = str(workspace / "data" / "config.json")
    assert main([
        "train", "--config", cfg, "--source", "fx", "--target", "fy",
        "--kind", "mlp", "--lr", "1e-3", "--epochs", "3", "--patience", "3",
        "--out", str(tmp_path),
    ]) == 0
    assert translator.load_model(tmp_path / "fx2fy.haet").kind == "mlp_baseline"


def test_train_missing_input_path_names_it(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"features": {
        "fx": {"vec": str(tmp_path / "nope.vec"), "ids": str(tmp_path / "nope.ids")},
        "fy": {"vec": str(tmp_path / "nope.vec"), "ids": str(tmp_path / "nope.ids")},
    }}))
    code = main(["train", "--config", str(cfg), "--source", "fx", "--target", "fy",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "nope.vec" in capsys.readouterr().err


def test_train_duplicate_id_names_the_ids_file(workspace, tmp_path, capsys):
    config = json.loads((workspace / "data" / "config.json").read_text())
    ids = (workspace / "data" / "fx.ids").read_text().splitlines()
    bad = tmp_path / "fx.ids"
    bad.write_text("".join(i + "\n" for i in [ids[0], *ids[:-1]]))  # as many ids, one twice
    config["features"]["fx"]["ids"] = str(bad)
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = main(["train", "--config", str(tmp_path / "c.json"), "--source", "fx", "--target", "fy",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {bad}: duplicate id {ids[0]!r}\n"


def test_translate(workspace, tmp_path):
    cfg = str(workspace / "data" / "config.json")
    assert main([
        "translate", "--config", cfg, "--model", str(workspace / "models" / "fx2fy.haet"),
        "--source", "fx", "--out", str(tmp_path),
    ]) == 0
    assert (tmp_path / "fx2fy.vec").exists()


def test_translate_version_1_model_exits_3(workspace, tmp_path, capsys):
    raw = (workspace / "models" / "fx2fy.haet").read_bytes()
    old = tmp_path / "fx2fy.haet"
    old.write_bytes(raw[:4] + struct.pack("<H", 1) + raw[6:])
    code = main([
        "translate", "--config", str(workspace / "data" / "config.json"),
        "--model", str(old), "--source", "fx", "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    assert capsys.readouterr().err == f"error: {old}: unsupported model format version 1\n"


def test_translate_with_model_of_other_source_dim_exits_3(workspace, tmp_path, capsys):
    model = translator.build(8, 16, 4, seed=0, source_name="fx", target_name="fy")
    translator.save_model(model, tmp_path / "fx2fy.haet")
    code = main([
        "translate", "--config", str(workspace / "data" / "config.json"),
        "--model", str(tmp_path / "fx2fy.haet"), "--source", "fx", "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    assert "source dim 8" in capsys.readouterr().err


def test_train_diverging_exits_4(workspace, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exit code reports it; numpy stays silent
        code = main([
            "train", "--config", str(workspace / "data" / "config.json"), "--source", "fx",
            "--target", "fy", "--latent", "8", "--lr", "1e300", "--epochs", "2",
            "--out", str(tmp_path),
        ])
    assert code == 4
    assert "numeric failure: non-finite loss" in capsys.readouterr().err


def test_train_non_finite_validation_loss_exits_4(workspace, tmp_path, capsys):
    # one batch per epoch: its loss is finite, then the update overflows, so the
    # epoch-end pass is NaN; the run must not save its untrained start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "train", "--config", str(workspace / "data" / "config.json"), "--source", "fx",
            "--target", "fy", "--latent", "8", "--lr", "1e300", "--batch", "200",
            "--epochs", "1", "--out", str(tmp_path),
        ])
    assert code == 4
    assert "numeric failure: non-finite validation loss" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_translate_all_zero_output_exits_4(workspace, tmp_path, capsys):
    model = translator.load_model(workspace / "models" / "fx2fy.haet")
    last = model.stacks[-1].layers[-1]
    last.weights[:] = 0.0
    last.bias[:] = 0.0
    translator.save_model(model, tmp_path / "fx2fy.haet")
    code = main([
        "translate", "--config", str(workspace / "data" / "config.json"),
        "--model", str(tmp_path / "fx2fy.haet"), "--source", "fx", "--out", str(tmp_path / "out"),
    ])
    assert code == 4
    assert "all-zero output row" in capsys.readouterr().err


def test_eval_reports_difference(workspace, tmp_path, capsys):
    cfg = str(workspace / "data" / "config.json")
    assert main([
        "eval", "--config", cfg, "--model", str(workspace / "models" / "fx2fy.haet"),
        "--source", "fx", "--target", "fy", "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "target mAP(%)" in out
    assert "translated mAP(%)" in out
    assert "difference" in out
    assert (tmp_path / "fx2fy.eval.csv").exists()


def test_eval_queries_replace_target_queries(workspace, tmp_path):
    data = workspace / "data"
    config = json.loads((data / "config.json").read_text())
    fy = fio.load_feature_set(data / "fy.vec", data / "fy.ids", "fy")
    v = np.random.default_rng(5).normal(size=fy.vectors.shape)
    fq = fio.FeatureSet(name="fq", ids=fy.ids, vectors=v / np.linalg.norm(v, axis=1, keepdims=True))
    fio.save_feature_set(fq, tmp_path / "fq.vec", tmp_path / "fq.ids")
    config["features"]["fq"] = {"vec": str(tmp_path / "fq.vec"), "ids": str(tmp_path / "fq.ids")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    model_path = workspace / "models" / "fx2fy.haet"
    for out, queries in (("with", ["--queries", "fq"]), ("without", [])):
        assert main([
            "eval", "--config", str(tmp_path / "config.json"), "--model", str(model_path),
            "--source", "fx", "--target", "fy", *queries, "--out", str(tmp_path / out),
        ]) == 0

    expected = retrieval.cross_feature_evaluate(
        translator.load_model(model_path),
        fio.l2_normalize(fio.load_feature_set(data / "fx.vec", data / "fx.ids", "fx")),
        fio.l2_normalize(fio.load_feature_set(tmp_path / "fq.vec", tmp_path / "fq.ids", "fq")),
        fio.load_ground_truth(config["gt"]),
    )
    retrieval.write_eval_csv(expected, tmp_path / "expected.csv")
    written = (tmp_path / "with" / "fx2fy.eval.csv").read_bytes()
    assert written == (tmp_path / "expected.csv").read_bytes()
    assert written != (tmp_path / "without" / "fx2fy.eval.csv").read_bytes()


def test_affinity_writes_four_matrices(workspace, tmp_path):
    cfg = str(workspace / "data" / "config.json")
    assert main([
        "affinity", "--config", cfg, "--models-dir", str(workspace / "models"),
        "--out", str(tmp_path),
    ]) == 0
    for label in "MRCU":
        m = aff.read_matrix_csv(tmp_path / f"{label}.csv", kind=aff.DIRECTED_M)
        assert m.values.shape == (2, 2)
    u = aff.read_matrix_csv(tmp_path / "U.csv", kind=aff.UNDIRECTED_U)
    assert np.array_equal(u.values, u.values.T)


def test_affinity_m_matches_library(workspace, tmp_path):
    names = ("fx", "fy")
    data = workspace / "data"
    sets = {n: fio.l2_normalize(fio.load_feature_set(data / f"{n}.vec", data / f"{n}.ids", n))
            for n in names}
    pairs = list(itertools.product(names, repeat=2))
    expected = aff.build_dam(
        {(s, t): translator.load_model(workspace / "models" / f"{s}2{t}.haet") for s, t in pairs},
        {(s, t): fio.align_pairs(sets[s], sets[t]) for s, t in pairs},
        names,
    )
    assert main([
        "affinity", "--config", str(data / "config.json"),
        "--models-dir", str(workspace / "models"), "--out", str(tmp_path),
    ]) == 0
    m = aff.read_matrix_csv(tmp_path / "M.csv", kind=aff.DIRECTED_M)
    assert m.names == names
    assert np.array_equal(m.values, expected.values)


def test_affinity_loads_each_model_row_by_row_one_alive(workspace, tmp_path, monkeypatch):
    load, loaded, alive = translator.load_model, [], []

    def tracked(path):
        gc.collect()
        alive.append(sum(ref() is not None for _, ref in loaded))
        model = load(path)
        loaded.append((Path(path).name, weakref.ref(model)))
        return model

    monkeypatch.setattr(translator, "load_model", tracked)
    assert main([
        "affinity", "--config", str(workspace / "data" / "config.json"),
        "--models-dir", str(workspace / "models"), "--out", str(tmp_path),
    ]) == 0
    assert [name for name, _ in loaded] == ["fx2fx.haet", "fx2fy.haet", "fy2fx.haet", "fy2fy.haet"]
    assert alive == [0] * 4


def test_affinity_duplicate_names(workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(translator, "load_model", lambda path: pytest.fail(f"loaded {path}"))
    code = main([
        "affinity", "--config", str(workspace / "data" / "config.json"),
        "--models-dir", str(workspace / "models"), "--names", "fx,fx", "--out", str(tmp_path),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "duplicate" in err
    assert not (tmp_path / "U.csv").exists()


def test_affinity_colliding_model_files(workspace, tmp_path, capsys, monkeypatch):
    """Names a, a2, b, 2b give the one file a22b.haet for (a2, b) and (a, 2b)."""
    config = json.loads((workspace / "data" / "config.json").read_text())
    fx = config["features"]["fx"]
    config["features"] = {n: fx for n in ("a", "a2", "b", "2b")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.setattr(translator, "load_model", lambda path: pytest.fail(f"loaded {path}"))
    code = main([
        "affinity", "--config", str(tmp_path / "config.json"),
        "--models-dir", str(workspace / "models"), "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    assert "a22b.haet" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_rejects_name_with_path_separator(workspace, tmp_path, capsys, monkeypatch):
    """A registry name "a/b" would put the model in a subdirectory; train
    fails before it trains."""
    config = json.loads((workspace / "data" / "config.json").read_text())
    config["features"] = {"a/b": config["features"]["fx"], "fy": config["features"]["fy"]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.setattr(translator, "train", lambda *a, **k: pytest.fail("trained a model"))
    code = main([
        "train", "--config", str(tmp_path / "config.json"), "--source", "a/b", "--target", "fy",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    assert "path separator" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_affinity_missing_model(workspace, tmp_path, capsys):
    cfg = str(workspace / "data" / "config.json")
    code = main([
        "affinity", "--config", cfg, "--models-dir", str(tmp_path / "empty"),
        "--out", str(tmp_path),
    ])
    assert code == 3
    missing = tmp_path / "empty" / "fx2fx.haet"
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_affinity_over_baseline_model(workspace, tmp_path, capsys):
    cfg = str(workspace / "data" / "config.json")
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    assert main([
        "train", "--config", cfg, "--source", "fx", "--target", "fy",
        "--kind", "mlp", "--lr", "1e-3", "--epochs", "2", "--patience", "2",
        "--out", str(models),
    ]) == 0
    code = main([
        "affinity", "--config", cfg, "--models-dir", str(models), "--out", str(tmp_path),
    ])
    assert code == 3
    assert "mlp_baseline" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["train", "--config", "{bad}", "--source", "fx", "--target", "fy"], 3),
        (["train", "--config", "{array}", "--source", "fx", "--target", "fy"], 3),
        (["train", "--config", "{cfg}", "--source", "fx", "--target", "fy", "--batch", "0"], 2),
        (["train", "--config", "{cfg}", "--source", "fx", "--target", "fy", "--epochs", "0"], 2),
        (["train", "--config", "{cfg}", "--source", "fx", "--target", "fy", "--lr", "inf"], 2),
        (["synth", "--n", "101", "--clusters", "5"], 2),
        (["train", "--config", "{cfg}", "--source", "fx", "--target", "fy", "--latent", "0"], 2),
        (["train", "--config", "{cfg}", "--source", "fx", "--target", "fy", "--latent", "-1"], 2),
        (["grid", "--config", "{cfg}", "--epochs", "0"], 2),
        (["grid", "--config", "{cfg}", "--latent", "0"], 2),
        (["synth", "--n", "40", "--dim", "8", "--latent-dim", "4", "--clusters", "4",
          "--seed", "-1"], 2),
        (["train", "--config", "{cfg}", "--source", "fx", "--target", "fy", "--seed", "-1"], 2),
        (["grid", "--config", "{cfg}", "--seed", "-1"], 2),
        (["synth", "--n", "40", "--dim", "8", "--latent-dim", "4", "--clusters", "4",
          "--noise", "nan"], 2),
        (["synth", "--n", "40", "--dim", "8", "--latent-dim", "4", "--clusters", "4",
          "--noise", "inf"], 2),
    ],
    ids=["malformed-config", "non-object-config", "batch-0", "epochs-0", "lr-infinity",
         "clusters-not-dividing-n", "latent-0", "latent-negative",
         "grid-epochs-0", "grid-latent-0", "synth-seed-negative", "train-seed-negative",
         "grid-seed-negative", "synth-noise-nan", "synth-noise-inf"],
)
def test_bad_settings_exit_with_code(workspace, tmp_path, capsys, argv, code):
    (tmp_path / "bad.json").write_text('{"features": ')
    (tmp_path / "array.json").write_text("[]")
    paths = {
        "cfg": str(workspace / "data" / "config.json"),
        "bad": str(tmp_path / "bad.json"),
        "array": str(tmp_path / "array.json"),
    }
    argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("usage error:" if code == 2 else "error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "change, key",
    [
        ({"features": ["fx", "fy"]}, "features"),
        ({"features": {"fx": "fx.vec", "fy": "fy.vec"}}, "fx"),
        ({"features": {"fx": {"vec": "fx.vec"}}}, "ids"),
        ({"features": {"fx": {"ids": "fx.ids", "vec": 3}}}, "vec"),
        ({"epoch": 3}, "epoch"),
        ({"lr": 1e-3}, "lr"),
    ],
    ids=["features-list", "entry-not-object", "entry-without-ids", "entry-vec-not-str",
         "unknown-key-typo", "unknown-key-training-setting"],
)
def test_bad_config_value_names_its_key(workspace, tmp_path, capsys, change, key):
    config = json.loads((workspace / "data" / "config.json").read_text())
    config.update(change)
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = main(["train", "--config", str(tmp_path / "c.json"), "--source", "fx",
                 "--target", "fy", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


UNOPENABLE = "holds a NUL or a character no file name can hold"


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("train", lambda c: "[" * 100_000 + "]" * 100_000,
         "{path}: malformed config JSON: maximum recursion depth exceeded while decoding a "
         "JSON array from a unicode string"),
        ("train", lambda c: c["features"]["fx"].update(vec="fx\0.vec"),
         f"config registry entry 'fx' key 'vec' {UNOPENABLE}: 'fx\\x00.vec'"),
        ("train", lambda c: c["features"]["fy"].update(ids="\ud800.ids"),
         f"config registry entry 'fy' key 'ids' {UNOPENABLE}: '\\ud800.ids'"),
        ("eval", lambda c: c.update(gt="gt\0.tsv"), f"config key 'gt' {UNOPENABLE}: 'gt\\x00.tsv'"),
        ("eval", lambda c: c.update(gt="\ud800"), f"config key 'gt' {UNOPENABLE}: '\\ud800'"),
        ("grid", lambda c: c["features"].update({"f\0z": c["features"]["fx"]}),
         f"feature-set name 'f\\x00z' {UNOPENABLE}"),
    ],
    ids=["nested-100000-deep", "vec-nul", "ids-surrogate", "gt-nul", "gt-surrogate",
         "registry-name-nul"],
)
def test_config_open_cannot_take_exits_3(workspace, tmp_path, capsys, monkeypatch,
                                         command, edit, message):
    """Config text that json, open() or a file name cannot take is a data error that
    names the file or the key, before anything is trained or written."""
    config = json.loads((workspace / "data" / "config.json").read_text())
    edited = edit(config)
    path = tmp_path / "c.json"
    path.write_text(edited if isinstance(edited, str) else json.dumps(config))
    monkeypatch.setattr(translator, "train", lambda *a, **k: pytest.fail("trained a model"))
    argv = {"train": ["--source", "fx", "--target", "fy"],
            "eval": ["--model", str(workspace / "models" / "fx2fy.haet"), "--source", "fx",
                     "--target", "fy"],
            "grid": []}[command]
    code = main([command, "--config", str(path), *argv, "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--source", "fx", "--target", "fy", "--out", "m"],
        ["translate", "--model", "m/fx2fy.haet", "--source", "fx", "--out", "o"],
        ["eval", "--model", "m/fx2fy.haet", "--source", "fx", "--target", "fy", "--out", "o"],
        ["affinity", "--models-dir", "m", "--out", "o"],
        ["grid", "--out", "o"],
    ],
    ids=lambda argv: argv[0],
)
def test_registry_command_without_config_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--batch", "7.9"), ("--epochs", "two"), ("--lr", "fast")],
    ids=["batch-float", "epochs-str", "lr-str"],
)
@pytest.mark.parametrize("command", ["train", "grid"])
def test_training_flag_of_wrong_type_is_a_usage_error(capsys, command, flag, value):
    argv = [command, "--config", "c.json", "--out", "o", flag, value]
    if command == "train":
        argv += ["--source", "fx", "--target", "fy"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err and repr(value) in err


@pytest.mark.parametrize(
    "gt, message",
    [(5, "config key 'gt' must be a path string"), (None, "config has no 'gt' ground-truth path")],
    ids=["not-a-string", "missing"],
)
def test_eval_gt_not_a_path(workspace, tmp_path, capsys, gt, message):
    config = json.loads((workspace / "data" / "config.json").read_text())
    config["gt"] = gt
    if gt is None:
        del config["gt"]
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = main(["eval", "--config", str(tmp_path / "c.json"),
                 "--model", str(workspace / "models" / "fx2fy.haet"),
                 "--source", "fx", "--target", "fy", "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "case",
    ["vec-dim-2^32-1", "ids-not-utf8", "gt-not-utf8", "registry-path-is-dir", "model-is-dir"],
)
def test_unreadable_input_exits_3(workspace, tmp_path, capsys, case):
    config = json.loads((workspace / "data" / "config.json").read_text())
    model = str(workspace / "models" / "fx2fy.haet")
    bad = tmp_path / "bad"
    if case == "vec-dim-2^32-1":
        bad.write_bytes(struct.pack("<I", 2**32 - 1) + bytes(16))
        config["features"]["fx"]["vec"] = str(bad)
    elif case == "ids-not-utf8":
        bad.write_bytes(b"img\xff\n")
        config["features"]["fx"]["ids"] = str(bad)
    elif case == "gt-not-utf8":
        bad.write_bytes(b"q\xfe\tr\n")
        config["gt"] = str(bad)
    elif case == "registry-path-is-dir":
        config["features"]["fx"]["vec"] = str(tmp_path)
    else:
        model = str(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = main(["eval", "--config", str(tmp_path / "c.json"), "--model", model,
                 "--source", "fx", "--target", "fy", "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("missing", ["config", "vec", "ids", "gt", "model"])
def test_missing_input_exits_3_naming_it(workspace, tmp_path, capsys, missing):
    """No pre-check: the reader's own open() fails, naming the path in the OS message."""
    config = json.loads((workspace / "data" / "config.json").read_text())
    gone = tmp_path / f"gone.{missing}"
    cfg, model = tmp_path / "c.json", workspace / "models" / "fx2fy.haet"
    if missing in ("vec", "ids"):
        config["features"]["fx"][missing] = str(gone)
    elif missing == "gt":
        config["gt"] = str(gone)
    elif missing == "model":
        model = gone
    cfg.write_text(json.dumps(config))
    if missing == "config":
        cfg = gone
    code = main(["eval", "--config", str(cfg), "--model", str(model), "--source", "fx",
                 "--target", "fy", "--out", str(tmp_path / "out")])
    assert code == 3
    no_file = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
    assert capsys.readouterr().err == f"error: {no_file}: {str(gone)!r}\n"
    assert not (tmp_path / "out").exists()


def test_affinity_truncated_model_names_its_file(workspace, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(workspace / "models", models)
    cut = models / "fy2fx.haet"
    cut.write_bytes(cut.read_bytes()[:100])
    code = main(["affinity", "--config", str(workspace / "data" / "config.json"),
                 "--models-dir", str(models), "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {cut}: truncated model file\n"
    assert not (tmp_path / "out").exists()


def test_grid_writes_what_run_grid_gives(tmp_path):
    """`grid` on the registered sets equals run_grid on the same loaded,
    normalized sets, bit for bit, with --seed seeding model and training."""
    names = ("fa", "fb", "fc", "fd")
    data, out, lib = tmp_path / "data", tmp_path / "cli", tmp_path / "lib"
    assert main([
        "synth", "--out", str(data), "--n", "40", "--dim", "8", "--latent-dim", "4",
        "--clusters", "4", "--seed", "11",
        "--members", "fa:orthogonal_linear,fb:orthogonal_linear,fc:independent,fd:independent",
    ]) == 0
    assert main([
        "grid", "--config", str(data / "config.json"), "--latent", "4", "--epochs", "2",
        "--seed", "3", "--out", str(out),
    ]) == 0

    sets = {n: fio.l2_normalize(fio.load_feature_set(data / f"{n}.vec", data / f"{n}.ids", n))
            for n in names}
    lib.mkdir()
    grid = pipeline.run_grid(
        sets, fio.load_ground_truth(data / "gt.tsv"), names,
        translator.TrainConfig(max_epochs=2, seed=3), model_seed=3, latent_dim=4, out_dir=lib,
    )
    for s, t in itertools.product(names, repeat=2):
        model = translator.load_model(out / f"{s}2{t}.haet")
        assert (model.source_name, model.target_name) == (s, t)
    for label, matrix in (("M", grid.dam), ("U", grid.uam)):
        written = aff.read_matrix_csv(out / f"{label}.csv", kind=matrix.kind)
        assert written.names == names
        assert np.array_equal(written.values, matrix.values)
    summary = (out / "retrieval_summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 12  # header + every ordered pair of distinct names
    pipeline.write_grid(grid, lib)
    files = sorted(p.name for p in lib.iterdir())
    # models, train logs, M/R/C/U, mst.dot, mst.json, retrieval_summary.csv
    assert len(files) == 16 + 16 + 7
    assert sorted(p.name for p in out.iterdir()) == files
    for name in files:
        assert (out / name).read_bytes() == (lib / name).read_bytes(), name


def test_grid_and_eval_agree_on_a_set_that_is_not_unit_norm(tmp_path, capsys):
    """With fa's rows at norm 3, grid's summary and eval on grid's fa2fb.haet
    report the same translated mAP: every command normalizes its sets at load."""
    data, out = tmp_path / "data", tmp_path / "grid"
    assert main([
        "synth", "--out", str(data), "--n", "200", "--dim", "16", "--latent-dim", "8",
        "--clusters", "10", "--seed", "2", "--members", "fa:orthogonal_linear,fb:nonlinear_mlp",
    ]) == 0
    fa = fio.load_feature_set(data / "fa.vec", data / "fa.ids", "fa")
    scaled = 3 * fa.vectors / np.linalg.norm(fa.vectors, axis=1, keepdims=True)
    fio.save_feature_set(fio.FeatureSet("fa", fa.ids, scaled), data / "fa.vec", data / "fa.ids")
    cfg = str(data / "config.json")
    assert main(["grid", "--config", cfg, "--latent", "8", "--lr", "1e-3", "--epochs", "20",
                 "--patience", "20", "--out", str(out)]) == 0
    with open(out / "retrieval_summary.csv", encoding="utf-8") as f:
        summary = {(row["source"], row["target"]): row for row in csv.DictReader(f)}
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--model", str(out / "fa2fb.haet"), "--source", "fa",
                 "--target", "fb", "--out", str(tmp_path / "eval")]) == 0
    printed = re.search(r"translated mAP\(%\): +(\S+)", capsys.readouterr().out).group(1)
    assert printed == summary[("fa", "fb")]["translated_map"]


@pytest.mark.parametrize("command", ["translate", "eval"])
def test_registered_all_zero_row_exits_3(workspace, tmp_path, capsys, command):
    data = workspace / "data"
    fx = fio.load_feature_set(data / "fx.vec", data / "fx.ids", "fx")
    vectors = fx.vectors.copy()
    vectors[3] = 0.0
    fio.save_feature_set(fio.FeatureSet("fx", fx.ids, vectors), tmp_path / "fx.vec",
                         tmp_path / "fx.ids")
    config = json.loads((data / "config.json").read_text())
    config["features"]["fx"] = {"vec": str(tmp_path / "fx.vec"), "ids": str(tmp_path / "fx.ids")}
    (tmp_path / "c.json").write_text(json.dumps(config))
    target = ["--target", "fy"] if command == "eval" else []
    code = main([command, "--config", str(tmp_path / "c.json"),
                 "--model", str(workspace / "models" / "fx2fy.haet"), "--source", "fx", *target,
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"error: zero vector for id {fx.ids[3]!r} cannot be normalized\n"
    assert not (tmp_path / "out").exists()


def test_train_writes_what_train_pair_gives(workspace, tmp_path):
    """The workspace's `train` run and pipeline.train_pair on the align_pairs of
    the same normalized sets, with the same flags and seeds, write the same bytes."""
    data = workspace / "data"
    fx, fy = (fio.l2_normalize(fio.load_feature_set(data / f"{n}.vec", data / f"{n}.ids", n))
              for n in ("fx", "fy"))
    cfg = translator.TrainConfig(lr=1e-3, max_epochs=15, patience=15, seed=0)
    pipeline.train_pair(fio.align_pairs(fx, fy), cfg, model_seed=0, latent_dim=8, kind="hae",
                        out_dir=tmp_path)
    for name in ("fx2fy.haet", "fx2fy.trainlog.csv"):
        assert (tmp_path / name).read_bytes() == (workspace / "models" / name).read_bytes(), name


def test_each_named_set_is_loaded_once(workspace, tmp_path, monkeypatch):
    """`train` and `eval` naming fx as both source and target load it once, and
    write what the library writes from two separate loads of it."""
    data, loaded, load = workspace / "data", [], fio.load_feature_set
    fx = [fio.l2_normalize(load(data / "fx.vec", data / "fx.ids", "fx")) for _ in range(2)]
    monkeypatch.setattr(fio, "load_feature_set",
                        lambda vec, ids, name: loaded.append(name) or load(vec, ids, name))
    cfg = str(data / "config.json")
    assert main(["train", "--config", cfg, "--source", "fx", "--target", "fx", "--latent", "8",
                 "--lr", "1e-3", "--epochs", "5", "--patience", "5", "--seed", "0",
                 "--out", str(tmp_path / "train")]) == 0
    assert loaded == ["fx"]
    train_cfg = translator.TrainConfig(lr=1e-3, max_epochs=5, patience=5, seed=0)
    pipeline.train_pair(fio.align_pairs(*fx), train_cfg, model_seed=0, latent_dim=8, kind="hae",
                        out_dir=tmp_path / "expected")
    for name in ("fx2fx.haet", "fx2fx.trainlog.csv"):
        want = (tmp_path / "expected" / name).read_bytes()
        assert (tmp_path / "train" / name).read_bytes() == want, name

    loaded.clear()
    model = tmp_path / "train" / "fx2fx.haet"
    assert main(["eval", "--config", cfg, "--model", str(model), "--source", "fx",
                 "--target", "fx", "--out", str(tmp_path / "eval")]) == 0
    assert loaded == ["fx"]
    gt = fio.load_ground_truth(json.loads((data / "config.json").read_text())["gt"])
    expected = retrieval.cross_feature_evaluate(translator.load_model(model), *fx, gt)
    retrieval.write_eval_csv(expected, tmp_path / "expected.csv")
    written = (tmp_path / "eval" / "fx2fx.eval.csv").read_bytes()
    assert written == (tmp_path / "expected.csv").read_bytes()


@pytest.mark.parametrize("names", ["fx,fx", "fx,nope"], ids=["duplicate", "unknown"])
def test_grid_bad_names_exit_3_before_training(workspace, tmp_path, capsys, monkeypatch, names):
    monkeypatch.setattr(translator, "train", lambda *a, **k: pytest.fail("trained a model"))
    code = main(["grid", "--config", str(workspace / "data" / "config.json"),
                 "--names", names, "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.rglob("*.haet"))


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--source", "fx", "--target", "fy"],
        ["translate", "--model", "{models}/fx2fy.haet", "--source", "fx"],
        ["eval", "--model", "{models}/fx2fy.haet", "--source", "fx", "--target", "fy"],
        ["affinity", "--models-dir", "{models}", "--names", "fx,fy"],
        ["grid", "--names", "fx,fy"],
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_entry_of_an_unused_name_exits_3(workspace, tmp_path, capsys, monkeypatch,
                                                   argv):
    """The registry is checked whole when the config is read, so an entry the
    command does not name is rejected before anything is loaded or trained."""
    config = json.loads((workspace / "data" / "config.json").read_text())
    config["features"]["z"] = 5
    (tmp_path / "c.json").write_text(json.dumps(config))
    monkeypatch.setattr(translator, "train", lambda *a, **k: pytest.fail("trained a model"))
    argv = [a.format(models=workspace / "models") for a in argv]
    code = main(argv + ["--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'z'" in err
    assert not (tmp_path / "out").exists()


def test_grid_latent_0_exits_2_before_scoring(workspace, tmp_path, capsys, monkeypatch):
    calls, evaluate = [], retrieval.evaluate
    monkeypatch.setattr(retrieval, "evaluate", lambda *a, **k: calls.append(a) or evaluate(*a, **k))
    code = main(["grid", "--config", str(workspace / "data" / "config.json"), "--latent", "0",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_train_latent_0_exits_2_before_loading(workspace, tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("load_feature_set", "align_pairs"):
        real = getattr(fio, name)
        monkeypatch.setattr(fio, name, lambda *a, _name=name, _real=real, **k:
                            calls.append(_name) or _real(*a, **k))
    code = main(["train", "--config", str(workspace / "data" / "config.json"), "--source", "fx",
                 "--target", "fy", "--latent", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_grid_unknown_relevant_id_exits_3_before_training(workspace, tmp_path, capsys,
                                                          monkeypatch):
    gt = (workspace / "data" / "gt.tsv").read_text().splitlines()
    query, relevant = gt[0].split("\t")
    (tmp_path / "gt.tsv").write_text("\n".join([f"{query}\t{relevant},nosuchid", *gt[1:]]) + "\n")
    config = json.loads((workspace / "data" / "config.json").read_text())
    config["gt"] = str(tmp_path / "gt.tsv")
    (tmp_path / "c.json").write_text(json.dumps(config))
    monkeypatch.setattr(translator, "train", lambda *a, **k: pytest.fail("trained a model"))
    code = main(["grid", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "'nosuchid'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.haet"))


@pytest.mark.parametrize(
    "argv", [["train", "--source", "fx", "--target", "fy"], ["grid"]], ids=lambda argv: argv[0]
)
def test_out_that_is_a_file_exits_3_before_training(workspace, tmp_path, capsys, monkeypatch,
                                                    argv):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    monkeypatch.setattr(translator, "train", lambda *a, **k: pytest.fail("trained a model"))
    code = main(argv + ["--config", str(workspace / "data" / "config.json"), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "argv",
    [["translate", "--source", "fx"], ["eval", "--source", "fx", "--target", "fy"]],
    ids=lambda argv: argv[0],
)
def test_out_that_is_a_file_exits_3_before_the_work(workspace, tmp_path, capsys, monkeypatch,
                                                    argv):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    calls = []
    for module, name in ((translator, "translate"), (retrieval, "evaluate"),
                         (retrieval, "cross_feature_evaluate")):
        def counted(*a, name=name, work=getattr(module, name), **k):
            calls.append(name)
            return work(*a, **k)
        monkeypatch.setattr(module, name, counted)
    code = main(argv + ["--config", str(workspace / "data" / "config.json"),
                        "--model", str(workspace / "models" / "fx2fy.haet"), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    assert calls == []
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "case", ["synth-member-dotdot", "synth-member-empty", "eval-name-dotdot",
             "translate-model-name-dotdot"],
)
def test_output_names_stay_inside_out(workspace, tmp_path, capsys, case):
    """No name from a flag, the registry or a model file puts an output file
    outside --out: synth exits 2 (a bad setting), eval and translate exit 3."""
    cfg = str(workspace / "data" / "config.json")
    out = tmp_path / "o" / "deep"
    if case.startswith("synth"):
        members = "x,../evil" if case == "synth-member-dotdot" else ",b"
        argv = ["synth", "--n", "20", "--clusters", "2", "--members", members]
    elif case == "eval-name-dotdot":
        config = json.loads((workspace / "data" / "config.json").read_text())
        config["features"] = {"../up": config["features"]["fx"], "q": config["features"]["fy"]}
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = ["eval", "--config", str(tmp_path / "c.json"),
                "--model", str(workspace / "models" / "fx2fy.haet"),
                "--source", "../up", "--target", "q"]
    else:
        model = translator.build(16, 16, 4, seed=0, source_name="../z", target_name="q")
        translator.save_model(model, tmp_path / "z2q.haet")
        argv = ["translate", "--config", cfg, "--model", str(tmp_path / "z2q.haet"),
                "--source", "fx"]
    before = set(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(out)]) == (2 if case.startswith("synth") else 3)
    assert re.search("empty feature-set name|holds a path separator", capsys.readouterr().err)
    assert all(out in p.parents for p in set(tmp_path.rglob("*")) - before)


def test_readme_cli_examples_parse():
    """Every `feattrans` command in README's shell blocks parses, and together
    they show every subcommand."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [line for line in lines if line.startswith("feattrans ")]
    parser = build_parser()
    shown = {parser.parse_args(shlex.split(line)[1:]).command for line in commands}
    assert shown == {"synth", "train", "translate", "eval", "affinity", "grid", "mst"}


def test_readme_step_by_step_run_exits_0(tmp_path):
    """README's step-by-step block, run as written by sh in an empty
    directory, exits 0 at every `feattrans` command."""
    block = re.search(r"A typical step-by-step run:\n\n```sh\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    shim = 'feattrans() { "$PYTHON" -m feattrans.cli "$@"; echo "$? $1" >> codes; }\n'
    src = str(README.parent / "src")
    env = {**os.environ, "PYTHON": sys.executable,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(["sh", "-c", shim + block], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    codes = (tmp_path / "codes").read_text().splitlines()
    assert codes == [f"0 {c}" for c in ("synth", *["train"] * 4, "translate", "eval",
                                          "affinity", "mst")], run.stderr
    assert run.returncode == 0, run.stderr


def test_mst_from_affinity(workspace, tmp_path):
    cfg = str(workspace / "data" / "config.json")
    matrices = tmp_path / "matrices"
    assert main([
        "affinity", "--config", cfg, "--models-dir", str(workspace / "models"),
        "--out", str(matrices),
    ]) == 0
    assert main(["mst", "--input", str(matrices / "U.csv"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "mst.dot").exists()
    payload = json.loads((tmp_path / "mst.json").read_text())
    assert len(payload["edges"]) == 1


def test_mst_rejects_asymmetric(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(",a,b\na,0.0,0.5\nb,0.25,0.0\n")
    assert main(["mst", "--input", str(bad), "--out", str(tmp_path)]) == 3


U_CSV = b",fx,fy\nfx,0.0,1.0\nfy,1.0,0.0\n"


@pytest.mark.parametrize(
    "text, where",
    [
        (U_CSV + b"fz,0.5,0.5\n", "row 4:"),
        (U_CSV.replace(b"fy,1.0,0.0", b"fy,abc,0.0"), "row 3:"),
        (U_CSV.replace(b"fy,1.0,0.0", b"fy,1.0"), "row 3:"),
        (U_CSV.replace(b"fy,1.0,0.0", b"f\xffy,1.0,0.0"), "row 3:"),
        (U_CSV.replace(b"fy,1.0", b"fy," + b"1" * 200_000), "field larger than field limit"),
        (U_CSV.replace(b"fy,1.0,0.0", b"fy,nan,0.0"), "affinity matrix contains non-finite"),
        (U_CSV.replace(b"fy,1.0,0.0", b"fy,0.5,0.0"), "undirected matrix must be symmetric"),
        (U_CSV.replace(b"fy,1.0,0.0\n", b""), "expected square matrix"),
    ],
    ids=["extra-row", "non-numeric-cell", "short-row", "not-utf8", "cell-over-csv-limit",
         "non-finite-cell", "asymmetric", "missing-row"],
)
def test_mst_malformed_matrix_csv_exits_3(tmp_path, capsys, text, where):
    bad = tmp_path / "U.csv"
    bad.write_bytes(text)
    assert main(["mst", "--input", str(bad), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}: {where}")


def test_mst_duplicate_names_exits_3(tmp_path, capsys):
    bad = tmp_path / "U.csv"
    bad.write_text(",fx,fx\nfx,0.0,1.0\nfx,1.0,0.0\n")
    assert main(["mst", "--input", str(bad), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "duplicate" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 2


def test_one_error_type_per_exit_code(tmp_path, capsys, monkeypatch):
    def subclasses(cls):
        return {c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))}

    assert subclasses(errors.FeattransError) == {DataError, NumericError, InvalidConfig}
    assert {v for v in vars(errors).values() if isinstance(v, type) and issubclass(
        v, errors.FeattransError)} == {errors.FeattransError, DataError, NumericError, InvalidConfig}
    for error, code, prefix in [(DataError, 3, "error:"), (NumericError, 4, "numeric failure:"),
                                (InvalidConfig, 2, "usage error:")]:
        def fail(args, error=error):
            raise error(f"{error.__name__} raised")

        monkeypatch.setattr(cli, "cmd_mst", fail)
        assert main(["mst", "--input", str(tmp_path / "U.csv"), "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"{prefix} {error.__name__} raised\n"


def test_train_idempotent_bytes(workspace, tmp_path):
    cfg = str(workspace / "data" / "config.json")
    for out in ("one", "two"):
        assert main([
            "train", "--config", cfg, "--source", "fx", "--target", "fy",
            "--latent", "8", "--lr", "1e-3", "--epochs", "5",
            "--patience", "5", "--seed", "0", "--out", str(tmp_path / out),
        ]) == 0
    assert (tmp_path / "one" / "fx2fy.haet").read_bytes() == (
        tmp_path / "two" / "fx2fy.haet"
    ).read_bytes()
