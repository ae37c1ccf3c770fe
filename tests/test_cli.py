import itertools
import json
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from feattrans import affinity as aff
from feattrans import feature_io as fio, retrieval, translator
from feattrans.cli import main


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


def test_translate(workspace, tmp_path):
    cfg = str(workspace / "data" / "config.json")
    assert main([
        "translate", "--config", cfg, "--model", str(workspace / "models" / "fx2fy.haet"),
        "--source", "fx", "--out", str(tmp_path),
    ]) == 0
    assert (tmp_path / "fx2fy.vec").exists()


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
        fio.load_feature_set(data / "fx.vec", data / "fx.ids", "fx"),
        fio.load_feature_set(tmp_path / "fq.vec", tmp_path / "fq.ids", "fq"),
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
    sets = {n: fio.load_feature_set(data / f"{n}.vec", data / f"{n}.ids", n) for n in names}
    pairs = list(itertools.product(names, repeat=2))
    expected = aff.build_dam(
        {(s, t): translator.load_model(workspace / "models" / f"{s}2{t}.haet") for s, t in pairs},
        {(s, t): fio.align_pairs(sets[s], fio.l2_normalize(sets[t])) for s, t in pairs},
        names,
    )
    assert main([
        "affinity", "--config", str(data / "config.json"),
        "--models-dir", str(workspace / "models"), "--out", str(tmp_path),
    ]) == 0
    m = aff.read_matrix_csv(tmp_path / "M.csv", kind=aff.DIRECTED_M)
    assert m.names == names
    assert np.array_equal(m.values, expected.values)


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


def test_affinity_missing_model(workspace, tmp_path, capsys):
    cfg = str(workspace / "data" / "config.json")
    code = main([
        "affinity", "--config", cfg, "--models-dir", str(tmp_path / "empty"),
        "--out", str(tmp_path),
    ])
    assert code == 3
    assert "no trained model" in capsys.readouterr().err


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
        (["train", "--config", "{inf}", "--source", "fx", "--target", "fy"], 2),
        (["synth", "--n", "101", "--clusters", "5"], 2),
        (["train", "--config", "{cfg}", "--source", "fx", "--target", "fy", "--latent", "0"], 2),
        (["train", "--config", "{cfg}", "--source", "fx", "--target", "fy", "--latent", "-1"], 2),
        (["train", "--config", "{latent0}", "--source", "fx", "--target", "fy"], 2),
    ],
    ids=["malformed-config", "non-object-config", "batch-0", "epochs-0", "lr-infinity",
         "clusters-not-dividing-n", "latent-0", "latent-negative", "config-latent-0"],
)
def test_bad_settings_exit_with_code(workspace, tmp_path, capsys, argv, code):
    (tmp_path / "bad.json").write_text('{"features": ')
    (tmp_path / "array.json").write_text("[]")
    config = json.loads((workspace / "data" / "config.json").read_text())
    (tmp_path / "inf.json").write_text(json.dumps({**config, "lr": float("inf")}))  # "lr": Infinity
    (tmp_path / "latent0.json").write_text(json.dumps({**config, "latent": 0}))
    paths = {
        "cfg": str(workspace / "data" / "config.json"),
        "bad": str(tmp_path / "bad.json"),
        "array": str(tmp_path / "array.json"),
        "inf": str(tmp_path / "inf.json"),
        "latent0": str(tmp_path / "latent0.json"),
    }
    argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("usage error:" if code == 2 else "error:")


@pytest.mark.parametrize(
    "change, key",
    [
        ({"batch": "abc"}, "batch"),
        ({"lr": [1]}, "lr"),
        ({"epochs": None}, "epochs"),
        ({"latent": {"n": 8}}, "latent"),
        ({"features": ["fx", "fy"]}, "features"),
        ({"features": {"fx": "fx.vec", "fy": "fy.vec"}}, "fx"),
        ({"features": {"fx": {"vec": "fx.vec"}}}, "ids"),
        ({"features": {"fx": {"ids": "fx.ids", "vec": 3}}}, "vec"),
        ({"epochs": True}, "epochs"),
        ({"batch": 7.9}, "batch"),
        ({"epochs": "2"}, "epochs"),
        ({"lr": True}, "lr"),
        ({"lr": 10**400}, "lr"),
    ],
    ids=["batch-str", "lr-list", "epochs-null", "latent-object", "features-list",
         "entry-not-object", "entry-without-ids", "entry-vec-not-str",
         "epochs-bool", "batch-float", "epochs-numeric-str", "lr-bool", "lr-int-too-big"],
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


def test_eval_gt_not_a_path(workspace, tmp_path, capsys):
    config = json.loads((workspace / "data" / "config.json").read_text())
    config["gt"] = 5
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = main(["eval", "--config", str(tmp_path / "c.json"),
                 "--model", str(workspace / "models" / "fx2fy.haet"),
                 "--source", "fx", "--target", "fy", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "'gt'" in capsys.readouterr().err


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
    ],
    ids=["extra-row", "non-numeric-cell", "short-row", "not-utf8", "cell-over-csv-limit"],
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
