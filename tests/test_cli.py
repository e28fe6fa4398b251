import dataclasses
import json
from pathlib import Path

import pytest

from pempinn._fork import ForkedStage
from pempinn.cli import main
from pempinn.config import (
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from pempinn.errors import ConfigError


@pytest.fixture()
def fast_config(tmp_path):
    """Default config shrunk so pipeline commands finish in seconds."""
    data = config_to_dict(default_config())
    data.update(
        n_steps=256,
        n_train=12,
        n_test=40,
        max_epochs=15,
        n_collocation=12,
    )
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(data) + "\n")
    return path


# -- config file --------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = default_config()
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert config_hash(loaded) == config_hash(cfg)
    assert loaded.physics == cfg.physics
    assert loaded.conditions == cfg.conditions


def test_config_rejects_unknown_key():
    data = config_to_dict(default_config())
    data["not_a_parameter"] = 1.0
    with pytest.raises(ConfigError, match="not_a_parameter"):
        config_from_dict(data)


def test_config_reports_offending_key():
    data = config_to_dict(default_config())
    data["learning_rate"] = -0.5
    with pytest.raises(ConfigError, match="learning_rate"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    data["max_epochs"] = 1.5
    with pytest.raises(ConfigError, match="max_epochs"):
        config_from_dict(data)


_KIND_REJECTS = {"int": [1.5, True], "float": ["1", True, 10**400]}


@pytest.mark.parametrize(
    "key, kind",
    [
        (f.name, f.type)
        for group in dataclasses.fields(RunConfig)
        for f in dataclasses.fields(getattr(default_config(), group.name))
    ],
)
def test_config_checks_each_key_kind(key, kind):
    # The loader takes each key's kind from its field's annotation.
    assert kind in _KIND_REJECTS
    for bad in _KIND_REJECTS[kind]:
        data = config_to_dict(default_config())
        data[key] = bad
        with pytest.raises(ConfigError, match=f"'{key}': expected "):
            config_from_dict(data)


@pytest.mark.parametrize(
    "key, value",
    [
        ("learning_rate", float("nan")),
        ("t_max", float("nan")),
        ("learning_rate", float("inf")),
        ("lambda_ic", float("-inf")),
    ],
)
def test_config_rejects_non_finite_numbers(key, value):
    data = config_to_dict(default_config())
    data[key] = value
    with pytest.raises(ConfigError, match=key):
        config_from_dict(data)


def test_config_file_with_nan_exits_2(tmp_path, capsys):
    data = config_to_dict(default_config())
    data["learning_rate"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))  # serialized as the bare token NaN
    assert "NaN" in path.read_text()
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "learning_rate" in err
    assert str(path) in err
    # A fault of the whole file names the file, and no key.
    for body in ("{bad", "[1]"):
        path.write_text(body)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2, body
        err = capsys.readouterr().err
        assert str(path) in err, body
        assert "'<file>'" not in err and "config key" not in err, body


# Keys that no equation read, or that restated the loss weights
# (physics_enabled), which older configs still hold, with the values they
# held there.
_REMOVED_KEYS = {
    "i_lim": 6.0,
    "gamma_cat": 150.0,
    "k1_0": 706.8,
    "A_H2O2": 42450.0,
    "alpha_H2O2": 0.5,
    "eta_2e": 0.695,
    "p_cat": 30.0,
    "rho_naf_cgs": 1.98,
    "physics_enabled": False,
}


@pytest.mark.parametrize("key", sorted(_REMOVED_KEYS))
def test_config_with_removed_key_exits_2(tmp_path, capsys, key):
    data = config_to_dict(default_config())
    data[key] = _REMOVED_KEYS[key]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_packaged_default_matches_dataclass_defaults(tmp_path):
    # The committed config file is generated from the dataclass defaults by
    # scripts/calibrate_closures.py; they must never drift apart, and the
    # file must be exactly what save_config writes.
    from importlib import resources

    path = Path(resources.files("pempinn") / "data" / "default_config.json")
    packaged = load_config(path)
    assert config_hash(packaged) == config_hash(default_config())
    fresh = tmp_path / "default_config.json"
    save_config(default_config(), fresh)
    assert path.read_bytes() == fresh.read_bytes()


# -- commands ------------------------------------------------------------


def test_simulate_writes_artifacts(tmp_path, fast_config):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(fast_config), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "trajectory_diagnostics.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"][0]["command"] == "simulate"
    assert "trajectory.csv" in manifest["runs"][0]["outputs"]
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t_hours,voltage_V,thickness_cm"
    assert len(rows) == 258  # header + n_steps + 1


def test_simulate_k5_zero_is_flat(tmp_path, fast_config):
    out = tmp_path / "flat"
    assert main(
        ["simulate", "--config", str(fast_config), "--out", str(out), "--k5", "0"]
    ) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    thick = {row.split(",")[2] for row in rows}
    assert len(thick) == 1  # every thickness identical


def test_simulate_rerun_identical_checksums(tmp_path, fast_config):
    out = tmp_path / "rep"
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    first = (out / "trajectory.csv").read_bytes()
    main(["simulate", "--config", str(fast_config), "--out", str(out)])
    assert (out / "trajectory.csv").read_bytes() == first
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 2  # append-only
    a, b = manifest["runs"]
    assert a["outputs"]["trajectory.csv"] == b["outputs"]["trajectory.csv"]


def test_generate_then_train_then_evaluate(tmp_path, fast_config):
    data_dir = tmp_path / "data"
    assert main(
        ["generate-data", "--config", str(fast_config), "--out", str(data_dir)]
    ) == 0
    ds_path = data_dir / "dataset.csv"
    assert ds_path.exists()
    meta = json.loads((data_dir / "dataset.csv.meta.json").read_text())
    assert "sha256" in meta and meta["seed"] == 11

    train_dir = tmp_path / "train"
    assert main(
        [
            "train",
            "--config", str(fast_config),
            "--data", str(ds_path),
            "--out", str(train_dir),
        ]
    ) == 0
    assert (train_dir / "checkpoint.json").exists()
    history = (train_dir / "history.csv").read_text().splitlines()
    assert history[0].startswith("epoch,loss_data")
    assert len(history) == 16  # header + 15 epochs

    eval_dir = tmp_path / "eval"
    assert main(
        [
            "evaluate",
            "--config", str(fast_config),
            "--checkpoint", str(train_dir / "checkpoint.json"),
            "--data", str(ds_path),
            "--out", str(eval_dir),
        ]
    ) == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    for key in ("rmse_train_V", "rmse_test_V", "rmse_train_mem", "rmse_test_mem",
                "k5_hat_final"):
        assert key in metrics
    # 15 epochs of a shrunk config cannot fit anything: RMSE stays large.
    assert metrics["rmse_test_V"] > 0.05


def _trained_checkpoint(tmp_path, fast_config):
    data_dir = tmp_path / "data"
    main(["generate-data", "--config", str(fast_config), "--out", str(data_dir)])
    train_dir = tmp_path / "train"
    main(
        [
            "train",
            "--config", str(fast_config),
            "--data", str(data_dir / "dataset.csv"),
            "--out", str(train_dir),
            "--epochs", "2",
        ]
    )
    return data_dir / "dataset.csv", train_dir / "checkpoint.json"


def test_damaged_checkpoint_exits_4(tmp_path, fast_config, capsys):
    ds_path, ckpt = _trained_checkpoint(tmp_path, fast_config)
    text = ckpt.read_text()
    payload = json.loads(text)
    damaged = {
        "truncated": text[: len(text) // 2],
        "missing_key": json.dumps({k: v for k, v in payload.items() if k != "k5_hat"}),
    }
    # A zero scale made evaluate divide by zero into NaN RMSEs, a negative
    # one gave finite but meaningless RMSEs; both exited 0.
    for key, value in (
        ("input_scale", 0.0), ("input_scale", -1.0), ("v_ref", 0.0),
        ("t_mem_ref", -0.0175),
    ):
        damaged[f"{key}_{value:g}"] = json.dumps(dict(payload, **{key: value}))
    # A string or a boolean loaded as a number and evaluate exited 0; an
    # integer too large for a float crashed with an OverflowError.
    for key, value in (
        ("k5_hat", "1.5"), ("v_ref", True), ("k5_hat", 10**400), ("weights", 0.5)
    ):
        damaged[f"{key}_{type(value).__name__}"] = json.dumps(
            dict(payload, **{key: value})
        )
    for key, value in (("weights", "0.25"), ("biases", True), ("weights", 10**400)):
        layers = json.loads(json.dumps(payload[key]))  # a deep copy
        (layers[1][0] if key == "weights" else layers[1])[0] = value
        damaged[f"{key}_{type(value).__name__}"] = json.dumps(
            dict(payload, **{key: layers})
        )
    for name, body in damaged.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(body)
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--config", str(fast_config),
                "--checkpoint", str(bad),
                "--data", str(ds_path),
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 4, name
        err = capsys.readouterr().err
        assert str(bad) in err, name
        if name.startswith(
            ("input_scale", "v_ref", "t_mem_ref", "k5_hat", "weights", "biases")
        ):
            assert f"'{name.rsplit('_', 1)[0]}'" in err, name
        assert not (tmp_path / "eval" / "metrics.json").exists(), name


@pytest.mark.parametrize(
    "field, value",
    [("format", "some-other-file"), ("version", 99), ("version", True),
     ("version", 1.0)],
    ids=["format", "version", "version_true", "version_float"],
)
def test_checkpoint_with_wrong_header_exits_4(
    tmp_path, fast_config, capsys, field, value
):
    # A version of true or 1.0 passed as version 1.
    ds_path, ckpt = _trained_checkpoint(tmp_path, fast_config)
    payload = json.loads(ckpt.read_text())
    payload[field] = value
    bad = tmp_path / "wrong_header.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(
        [
            "evaluate",
            "--config", str(fast_config),
            "--checkpoint", str(bad),
            "--data", str(ds_path),
            "--out", str(tmp_path / "eval"),
        ]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert str(bad) in err
    assert field in err


# -- dataset boundary ----------------------------------------------------------


def _edit_field(ds_path: Path, line: int, column: str, edit) -> None:
    """Apply ``edit`` to one field of a dataset CSV (line numbers from 1)."""
    lines = ds_path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[line - 1].split(",")
    i = header.index(column)
    fields[i] = edit(fields[i])
    lines[line - 1] = ",".join(fields)
    ds_path.write_text("\n".join(lines) + "\n")


def _evaluate_and_train(tmp_path, fast_config, ds_path, ckpt):
    """Exit codes of evaluate and train on one dataset."""
    common = ["--config", str(fast_config), "--data", str(ds_path)]
    return (
        main(["evaluate", *common, "--checkpoint", str(ckpt),
              "--out", str(tmp_path / "eval")]),
        main(["train", *common, "--out", str(tmp_path / "retrain")]),
    )


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_dataset_row_exits_4(tmp_path, fast_config, capsys, value):
    ds_path, ckpt = _trained_checkpoint(tmp_path, fast_config)
    _edit_field(ds_path, 3, "voltage_V", lambda _: value)
    capsys.readouterr()
    assert _evaluate_and_train(tmp_path, fast_config, ds_path, ckpt) == (4, 4)
    err = capsys.readouterr().err
    assert err.count(f"{ds_path}:3:") == 2
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_dataset_sha256_mismatch_exits_4(tmp_path, fast_config, capsys):
    ds_path, ckpt = _trained_checkpoint(tmp_path, fast_config)
    # One digit changed: the file still parses but no longer has the
    # content the sidecar recorded.
    _edit_field(
        ds_path, 5, "voltage_V", lambda v: v[:3] + ("1" if v[3] != "1" else "2") + v[4:]
    )
    capsys.readouterr()
    assert _evaluate_and_train(tmp_path, fast_config, ds_path, ckpt) == (4, 4)
    err = capsys.readouterr().err
    assert "sha256" in err
    assert f"{ds_path}.meta.json" in err


@pytest.mark.parametrize(
    "damage, key",
    [
        (lambda text: text[: len(text) // 2], None),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "seed"}), "seed"),
        (lambda text: json.dumps({**json.loads(text), "noise_sigma_v": "high"}),
         "noise_sigma_v"),
    ],
    ids=["bad_json", "missing_key", "non_numeric_value"],
)
def test_damaged_dataset_sidecar_exits_4(tmp_path, fast_config, capsys, damage, key):
    ds_path, ckpt = _trained_checkpoint(tmp_path, fast_config)
    meta_path = Path(f"{ds_path}.meta.json")
    meta_path.write_text(damage(meta_path.read_text()))
    capsys.readouterr()
    assert _evaluate_and_train(tmp_path, fast_config, ds_path, ckpt) == (4, 4)
    err = capsys.readouterr().err
    assert err.count(str(meta_path)) == 2
    if key is not None:
        assert f"'{key}'" in err


def test_corrupt_manifest_exits_4(tmp_path, fast_config, capsys):
    out = tmp_path / "sim"
    out.mkdir()
    manifest = out / "manifest.json"
    for body in ('{"runs": [', '{"not_runs": []}'):
        manifest.write_text(body)
        capsys.readouterr()
        code = main(["simulate", "--config", str(fast_config), "--out", str(out)])
        assert code == 4, body
        assert str(manifest) in capsys.readouterr().err, body
        assert manifest.read_text() == body  # left as found


def _invalid_utf8_at_last_line(path: Path) -> None:
    raw = path.read_bytes()
    start = raw.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(raw[:start] + b"\xff" + raw[start:])  # 0xff is never UTF-8


def _invalid_utf8_at_end(path: Path) -> None:
    path.write_bytes(path.read_bytes().rstrip(b"\n") + b"\xff\n")


@pytest.mark.parametrize(
    "kind, damage, code",
    [
        ("config", _invalid_utf8_at_last_line, 2),
        ("dataset", _invalid_utf8_at_last_line, 4),
        ("dataset", _invalid_utf8_at_end, 4),  # in is_noisy, which is not parsed
        ("sidecar", _invalid_utf8_at_last_line, 4),
        ("checkpoint", _invalid_utf8_at_last_line, 4),
        ("manifest", _invalid_utf8_at_last_line, 4),
    ],
    ids=["config", "dataset", "dataset_unparsed_column", "sidecar", "checkpoint",
         "manifest"],
)
def test_input_that_is_not_utf8_exits_with_its_code(
    tmp_path, fast_config, capsys, kind, damage, code
):
    ds_path, ckpt = _trained_checkpoint(tmp_path, fast_config)
    out = tmp_path / "eval"
    out.mkdir()
    (out / "manifest.json").write_text('{"runs": []}\n')
    target = {
        "config": fast_config,
        "dataset": ds_path,
        "sidecar": Path(f"{ds_path}.meta.json"),
        "checkpoint": ckpt,
        "manifest": out / "manifest.json",
    }[kind]
    damage(target)
    capsys.readouterr()
    assert main(
        [
            "evaluate",
            "--config", str(fast_config),
            "--checkpoint", str(ckpt),
            "--data", str(ds_path),
            "--out", str(out),
        ]
    ) == code
    assert str(target) in capsys.readouterr().err


# Nested deeper than the JSON parser recurses, this crashed with a
# RecursionError traceback.
_DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("body", ["[]", _DEEP_ARRAY], ids=["array", "deep_array"])
@pytest.mark.parametrize(
    "kind, code", [("config", 2), ("sidecar", 4), ("checkpoint", 4), ("manifest", 4)]
)
def test_json_input_that_is_not_an_object_exits_with_its_code(
    tmp_path, fast_config, capsys, kind, code, body
):
    # All four go through one reader, which needs a JSON object.
    ds_path, ckpt = _trained_checkpoint(tmp_path, fast_config)
    out = tmp_path / "eval"
    out.mkdir()
    target = {
        "config": fast_config,
        "sidecar": Path(f"{ds_path}.meta.json"),
        "checkpoint": ckpt,
        "manifest": out / "manifest.json",
    }[kind]
    target.write_text(body)
    capsys.readouterr()
    assert main(
        [
            "evaluate",
            "--config", str(fast_config),
            "--checkpoint", str(ckpt),
            "--data", str(ds_path),
            "--out", str(out),
        ]
    ) == code
    assert str(target) in capsys.readouterr().err
    assert target.read_text() == body  # left as found


def test_train_no_physics_flag(tmp_path, fast_config):
    data_dir = tmp_path / "data"
    main(["generate-data", "--config", str(fast_config), "--out", str(data_dir)])
    out = tmp_path / "ann"
    assert main(
        [
            "train",
            "--config", str(fast_config),
            "--data", str(data_dir / "dataset.csv"),
            "--out", str(out),
            "--no-physics",
        ]
    ) == 0
    history = (out / "history.csv").read_text().splitlines()[1:]
    phys_cols = {row.split(",")[2] for row in history} | {
        row.split(",")[3] for row in history
    }
    assert phys_cols == {"0.0"}  # physics components identically zero


def test_zero_weights_train_the_no_physics_ann(tmp_path, fast_config):
    # "Physics on" follows the residual weights: a config with both at 0
    # trains what --no-physics trains, and both runs are labelled ann.
    data_dir = tmp_path / "data"
    main(["generate-data", "--config", str(fast_config), "--out", str(data_dir)])
    data = json.loads(fast_config.read_text())
    data.update(lambda_v=0.0, lambda_tmem=0.0)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(data))
    runs = {"flag": (fast_config, ["--no-physics"]), "weights": (zero, [])}
    for name, (config, flags) in runs.items():
        assert main(
            [
                "train",
                "--config", str(config),
                "--data", str(data_dir / "dataset.csv"),
                "--out", str(tmp_path / name),
                *flags,
            ]
        ) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert [run["command"] for run in manifest["runs"]] == ["train[ann]"]
    for file in ("checkpoint.json", "history.csv", "metrics.json"):
        flag = (tmp_path / "flag" / file).read_bytes()
        assert flag == (tmp_path / "weights" / file).read_bytes(), file


def test_missing_input_exits_4(tmp_path, fast_config, capsys):
    # The loaders own a missing input: each raises FileNotFoundError naming
    # the file, an I/O failure, before --out is created.
    from pempinn.network import init_parameters, save_checkpoint

    data_dir = tmp_path / "data"
    assert main(
        ["generate-data", "--config", str(fast_config), "--out", str(data_dir)]
    ) == 0
    dataset = data_dir / "dataset.csv"
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(init_parameters(0, input_scale=8.0e5, t_mem_ref=0.0175), checkpoint)
    missing = tmp_path / "nope" / "missing.file"
    capsys.readouterr()
    for command, inputs in (
        ("train", ["--data", missing]),
        ("evaluate", ["--checkpoint", missing, "--data", dataset]),
        ("evaluate", ["--checkpoint", checkpoint, "--data", missing]),
    ):
        out = tmp_path / "out"
        argv = [command, "--config", str(fast_config), "--out", str(out)]
        assert main(argv + [str(p) for p in inputs]) == 4, inputs
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    data = config_to_dict(default_config())
    data["lambda_v"] = -3.0
    bad.write_text(json.dumps(data))
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    # the full pipeline surfaces the same failure
    code = main(["reproduce", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # Horizon far beyond the membrane's life: the thickness reaches zero.
    data = config_to_dict(default_config())
    data.update(n_steps=64, t_max=8.0e8)
    path = tmp_path / "harsh.json"
    path.write_text(json.dumps(data))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "membrane thickness reached zero" in capsys.readouterr().err
    _assert_children_reaped()


@pytest.mark.parametrize("command", ["simulate", "generate-data"])
def test_failed_voltage_solve_exits_3(tmp_path, capsys, command):
    # At P = 5e6 W the voltage equation has no root on the bracket even at
    # the first stage.
    data = config_to_dict(default_config())
    data["P"] = 5.0e6
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "no sign change on [0.5, 5.0] V" in err
    assert "t = 0.0 h" in err
    assert "status" not in err
    assert not out.exists()
    _assert_children_reaped()


@pytest.mark.parametrize("command", ["simulate", "generate-data"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_k5_exits_2(tmp_path, fast_config, capsys, command, value):
    out = tmp_path / "o"
    code = main(
        [command, "--config", str(fast_config), "--out", str(out), "--k5", value]
    )
    assert code == 2
    assert "config key 'k5'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_seed_override_changes_dataset(tmp_path, fast_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["generate-data", "--config", str(fast_config), "--out", str(a)])
    main(
        [
            "generate-data",
            "--config", str(fast_config),
            "--out", str(b),
            "--seed", "99",
        ]
    )
    assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()
    meta = json.loads((b / "dataset.csv.meta.json").read_text())
    assert meta["seed"] == 99


def test_reproduce_fast_smoke(tmp_path, fast_config):
    out = tmp_path / "repro"
    code = main(
        ["reproduce", "--config", str(fast_config), "--out", str(out)]
    )
    # A 15-epoch run does not meet the acceptance gates: exit 1, not crash.
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert set(report["checks"]) == {
        "k5_recovery",
        "pinn_vs_ann_voltage",
        "pinn_vs_ann_membrane",
        "rmse_voltage_bound",
        "rmse_membrane_bound",
    }
    text = (out / "report.txt").read_text()
    assert "Testing RMSE (Voltage) [V]" in text
    assert "Training RMSE (Membrane) [cm]" in text
    assert "k5_hat_final" in text
    assert (out / "pinn" / "history.csv").exists()
    assert (out / "ann" / "history.csv").exists()
    # The manifest entry names every file the run writes in --out, each
    # complete (the forked stages' included) when it was hashed.
    import hashlib
    import os

    entry = json.loads((out / "manifest.json").read_text())["runs"][-1]
    assert entry["command"] == "reproduce"
    assert set(entry["outputs"]) == {
        "trajectory.csv", "trajectory_diagnostics.csv", "dataset.csv",
        "dataset.csv.meta.json", "report.json", "report.txt",
    }
    for name, digest in entry["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    with pytest.raises(ChildProcessError):  # every forked stage was reaped
        os.waitpid(-1, os.WNOHANG)


def test_reproduce_runs_under_the_benchmark_tracer(tmp_path, fast_config, monkeypatch):
    # perfbench/spans.py patches and reads names in src/ (cli.train, the
    # training config's physics_enabled, _kernel.get_kernels, ...): a change
    # that breaks one fails here, not only in the traced benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = main([
            "reproduce", "--config", str(fast_config), "--out", str(tmp_path / "r"),
            "--epochs", "2",
        ])
    finally:
        tracer.uninstall()
    assert code in (0, 1)
    recorded = {name for name, *_ in tracer.spans}
    assert {"training.loop", "training.loss", "kernel.rk4"} <= recorded


def test_reproduce_trains_on_the_dataset_it_wrote(tmp_path, fast_config):
    # reproduce trains both models from the dataset in memory; training
    # again from its dataset.csv must give the same bytes.
    out = tmp_path / "repro"
    common = ["--config", str(fast_config), "--seed", "3"]
    assert main(["reproduce", *common, "--out", str(out)]) == 1
    for label, flags in (("pinn", []), ("ann", ["--no-physics"])):
        again = tmp_path / label
        assert main([
            "train", *common, "--data", str(out / "dataset.csv"),
            "--out", str(again), *flags,
        ]) == 0
        for name in ("history.csv", "checkpoint.json", "metrics.json"):
            assert (again / name).read_bytes() == (out / label / name).read_bytes(), (
                label, name,
            )


@pytest.mark.parametrize("t_max", [1.0e-10, 1.0e-300])
def test_horizon_too_short_to_thin_exits_2(tmp_path, fast_config, capsys, t_max):
    # At the fast config's 256 steps, dt * TR is below half an ulp of
    # t_mem0: the attacked membrane could never thin.
    data = json.loads(fast_config.read_text())
    data["t_max"] = t_max
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config key 't_max'" in err
    assert f"dt = t_max / n_steps = {t_max / 256} h" in err
    assert not out.exists()
    _assert_children_reaped()
    # Without attack a flat trajectory is the right answer.
    argv = ["simulate", "--config", str(path), "--out", str(out), "--k5", "0"]
    assert main(argv) == 0


@pytest.mark.parametrize("command", ["simulate", "generate-data"])
@pytest.mark.parametrize("t_max", [1.0e-3, 1.0e-2])
@pytest.mark.parametrize("packaged", [False, True], ids=["fast", "packaged"])
def test_short_horizon_that_thins_runs(tmp_path, fast_config, command, t_max, packaged):
    # At the packaged 4096 steps V rises by less than V_TOL per step, so
    # the solve returns the same V on some steps; the thickness still falls.
    if packaged:
        data = config_to_dict(default_config())
    else:
        data = json.loads(fast_config.read_text())
    data["t_max"] = t_max
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    if command == "simulate":
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        thickness = [float(line.split(",")[2]) for line in lines]
    else:
        lines = (out / "dataset.csv").read_text().splitlines()[1:]
        thickness = [float(line.split(",")[3]) for line in lines if line.startswith("test,")]
    assert len(thickness) > 1
    assert all(b < a for a, b in zip(thickness, thickness[1:]))


@pytest.mark.parametrize("command", ["simulate", "generate-data"])
def test_rejected_run_creates_no_output_directory(tmp_path, fast_config, command):
    out = tmp_path / "never"
    code = main(
        [command, "--config", str(fast_config), "--out", str(out), "--k5", "nan"]
    )
    assert code == 2
    assert not out.exists()
    _assert_children_reaped()


@pytest.mark.parametrize("command", ["simulate", "generate-data"])
def test_chemistry_infeasible_everywhere_exits_3(
    tmp_path, fast_config, capsys, command
):
    # k2 = 0.1 leaves the peroxide quadratic without a positive root at
    # every stage: no attack, a flat trajectory that means nothing.
    data = json.loads(fast_config.read_text())
    data["k2"] = 0.1
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    # 256 steps of 4 stages plus the final evaluation.
    assert "1025 stage evaluations" in capsys.readouterr().err
    assert not out.exists()
    _assert_children_reaped()


@pytest.mark.parametrize("command", ["simulate", "generate-data"])
def test_manifest_records_chemistry_counters(tmp_path, fast_config, command):
    from pempinn.simulator import integrate_trajectory

    cfg = load_config(fast_config)
    traj = integrate_trajectory(
        cfg.physics, cfg.conditions, k5=700.0, n_steps=cfg.simulation.n_steps
    )
    out = tmp_path / "o"
    assert main(
        [command, "--config", str(fast_config), "--out", str(out), "--k5", "700"]
    ) == 0
    entry = json.loads((out / "manifest.json").read_text())["runs"][-1]
    assert entry["diagnostics"] == {
        "hydroxyl_clamped": traj.hydroxyl_clamped,
        "chemistry_infeasible": traj.chemistry_infeasible,
    }


def test_failed_training_artifact_write_keeps_previous_file(tmp_path):
    import os
    from dataclasses import replace as dc_replace

    from pempinn.cli import _write_history_csv
    from pempinn.network import init_parameters, save_checkpoint
    from pempinn.training import EpochRecord

    ckpt = tmp_path / "checkpoint.json"
    net = init_parameters(0, input_scale=8.0e5, t_mem_ref=0.0175)
    save_checkpoint(net, ckpt)
    history = tmp_path / "history.csv"
    record = EpochRecord(0, 1.0, 2.0, 3.0, 4.0, 10.0, 0.5)
    _write_history_csv(history, [record, record._replace(epoch=1)])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # json.dump streams: the weights are written before k5_hat fails.
    with pytest.raises(TypeError):
        save_checkpoint(dc_replace(net, k5_hat=object()), ckpt)
    # The second row is no record: the header and first row are written.
    with pytest.raises(TypeError):
        _write_history_csv(history, [record, object()])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "seed", -1),
        ("train", "checkpoint_every", -5),
        ("train", "v_ref", 0.0),
        ("train", "adam_beta1", 1.0),
        ("train", "adam_beta2", 1.0),
        ("train", "lambda_hydration", 0.5),
        ("train", "max_epochs", -1),
        ("train", "adam_eps", 0.0),
        ("reproduce", "v_ref", 0.0),
        ("generate-data", "dataset_seed", -1),
        ("simulate", "P", 0.0),
        ("simulate", "A_cell", 0.0),
        # Oversized counts, each within the float range.
        ("generate-data", "n_steps", 2**63),
        ("generate-data", "n_steps", 2**40),
        pytest.param(
            "generate-data", "n_train", 10**400, id="generate-data-n_train-10**400"
        ),
        ("generate-data", "n_test", 2**40),
        ("train", "n_collocation", 2**40),
        # t_max / n_steps rounds to 0 at the fast config's 256 steps.
        ("simulate", "t_max", 5e-322),
    ],
)
def test_bad_config_value_exits_2_before_out(
    tmp_path, fast_config, capsys, command, key, value
):
    data_dir = tmp_path / "data"
    assert main(
        ["generate-data", "--config", str(fast_config), "--out", str(data_dir)]
    ) == 0
    data = json.loads(fast_config.read_text())
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "never"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "train":
        argv += ["--data", str(data_dir / "dataset.csv")]
    assert main(argv) == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "reproduce"])
@pytest.mark.parametrize("flag", ["--seed", "--epochs"])
def test_negative_flag_exits_2_before_out(tmp_path, fast_config, capsys, command, flag):
    out = tmp_path / "never"
    argv = [command, "--config", str(fast_config), "--out", str(out), flag, "-1"]
    if command == "train":
        argv += ["--data", str(tmp_path / "dataset.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a non-negative integer" in err
    assert "config key" not in err
    assert not out.exists()


def test_manifest_records_environment(
    tmp_path, fast_config, rk4_kernel, repr_formatter, dataset_parser
):
    import platform

    import numpy as np
    from numpy._core import _multiarray_umath as umath

    from pempinn import _kernel

    out = tmp_path / "o"
    config = ["--config", str(fast_config), "--out", str(out)]
    data = ["--data", str(out / "dataset.csv")]
    assert main(["simulate", *config]) == 0
    assert main(["generate-data", *config]) == 0
    assert main(["train", *config, *data, "--epochs", "1"]) == 0
    checkpoint = ["--checkpoint", str(out / "checkpoint.json")]
    assert main(["evaluate", *config, *data, *checkpoint]) == 0
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [entry["command"] for entry in runs] == [
        "simulate", "generate-data", "train[pinn]", "evaluate"
    ]
    for entry in runs:
        env = entry["environment"]
        # Only the commands that run the C libraries say which ran.
        kernels = entry["command"] in ("simulate", "generate-data")
        parsed = not kernels
        trained = entry["command"] == "train[pinn]"
        assert sorted(env) == sorted([
            "numpy", "numpy_simd", "openblas_config", "openblas_core", "python",
            *(["repr_formatter", "rk4_kernel"] if kernels else []),
            *(["dataset_parser"] if parsed else []),
            *(["residual_kernel"] if trained else []),
        ])
        if kernels:
            assert env["rk4_kernel"] == rk4_kernel
            assert env["repr_formatter"] == repr_formatter
        else:
            assert env["dataset_parser"] == dataset_parser
        if trained:
            assert env["residual_kernel"] == _kernel.residual_kernel_name()
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        # SIMD targets in dispatch order, the baseline first.
        baseline = list(umath.__cpu_baseline__)
        assert env["numpy_simd"][: len(baseline)] == baseline
        # A DYNAMIC_ARCH OpenBLAS names the core it picked in its config.
        assert env["openblas_core"] in env["openblas_config"]


def test_train_and_evaluate_resolve_no_c_library(tmp_path, fast_config, monkeypatch):
    from pempinn import _kernel

    out = tmp_path / "o"
    config = ["--config", str(fast_config), "--out", str(out)]
    data = ["--data", str(out / "dataset.csv")]
    assert main(["generate-data", *config]) == 0

    def unused():
        raise AssertionError("train and evaluate run neither C library")

    monkeypatch.setattr(_kernel, "_selected", unused)
    monkeypatch.setattr(_kernel, "_selected_formatter", unused)
    assert main(["train", *config, *data, "--epochs", "1"]) == 0
    checkpoint = ["--checkpoint", str(out / "checkpoint.json")]
    assert main(["evaluate", *config, *data, *checkpoint]) == 0


def test_only_physics_training_selects_the_residual_block(
    tmp_path, fast_config, monkeypatch
):
    # simulate, generate-data, evaluate and ANN training compute no physics
    # residual: none builds the C block or records one.
    from pempinn import _kernel

    def unused():
        raise AssertionError("no physics residual is computed")

    monkeypatch.setattr(_kernel, "_selected_residual", unused)
    out = tmp_path / "o"
    config = ["--config", str(fast_config), "--out", str(out)]
    data = ["--data", str(out / "dataset.csv")]
    assert main(["simulate", *config]) == 0
    assert main(["generate-data", *config]) == 0
    assert main(["train", *config, *data, "--epochs", "2", "--no-physics"]) == 0
    checkpoint = ["--checkpoint", str(out / "checkpoint.json")]
    assert main(["evaluate", *config, *data, *checkpoint]) == 0
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [run["command"] for run in runs] == [
        "simulate", "generate-data", "train[ann]", "evaluate"
    ]
    for run in runs:
        assert "residual_kernel" not in run["environment"]


def test_commands_that_write_datasets_resolve_no_parser(
    tmp_path, fast_config, monkeypatch
):
    # simulate and generate-data read no dataset, and reproduce trains from
    # the dataset in memory: none builds the parser or records one.
    from pempinn import _kernel

    def unused():
        raise AssertionError("no dataset CSV is parsed")

    monkeypatch.setattr(_kernel, "_selected_parser", unused)
    out = tmp_path / "o"
    config = ["--config", str(fast_config), "--out", str(out)]
    for command in ("simulate", "generate-data", "reproduce"):
        assert main([command, *config]) in (0, 1)
    manifests = [out / d / "manifest.json" for d in (".", "pinn", "ann")]
    runs = [run for m in manifests for run in json.loads(m.read_text())["runs"]]
    assert [run["command"] for run in runs] == [
        "simulate", "generate-data", "reproduce", "train[pinn]", "train[ann]"
    ]
    for run in runs:
        assert "dataset_parser" not in run["environment"]
    # Of these, only the PINN's training computes the physics residuals.
    recorded = [r["command"] for r in runs if "residual_kernel" in r["environment"]]
    assert recorded == ["train[pinn]"]


def test_native_environment_falls_back_to_unknown(tmp_path, monkeypatch):
    # No OpenBLAS in the library directory, and a numpy that does not
    # report its CPU features.
    from numpy._core import _multiarray_umath as umath

    from pempinn import cli

    monkeypatch.delattr(umath, "__cpu_features__")
    assert cli._native_environment.__wrapped__(tmp_path) == {
        "numpy_simd": "unknown",
        "openblas_core": "unknown",
        "openblas_config": "unknown",
    }


@pytest.mark.parametrize("k5_hat, code", [(1.5, 0), (1.0, 1)])
def test_k5_recovery_gate_scales_with_k5_true(
    tmp_path, fast_config, monkeypatch, k5_hat, code
):
    # With k5_true = 1500 the trainable k5_hat should recover 1.5; the
    # other gates are met by stub metrics, so the k5 gate alone decides.
    from pempinn import cli
    from pempinn.network import init_parameters
    from pempinn.training import Metrics

    def fake_train(ds, params, cond, config, checkpoint_hook=None):
        net = init_parameters(0, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
        if config.physics_enabled:
            return net, Metrics(1e-3, 1e-3, 1e-6, 1e-6, k5_hat_final=k5_hat)
        return net, Metrics(1.0, 1.0, 1e-3, 1e-3, k5_hat_final=0.0)

    monkeypatch.setattr(cli, "train", fake_train)
    data = json.loads(fast_config.read_text())
    data["k5_true"] = 1500.0
    path = tmp_path / "k5.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "repro"
    assert main(["reproduce", "--config", str(path), "--out", str(out)]) == code
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["k5_recovery"] is (code == 0)
    assert [k for k, ok in report["checks"].items() if not ok] == (
        [] if code == 0 else ["k5_recovery"]
    )
    text = (out / "report.txt").read_text()
    assert f"k5_hat_final (target 1.5): {k5_hat:.4f}" in text


def test_reproduce_simulate_failure_writes_fail_report(tmp_path, fast_config, capsys):
    # k2 = 0.1 makes the chemistry infeasible at every stage (exit 3).
    data = json.loads(fast_config.read_text())
    data["k2"] = 0.1
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "repro"
    assert main(["reproduce", "--config", str(path), "--out", str(out)]) == 3
    assert "reproduction FAILED at stage simulate" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "FAIL"
    assert report["failed_stage"] == "simulate"
    assert "1025 stage evaluations" in report["error"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "every, saves, distinct", [(0, 1, 1), (5, 4, 3), (7, 3, 3)]
)
def test_checkpoint_every_fires_cli_checkpoint_hook(
    tmp_path, fast_config, monkeypatch, every, saves, distinct
):
    # 15 epochs: the hook saves the net after every `every`-th epoch, then
    # the final net is saved; with every = 5 the epoch-15 save is the final.
    from pempinn import cli
    from pempinn.network import flatten

    data_dir = tmp_path / "data"
    assert main(
        ["generate-data", "--config", str(fast_config), "--out", str(data_dir)]
    ) == 0
    data = json.loads(fast_config.read_text())
    data["checkpoint_every"] = every
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(data))
    saved = []
    real_save = cli.save_checkpoint

    def recording_save(net, target):
        saved.append((flatten(net), target))
        real_save(net, target)

    monkeypatch.setattr(cli, "save_checkpoint", recording_save)
    out = tmp_path / "run"
    assert main(
        [
            "train",
            "--config", str(path),
            "--data", str(data_dir / "dataset.csv"),
            "--out", str(out),
        ]
    ) == 0
    assert len(saved) == saves
    assert {target for _, target in saved} == {out / "checkpoint.json"}
    assert len({vec.tobytes() for vec, _ in saved}) == distinct


def test_failed_config_write_keeps_previous_file(tmp_path):
    import os

    path = tmp_path / "config.json"
    cfg = default_config()
    save_config(cfg, path)
    before = path.read_bytes()
    # json.dump streams in sorted key order: the keys before 'v1' are
    # written before the unserializable value fails.
    physics = dataclasses.replace(cfg.physics)
    object.__setattr__(physics, "v1", object())
    with pytest.raises(TypeError):
        save_config(dataclasses.replace(cfg, physics=physics), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["config.json"]


# -- reproduce: stages in forked children -------------------------------------


def test_every_error_survives_pickling():
    # A stage run in a forked child hands its exception back pickled.
    import inspect
    import pickle

    from pempinn import errors

    special = {
        errors.ConfigError: ("n_steps", "need at least 10 integration steps"),
    }
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    ]
    assert errors.ConfigError in classes and errors.ArtifactFormatError in classes
    for cls in classes:
        exc = cls(*special.get(cls, ("something failed",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)  # ConfigError.key


@pytest.mark.parametrize(
    "cut",
    [
        lambda payload: payload[:1],
        lambda payload: payload[: len(payload) // 2],
        lambda payload: payload[:-1],
    ],
    ids=["first_byte", "half", "all_but_last_byte"],
)
def test_result_cut_short_is_child_process_error(cut):
    # A child killed while it writes leaves a payload cut short; result()
    # reaps it and reports it, instead of an unpickling error.
    def job():
        _truncate_results(cut)
        return list(range(10_000))

    with pytest.raises(ChildProcessError, match=r"without a result \(wait status 0\)"):
        ForkedStage(job).result()
    _assert_children_reaped()


def test_result_interrupted_while_reading_kills_the_child(monkeypatch):
    # An interrupt while result() waits for the payload kills and reaps the
    # child at once; it must not wait for the job to end.
    import pickle
    import time

    def interrupted(pipe):
        raise KeyboardInterrupt

    stage = ForkedStage(lambda: time.sleep(30.0))
    monkeypatch.setattr(pickle, "load", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        stage.result()
    assert time.monotonic() - start < 1.0
    _assert_children_reaped()


def _assert_children_reaped():
    import os

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_failed_reproduce(out, stage, error):
    report = json.loads((out / "report.json").read_text())
    assert (report["status"], report["failed_stage"]) == ("FAIL", stage)
    assert error in report["error"]
    assert (out / "report.txt").read_text() == (
        f"reproduction FAILED at stage {stage}: {report['error']}\n"
    )
    _assert_children_reaped()  # every forked stage


def _stub_training_error():
    from pempinn.errors import NumericalError

    raise NumericalError("stub training failure")


def _stub_child_death():
    import os

    os._exit(1)  # the forked stage ends before it sends a result


def _truncate_results(cut):
    """Cut every result this forked child sends with ``cut``, as if it were
    killed while it wrote; the stub runs in the child only."""
    import pickle

    dumps = pickle.dumps
    pickle.dumps = lambda obj: cut(dumps(obj))


def _stub_truncated_result():
    _truncate_results(lambda payload: payload[: len(payload) // 2])


def _train_failing_for(physics_enabled, monkeypatch, fail=_stub_training_error):
    from pempinn import cli

    real_train = cli.train

    def train(ds, params, cond, config, checkpoint_hook=None):
        if config.physics_enabled == physics_enabled:
            fail()
        return real_train(ds, params, cond, config, checkpoint_hook=checkpoint_hook)

    monkeypatch.setattr(cli, "train", train)


@pytest.mark.parametrize("pinn_fails", [False, True])
def test_reproduce_trajectory_write_failure_is_stage_simulate(
    tmp_path, fast_config, monkeypatch, capsys, pinn_fails
):
    # The trajectory is written before any later stage runs, so a PINN
    # that would fail is never reached.
    from pempinn import cli

    def write_trajectory(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_trajectory", write_trajectory)
    if pinn_fails:
        _train_failing_for(True, monkeypatch)
    out = tmp_path / "repro"
    assert main(["reproduce", "--config", str(fast_config), "--out", str(out)]) == 4
    assert "reproduction FAILED at stage simulate" in capsys.readouterr().err
    _assert_failed_reproduce(out, "simulate", "No space left on device")


@pytest.mark.parametrize(
    "fail, code, error",
    [
        (_stub_training_error, 3, "stub training failure"),
        (_stub_child_death, 4, "forked stage ended without a result"),
        (_stub_truncated_result, 4, "forked stage ended without a result"),
    ],
)
def test_reproduce_ann_failure_is_stage_train_ann(
    tmp_path, fast_config, monkeypatch, fail, code, error
):
    _train_failing_for(False, monkeypatch, fail)
    out = tmp_path / "repro"
    assert main(["reproduce", "--config", str(fast_config), "--out", str(out)]) == code
    _assert_failed_reproduce(out, "train-ann", error)
    assert (out / "pinn" / "checkpoint.json").exists()


def test_reproduce_pinn_failure_kills_the_ann_child(tmp_path, fast_config, monkeypatch):
    import time

    from pempinn import cli
    from pempinn.errors import NumericalError

    def train(ds, params, cond, config, checkpoint_hook=None):
        if config.physics_enabled:
            raise NumericalError("stub PINN failure")
        time.sleep(30.0)  # the ANN would outlast the test unless killed

    monkeypatch.setattr(cli, "train", train)
    out = tmp_path / "repro"
    start = time.monotonic()
    assert main(["reproduce", "--config", str(fast_config), "--out", str(out)]) == 3
    assert time.monotonic() - start < 15.0
    _assert_failed_reproduce(out, "train-pinn", "stub PINN failure")
    assert not (out / "ann" / "checkpoint.json").exists()


def test_reproduce_without_fork_runs_stages_inline(tmp_path, fast_config, monkeypatch):
    import os

    forked = tmp_path / "forked"
    assert main(["reproduce", "--config", str(fast_config), "--out", str(forked)]) == 1
    monkeypatch.delattr(os, "fork")
    inline = tmp_path / "inline"
    assert main(["reproduce", "--config", str(fast_config), "--out", str(inline)]) == 1
    names = [
        "report.json", "report.txt", "trajectory.csv", "trajectory_diagnostics.csv",
        "dataset.csv", "dataset.csv.meta.json", "pinn/history.csv",
        "pinn/checkpoint.json", "ann/history.csv", "ann/checkpoint.json",
    ]
    for name in names:
        assert (inline / name).read_bytes() == (forked / name).read_bytes(), name


def test_failed_reproduce_replaces_previous_report_txt(tmp_path, fast_config):
    out = tmp_path / "repro"
    argv = ["reproduce", "--config", str(fast_config), "--out", str(out)]
    assert main(argv + ["--epochs", "2"]) == 1
    assert "Testing RMSE" in (out / "report.txt").read_text()
    # k2 = 0.1 makes the chemistry infeasible at every stage (exit 3).
    data = json.loads(fast_config.read_text())
    data["k2"] = 0.1
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(data))
    assert main(["reproduce", "--config", str(path), "--out", str(out)]) == 3
    _assert_failed_reproduce(out, "simulate", "1025 stage evaluations")
    assert "Testing RMSE" not in (out / "report.txt").read_text()


# -- simulate and reproduce: the trajectory CSVs, written in blocks ------------


def _config_with(tmp_path, fast_config, **overrides):
    data = json.loads(fast_config.read_text())
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


TRAJECTORY_FILES = ("trajectory.csv", "trajectory_diagnostics.csv")


@pytest.mark.parametrize("extra_rows", [-1, 0, 1], ids=["block-1", "block", "block+1"])
def test_simulate_writes_the_bytes_of_one_whole_range_call(
    tmp_path, fast_config, extra_rows, repr_formatter
):
    from pempinn.simulator import (
        DIAGNOSTICS_HEADER,
        TRAJECTORY_BLOCK_ROWS,
        TRAJECTORY_HEADER,
        integrate_trajectory,
        trajectory_rows,
    )

    rows = TRAJECTORY_BLOCK_ROWS + extra_rows
    n_steps = rows - 1
    config = _config_with(tmp_path, fast_config, n_steps=n_steps)
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    cfg = load_config(config)
    traj = integrate_trajectory(cfg.physics, cfg.conditions, n_steps=n_steps)
    arrays = [getattr(traj, f.name) for f in dataclasses.fields(traj)[:8]]
    whole = trajectory_rows(arrays, 0, rows)
    for name, header, body in zip(
        TRAJECTORY_FILES, (TRAJECTORY_HEADER, DIAGNOSTICS_HEADER), whole
    ):
        assert (tmp_path / "o" / name).read_bytes() == header.encode() + body, name
    assert len(whole[0].splitlines()) == rows
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "manifest.json", *TRAJECTORY_FILES
    ]


def test_simulate_lets_the_writer_write_only_once_out_exists(
    tmp_path, fast_config, monkeypatch
):
    from pempinn import cli

    out = tmp_path / "o"
    real_write = cli.write_trajectory

    def write_trajectory(traj, *paths):
        if not out.is_dir():
            raise OSError(2, "trajectory written before --out exists")
        real_write(traj, *paths)

    monkeypatch.setattr(cli, "write_trajectory", write_trajectory)
    assert main(["simulate", "--config", str(fast_config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", *TRAJECTORY_FILES]


def _fail_at_second_block(monkeypatch) -> list:
    """Make write_trajectory's second block fail after its first block has
    reached both temporary files; returns the first rows of the blocks
    asked for, in a list."""
    from pempinn import simulator

    real_rows = simulator.trajectory_rows
    starts = []

    def trajectory_rows(arrays, start, stop):
        starts.append(start)
        if len(starts) == 2:
            raise OSError(28, "No space left on device")
        return real_rows(arrays, start, stop)

    monkeypatch.setattr(simulator, "trajectory_rows", trajectory_rows)
    return starts


def test_simulate_writer_failure_exits_4_and_writes_no_trajectory(
    tmp_path, fast_config, monkeypatch, capsys
):
    from pempinn.simulator import TRAJECTORY_BLOCK_ROWS

    starts = _fail_at_second_block(monkeypatch)
    config = _config_with(tmp_path, fast_config, n_steps=2 * TRAJECTORY_BLOCK_ROWS)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 4
    assert starts == [0, TRAJECTORY_BLOCK_ROWS]
    assert "No space left on device" in capsys.readouterr().err
    assert list(out.glob("trajectory*.csv")) == []
    assert list(out.glob("*.tmp")) == []
    assert not (out / "manifest.json").exists()


def test_reproduce_writer_failure_is_stage_simulate(tmp_path, fast_config, monkeypatch):
    from pempinn.simulator import TRAJECTORY_BLOCK_ROWS

    starts = _fail_at_second_block(monkeypatch)
    config = _config_with(tmp_path, fast_config, n_steps=TRAJECTORY_BLOCK_ROWS)
    out = tmp_path / "repro"
    assert main(["reproduce", "--config", str(config), "--out", str(out)]) == 4
    assert starts == [0, TRAJECTORY_BLOCK_ROWS]
    _assert_failed_reproduce(out, "simulate", "No space left on device")
    assert list(out.glob("trajectory*.csv")) == []
    assert list(out.glob("*.tmp")) == []


# sha256 of the two files simulate writes on the packaged config with
# n_steps overridden, by (n_steps, --k5), from CPython 3.11 on glibc. The
# block writer and the whole-range call share one formatter, so only fixed
# digests catch a change in the bytes it writes.
GOLDEN_TRAJECTORY_SHA256 = [
    (256, None, (
        "1483e9f869c888081c7fca051fff9a7ae33648d1be296fc8a12a2b68166fe6b7",
        "d3bb4d123a5ce762c43f574189eeddd9429ab3d1877291e6dfc5ba6b3f461ff0",
    )),
    (700, "777.25", (
        "d87313a26763ed58c3a6c62ab0300f0cb49b3c886bb8fa2b20657d8e6071ce21",
        "e01843b91a0229fc5ddea95a8451190f3cb783818a5f911ecb22ac35c664a7e8",
    )),
]


@pytest.mark.parametrize("n_steps, k5, digests", GOLDEN_TRAJECTORY_SHA256)
def test_simulate_trajectory_bytes_match_golden_digests(
    tmp_path, n_steps, k5, digests, rk4_kernel
):
    import hashlib

    from pempinn import cli

    data = json.loads(cli._default_config_path().read_text())
    data["n_steps"] = n_steps
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "o"
    argv = ["simulate", "--config", str(config), "--out", str(out)]
    assert main(argv + (["--k5", k5] if k5 else [])) == 0
    for name, digest in zip(TRAJECTORY_FILES, digests):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("fault", ["no_compiler", "self_check_fails"])
def test_simulate_without_the_c_formatter_writes_the_same_bytes(
    tmp_path, monkeypatch, fault
):
    import functools
    import hashlib

    from pempinn import _kernel, cli

    if fault == "no_compiler":
        monkeypatch.setattr(_kernel, "_compiler", lambda: None)
    else:
        monkeypatch.setattr(_kernel, "_same_text", lambda formatter: False)
    # Both selections start afresh, and the session's come back afterwards.
    for name in ("_selected", "_selected_formatter"):
        fresh = functools.cache(getattr(_kernel, name).__wrapped__)
        monkeypatch.setattr(_kernel, name, fresh)
    n_steps, _, digests = GOLDEN_TRAJECTORY_SHA256[0]
    data = json.loads(cli._default_config_path().read_text())
    data["n_steps"] = n_steps
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    for name, digest in zip(TRAJECTORY_FILES, digests):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    [run] = json.loads((out / "manifest.json").read_text())["runs"]
    assert run["environment"]["repr_formatter"] == "python"


def _fork_fails():
    import errno

    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def test_simulate_and_generate_data_fork_no_process(tmp_path, fast_config, monkeypatch):
    import os

    monkeypatch.setattr(os, "fork", _fork_fails)
    for command in ("simulate", "generate-data"):
        out = tmp_path / command
        assert main([command, "--config", str(fast_config), "--out", str(out)]) == 0


def test_reproduce_ann_fork_failure_is_stage_train_ann(
    tmp_path, fast_config, monkeypatch
):
    import os

    calls = []

    def fork():
        calls.append(None)
        _fork_fails()

    monkeypatch.setattr(os, "fork", fork)
    out = tmp_path / "repro"
    before = len(os.listdir("/proc/self/fd"))
    assert main(["reproduce", "--config", str(fast_config), "--out", str(out)]) == 4
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(calls) == 1
    _assert_failed_reproduce(out, "train-ann", "Resource temporarily unavailable")
    assert not (out / "pinn").exists()
