import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from pempinn import _kernel
from pempinn.degradation import steady_state_radicals, thinning_rate
from pempinn.errors import ConfigError, DatasetFormatError, SimulationError
from pempinn.simulator import (
    DATASET_COLUMNS,
    dataset_csv_bytes,
    generate_dataset,
    integrate_trajectory,
    load_dataset,
    save_dataset,
)

GOLDEN_DIR = Path(__file__).parent / "data"


def test_zero_attack_rate_gives_flat_trajectory(params, cond):
    traj = integrate_trajectory(params, cond, k5=0.0, n_steps=64)
    assert np.all(traj.thicknesses == cond.t_mem0)
    assert np.ptp(traj.voltages) == 0.0


def test_trajectory_structure(trajectory, cond):
    assert trajectory.times[0] == 0.0
    assert trajectory.times[-1] == pytest.approx(cond.t_max, rel=1e-15)
    assert np.all(np.diff(trajectory.times) > 0)
    assert np.all(trajectory.thicknesses > 0)
    # energy direction under active degradation
    assert np.all(np.diff(trajectory.thicknesses) < 0)
    assert np.all(np.diff(trajectory.voltages) > 0)


def test_frozen_hydroxyl_matches_analytic_exponential(params, cond):
    # With c_HO frozen, dt_mem/dt = -kappa * t_mem exactly.
    st = steady_state_radicals(params, cond, 2.4264537682997105)
    traj = integrate_trajectory(
        params, cond, n_steps=4096, c_ho_override=st.c_ho
    )
    kappa = float(thinning_rate(params, st.c_ho, cond.t_mem0)) / cond.t_mem0
    exact = cond.t_mem0 * np.exp(-kappa * traj.times)
    rel = np.abs(traj.thicknesses - exact) / exact
    assert rel.max() <= 1e-8


def test_step_halving_order_at_least_3_8(cond):
    # Accelerated degradation so truncation error sits far above the
    # voltage-solve noise floor (~1e-14) across the whole step range; the
    # default dynamics are so gentle that RK4 error reaches round-off by
    # n=128 and the order measurement degenerates.
    from dataclasses import replace

    from pempinn.constants import default_parameters

    params = replace(default_parameters(), v1=14.0)
    k5 = 5.0e3
    ref = integrate_trajectory(params, cond, k5=k5, n_steps=2**16).thicknesses[-1]
    errors = []
    steps = [16, 32, 64, 128]
    for n in steps:
        t = integrate_trajectory(params, cond, k5=k5, n_steps=n).thicknesses[-1]
        errors.append(abs(t - ref))
    orders = [
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    assert min(orders) >= 3.8, orders


def test_diagnostics_consistent_with_degradation_module(params, cond, trajectory):
    # Re-evaluate TR from the logged (V, t_mem) at a sample of steps.
    idx = np.linspace(0, len(trajectory.times) - 1, 25, dtype=int)
    for i in idx:
        st = steady_state_radicals(params, cond, float(trajectory.voltages[i]))
        tr = float(thinning_rate(params, st.c_ho, float(trajectory.thicknesses[i])))
        assert abs(st.c_ho - trajectory.c_ho[i]) <= 1e-10 * max(1.0, abs(st.c_ho))
        assert abs(tr - trajectory.thinning[i]) <= 1e-10 * max(1.0, abs(tr))


def test_membrane_vanish_aborts(params, cond):
    # The steady-state chemistry saturates (c_HO < 2*k2/k3), so a genuine
    # zero crossing needs the frozen-radical mode: a huge fixed c_HO makes
    # an RK4 stage overshoot below zero thickness within one step.
    with pytest.raises(SimulationError, match="membrane"):
        integrate_trajectory(params, cond, n_steps=64, c_ho_override=1.0e-3)


def test_kernel_python_and_jit_paths_agree(params, cond):
    if not _kernel.HAVE_NUMBA:
        pytest.skip("numba not installed")
    args = None
    # Build identical kernel calls through the public API by toggling env.
    old = os.environ.get(_kernel.ENV_FLAG)
    try:
        os.environ[_kernel.ENV_FLAG] = "1"
        t_py = integrate_trajectory(params, cond, n_steps=256)
        os.environ.pop(_kernel.ENV_FLAG)
        t_jit = integrate_trajectory(params, cond, n_steps=256)
    finally:
        if old is not None:
            os.environ[_kernel.ENV_FLAG] = old
        else:
            os.environ.pop(_kernel.ENV_FLAG, None)
    assert np.allclose(t_py.thicknesses, t_jit.thicknesses, rtol=1e-12, atol=0)
    assert np.allclose(t_py.voltages, t_jit.voltages, rtol=1e-12, atol=0)


# -- datasets ------------------------------------------------------------


def test_dataset_deterministic_per_seed(trajectory):
    a = generate_dataset(trajectory, 20, 50, 1 / 3, seed=5)
    b = generate_dataset(trajectory, 20, 50, 1 / 3, seed=5)
    assert np.array_equal(a.train_voltages, b.train_voltages)
    assert np.array_equal(a.train_thicknesses, b.train_thicknesses)
    c = generate_dataset(trajectory, 20, 50, 1 / 3, seed=6)
    assert not np.array_equal(a.train_voltages, c.train_voltages)
    assert dataset_csv_bytes(a) == dataset_csv_bytes(b)


def test_dataset_noise_sigma_definition(trajectory, small_dataset):
    # Stored sigma equals the population std of the emitted clean samples.
    assert small_dataset.noise_sigma_v == pytest.approx(
        float(np.std(small_dataset.test_voltages)), abs=1e-12
    )
    assert small_dataset.noise_sigma_mem == pytest.approx(
        float(np.std(small_dataset.test_thicknesses)), abs=1e-12
    )


def test_dataset_train_spacing_matches_protocol(params, cond, trajectory):
    # 100 points over the first third of 8e5 h: spacing (t_max/3)/99.
    ds = generate_dataset(trajectory, 100, 1000, 1 / 3, seed=0)
    assert ds.train_times[0] == 0.0
    assert ds.train_times[1] == pytest.approx(2693.6026936026936, rel=1e-12)
    assert ds.train_times[-1] == pytest.approx(8.0e5 / 3.0, rel=1e-12)
    assert ds.test_times[-1] == pytest.approx(8.0e5, rel=1e-12)
    spacing = np.diff(ds.train_times)
    assert np.allclose(spacing, spacing[0], rtol=1e-9)


def test_dataset_boundary_samples_exact(trajectory):
    # Times requested exactly at step boundaries reproduce trajectory values.
    ds = generate_dataset(trajectory, 5, 1025, 1.0, seed=1)
    # n_test chosen so test times coincide with the 1024-step grid
    assert np.allclose(ds.test_voltages, trajectory.voltages, rtol=0, atol=0)
    assert np.allclose(ds.test_thicknesses, trajectory.thicknesses, rtol=0, atol=0)


def test_dataset_roundtrip(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    checksum = save_dataset(small_dataset, path, config_hash="abc123")
    loaded = load_dataset(path)
    for field in (
        "train_times",
        "train_voltages",
        "train_thicknesses",
        "test_times",
        "test_voltages",
        "test_thicknesses",
    ):
        assert np.array_equal(getattr(loaded, field), getattr(small_dataset, field))
    assert loaded.noise_sigma_v == small_dataset.noise_sigma_v
    assert loaded.seed == small_dataset.seed
    # checksum is stable
    assert save_dataset(small_dataset, path) == checksum


def test_load_reports_missing_column(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    text = path.read_text().replace("thickness_cm", "thickness")
    path.write_text(text)
    with pytest.raises(DatasetFormatError, match="thickness_cm"):
        load_dataset(path)


def test_load_reports_bad_line_number(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    lines = path.read_text().splitlines()
    lines[3] = "train,not_a_number,1.0,0.01,1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=":4"):
        load_dataset(path)


def test_golden_dataset_checksum():
    # Committed artifact generated once by scripts/make_golden_dataset.py.
    path = GOLDEN_DIR / "golden_dataset.csv"
    meta = json.loads((GOLDEN_DIR / "golden_dataset.csv.meta.json").read_text())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == meta["sha256"]
    ds = load_dataset(path)
    assert len(ds.train_times) == 12


# -- loader parity with the csv module ----------------------------------------


def _csv_reference(path):
    """The csv.DictReader loop that load_dataset replaced, kept as the
    reference: (n, 3) arrays of t_hours, voltage_V, thickness_cm per split."""
    rows = {"train": [], "test": []}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["split"]].append(
                (
                    float(row["t_hours"]),
                    float(row["voltage_V"]),
                    float(row["thickness_cm"]),
                )
            )
    return {split: np.array(records) for split, records in rows.items()}


def _write_with_sidecar(path, text):
    """Write dataset CSV text plus a sidecar whose sha256 matches it."""
    payload = text.encode()
    path.write_bytes(payload)
    meta = {
        "config_hash": "",
        "noise_sigma_mem": 0.002,
        "noise_sigma_v": 0.01,
        "seed": 11,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "train_fraction": 1 / 3,
    }
    Path(f"{path}.meta.json").write_text(json.dumps(meta))


def _reordered(text):
    order = (3, 4, 1, 0, 2)  # thickness_cm,is_noisy,t_hours,split,voltage_V
    lines = []
    for line in text.splitlines():
        fields = line.split(",")
        lines.append(",".join(fields[i] for i in order))
    return "\n".join(lines) + "\n"


def _interleaved(text):
    header, *rows = text.splitlines()
    train = [r for r in rows if r.startswith("train")]
    test = [r for r in rows if r.startswith("test")]
    mixed = [r for pair in zip(test, train) for r in pair]
    mixed += test[len(train):]
    return "\n".join([header, *mixed]) + "\n"


LAYOUTS = {
    "reordered_columns": _reordered,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "trailing_blank_line": lambda text: text + "\n",
    "interleaved_splits": _interleaved,
}


def _assert_matches_reference(path):
    ds = load_dataset(path)
    ref = _csv_reference(path)
    for split in ("train", "test"):
        got = np.column_stack(
            [
                getattr(ds, f"{split}_times"),
                getattr(ds, f"{split}_voltages"),
                getattr(ds, f"{split}_thicknesses"),
            ]
        )
        assert got.dtype == ref[split].dtype
        assert got.shape == ref[split].shape
        assert got.tobytes() == ref[split].tobytes(), split


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_loader_matches_csv_reference(tmp_path, small_dataset, layout):
    path = tmp_path / "ds.csv"
    text = dataset_csv_bytes(small_dataset).decode()
    _write_with_sidecar(path, LAYOUTS[layout](text))
    _assert_matches_reference(path)


@pytest.mark.filterwarnings("error")
def test_loader_matches_csv_reference_beyond_one_chunk(tmp_path, trajectory):
    # numpy's loadtxt works through files in chunks of 50 000 rows.
    ds = generate_dataset(trajectory, 24, 60_001, 1 / 3, seed=5)
    path = tmp_path / "long.csv"
    save_dataset(ds, path)
    _assert_matches_reference(path)


@pytest.mark.filterwarnings("error")
def test_loader_matches_csv_reference_on_golden_dataset():
    _assert_matches_reference(GOLDEN_DIR / "golden_dataset.csv")


def test_load_reports_short_row_line_number(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    lines = dataset_csv_bytes(small_dataset).decode().splitlines()
    lines[5] = "train,1.0,2.4"
    _write_with_sidecar(path, "\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"ds\.csv:6: bad row"):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_row(tmp_path, small_dataset, value):
    path = tmp_path / "ds.csv"
    lines = dataset_csv_bytes(small_dataset).decode().splitlines()
    fields = lines[30].split(",")
    fields[3] = value
    lines[30] = ",".join(fields)
    _write_with_sidecar(path, "\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"ds\.csv:31: .*thickness_cm"):
        load_dataset(path)


def test_load_reports_unknown_split_line_number(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    lines = dataset_csv_bytes(small_dataset).decode().splitlines()
    lines[7] = lines[7].replace("train", "trainee", 1)
    _write_with_sidecar(path, "\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"ds\.csv:8: unknown split 'trainee'"):
        load_dataset(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", ["", "\n\n", "train,0.0,2.4,0.02,1\n"])
def test_load_needs_both_splits(tmp_path, rows):
    path = tmp_path / "ds.csv"
    _write_with_sidecar(path, ",".join(DATASET_COLUMNS) + "\n" + rows)
    with pytest.raises(DatasetFormatError, match="needs both train and test"):
        load_dataset(path)


def test_load_checks_sidecar_sha256(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    text = path.read_text()
    path.write_text(text.replace("train,", "test,", 1))
    with pytest.raises(DatasetFormatError, match=r"sha256.*ds\.csv\.meta\.json"):
        load_dataset(path)


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda meta: meta.pop("seed"), "seed"),
        (lambda meta: meta.pop("sha256"), "sha256"),
        (lambda meta: meta.update(noise_sigma_v="0.01"), "noise_sigma_v"),
        (lambda meta: meta.update(train_fraction=float("nan")), "train_fraction"),
        (lambda meta: meta.update(seed=1.5), "seed"),
    ],
    ids=["no_seed", "no_sha256", "string_sigma", "nan_fraction", "float_seed"],
)
def test_load_validates_sidecar_keys(tmp_path, small_dataset, edit, key):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    meta_path = Path(f"{path}.meta.json")
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DatasetFormatError, match=rf"ds\.csv\.meta\.json: .*'{key}'"):
        load_dataset(path)


@pytest.mark.parametrize("body", ['{"seed": 11', "[]"])
def test_load_rejects_sidecar_that_is_not_a_json_object(tmp_path, small_dataset, body):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    Path(f"{path}.meta.json").write_text(body)
    with pytest.raises(DatasetFormatError, match=r"ds\.csv\.meta\.json: "):
        load_dataset(path)


def test_settings_validation():
    from pempinn.simulator import SimulationSettings

    with pytest.raises(ConfigError, match="n_train"):
        SimulationSettings(n_train=1)
    with pytest.raises(ConfigError, match="n_steps"):
        SimulationSettings(n_steps=5)
    with pytest.raises(ConfigError, match="train_fraction"):
        SimulationSettings(train_fraction=1.5)
