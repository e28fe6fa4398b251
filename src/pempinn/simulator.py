"""Ground-truth trajectory integration and noisy dataset generation.

The thinning ODE is integrated with fixed-step classical RK4 while the cell
voltage is re-solved algebraically at every stage (the algebraic form is
exact, so ground truth does not drift the way an integrated voltage ODE
would). Datasets follow the synthetic-measurement protocol: equally spaced
noisy samples restricted to an early fraction of the horizon for training,
dense noise-free samples over the full horizon for testing, with per-channel
Gaussian noise whose standard deviation equals the population standard
deviation of the clean full-horizon signal.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernel, electrochem
from .constants import (
    OperatingConditions,
    PhysicsParameters,
    membrane_molar_concentration,
)
from .errors import ConfigError, DatasetFormatError, SimulationError, SolverError

__all__ = [
    "SimulationSettings",
    "Trajectory",
    "Dataset",
    "integrate_trajectory",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
]

DATASET_COLUMNS = ("split", "t_hours", "voltage_V", "thickness_cm", "is_noisy")
# The columns load_dataset parses into the Dataset, in its field order.
_VALUE_COLUMNS = ("t_hours", "voltage_V", "thickness_cm")
# One character wider than the longest split name: loadtxt cuts a longer
# value to this width, and the cut value still matches no split name.
_SPLIT_DTYPE = "U6"
_HASH_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SimulationSettings:
    """Knobs of the data-generation pipeline."""

    n_steps: int = 4096
    n_train: int = 100
    n_test: int = 1000
    train_fraction: float = 1.0 / 3.0
    dataset_seed: int = 11

    def __post_init__(self):
        if self.n_steps < 10:
            raise ConfigError("n_steps", "need at least 10 integration steps")
        if self.n_train < 2:
            raise ConfigError("n_train", "need at least 2 training points")
        if self.n_test < 2:
            raise ConfigError("n_test", "need at least 2 test points")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError("train_fraction", "must lie in (0, 1]")
        if self.dataset_seed < 0:
            raise ConfigError("dataset_seed", "seed must be non-negative")


@dataclass(frozen=True)
class Trajectory:
    """Clean simulated time series with per-step diagnostics."""

    times: np.ndarray        # h
    voltages: np.ndarray     # V
    thicknesses: np.ndarray  # cm
    c_ho: np.ndarray         # mol/m3
    c_h2o2: np.ndarray       # mol/m3
    thinning: np.ndarray     # cm/h
    fluoride: np.ndarray     # ug/(h cm2)
    solver_iterations: np.ndarray
    hydroxyl_clamped: int
    chemistry_infeasible: int


@dataclass(frozen=True)
class Dataset:
    """Noisy training samples plus clean test samples of one trajectory."""

    train_times: np.ndarray
    train_voltages: np.ndarray      # noisy, V
    train_thicknesses: np.ndarray   # noisy, cm
    test_times: np.ndarray
    test_voltages: np.ndarray       # clean, V
    test_thicknesses: np.ndarray    # clean, cm
    noise_sigma_v: float
    noise_sigma_mem: float
    seed: int
    train_fraction: float


def integrate_trajectory(
    params: PhysicsParameters,
    cond: OperatingConditions,
    k5: float | None = None,
    n_steps: int = 4096,
    c_ho_override: float | None = None,
) -> Trajectory:
    """Integrate the coupled system over [0, t_max] with n_steps RK4 steps.

    ``c_ho_override`` freezes the hydroxyl concentration at a fixed value
    (diagnostic mode; the thinning ODE then has an exact exponential
    solution, which the validation suite exploits).
    """
    if n_steps < 10:
        raise ConfigError("n_steps", "need at least 10 integration steps")
    if k5 is None:
        k5 = params.k5_true
    if k5 < 0.0:
        raise ConfigError("k5", "rate constant must be non-negative")

    coeffs = electrochem.voltage_coefficients(params, cond)
    c_mem = membrane_molar_concentration(params)
    kc = params.k4 * params.c_O2 + k5 * c_mem
    frr_coeff = (
        params.fluoride_stoich * k5 * c_mem * params.MM_F * 3600.0 * 1.0e-6 * 1.0e6
    )
    tr_conv = 1.0e-6 / (params.rho_naf_cgs * params.fluorine_mass_fraction)
    dt = cond.t_max / n_steps

    _, _, rk4 = _kernel.get_kernels()
    (
        status,
        fail_step,
        clamped,
        infeasible,
        times,
        volts,
        tmems,
        c_h2o2s,
        c_hos,
        trs,
        frrs,
        iters,
    ) = rk4(
        n_steps,
        dt,
        cond.t_mem0,
        coeffs.k1V,
        coeffs.k2V,
        coeffs.k3V,
        coeffs.P_over_A,
        params.kappa_w,
        params.e_cl,
        params.k2,
        params.k3,
        kc,
        params.v1,
        frr_coeff,
        tr_conv,
        -1.0 if c_ho_override is None else float(c_ho_override),
        _kernel.V_TOL_DEFAULT,
    )

    if status in (1, 2):
        raise SolverError(
            f"voltage solve failed (status {status}) at t = {fail_step * dt} h"
        )
    if status == 3:
        raise SimulationError(
            f"membrane thickness reached zero near t = {fail_step * dt} h; "
            "shorten t_max or reduce the degradation rate"
        )

    traj = Trajectory(
        times=times,
        voltages=volts,
        thicknesses=tmems,
        c_ho=c_hos,
        c_h2o2=c_h2o2s,
        thinning=trs,
        fluoride=frrs,
        solver_iterations=iters,
        hydroxyl_clamped=int(clamped),
        chemistry_infeasible=int(infeasible),
    )
    _check_trajectory(traj, k5)
    return traj


def _check_trajectory(traj: Trajectory, k5: float) -> None:
    if not np.all(np.diff(traj.times) > 0.0):
        raise SimulationError("trajectory times are not strictly increasing")
    if np.any(traj.thicknesses <= 0.0):
        raise SimulationError("trajectory contains non-positive thickness")
    # Constant-power operation with conductivity degradation makes the
    # voltage rise and the membrane shrink whenever degradation is active.
    if k5 > 0.0 and np.all(traj.c_ho > 0.0):
        if not np.all(np.diff(traj.thicknesses) < 0.0):
            raise SimulationError("thickness is not strictly decreasing")
        if not np.all(np.diff(traj.voltages) > 0.0):
            raise SimulationError("voltage is not strictly increasing")


def _interp(traj: Trajectory, t: np.ndarray):
    v = np.interp(t, traj.times, traj.voltages)
    m = np.interp(t, traj.times, traj.thicknesses)
    return v, m


def generate_dataset(
    traj: Trajectory,
    n_train: int,
    n_test: int,
    train_fraction: float,
    seed: int,
) -> Dataset:
    """Sample a noisy train split and a clean test split from a trajectory.

    Training points are equally spaced on [0, train_fraction*t_max], test
    points on the full horizon. Noise standard deviations are the population
    standard deviations of the clean test-split signals, per channel.
    Deterministic for a given seed.
    """
    if n_train < 2:
        raise ConfigError("n_train", "need at least 2 training points")
    if n_test < 2:
        raise ConfigError("n_test", "need at least 2 test points")
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError("train_fraction", "must lie in (0, 1]")

    t_end = traj.times[-1]
    train_t = np.linspace(0.0, train_fraction * t_end, n_train)
    test_t = np.linspace(0.0, t_end, n_test)

    test_v, test_m = _interp(traj, test_t)
    clean_train_v, clean_train_m = _interp(traj, train_t)

    sigma_v = float(np.std(test_v))
    sigma_m = float(np.std(test_m))

    rng = np.random.default_rng(seed)
    noisy_v = clean_train_v + rng.normal(0.0, sigma_v, n_train)
    noisy_m = clean_train_m + rng.normal(0.0, sigma_m, n_train)

    return Dataset(
        train_times=train_t,
        train_voltages=noisy_v,
        train_thicknesses=noisy_m,
        test_times=test_t,
        test_voltages=test_v,
        test_thicknesses=test_m,
        noise_sigma_v=sigma_v,
        noise_sigma_mem=sigma_m,
        seed=int(seed),
        train_fraction=float(train_fraction),
    )


# -- persistence ---------------------------------------------------------


def _format(x: float) -> str:
    return repr(float(x))


def dataset_csv_bytes(ds: Dataset) -> bytes:
    lines = [",".join(DATASET_COLUMNS)]
    for t, v, m in zip(ds.train_times, ds.train_voltages, ds.train_thicknesses):
        lines.append(f"train,{_format(t)},{_format(v)},{_format(m)},1")
    for t, v, m in zip(ds.test_times, ds.test_voltages, ds.test_thicknesses):
        lines.append(f"test,{_format(t)},{_format(v)},{_format(m)},0")
    return ("\n".join(lines) + "\n").encode()


def save_dataset(ds: Dataset, path, config_hash: str = "") -> str:
    """Write the dataset CSV plus a metadata sidecar; returns the checksum."""
    payload = dataset_csv_bytes(ds)
    checksum = hashlib.sha256(payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(payload)
    meta = {
        "noise_sigma_v": ds.noise_sigma_v,
        "noise_sigma_mem": ds.noise_sigma_mem,
        "seed": ds.seed,
        "train_fraction": ds.train_fraction,
        "config_hash": config_hash,
        "sha256": checksum,
    }
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return checksum


def load_dataset(path) -> Dataset:
    """Read a dataset CSV and its sidecar back into a Dataset.

    Columns are found by name in the header, in any order. numpy's C reader
    parses the rows straight from the file, so no per-row Python object is
    made, and each split keeps the file's row order. Everything read is
    checked here; a fault raises DatasetFormatError naming the file, and the
    line for a fault in a row:

    - the header has every column of ``DATASET_COLUMNS``;
    - every row parses, its values are finite, its split is ``train`` or
      ``test``, and both splits occur;
    - the sidecar ``<path>.meta.json`` exists and is a JSON object with
      finite numbers ``noise_sigma_v``, ``noise_sigma_mem`` and
      ``train_fraction``, a non-negative integer ``seed`` and a string
      ``sha256``;
    - that ``sha256`` is the digest of the CSV. It is compared after the
      rows are parsed, so a bad row is reported with its line first.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        for col in DATASET_COLUMNS:
            if col not in header:
                raise DatasetFormatError(f"{path}: missing column '{col}'")
        has_rows = any(line.strip() for line in fh)
    if not has_rows:
        # Caught here because loadtxt warns about a file without data rows.
        raise DatasetFormatError(f"{path}: needs both train and test rows")

    # Like csv.DictReader, a repeated column name means its last copy.
    index = {name: i for i, name in enumerate(header)}
    read = functools.partial(
        np.loadtxt, path, delimiter=",", skiprows=1, comments=None
    )
    try:
        values = read(usecols=[index[col] for col in _VALUE_COLUMNS], ndmin=2)
        split = read(usecols=index["split"], dtype=_SPLIT_DTYPE, ndmin=1)
    except ValueError as exc:
        raise _bad_row(path, index, exc) from exc
    is_train = split == "train"
    is_test = split == "test"
    if not np.all(is_train | is_test) or not np.all(np.isfinite(values)):
        raise _bad_row(path, index, None)
    if not is_train.any() or not is_test.any():
        raise DatasetFormatError(f"{path}: needs both train and test rows")

    meta = _read_sidecar(path)
    digest = file_sha256(path)
    if digest != meta["sha256"]:
        raise DatasetFormatError(
            f"{path}: sha256 {digest} does not match {path}.meta.json "
            f"(sha256 {meta['sha256']})"
        )

    train = values[is_train]
    test = values[is_test]
    return Dataset(
        train_times=train[:, 0],
        train_voltages=train[:, 1],
        train_thicknesses=train[:, 2],
        test_times=test[:, 0],
        test_voltages=test[:, 1],
        test_thicknesses=test[:, 2],
        noise_sigma_v=float(meta["noise_sigma_v"]),
        noise_sigma_mem=float(meta["noise_sigma_mem"]),
        seed=meta["seed"],
        train_fraction=float(meta["train_fraction"]),
    )


def _bad_row(path, index, exc) -> DatasetFormatError:
    """Error naming the first row of ``path`` that load_dataset rejects.

    Runs on the error path only: it rescans the file row by row with the
    csv module, because numpy's error text does not give a stable line
    number. ``exc`` is numpy's error, reported if no row is found at fault.
    """
    width = max(index[col] for col in ("split", *_VALUE_COLUMNS)) + 1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) < width:
                return DatasetFormatError(
                    f"{where}: bad row (needs {width} fields, has {len(row)})"
                )
            for col in _VALUE_COLUMNS:
                field = row[index[col]]
                try:
                    value = float(field)
                except ValueError as err:
                    return DatasetFormatError(f"{where}: bad row ({err})")
                if not math.isfinite(value):
                    return DatasetFormatError(
                        f"{where}: non-finite {col} ({field!r})"
                    )
            split = row[index["split"]]
            if split not in ("train", "test"):
                return DatasetFormatError(f"{where}: unknown split '{split}'")
    return DatasetFormatError(f"{path}: bad row ({exc})")


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


_SIDECAR_KEYS = (
    ("noise_sigma_v", _is_finite_number, "a finite number"),
    ("noise_sigma_mem", _is_finite_number, "a finite number"),
    ("train_fraction", _is_finite_number, "a finite number"),
    (
        "seed",
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
        "a non-negative integer",
    ),
    ("sha256", lambda v: isinstance(v, str), "a string"),
)


def _read_sidecar(path) -> dict:
    meta_path = f"{path}.meta.json"
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError as exc:
        raise DatasetFormatError(f"{path}: missing sidecar {meta_path}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{meta_path}: not valid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"{meta_path}: must hold a JSON object")
    for key, valid, kind in _SIDECAR_KEYS:
        if key not in meta:
            raise DatasetFormatError(f"{meta_path}: missing key '{key}'")
        if not valid(meta[key]):
            raise DatasetFormatError(
                f"{meta_path}: key '{key}' must be {kind}, not {meta[key]!r}"
            )
    return meta


def file_sha256(path) -> str:
    """Hex sha256 of a file, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_trajectory(traj: Trajectory, path, diagnostics_path=None) -> None:
    """Write the trajectory CSV (and optionally a diagnostics CSV)."""
    with open(path, "w") as fh:
        fh.write("t_hours,voltage_V,thickness_cm\n")
        for t, v, m in zip(traj.times, traj.voltages, traj.thicknesses):
            fh.write(f"{_format(t)},{_format(v)},{_format(m)}\n")
    if diagnostics_path is not None:
        with open(diagnostics_path, "w") as fh:
            fh.write(
                "t_hours,c_ho_mol_m3,c_h2o2_mol_m3,thinning_cm_h,"
                "fluoride_ug_h_cm2,solver_iterations\n"
            )
            for t, ho, h2o2, tr, fr, it in zip(
                traj.times,
                traj.c_ho,
                traj.c_h2o2,
                traj.thinning,
                traj.fluoride,
                traj.solver_iterations,
            ):
                fh.write(
                    f"{_format(t)},{_format(ho)},{_format(h2o2)},"
                    f"{_format(tr)},{_format(fr)},{int(it)}\n"
                )
