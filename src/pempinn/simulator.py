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

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernel, electrochem
from ._fork import ForkedStage
from .constants import (
    OperatingConditions,
    PhysicsParameters,
    membrane_molar_concentration,
)
from .degradation import fluoride_release_rate, thinning_per_fluoride
from .errors import ConfigError, DatasetFormatError, SimulationError, SolverError

__all__ = [
    "SimulationSettings",
    "Trajectory",
    "Dataset",
    "trajectory_arrays",
    "integrate_trajectory",
    "trajectory_rows",
    "write_trajectory",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
]

DATASET_COLUMNS = ("split", "t_hours", "voltage_V", "thickness_cm", "is_noisy")
# The row load_dataset parses: the split, one character wider than the
# longest split name (loadtxt cuts a longer value to this width, and the
# cut value still matches no split name), then the values in Dataset order.
_ROW_DTYPE = np.dtype(
    [("split", "U6"), ("t_hours", "f8"), ("voltage_V", "f8"), ("thickness_cm", "f8")]
)
_VALUE_COLUMNS = _ROW_DTYPE.names[1:]
# The sidecar's keys, by kind: the Dataset fields it carries, then the
# CSV's digest.
_SIDECAR_KINDS = {
    "noise_sigma_v": "float",
    "noise_sigma_mem": "float",
    "train_fraction": "float",
    "seed": "uint",
    "sha256": "str",
}
_HASH_CHUNK_BYTES = 1 << 20
# load_dataset parses a dataset CSV of at least this many bytes in two
# halves, the first in a forked child. Break-even is near 0.5 MiB: on a
# 2-core x86-64 machine (CPython 3.11, numpy 2.4) the split parse took
# 3.9 ms against 3.9 ms whole at 0.50 MiB (8100 rows), 6.1 against 7.0 ms
# at 0.99 MiB and 11.3 against 13.5 ms at 1.98 MiB, the fork, the wait and
# the pickled head included. The packaged 75 KB dataset is read whole.
SPLIT_BYTES = 1 << 20
TRAJECTORY_HEADER = "t_hours,voltage_V,thickness_cm\n"
DIAGNOSTICS_HEADER = (
    "t_hours,c_ho_mol_m3,c_h2o2_mol_m3,thinning_cm_h,"
    "fluoride_ug_h_cm2,solver_iterations\n"
)


# Upper bound of every array size a config sets (integration steps, dataset
# rows, collocation points): each unit costs tens of bytes or more, and a
# larger size fails deep inside numpy or mmap instead of at the boundary.
MAX_COUNT = 1 << 20


@dataclass(frozen=True)
class SimulationSettings:
    """Knobs of the data-generation pipeline."""

    n_steps: int = 4096
    n_train: int = 100
    n_test: int = 1000
    train_fraction: float = 1.0 / 3.0
    dataset_seed: int = 11

    def __post_init__(self):
        if not 10 <= self.n_steps <= MAX_COUNT:
            raise ConfigError("n_steps", f"need 10 to {MAX_COUNT} integration steps")
        if not 2 <= self.n_train <= MAX_COUNT:
            raise ConfigError("n_train", f"need 2 to {MAX_COUNT} training points")
        if not 2 <= self.n_test <= MAX_COUNT:
            raise ConfigError("n_test", f"need 2 to {MAX_COUNT} test points")
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


def trajectory_arrays(n_steps: int) -> tuple:
    """The eight arrays ``rk4_thinning`` fills for ``n_steps`` steps.

    They are (times, volts, tmems, c_h2o2s, c_hos, trs, frrs, iters), each
    of ``n_steps + 1`` rows: seven float64 arrays and int64 iterations, as
    rows of one block in an anonymous shared ``mmap``, so a child forked
    after this call reads what the kernel writes into them.
    """
    import mmap  # here, so that importing the CLI does not load it

    n_out = n_steps + 1
    # Eight rows of n_out 8-byte values.
    block = np.frombuffer(mmap.mmap(-1, 64 * n_out)).reshape(8, n_out)
    return (*block[:7], block[7].view(np.int64))


def integrate_trajectory(
    params: PhysicsParameters,
    cond: OperatingConditions,
    k5: float | None = None,
    n_steps: int = 4096,
    c_ho_override: float | None = None,
    out=None,
    progress=None,
) -> Trajectory:
    """Integrate the coupled system over [0, t_max] with n_steps RK4 steps.

    ``SimulationSettings`` guarantees ``n_steps >= 10``. ``k5`` (``--k5``)
    and ``c_ho_override`` come from no config and are checked here.
    ``c_ho_override`` freezes the hydroxyl concentration at a fixed finite,
    non-negative value (diagnostic mode; the thinning ODE then has an exact
    exponential solution, which the validation suite exploits).

    ``out`` (default: a new ``trajectory_arrays(n_steps)``) holds the eight
    arrays the kernel fills and the returned Trajectory views; ``progress``
    is the kernel's callback (see ``_kernel``).
    """
    if k5 is None:
        k5 = params.k5_true
    if not (math.isfinite(k5) and k5 >= 0.0):
        raise ConfigError(
            "k5", f"rate constant must be finite and non-negative, not {k5}"
        )
    if c_ho_override is None:
        c_ho_override = -1.0  # the kernel's "no override"
    elif not (math.isfinite(c_ho_override) and c_ho_override >= 0.0):
        raise ConfigError(
            "c_ho_override",
            "hydroxyl concentration must be finite and non-negative, "
            f"not {c_ho_override}",
        )

    coeffs = electrochem.voltage_coefficients(params, cond)
    c_mem = membrane_molar_concentration(params)
    kc = params.k4 * params.c_O2 + k5 * c_mem
    dt = cond.t_max / n_steps

    if out is None:
        out = trajectory_arrays(n_steps)
    _, rk4 = _kernel.get_kernels()
    status, fail_step, clamped, infeasible = rk4(
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
        # frr_coeff (FRR per unit c_HO and t_mem) and tr_conv (TR per FRR).
        fluoride_release_rate(params, 1.0, 1.0, k5),
        thinning_per_fluoride(params),
        float(c_ho_override),
        out,
        progress,
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
    stages = 4 * n_steps + 1
    if c_ho_override < 0.0 and infeasible == stages:
        raise SimulationError(
            "radical chemistry has no positive peroxide root at any of the "
            f"{infeasible} stage evaluations, so nothing attacks the membrane; "
            "check k2, k3, k4 and v1"
        )

    times, volts, tmems, c_h2o2s, c_hos, trs, frrs, iters = out
    if k5 > 0.0 and c_hos[0] > 0.0 and tmems[1] == tmems[0]:
        # The membrane is attacked, but dt * TR is below half an ulp of
        # t_mem, so the thickness can never move.
        raise ConfigError(
            "t_max",
            f"the step dt = t_max / n_steps = {dt} h is too short for the "
            f"first RK4 step to change the membrane thickness ({tmems[0]} cm); "
            f"lengthen t_max ({cond.t_max} h) or use fewer steps",
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
    Deterministic for a given seed. ``SimulationSettings`` guarantees every
    argument's range (``dataset_seed`` is ``seed``).
    """
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


def dataset_csv_bytes(ds: Dataset) -> bytes:
    lines = [",".join(DATASET_COLUMNS) + "\n"]
    for split, flag, columns in (
        ("train", 1, (ds.train_times, ds.train_voltages, ds.train_thicknesses)),
        ("test", 0, (ds.test_times, ds.test_voltages, ds.test_thicknesses)),
    ):
        t, v, m = (c.tolist() for c in columns)
        lines += [f"{split},{a!r},{b!r},{c!r},{flag}\n" for a, b, c in zip(t, v, m)]
    return "".join(lines).encode()


def save_dataset(ds: Dataset, path, config_hash: str = "") -> str:
    """Write the dataset CSV plus a metadata sidecar; returns the checksum.

    Each file is written atomically (``atomic_open``): the CSV first, then
    the sidecar holding its checksum.
    """
    payload = dataset_csv_bytes(ds)
    checksum = hashlib.sha256(payload).hexdigest()
    with atomic_open(path, "wb") as fh:
        fh.write(payload)
    meta = {
        "noise_sigma_v": ds.noise_sigma_v,
        "noise_sigma_mem": ds.noise_sigma_mem,
        "seed": ds.seed,
        "train_fraction": ds.train_fraction,
        "config_hash": config_hash,
        "sha256": checksum,
    }
    with atomic_open(str(path) + ".meta.json") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return checksum


def load_dataset(path) -> Dataset:
    """Read a dataset CSV and its sidecar back into a Dataset.

    Columns are found by name in the header, in any order. numpy's C reader
    parses the rows straight from the file, so no per-row Python object is
    made, and each split keeps the file's row order. A file of at least
    ``SPLIT_BYTES`` is cut after the first line feed past its midpoint, and
    a forked child (``_fork.ForkedStage``) parses the head while this
    process parses the tail and hashes the file. A row never straddles the
    cut and the text of both halves is decoded and split into lines as the
    whole file is, so each row parses to the same values; the columns are
    joined in file order, and the checks below read the same arrays as for
    a file read whole. A bad row in either half is found again by a rescan
    of the whole file, so the error and its line do not depend on the cut,
    and the child is reaped before load_dataset returns or raises.

    Everything read is checked here; a fault raises DatasetFormatError
    naming the file, and the line for a fault in a row:

    - the CSV and the sidecar are UTF-8 text;
    - the header has every column of ``DATASET_COLUMNS``;
    - every row parses, its values are finite, its split is ``train`` or
      ``test``, and both splits occur;
    - the sidecar ``<path>.meta.json`` exists and is a JSON object with
      finite numbers ``noise_sigma_v``, ``noise_sigma_mem`` and
      ``train_fraction``, a non-negative integer ``seed`` and a string
      ``sha256``, by the kinds of ``JSON_KINDS`` (a boolean or a string is
      never a number, and a number must fit a float);
    - that ``sha256`` is the digest of the CSV. It is compared after the
      rows are parsed, so a bad row is reported with its line first.
    """
    # Bytes that are not UTF-8 pass here as U+FFFD; loadtxt decodes strictly
    # and sends them to _bad_row.
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
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
    try:
        parts, digest = _read_columns(path, [index[col] for col in _ROW_DTYPE.names])
    except ValueError as exc:
        raise _bad_row(path, index, exc) from exc
    is_train, is_test, t, v, m = (np.concatenate(column) for column in zip(*parts))
    del parts  # the parsed rows, freed before the Dataset's copies are made
    finite = all(np.isfinite(column).all() for column in (t, v, m))
    if not np.all(is_train | is_test) or not finite:
        raise _bad_row(path, index, None)
    if not is_train.any() or not is_test.any():
        raise DatasetFormatError(f"{path}: needs both train and test rows")

    meta_path = f"{path}.meta.json"
    try:
        meta = read_json_object(meta_path, DatasetFormatError)
    except FileNotFoundError as exc:
        raise DatasetFormatError(f"{path}: missing sidecar {meta_path}") from exc
    meta = {
        key: json_key(meta, key, kind, meta_path, DatasetFormatError)
        for key, kind in _SIDECAR_KINDS.items()
    }
    recorded = meta.pop("sha256")
    if digest != recorded:
        raise DatasetFormatError(
            f"{path}: sha256 {digest} does not match {meta_path} (sha256 {recorded})"
        )

    return Dataset(
        train_times=t[is_train],
        train_voltages=v[is_train],
        train_thicknesses=m[is_train],
        test_times=t[is_test],
        test_voltages=v[is_test],
        test_thicknesses=m[is_test],
        **meta,
    )


def _read_columns(path, usecols) -> tuple:
    """The rows of the dataset CSV ``path`` after its header, as a list of
    ``_columns`` tuples in file order, and the file's hex sha256.

    A file of at least ``SPLIT_BYTES`` is cut after the first line feed
    past its midpoint: a forked child parses the head while this process
    parses the tail, then hashes the file. A smaller file, or one without
    a line feed past its midpoint (such as one whose lines end in a lone
    carriage return), is parsed whole.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size >= SPLIT_BYTES:
            fh.seek(size // 2)
            if fh.readline().endswith(b"\n"):
                split = fh.tell()
                head = ForkedStage(
                    lambda _: _columns(_parse_head(path, split, usecols))
                )
                try:
                    with io.TextIOWrapper(fh, encoding="utf-8") as text:
                        tail = _columns(_parse(text, usecols, 0))
                    digest = file_sha256(path)
                    return [head.result(), tail], digest
                finally:
                    head.cancel()
    return [_columns(_parse(path, usecols, 1))], file_sha256(path)


def _columns(rows) -> tuple:
    """The train and test masks of ``rows``' split, then its value columns.

    Each part of a file is cut down to these before the parts are joined,
    so the child sends back half its rows' bytes and no copy of the split
    strings is joined.
    """
    split = rows["split"]
    return (split == "train", split == "test", *(rows[col] for col in _VALUE_COLUMNS))


def _parse_head(path, size, usecols) -> np.ndarray:
    """``_parse`` of the first ``size`` bytes of ``path``, header skipped."""
    with open(path, "rb") as fh:
        head = io.BytesIO(fh.read(size))
    with io.TextIOWrapper(head, encoding="utf-8") as text:
        return _parse(text, usecols, 1)


def _parse(source, usecols, skiprows) -> np.ndarray:
    """``np.loadtxt`` of dataset rows from ``source``, a path or a text file
    read with universal newlines, as a 1-D ``_ROW_DTYPE`` array."""
    with warnings.catch_warnings():
        # Half of a split file may hold no row; load_dataset has checked
        # that the whole file holds some.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(
            source,
            dtype=_ROW_DTYPE,
            delimiter=",",
            skiprows=skiprows,
            usecols=usecols,
            comments=None,
            encoding="utf-8",
            ndmin=1,
        )


def _bad_row(path, index, exc) -> DatasetFormatError:
    """Error naming the first row of ``path`` that load_dataset rejects.

    Runs on the error path only: it rescans the file row by row with the
    csv module, because numpy's error text does not give a stable line
    number. ``exc`` is numpy's error, reported if no row is found at fault,
    as for a byte that is not UTF-8 in a column that is not parsed.
    """
    width = max(index[col] for col in _ROW_DTYPE.names) + 1
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
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


# What a value read from a JSON file may be: each kind's name in error
# messages, and its test. JSON gives exact types, and a boolean is never a
# number. A finite number fits a float, so NaN, +-inf and an integer too
# large for a float all fail the one comparison.
JSON_KINDS = {
    "bool": ("a boolean", lambda v: type(v) is bool),
    "int": ("an integer", lambda v: type(v) is int),
    "uint": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "float": (
        "a finite number",
        lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    ),
    "str": ("a string", lambda v: type(v) is str),
    "list": ("a list", lambda v: type(v) is list),
}


def read_json_object(path, error) -> dict:
    """The JSON object in the UTF-8 file ``path``; any other content raises
    ``error(message)`` naming ``path``, and a missing file FileNotFoundError."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: must hold a JSON object")
    return data


def json_value(value, kind: str, error, where: str = ""):
    """``value`` if it is of ``kind``, a key of ``JSON_KINDS``, a finite
    number as a float; else raises ``error(where + "expected <kind>, got
    <repr>")``."""
    name, valid = JSON_KINDS[kind]
    if not valid(value):
        raise error(f"{where}expected {name}, got {value!r}")
    return float(value) if kind == "float" else value


def json_key(data: dict, key: str, kind: str, path, error):
    """``json_value`` of ``data[key]``, read from the file ``path``; any
    fault raises ``error(message)`` naming ``path`` and ``key``."""
    if key not in data:
        raise error(f"{path}: missing key '{key}'")
    return json_value(data[key], kind, error, f"{path}: key '{key}': ")


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open a temporary file beside ``path`` that replaces it on success.

    Text mode writes UTF-8. If the body raises, the temporary file is
    removed and ``path`` keeps its previous contents, so a failed or
    killed write never leaves a half-written file under the final name.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def file_sha256(path) -> str:
    """Hex sha256 of a file, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def trajectory_rows(arrays, start: int, stop: int) -> tuple:
    """Rows ``start:stop`` of the trajectory CSV and of its diagnostics CSV.

    ``arrays`` are the eight columns in ``trajectory_arrays`` order. Each
    value is the ``repr`` of a float and the iteration count an integer, so
    the files read back bit for bit; any other value raises ValueError.
    Returns the two texts.
    """
    t, v, m, h2o2, ho, tr, fr = (
        np.asarray(a[start:stop], dtype=np.float64).tolist() for a in arrays[:7]
    )
    it = arrays[7][start:stop].tolist()
    t = list(map(repr, t))  # formatted once: it opens the rows of both files
    trajectory = "".join([f"{a},{b!r},{c!r}\n" for a, b, c in zip(t, v, m)])
    diagnostics = "".join(
        [
            f"{a},{b!r},{c!r},{d!r},{e!r},{n:d}\n"
            for a, b, c, d, e, n in zip(t, ho, h2o2, tr, fr, it)
        ]
    )
    return trajectory, diagnostics


def write_trajectory(rows, path, diagnostics_path) -> None:
    """Write the trajectory CSV and its diagnostics CSV, each atomically.

    ``rows`` is a list of ``trajectory_rows`` results in row order.
    """
    for i, (file, header) in enumerate(
        ((path, TRAJECTORY_HEADER), (diagnostics_path, DIAGNOSTICS_HEADER))
    ):
        with atomic_open(file) as fh:
            fh.write(header)
            fh.writelines(part[i] for part in rows)
