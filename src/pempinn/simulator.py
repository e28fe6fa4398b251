"""Ground-truth trajectory integration and noisy dataset generation.

The thinning ODE is integrated with fixed-step classical RK4 while the cell
voltage is re-solved algebraically at every stage (the algebraic form is
exact, so ground truth does not drift the way an integrated voltage ODE
would). Datasets follow the synthetic-measurement protocol: equally spaced
noisy samples restricted to an early fraction of the horizon for training,
dense noise-free samples over the full horizon for testing, with per-channel
Gaussian noise whose standard deviation equals the population standard
deviation of the clean full-horizon signal. The trajectory CSVs are
written once the integration has returned, ``TRAJECTORY_BLOCK_ROWS`` rows
at a time (``write_trajectory``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import _kernel, electrochem
from .constants import (
    OperatingConditions,
    PhysicsParameters,
    membrane_molar_concentration,
)
from .degradation import fluoride_release_rate, thinning_per_fluoride
from .errors import ArtifactFormatError, ConfigError, NumericalError

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
# load_dataset reads a dataset CSV, and file_sha256 hashes a file, this
# many bytes at a time.
READ_BLOCK_BYTES = 1 << 20
TRAJECTORY_HEADER = "t_hours,voltage_V,thickness_cm\n"
DIAGNOSTICS_HEADER = (
    "t_hours,c_ho_mol_m3,c_h2o2_mol_m3,thinning_cm_h,"
    "fluoride_ug_h_cm2,solver_iterations\n"
)
# write_trajectory formats this many rows at a time, so it holds one
# block's text, not the whole file's.
TRAJECTORY_BLOCK_ROWS = 1024


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
    """Clean simulated time series with per-step diagnostics: the arrays in
    the order ``rk4_thinning`` fills them, then its two counters."""

    times: np.ndarray        # h
    voltages: np.ndarray     # V
    thicknesses: np.ndarray  # cm
    c_h2o2: np.ndarray       # mol/m3
    c_ho: np.ndarray         # mol/m3
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
    """The eight zeroed arrays ``rk4_thinning`` fills for ``n_steps`` steps.

    They are (times, volts, tmems, c_h2o2s, c_hos, trs, frrs, iters), each
    of ``n_steps + 1`` rows: seven float64 arrays and int64 iterations.
    """
    n_out = n_steps + 1
    return (*np.zeros((7, n_out)), np.zeros(n_out, np.int64))


def integrate_trajectory(
    params: PhysicsParameters,
    cond: OperatingConditions,
    k5: float | None = None,
    n_steps: int = 4096,
    c_ho_override: float | None = None,
) -> Trajectory:
    """Integrate the coupled system over [0, t_max] with n_steps RK4 steps.

    ``SimulationSettings`` guarantees ``n_steps >= 10``. ``k5`` (``--k5``)
    and ``c_ho_override`` come from no config and are checked here.
    ``c_ho_override`` freezes the hydroxyl concentration at a fixed finite,
    non-negative value (diagnostic mode; the thinning ODE then has an exact
    exponential solution, which the validation suite exploits).

    A failed voltage solve raises ``electrochem.voltage_solve_error``,
    naming the step's time and a bound on the thickness.
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
    )

    traj = Trajectory(*out, int(clamped), int(infeasible))
    tmems = traj.thicknesses
    if status == 3:
        raise NumericalError(
            f"membrane thickness reached zero near t = {fail_step * dt} h; "
            "shorten t_max or reduce the degradation rate"
        )
    if status:
        # The thinning rate is never negative, so the failed stage's
        # thickness is at most the last one recorded.
        last = tmems[fail_step - 1] if fail_step else cond.t_mem0
        raise electrochem.voltage_solve_error(
            status,
            coeffs,
            f"the RK4 step from t = {fail_step * dt} h, t_mem <= {last} cm",
        )
    stages = 4 * n_steps + 1
    if c_ho_override < 0.0 and infeasible == stages:
        raise NumericalError(
            "radical chemistry has no positive peroxide root at any of the "
            f"{infeasible} stage evaluations, so nothing attacks the membrane; "
            "check k2, k3, k4 and v1"
        )

    if k5 > 0.0 and traj.c_ho[0] > 0.0 and tmems[1] == tmems[0]:
        # The membrane is attacked, but dt * TR is below half an ulp of
        # t_mem, so the thickness can never move.
        raise ConfigError(
            "t_max",
            f"the step dt = t_max / n_steps = {dt} h is too short for the "
            f"first RK4 step to change the membrane thickness ({tmems[0]} cm); "
            f"lengthen t_max ({cond.t_max} h) or use fewer steps",
        )
    # The kernel guarantees the rest: the times are step * dt with dt > 0,
    # and it stops with status 3 at any stage where t_mem <= 0. The voltage
    # is not checked: it is solved only to V_TOL and each step's Newton
    # starts from the last step's V, so where V rises by less than V_TOL per
    # step it repeats exactly, and it cannot fall while t_mem falls, since
    # every iterate after a negative residual lies above the start.
    if k5 > 0.0 and np.all(traj.c_ho > 0.0) and not np.all(np.diff(tmems) < 0.0):
        raise NumericalError("thickness is not strictly decreasing")
    return traj


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
    """The dataset CSV: the header, then one row per train and per test
    point, each value written by ``_kernel.get_formatter`` as its ``repr``."""
    rows = _kernel.get_formatter().float_rows
    train = (ds.train_times, ds.train_voltages, ds.train_thicknesses)
    test = (ds.test_times, ds.test_voltages, ds.test_thicknesses)
    header = ",".join(DATASET_COLUMNS) + "\n"
    return header.encode() + rows(train, "train,", ",1") + rows(test, "test,", ",0")


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

    Columns are found by name in the header, in any order, and each split
    keeps the file's row order. ``_read_exact`` reads the file once,
    ``READ_BLOCK_BYTES`` at a time, hashing each block and parsing its
    whole lines with ``_parse.c`` (``_kernel.get_dataset_parser``) into
    the Dataset's arrays. A file outside that parser's grammar (see
    ``_parse.c``; it is the grammar ``save_dataset`` writes), and every
    file in a process where ``_parse.c`` is not selected, is parsed whole
    by ``np.loadtxt`` instead (``_read_loadtxt``), which reads the same
    values from every file both accept. Every fault in a row leaves the
    grammar, so it is found and reported by ``_read_loadtxt``, with the
    same message and line whichever parser is selected.

    Everything read is checked here; a fault raises ArtifactFormatError
    naming the file, and the line for a fault in a row:

    - the CSV and the sidecar are UTF-8 text;
    - the header has every column of ``DATASET_COLUMNS`` (a repeated name
      means its last copy);
    - every row parses: comma-separated and unquoted, one per physical line
      (blank lines skipped, a whitespace-only line is a bad row), its values
      finite, its split ``train`` or ``test``, and both splits occur;
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
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().rstrip("\n").split(",")
    for col in DATASET_COLUMNS:
        if col not in header:
            raise ArtifactFormatError(f"{path}: missing column '{col}'")

    index = {name: i for i, name in enumerate(header)}
    usecols = [index[col] for col in _ROW_DTYPE.names]
    train, test, digest = _read_exact(path, usecols) or _read_loadtxt(
        path, index, usecols
    )
    if not len(train[0]) or not len(test[0]):
        raise ArtifactFormatError(f"{path}: needs both train and test rows")

    meta_path = f"{path}.meta.json"
    try:
        meta = read_json_object(meta_path, ArtifactFormatError)
    except FileNotFoundError as exc:
        raise ArtifactFormatError(f"{path}: missing sidecar {meta_path}") from exc
    meta = {
        key: json_key(meta, key, kind, meta_path, ArtifactFormatError)
        for key, kind in _SIDECAR_KINDS.items()
    }
    recorded = meta.pop("sha256")
    if digest != recorded:
        raise ArtifactFormatError(
            f"{path}: sha256 {digest} does not match {meta_path} (sha256 {recorded})"
        )

    return Dataset(*train, *test, **meta)


def _read_exact(path, usecols):
    """``(train, test, digest)`` of the dataset CSV ``path`` as
    ``_parse.c`` reads it: each split's (t_hours, voltage_V, thickness_cm)
    arrays and the file's hex sha256; None where that parser is not
    selected or declines the file.

    The file is read once, ``READ_BLOCK_BYTES`` at a time into one buffer.
    Each read updates the digest; the lines up to the buffer's last line
    feed are parsed, and the bytes after it are moved to the buffer's
    start, to be completed by the next read. A line longer than the buffer,
    or a last line without a line feed, declines the file.
    """
    parser = _kernel.get_dataset_parser()
    if parser is None:
        return None
    digest = hashlib.sha256()
    block = bytearray(READ_BLOCK_BYTES)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        rows = parser(usecols, os.fstat(fh.fileno()).st_size)
        carry = 0  # bytes of an unfinished line at the buffer's start
        while carry < len(block) and (n := fh.readinto(view[carry:])):
            digest.update(view[carry : carry + n])
            filled = carry + n
            stop = block.rfind(b"\n", 0, filled) + 1
            if stop and not rows.add(block, stop):
                return None
            carry = filled - stop
            view[:carry] = view[stop:filled]
    if carry:
        return None
    return (*rows.columns(), digest.hexdigest())


def _read_loadtxt(path, index, usecols):
    """``_read_exact``'s ``(train, test, digest)``, parsed whole by
    ``np.loadtxt``; a bad row raises ``_bad_row``'s error."""
    try:
        with warnings.catch_warnings():
            # A file may hold no row; load_dataset reports it as lacking
            # both splits.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(
                path,
                dtype=_ROW_DTYPE,
                delimiter=",",
                skiprows=1,
                usecols=usecols,
                comments=None,
                encoding="utf-8",
                ndmin=1,
            )
    except ValueError as exc:
        raise _bad_row(path, index, exc) from exc
    split = rows["split"]
    is_train, is_test = split == "train", split == "test"
    values = [rows[col] for col in _VALUE_COLUMNS]
    finite = all(np.isfinite(column).all() for column in values)
    if not np.all(is_train | is_test) or not finite:
        raise _bad_row(path, index, None)
    train = tuple(column[is_train] for column in values)
    test = tuple(column[is_test] for column in values)
    return train, test, file_sha256(path)


def _bad_row(path, index, exc) -> ArtifactFormatError:
    """Error naming the first row of ``path`` that load_dataset rejects.

    Runs on the error path only, because numpy's error text does not give
    a stable line number: it splits each line on commas as numpy does (no
    quoting, blank lines skipped, a whitespace-only line is one field).
    Each line, the header too, is decoded strictly, so a byte that is not
    UTF-8 is reported with its line, in whichever column it is.
    ``exc`` is numpy's error, reported if no row is found at fault.
    """
    width = max(index[col] for col in _ROW_DTYPE.names) + 1
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            where = f"{path}:{number}"
            line = line.rstrip("\n")
            try:
                # A byte that is not UTF-8 was read as a lone surrogate;
                # decoding the line's bytes again strictly names it.
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as err:
                return ArtifactFormatError(f"{where}: bad row ({err})")
            if number == 1 or not line:  # the header, or a blank line
                continue
            row = line.split(",")
            if len(row) < width:
                return ArtifactFormatError(
                    f"{where}: bad row (needs {width} fields, has {len(row)})"
                )
            for col in _VALUE_COLUMNS:
                field = row[index[col]]
                # As numpy reads a number: float() of the field stripped of
                # all Unicode whitespace, in ASCII and without "_".
                text = field.strip()
                try:
                    if not text.isascii() or "_" in text:
                        raise ValueError
                    value = float(text)
                except ValueError:
                    return ArtifactFormatError(
                        f"{where}: bad row (could not convert string to float: {field!r})"
                    )
                if not math.isfinite(value):
                    return ArtifactFormatError(
                        f"{where}: non-finite {col} ({field!r})"
                    )
            split = row[index["split"]]
            if split not in ("train", "test"):
                return ArtifactFormatError(f"{where}: unknown split '{split}'")
    return ArtifactFormatError(f"{path}: bad row ({exc})")


# What a value read from a JSON file may be: each kind's name in error
# messages, and its test. JSON gives exact types, and a boolean is never a
# number. A finite number fits a float, so NaN, +-inf and an integer too
# large for a float all fail the one comparison.
JSON_KINDS = {
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
        for chunk in iter(lambda: fh.read(READ_BLOCK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def trajectory_rows(arrays, start: int, stop: int) -> tuple:
    """Rows ``start:stop`` of the trajectory CSV and of its diagnostics CSV.

    ``arrays`` are the eight columns in ``trajectory_arrays`` order. Each
    value is written as the ``repr`` of a float and the iteration count as
    an integer, so the files read back bit for bit; any other value raises
    ValueError. The rows are formatted by ``_kernel.get_formatter``: C for
    the columns ``trajectory_arrays`` makes, where ``_repr.c`` builds and
    passes its check, else ``repr``. Returns the two ASCII byte strings.
    """
    return _kernel.get_formatter().trajectory_rows(arrays, start, stop)


def write_trajectory(traj: Trajectory, path, diagnostics_path) -> None:
    """Write the trajectory CSV and its diagnostics CSV of ``traj``, each
    atomically and in binary mode.

    The rows are formatted by ``trajectory_rows`` in blocks of
    ``TRAJECTORY_BLOCK_ROWS``. Both temporary files are open together, and
    neither replaces its final name unless every block was written.
    """
    arrays = [getattr(traj, f.name) for f in fields(traj)[:8]]
    n = len(traj.times)
    with atomic_open(path, "wb") as fh, atomic_open(diagnostics_path, "wb") as diag:
        fh.write(TRAJECTORY_HEADER.encode())
        diag.write(DIAGNOSTICS_HEADER.encode())
        for start in range(0, n, TRAJECTORY_BLOCK_ROWS):
            rows, diagnostics = trajectory_rows(
                arrays, start, min(start + TRAJECTORY_BLOCK_ROWS, n)
            )
            fh.write(rows)
            diag.write(diagnostics)
