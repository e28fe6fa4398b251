import os

import pytest

from pempinn import _kernel
from pempinn.constants import OperatingConditions, PhysicsParameters
from pempinn.electrochem import voltage_coefficients
from pempinn.simulator import generate_dataset, integrate_trajectory


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of the test process running
    or unreaped (a zombie, which this reaps)."""
    yield
    if os.name != "posix":
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child process {pid} unreaped (wait status {status})")


@pytest.fixture(scope="session")
def c_rk4():
    """The C RK4 loop, built and loaded but not self-checked, so that the
    tests show where it differs; skipped where it does not build (no
    compiler), which CI's "C kernels selected" step rules out there."""
    rk4 = _kernel._c_loop()
    if rk4 is None:
        pytest.skip("the C RK4 loop does not build here")
    return rk4


# The Python run keeps the test's id; the C run's id gains "c".
@pytest.fixture(params=["python", "c"], ids=[pytest.HIDDEN_PARAM, "c"])
def rk4_kernel(request, monkeypatch):
    """Pin ``_kernel.get_kernels()`` to the Python RK4 loop, then to the C
    loop, and give the loop's name."""
    if request.param == "c":
        rk4 = request.getfixturevalue("c_rk4")
    else:
        rk4 = _kernel.rk4_thinning
    monkeypatch.setattr(_kernel, "_selected", lambda: rk4)
    return request.param


@pytest.fixture(scope="session")
def c_formatter():
    """``_repr.c``'s row formatter, built and loaded but not self-checked,
    so that the tests show where it differs from ``repr``; skipped where it
    does not build (no compiler), which CI's "C kernels selected" step
    rules out there."""
    formatter = _kernel._c_formatter()
    if formatter is None:
        pytest.skip("the C row formatter does not build here")
    return formatter


# The repr run keeps the test's id; the C run's id gains "c_repr".
@pytest.fixture(params=["python", "c"], ids=[pytest.HIDDEN_PARAM, "c_repr"])
def repr_formatter(request, monkeypatch):
    """Pin ``_kernel.get_formatter()`` to the ``repr`` rows, then to
    ``_repr.c``'s, and give the formatter's name."""
    if request.param == "c":
        formatter = request.getfixturevalue("c_formatter")
    else:
        formatter = _kernel.REPR_ROWS
    monkeypatch.setattr(_kernel, "_selected_formatter", lambda: formatter)
    return request.param


@pytest.fixture(scope="session")
def c_parser():
    """``_parse.c``'s ``SplitRows`` factory, built and loaded but not
    self-checked, so that the tests show where it differs from
    ``np.loadtxt``; skipped where it does not build (no compiler), which
    CI's "C kernels selected" step rules out there."""
    parser = _kernel._c_parser()
    if parser is None:
        pytest.skip("the C dataset parser does not build here")
    return parser


# The np.loadtxt run keeps the test's id; the C run's id gains "c_parse".
@pytest.fixture(params=["python", "c"], ids=[pytest.HIDDEN_PARAM, "c_parse"])
def dataset_parser(request, monkeypatch):
    """Pin ``_kernel.get_dataset_parser()`` to None (np.loadtxt), then to
    ``_parse.c``'s, and give the parser's name."""
    parser = request.getfixturevalue("c_parser") if request.param == "c" else None
    monkeypatch.setattr(_kernel, "_selected_parser", lambda: parser)
    return request.param


@pytest.fixture(scope="session")
def params():
    return PhysicsParameters()


@pytest.fixture(scope="session")
def cond():
    return OperatingConditions()


@pytest.fixture(scope="session")
def coeffs(params, cond):
    return voltage_coefficients(params, cond)


@pytest.fixture(scope="session")
def trajectory(params, cond):
    # Coarse but converged enough for every consistency check below 1e-10.
    return integrate_trajectory(params, cond, n_steps=1024)


@pytest.fixture(scope="session")
def small_dataset(trajectory):
    return generate_dataset(trajectory, n_train=24, n_test=60, train_fraction=1 / 3, seed=11)
