import os

import pytest

from pempinn.constants import default_conditions, default_parameters
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
def params():
    return default_parameters()


@pytest.fixture(scope="session")
def cond():
    return default_conditions()


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
