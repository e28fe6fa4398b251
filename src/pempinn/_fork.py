"""Forked stages: a job run in a child process beside the caller.

``ForkedStage(job)`` forks at once; the child runs ``job()`` and sends
back, pickled through a pipe, what it returned or raised, and the caller
collects that with ``result()`` or kills and reaps the child with
``cancel()``. Every stage is reaped by one of the two, so a caller that
holds one calls ``cancel()`` in a ``finally`` (a no-op once ``result()``
has returned or raised). One stage uses it: the baseline ANN's training
in ``reproduce`` (``cli``).
"""

from __future__ import annotations

import os
import pickle
import sys


class ForkedStage:
    """``job()`` running in a forked child process beside the caller.

    ``result()`` waits for the child and returns what ``job`` returned, or
    raises what it raised, unpickled straight from the pipe; if the child
    ends before it sends a whole result, as when it is killed while it
    writes, ``result()`` raises ChildProcessError with the wait status (an
    OSError, so the CLI exits 4). ``cancel()`` kills and reaps a child that
    is not wanted any more. Where the platform has no ``os.fork``,
    ``result()`` runs ``job`` inline, so the stages keep their sequential
    order.
    """

    def __init__(self, job):
        self._job = job
        self._pid = self._pipe = None
        if not hasattr(os, "fork"):
            return
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            _run_forked(job, write_fd)
        os.close(write_fd)
        self._pid = pid
        self._pipe = os.fdopen(read_fd, "rb")

    def result(self):
        if self._pipe is None:
            return self._job()
        try:
            outcome = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError):
            # The child ended before it sent a whole result: nothing, or a
            # payload cut short.
            outcome = None
        except BaseException:
            self.cancel()
            raise
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if outcome is None:
            raise ChildProcessError(
                f"forked stage ended without a result (wait status {status})"
            )
        ok, value = outcome
        if ok:
            return value
        raise value

    def cancel(self) -> None:
        if self._pid is not None:
            import signal  # here, so that importing the CLI does not load it

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
            self._pipe.close()


def _run_forked(job, write_fd) -> None:
    """Child side of ``ForkedStage``: send ``job()``'s outcome, then exit
    without returning into the caller's stack."""
    status = 1
    try:
        try:
            outcome = (True, job())
        except BaseException as exc:
            outcome = (False, exc)
        payload = pickle.dumps(outcome)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
