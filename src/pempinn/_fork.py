"""Forked stages: a job run in a child process beside the caller.

``ForkedStage(job)`` forks at once; the child runs ``job(stops)`` and
sends back, pickled through a pipe, what it returned or raised, and the
caller collects that with ``result()`` or kills and reaps the child with
``cancel()``. Every stage is reaped by one of the two, so a caller that
holds one calls ``cancel()`` in a ``finally`` (a no-op once ``result()``
has returned or raised). Three stages use it: the trajectory-CSV writer
of ``simulate`` and ``reproduce``, fed row counts by the RK4 kernel's
progress callback, and the baseline ANN's training in ``reproduce``
(``cli``); and the parse of the first half of a large dataset CSV in
``load_dataset`` (``simulator``).
"""

from __future__ import annotations

import os
import pickle
import sys

# Counts cross a ForkedStage's feed as 8-byte unsigned integers.
_COUNT_BYTES = 8


class ForkedStage:
    """``job(stops)`` running in a forked child process beside the caller.

    ``send(n)`` feeds the child a non-negative count through a pipe;
    ``stops`` iterates the counts sent, until the feed is closed.
    ``result()`` closes the feed, waits for the child and returns what
    ``job`` returned, or raises what it raised; ``cancel()`` closes the feed
    and kills and reaps a child that is not wanted any more. Where the
    platform has no ``os.fork``, ``send`` keeps the counts in a list and
    ``result()`` runs ``job`` on it inline, so the stages keep their
    sequential order.
    """

    def __init__(self, job):
        self._job = job
        self._pid = self._pipe = self._feed = None
        self._sent = []
        if not hasattr(os, "fork"):
            return
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        feed_read, feed_write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (read_fd, write_fd, feed_read, feed_write):
                os.close(fd)
            raise
        if pid == 0:
            os.close(read_fd)
            os.close(feed_write)
            _run_forked(job, _received(feed_read), write_fd)
        os.close(write_fd)
        os.close(feed_read)
        self._pid = pid
        self._feed = feed_write
        self._pipe = os.fdopen(read_fd, "rb")

    def send(self, count: int) -> None:
        if self._feed is None:
            self._sent.append(count)
            return
        try:
            os.write(self._feed, count.to_bytes(_COUNT_BYTES, "little"))
        except BrokenPipeError:
            pass  # the child has ended; result() says why

    def result(self):
        self._close_feed()
        if self._pipe is None:
            return self._job(self._sent)
        try:
            payload = self._pipe.read()
        except BaseException:
            self.cancel()
            raise
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if not payload:
            raise ChildProcessError(
                f"forked stage ended without a result (wait status {status})"
            )
        ok, value = pickle.loads(payload)
        if ok:
            return value
        raise value

    def cancel(self) -> None:
        self._close_feed()
        if self._pid is not None:
            import signal  # here, so that importing the CLI does not load it

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
            self._pipe.close()

    def _close_feed(self) -> None:
        if self._feed is not None:
            os.close(self._feed)
            self._feed = None


def _received(fd):
    """The counts ``ForkedStage.send`` wrote to ``fd``, until the feed ends."""
    with os.fdopen(fd, "rb") as feed:
        while len(message := feed.read(_COUNT_BYTES)) == _COUNT_BYTES:
            yield int.from_bytes(message, "little")


def _run_forked(job, stops, write_fd) -> None:
    """Child side of ``ForkedStage``: send ``job(stops)``'s outcome, then
    exit without returning into the caller's stack."""
    status = 1
    try:
        try:
            outcome = (True, job(stops))
        except BaseException as exc:
            outcome = (False, exc)
        payload = pickle.dumps(outcome)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
