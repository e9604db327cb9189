"""Work on every CPU: `fork_rows` spreads rows over forked workers, one per
CPU of the affinity mask, and `one_blas_thread` runs the frozen trunk at one
OpenBLAS thread, so its features do not depend on the thread count. Python
3.12 and later warn (a DeprecationWarning) when a process with OpenBLAS
threads forks."""

from __future__ import annotations

import ctypes
import os
import pickle
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import BinaryIO

import numpy as np


def _openblas():
    """The (set, get) thread-count functions of numpy's bundled OpenBLAS, or
    a pair that does nothing where that library or its symbols are absent."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        try:
            blas = ctypes.CDLL(str(lib))  # the loaded library: dlopen returns its handle
            return blas.scipy_openblas_set_num_threads64_, blas.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            pass
    return (lambda n: None), (lambda: 1)


_BLAS = _openblas()


@contextmanager
def one_blas_thread():
    """Run the block at one BLAS thread, then restore the caller's count."""
    set_threads, get_threads = _BLAS
    n = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(n)


def _workers(n: int) -> int:
    """One process per CPU this one may run on, no more than `n` and at least
    one; one where the platform has no fork or affinity mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(n, len(os.sched_getaffinity(0))))


def _fork_worker(work, inherited) -> tuple[int, BinaryIO]:
    """Fork a worker that sends `work()`, or the exception it raised, pickled
    through a pipe; return its pid and the pipe's read end. The worker closes
    the parent's read ends in `inherited`, so its write fails once the parent
    closed its own, and exits, never returning: 0 once sent, 1 if not."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for pipe in inherited:
                pipe.close()
            try:
                msg = pickle.dumps((work(), None))
            except Exception as e:
                msg = pickle.dumps((None, e))
            with os.fdopen(w, "wb") as fh:
                fh.write(msg)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def fork_rows(row, n: int, what: str) -> list:
    """`[row(i) for i in range(n)]` on `_workers(n)` processes: worker k of w
    computes rows k, k + w, ..., the parent being worker 0; with one worker
    nothing forks. The parent waits for every worker, even when a share
    fails, then raises the first error, its own first; a worker that died
    before reporting is a ChildProcessError naming `what` and its wait status."""
    w = _workers(n)

    def share(k: int) -> list:
        return [row(i) for i in range(k, n, w)]

    pids, pipes, sent = [], [], []
    try:
        for k in range(1, w):
            pid, pipe = _fork_worker(partial(share, k), pipes)
            pids.append(pid)
            pipes.append(pipe)
        shares = [share(0)]
        sent = [pipe.read() for pipe in pipes]
    finally:
        # closed before the waits, so a worker still writing fails and exits
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (pid, msg, status) in enumerate(zip(pids, sent, statuses), 1):
        if not msg:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"{what} worker {k} (pid {pid}) {how} before reporting")
        rows, err = pickle.loads(msg)
        if err is not None:
            raise err
        shares.append(rows)
    out = [None] * n
    for k, rows in enumerate(shares):
        out[k::w] = rows
    return out
