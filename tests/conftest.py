import os
import time

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    a command must wait for every process it starts."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    what = "a running child" if pid == 0 else f"child {pid}, unreaped (wait status {status})"
    pytest.fail(f"the test left {what}")


@pytest.fixture
def rendezvous(tmp_path):
    """`rendezvous(n)` returns once `n` processes have called it. Called from
    a forked row, it holds each process's first row until every process
    holds one, so every process, workers included, takes a row."""
    path = tmp_path / "rendezvous.log"
    path.write_text("")

    def wait(n: int) -> None:
        with open(path, "a") as fh:  # one short write: lines never interleave
            fh.write(f"{os.getpid()}\n")
        deadline = time.monotonic() + 60
        while len(set(path.read_text().split())) < n:
            if time.monotonic() > deadline:
                raise TimeoutError(f"fewer than {n} processes took a row")
            time.sleep(0.001)

    return wait
