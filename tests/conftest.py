import os

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
