"""`parallel.fork_rows`: rows handed out on demand to forked workers."""

import os
import signal
import time

import pytest

from molre import parallel
from molre.parallel import fork_rows


def _cpus(monkeypatch, n):
    # fork_rows runs one process per CPU of the affinity mask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _logged(tmp_path):
    """(row function, rows logged): the function returns i * i and logs
    `pid row` to a file, so a forked worker's rows count too."""
    log = tmp_path / "rows.log"
    log.write_text("")

    def row(i):
        with open(log, "a") as fh:  # one short write: lines never interleave
            fh.write(f"{os.getpid()} {i}\n")
        return i * i

    def rows():
        return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    return row, rows


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_each_row_is_computed_once(tmp_path, monkeypatch, workers):
    _cpus(monkeypatch, workers)
    row, rows = _logged(tmp_path)
    assert fork_rows(row, 25, "test") == [i * i for i in range(25)]
    logged = rows()
    assert sorted(i for _, i in logged) == list(range(25))
    assert len({pid for pid, _ in logged}) <= workers
    if workers == 1:
        assert {pid for pid, _ in logged} == {os.getpid()}  # nothing forks


def test_a_slow_worker_leaves_most_rows_to_the_parent(tmp_path, monkeypatch):
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def row(i):
        if os.getpid() != parent:
            time.sleep(0.02)
        return os.getpid()

    pids = fork_rows(row, 100, "test")
    assert pids.count(parent) >= 80


def test_many_trivial_rows_finish(monkeypatch):
    # more rows than tokens: each token is a run of rows
    _cpus(monkeypatch, 3)
    n = 50_000
    assert n > parallel._TOKENS

    def late(signum, frame):
        raise TimeoutError("fork_rows did not finish within 60 s")

    old = signal.signal(signal.SIGALRM, late)
    signal.alarm(60)
    try:
        assert fork_rows(lambda i: i, n, "test") == list(range(n))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("workers", [1, 3])
def test_the_lowest_failing_row_is_named(monkeypatch, workers):
    _cpus(monkeypatch, workers)

    def row(i):
        if i in (13, 7):
            raise ValueError(f"bad row {i}")
        return i

    with pytest.raises(ValueError, match=r"^bad row 7$"):
        fork_rows(row, 40, "test")


def test_the_lowest_row_is_named_whichever_process_reports_it(monkeypatch, rendezvous):
    _cpus(monkeypatch, 3)
    for round_ in range(8):
        def row(i, round_=round_):
            # each process holds one of the three rows, and every row fails;
            # the parent and this round's two new workers make 3 + 2 * round_ pids
            rendezvous(3 + 2 * round_)
            raise ValueError(f"bad row {i}")

        with pytest.raises(ValueError, match=r"^bad row 0$"):
            fork_rows(row, 3, "test")
