"""The one forked worker behind the two-core paths (``prime_oracle._fork``)."""

import os
import sys
import threading
import time

import pytest

from prime_oracle import _fork
from prime_oracle.errors import DomainError

from procs import children

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="a worker is forked on Linux only")


class Refusal(Exception):
    """An exception of a type the package does not define."""


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, and the ``os.fork`` calls this process makes."""
    made, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: made.append(None) or fork())
    return made


def test_both_results_in_order(forks):
    assert _fork.both(os.getpid, os.getpid)[0] == os.getpid()
    mine, theirs = _fork.both(lambda: "here", os.getpid)
    assert mine == "here" and theirs != os.getpid()
    assert len(forks) == 2


def test_a_result_larger_than_the_pipe_comes_back_whole(forks):
    big = bytes(range(256)) * (1 << 15)  # 8 MB, past any pipe buffer
    assert _fork.both(lambda: None, lambda: big) == (None, big)


@pytest.mark.parametrize("error", [DomainError("refused: 7 < 11"), Refusal("no", 3)])
def test_the_worker_exception_keeps_type_and_message(forks, error):
    def refuse():
        raise error

    with pytest.raises(type(error)) as caught:
        _fork.both(lambda: None, refuse)
    assert type(caught.value) is type(error)
    assert caught.value.args == error.args


def test_a_worker_that_dies_without_a_result_is_an_error(forks):
    with pytest.raises(ChildProcessError, match=r"exit code 3 and no result"):
        _fork.both(lambda: None, lambda: os._exit(3))


def test_the_caller_exception_kills_the_worker(forks):
    def refuse():
        raise Refusal("the caller's share failed")

    start = time.monotonic()
    with pytest.raises(Refusal):
        _fork.both(refuse, lambda: time.sleep(60))
    assert time.monotonic() - start < 10
    assert children(os.getpid()) == []


def test_one_cpu_runs_both_here_in_turn(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    order = []
    assert _fork.both(lambda: order.append("here") or 1, lambda: order.append("there") or 2) == (1, 2)
    assert order == ["here", "there"] and forks == []


def test_no_fork_from_a_worker_or_beside_a_thread(forks):
    assert _fork.both(_fork.forks, _fork.forks) == (True, False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not _fork.forks()
        assert _fork.both(os.getpid, os.getpid) == (os.getpid(), os.getpid())
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == 1
