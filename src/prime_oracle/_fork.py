"""Two cores for one job: one function in a forked worker beside the caller.

:func:`both` is the one place the package forks.  ``both(here, there)``
returns ``(here(), there())``.  Where :func:`forks` allows, ``there`` runs in
a child forked for it while ``here`` runs in the caller, and the child hands
back its pickled result, or its exception with type and message unchanged,
through a pipe.  Elsewhere ``there`` runs after ``here`` in the caller, so a
call site has one code path and the same results on one core or two.

One call with two empty functions costs about 5.5 ms on a 2-core Xeon, where
a forking ``ProcessPoolExecutor`` took 9.6 ms to start, run one empty job and
shut down (medians of 15).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

#: ``prctl`` option from ``<linux/prctl.h>``: the signal a process gets when
#: the thread that forked it exits.
_PR_SET_PDEATHSIG = 1

#: Set in a forked worker, whose own calls of :func:`both` run in turn.
_in_worker = False


def forks() -> bool:
    """Whether :func:`both` runs ``there`` in a forked worker.

    Only on Linux, where the worker can ask to die with its caller; with two
    or more usable cores; from a process with one thread, since a fork copies
    only the calling thread and the locks the others hold stay held; and
    never from inside a worker.
    """
    return (
        not _in_worker
        and sys.platform == "linux"
        and threading.active_count() == 1
        and len(os.sched_getaffinity(0)) >= 2
    )


def both(here, there):
    """``(here(), there())``, with ``there`` in a forked worker when :func:`forks`.

    The caller reads the worker's pipe to its end before it reaps the
    worker, so a large result cannot fill the pipe and stall them both.  An
    exception of the caller's own while the worker runs, a
    ``KeyboardInterrupt`` during ``here`` too, kills and reaps the worker
    before it goes on.  An exception raised by ``there`` is raised here after
    ``here`` has finished.
    """
    if not forks():
        return here(), there()
    import signal

    read_end, write_end = os.pipe()
    caller = os.getpid()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        _work(there, caller, write_end)
    os.close(write_end)
    pipe = os.fdopen(read_end, "rb")
    try:
        mine = here()
        data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipe.close()
        _, status = os.waitpid(pid, 0)
    if not data:
        raise ChildProcessError(
            f"forked worker {pid} ended with exit code "
            f"{os.waitstatus_to_exitcode(status)} and no result"
        )
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return mine, theirs


def _work(there, caller: int, write_end: int) -> None:
    """The forked worker: run ``there``, write its pickled outcome and leave by ``os._exit``.

    ``os._exit`` skips the ``atexit`` handlers, ``finally`` blocks and
    buffered output the worker shares with its caller.
    """
    global _in_worker
    _in_worker = True
    code = 1
    try:
        try:
            _die_with(caller)
            outcome = True, there()
        except BaseException as exc:
            outcome = False, exc
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _die_with(caller: int) -> None:
    """Have the kernel kill this worker when ``caller`` dies.

    A caller killed outright (SIGTERM, SIGKILL) never reaps its worker,
    which would otherwise run its share for no one.
    """
    import ctypes
    import signal

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != caller:  # the caller died before prctl
        os._exit(1)
