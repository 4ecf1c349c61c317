"""Child processes as Linux lists them under ``/proc`` (test helpers)."""

import pathlib


def ended(pid):
    """Whether ``pid`` has exited: gone, or a zombie no one has reaped yet."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def children(pid):
    """The pids of ``pid``'s child processes, running or unreaped, from every thread's ``children`` list."""
    tasks = pathlib.Path(f"/proc/{pid}/task")
    try:
        return [int(c) for task in tasks.iterdir() for c in (task / "children").read_text().split()]
    except FileNotFoundError:  # the process or one of its threads has just exited
        return []
