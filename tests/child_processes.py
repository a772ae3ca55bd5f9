"""Live child processes of a process, read from ``/proc``.

Kept free of package imports: ``tests/conftest.py`` reads it when the
session ends, and the check's own test imports it.
"""

from __future__ import annotations

import glob


def live_children(pid: int) -> dict:
    """``{pid: command line}`` of every live (not zombie) child of ``pid``,
    read from ``/proc/<pid>/task/*/children``."""
    children = {}
    for listing in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(listing) as handle:
                child_ids = handle.read().split()
        except OSError:
            continue
        for child in child_ids:
            try:
                with open(f"/proc/{child}/stat") as handle:
                    state = handle.read().rpartition(")")[2].split()[0]
                with open(f"/proc/{child}/cmdline", "rb") as handle:
                    command = handle.read().replace(b"\0", b" ").decode(errors="replace")
            except OSError:
                continue  # it exited while we looked
            if state != "Z":
                children[int(child)] = command.strip()
    return children
