"""The main SQLite connections every store tier shares, one per database file.

Each process (and thread) keeps one main connection per store database
open and shares it between every :class:`~repro.orchestrator.store.Store`
it opens on that root (see :func:`_shared_connections`), so a certify
call that opens three or four tiers connects once per root and process,
not once per tier per call.  The store itself opens, validates and uses
the connections; this module only keeps them.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from collections import OrderedDict
from typing import List, Optional, Tuple

#: Main connections a process keeps registered for reuse (see
#: :func:`_shared_connections`); the least recently opened goes first.
_MAX_SHARED_CONNECTIONS = 8

#: Per thread: ``registry``, its main connections by database path, least
#: recently opened first; and ``pid``, the process that opened them.
_local = threading.local()
#: Connections inherited through ``fork``.  A child never uses its
#: parent's connections, and keeps them referenced so it never closes
#: them either.
_inherited: List[object] = []


class _SharedConnection:
    """A main connection, closed once neither the registry nor a store holds it.

    A ``sqlite3.Connection`` sits in a reference cycle with its own
    statement cache, so an unused one would keep its page cache and file
    descriptors until a cyclic collection; this holder closes it as soon
    as the last reference goes.
    """

    __slots__ = ("connection", "identity")

    def __init__(
        self, connection: sqlite3.Connection, identity: Optional[Tuple[int, int]]
    ) -> None:
        self.connection = connection
        #: ``(st_dev, st_ino)`` of the file the connection holds open.
        self.identity = identity

    def __del__(self) -> None:
        try:
            self.connection.close()
        except sqlite3.Error:  # dropped on another thread: GC closes it later
            pass


def _file_identity(path: str) -> Optional[Tuple[int, int]]:
    try:
        info = os.stat(path)
    except OSError:
        return None
    return info.st_dev, info.st_ino


def _shared_connections() -> "OrderedDict[str, _SharedConnection]":
    """This thread's registry of main connections, stale entries dropped.

    An entry is reused only while its path still names the file the
    connection holds open.  The open descriptor pins that inode, so a
    root that was deleted, quarantined or recreated since always shows a
    different ``(st_dev, st_ino)`` and gets a new connection; dropping the
    stale entry also lets the old file go once no live store holds it.
    """
    registry = getattr(_local, "registry", None)
    if registry is None or _local.pid != os.getpid():
        if registry is not None:
            _inherited.append(registry)
        registry = _local.registry = OrderedDict()
        _local.pid = os.getpid()
    for path, shared in list(registry.items()):
        current = _file_identity(path)
        if current is None or current != shared.identity:
            del registry[path]
    return registry
