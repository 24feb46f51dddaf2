"""Concurrent-writer stress for the SQLite store.

The container that runs ``certify_fleet`` clamps its pool to the CPU
count, so these tests drive :mod:`multiprocessing` directly: N real
processes hammering one store root.  The store must absorb lock
contention through its busy timeout + jittered-backoff retry and lose
nothing.  (Pool workers never write a root: the parent writes what they
ship, see ``tests/test_store_backends.py::TestReadOnlyStores``.)
"""

import json
import multiprocessing
import os

import pytest

from repro.orchestrator import QueryStore

#: A root's layout before the race: the legacy JSON layout (which the
#: store leaves unread) or nothing at all.
LAYOUTS = ("json", "sqlite")
#: Scaled up by the CI store-stress job; the defaults keep the local
#: tier-1 run fast while still forcing real lock contention.
WRITERS = int(os.environ.get("REPRO_STRESS_WRITERS", "4"))
ENTRIES_PER_WRITER = int(os.environ.get("REPRO_STRESS_ENTRIES", "40"))


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        pytest.skip("fork start method unavailable")


def _digest(writer, index):
    return f"{writer:02d}{index:062d}"


def _hammer_main(root, writer):
    """Write a block of entries straight into the shared (main) store."""
    store = QueryStore(root)
    for index in range(ENTRIES_PER_WRITER):
        store.save_payload(_digest(writer, index), {"writer": writer, "index": index})
        if index % 7 == 0:
            store.flush()  # interleave real commits with buffered writes
    store.close()


def _record_runs(root):
    store = QueryStore(root)
    for _ in range(5):
        store.record_metrics({"ticks": 1})
    store.close()


def _run_writers(target, arguments):
    context = _context()
    processes = [context.Process(target=target, args=args) for args in arguments]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert all(process.exitcode == 0 for process in processes), (
        f"writer crashed: exit codes {[p.exitcode for p in processes]}"
    )


@pytest.mark.parametrize("layout", LAYOUTS)
def test_concurrent_writers_one_root(layout, tmp_path):
    """N processes appending to one store root: every entry lands, none torn."""
    root = str(tmp_path)
    if layout == "json":
        (tmp_path / "ff").mkdir()
        (tmp_path / "ff" / ("ff" * 32 + ".json")).write_text(json.dumps({"legacy": True}))
    QueryStore(root).close()  # create the database before the race
    _run_writers(_hammer_main, [(root, writer) for writer in range(WRITERS)])
    store = QueryStore(root)
    assert len(store) == WRITERS * ENTRIES_PER_WRITER
    for writer in range(WRITERS):
        for index in (0, ENTRIES_PER_WRITER - 1):
            payload = store.load_payload(_digest(writer, index))
            assert payload == {"writer": writer, "index": index}
    assert store.statistics.quarantined == 0


def test_concurrent_metrics_recording(tmp_path):
    """Metrics fold transactionally: concurrent recorders lose nothing."""
    root = str(tmp_path)
    QueryStore(root).close()
    _run_writers(_record_runs, [(root,) for _ in range(WRITERS)])
    totals = QueryStore(root).load_metrics()
    assert totals["ticks"] == WRITERS * 5
    assert totals["runs"] == WRITERS * 5


def test_forked_child_reopens_connection(tmp_path):
    """A store inherited through fork must not share the parent's connection."""
    store = QueryStore(str(tmp_path))
    store.save_payload(_digest(0, 0), {"parent": True})
    store.flush()
    context = _context()

    def _child(root):
        # The global `store` object was inherited via fork; using it must
        # transparently reopen rather than corrupt the parent's handle.
        assert store.load_payload(_digest(0, 0)) == {"parent": True}
        store.save_payload(_digest(0, 1), {"child": True})
        store.close()

    process = context.Process(target=_child, args=(str(tmp_path),))
    process.start()
    process.join(timeout=60)
    assert process.exitcode == 0
    # The parent's handle still works after the child's reopen-and-write.
    assert store.load_payload(_digest(0, 1)) == {"child": True}
    assert os.getpid() == store._pid
