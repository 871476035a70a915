"""Pluggable result stores: the cache layer of the sweep fabric.

A :class:`ResultStore` holds the sweep cache's *bytes* — the pickled
:class:`~repro.scenarios.run.ModeRun` payloads of
:mod:`repro.perf.sweep` — content-addressed by the scenario-hash cache
keys of :func:`repro.scenarios.scenario_cache_key`.  Two backends ship:

``file`` (the default)
    :class:`FileStore` — the sharded-file layout every release since
    PR 1 has written (``<root>/<key[:2]>/<key>.pkl``, atomic
    tmp+replace writers, ``.corrupt`` quarantine files).  It is the
    compatibility *oracle*: keys, paths and stored bytes are pinned by
    ``tests/api/test_cache_compat.py``, and the SQLite backend is
    proven byte-identical against it.

``sqlite``
    :class:`SqliteStore` — one SQLite file (``results.sqlite3`` under
    the cache root) holding an indexed ``results`` table with the
    payload blobs inline, in WAL journal mode so concurrent writers
    (pool workers, fabric worker daemons, the result service's handler
    threads) never block readers.  Stored payload bytes are exactly the
    bytes the file store would write; quarantined entries move to a
    ``corrupt`` table instead of ``*.corrupt`` files.

Selection is process-wide via :func:`set_cache_backend`, from the
environment via ``REPRO_CACHE_BACKEND`` (parsed defensively at import —
garbage warns and falls back to ``file``), or explicitly via
:func:`open_store`\\ 's ``backend=`` argument.  The backend never
enters cache keys: a result written under one backend and migrated to
the other (``python -m repro.experiments cache migrate``) serves
byte-identically.

Whatever the backend, one codec decides what the bytes are and how a
bad read behaves: :func:`write_result` and :func:`read_result`.  The
sweep cache, :class:`~repro.fabric.Fabric`, its workers and the result
service all go through them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import pickle
import sqlite3
import threading
import time
import typing as _t
import warnings
import weakref

from .._envflags import env_choice as _env_choice

__all__ = ["CACHE_BACKENDS", "CACHE_BACKEND_DEFAULT", "FileStore",
           "ResultStore", "SqliteStore", "StoreStats", "get_cache_backend",
           "open_store", "resolve_cache_backend", "set_cache_backend",
           "SQLITE_FILENAME"]

#: the recognized cache-store backend names, in documentation order
CACHE_BACKENDS: _t.Tuple[str, ...] = ("file", "sqlite")

#: the SQLite backend's database file, under the cache root
SQLITE_FILENAME = "results.sqlite3"

_ENV_VAR = "REPRO_CACHE_BACKEND"


def _env_backend(name: str = _ENV_VAR) -> str:
    """Parse the cache-backend env var defensively.

    A garbage value must not make ``import repro.fabric`` (or the sweep
    driver that lazily opens stores) raise or silently flip layouts:
    :func:`repro._envflags.env_choice` warns and falls back to the
    ``file`` oracle layout, matching the ``REPRO_WORKERS`` contract.
    """
    return _env_choice(name, CACHE_BACKENDS, "file")


#: process-wide default for ``open_store(..., backend=None)``
CACHE_BACKEND_DEFAULT: str = _env_backend()


def get_cache_backend() -> str:
    """The process-wide default cache-store backend name."""
    return CACHE_BACKEND_DEFAULT


def set_cache_backend(name: str) -> str:
    """Set the process-wide default cache backend; returns the previous
    default (so callers can restore it).

    The ``file`` backend remains the compatibility oracle — switching
    to ``sqlite`` changes where bytes live, never what they are, and
    switching back restores the pinned sharded-file layout.  Unknown
    names raise ``ValueError``; only the *environment* path is
    forgiving.
    """
    global CACHE_BACKEND_DEFAULT
    resolve_cache_backend(name)
    previous = CACHE_BACKEND_DEFAULT
    CACHE_BACKEND_DEFAULT = name
    return previous


def resolve_cache_backend(name: _t.Optional[str]) -> str:
    """Validate an explicit backend name; ``None`` means "use the
    process-wide default"."""
    if name is None:
        return CACHE_BACKEND_DEFAULT
    if name not in CACHE_BACKENDS:
        raise ValueError(
            f"unknown cache backend {name!r}; choose from "
            f"{', '.join(CACHE_BACKENDS)}")
    return name


@dataclasses.dataclass(frozen=True)
class StoreStats:
    """Operator-facing snapshot of one store (``cache stats`` CLI,
    the result service's ``/stats`` endpoint)."""

    backend: str
    location: str
    entries: int
    total_bytes: int
    corrupt: int

    def as_dict(self) -> _t.Dict[str, _t.Any]:
        return dataclasses.asdict(self)


class ResultStore:
    """The store protocol: content-addressed result bytes.

    Keys are the scenario-hash cache keys of
    :func:`repro.perf.point_cache_key`; values are the exact pickled
    payload bytes the sweep driver stores.  Implementations must be
    safe under concurrent writers of *equal* bytes for one key (the
    cache's writers are deterministic, so last-writer-wins is
    byte-neutral) and must keep :meth:`get` cheap — the result service
    serves straight out of it.
    """

    backend: str = "abstract"

    def get(self, key: str) -> _t.Optional[bytes]:
        """The stored bytes for ``key``, or ``None`` on a miss."""
        raise NotImplementedError

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (replacing any previous
        entry — writers are deterministic, so replacement is
        byte-neutral)."""
        raise NotImplementedError

    def has(self, key: str) -> bool:
        return self.get(key) is not None

    def delete(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        raise NotImplementedError

    def iter_keys(self) -> _t.Iterator[str]:
        """All stored keys, in sorted order (deterministic listings)."""
        raise NotImplementedError

    def stats(self) -> StoreStats:
        raise NotImplementedError

    def quarantine(self, key: str, reason: str) -> _t.Optional[str]:
        """Move a corrupt entry aside (kept for post-mortems, ignored
        by :meth:`get`); returns a human-readable destination, or
        ``None`` when there was nothing to move (best-effort — never
        raises)."""
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every stored result *and* the quarantine/temp residue;
        returns the number of results removed (residue not counted)."""
        raise NotImplementedError

    def prune(self) -> int:
        """Drop quarantine/temp residue only, keeping every healthy
        entry; returns the number of items removed."""
        raise NotImplementedError

    def verify(self) -> _t.List[_t.Tuple[str, str]]:
        """Integrity pass over every entry; returns ``(key, problem)``
        pairs (empty when the store is healthy).  The SQLite backend
        re-hashes stored bytes against the digest recorded at ``put``
        time; the file layout records no digest, so its entries are
        probed by unpickling instead."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying handles (idempotent)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.close()


# ---------------------------------------------------------- file store
class FileStore(ResultStore):
    """The pinned sharded-file layout: ``<root>/<key[:2]>/<key>.pkl``.

    Byte-for-byte the store :mod:`repro.perf.sweep` has always written:
    atomic ``.tmp<pid>`` + ``os.replace`` writers, ``.corrupt``
    quarantine files, shard directories pruned on :meth:`clear`.
    ``tests/api/test_cache_compat.py`` pins keys, paths and bytes.
    """

    backend = "file"

    def __init__(self, root: _t.Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)

    def path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> _t.Optional[bytes]:
        try:
            return self.path(key).read_bytes()
        except FileNotFoundError:
            return None

    def put(self, key: str, data: bytes) -> None:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)  # atomic under concurrent writers

    def has(self, key: str) -> bool:
        return self.path(key).is_file()

    def delete(self, key: str) -> bool:
        try:
            self.path(key).unlink()
            return True
        except OSError:
            return False

    def iter_keys(self) -> _t.Iterator[str]:
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(p.stem for p in self.root.rglob("*.pkl")))

    def stats(self) -> StoreStats:
        entries = total = corrupt = 0
        if self.root.is_dir():
            for p in self.root.rglob("*.pkl"):
                entries += 1
                try:
                    total += p.stat().st_size
                except OSError:
                    pass
            corrupt = sum(1 for _ in self.root.rglob("*.corrupt"))
        return StoreStats(self.backend, str(self.root), entries, total,
                          corrupt)

    def quarantine(self, key: str, reason: str) -> _t.Optional[str]:
        path = self.path(key)
        quarantined = path.with_suffix(".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            return None
        return quarantined.name

    def clear(self) -> int:
        removed = 0
        if self.root.is_dir():
            for p in self.root.rglob("*.pkl"):
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
            # also the .tmp<pid> droppings of writers that crashed
            # between open and os.replace, and quarantined entries
            for pattern in ("*.tmp*", "*.corrupt"):
                for p in self.root.rglob(pattern):
                    if p.is_file():
                        try:
                            p.unlink()
                        except OSError:
                            pass
            # deepest-first so nested shard dirs empty out bottom-up;
            # rmdir refuses non-empty dirs, which is what we want
            for d in sorted((d for d in self.root.rglob("*")
                             if d.is_dir()), reverse=True):
                try:
                    d.rmdir()
                except OSError:
                    pass
        return removed

    def prune(self) -> int:
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.tmp*", "*.corrupt"):
                for p in self.root.rglob(pattern):
                    if p.is_file():
                        try:
                            p.unlink()
                            removed += 1
                        except OSError:
                            pass
            for d in sorted((d for d in self.root.rglob("*")
                             if d.is_dir()), reverse=True):
                try:
                    d.rmdir()
                except OSError:
                    pass
        return removed

    def verify(self) -> _t.List[_t.Tuple[str, str]]:
        problems: _t.List[_t.Tuple[str, str]] = []
        for key in self.iter_keys():
            data = self.get(key)
            if data is None:
                continue
            try:
                pickle.loads(data)
            except Exception as exc:  # noqa: BLE001 — corrupt pickles
                # raise nearly anything; verify reports, never raises
                problems.append(
                    (key, f"unreadable: {type(exc).__name__}: {exc}"))
        return problems


# -------------------------------------------------------- sqlite store
class _Connection(sqlite3.Connection):
    """A connection that, unlike ``sqlite3.Connection``, can be weakly
    referenced and closed from another thread.

    ``sqlite3`` runs a statement with the GIL released and reads the
    connection's handle again once it returns; a ``close()`` from
    another thread in between frees that handle and crashes the
    process.  Statements and ``close()`` therefore take one lock, so a
    close waits for the running statement, and the owner's next
    statement raises ``ProgrammingError`` (closed) instead.
    """

    def __init__(self, *args: _t.Any, **kwargs: _t.Any) -> None:
        super().__init__(*args, **kwargs)
        self._busy = threading.RLock()

    def execute(self, *args: _t.Any) -> sqlite3.Cursor:
        with self._busy:
            return super().execute(*args)

    def executescript(self, script: str) -> sqlite3.Cursor:
        with self._busy:
            return super().executescript(script)

    def commit(self) -> None:
        with self._busy:
            super().commit()

    def __exit__(self, *exc: _t.Any) -> _t.Any:
        with self._busy:
            return super().__exit__(*exc)

    def close(self) -> None:
        with self._busy:
            super().close()


#: seconds a connection waits for another one's lock before failing
_BUSY_TIMEOUT_S = 30.0


def _set_wal(conn: sqlite3.Connection) -> None:
    """Put ``conn``'s database in WAL mode.  When connections race to
    open the same database, SQLite can answer this pragma with
    "database is locked" at once, without the busy timeout, so it is
    retried until that timeout has passed."""
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                conn.close()
                raise
            time.sleep(0.01)


class SqliteConnections:
    """One SQLite connection per thread for one database file.

    A thread opens its connection (WAL journal, ``synchronous=NORMAL``,
    ``schema`` applied) on first use and keeps it, so a long-lived
    thread — a result-service handler, a worker daemon — pays the open
    once.  :meth:`close` closes every connection still open, whichever
    thread opened it, after the statement running on it (if any); the
    next use from any thread opens a fresh one.
    A thread that ends drops its connection with it.
    """

    def __init__(self, path: pathlib.Path, schema: str) -> None:
        self.path = path
        self._schema = schema
        self._local = threading.local()
        self._open: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._lock = threading.Lock()

    def get(self, create: bool = True) -> _t.Optional[sqlite3.Connection]:
        """This thread's connection; ``create=False`` answers ``None``
        instead of creating a missing database file."""
        conn: _t.Optional[sqlite3.Connection] = getattr(
            self._local, "conn", None)
        if conn is None and (create or self.path.is_file()):
            conn = self._connect()
        return conn

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # only this thread runs statements on it; check_same_thread is
        # off so that close() may close it from another thread
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S,
                               check_same_thread=False, factory=_Connection)
        _set_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(self._schema)
        conn.commit()
        with self._lock:
            self._open.add(conn)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close every open connection (idempotent)."""
        with self._lock:
            conns = list(self._open)
            self._open.clear()
            self._local = threading.local()
        for conn in conns:
            conn.close()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key        TEXT PRIMARY KEY,
    payload    BLOB NOT NULL,
    sha256     TEXT NOT NULL,
    size       INTEGER NOT NULL,
    stored_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS corrupt (
    key            TEXT,
    payload        BLOB,
    sha256         TEXT,
    reason         TEXT,
    quarantined_at REAL
);
"""


class SqliteStore(ResultStore):
    """One SQLite file: an indexed ``results`` table with the payload
    blobs inline, WAL journal mode for concurrent writers.

    The stored ``payload`` bytes are exactly what :class:`FileStore`
    would write for the same key, so migrating between backends is a
    verbatim byte copy and cache keys never change.  A ``sha256``
    digest of the payload is recorded at :meth:`put` time; ``cache
    verify`` re-hashes stored bytes against it.  Corrupt entries move
    to the ``corrupt`` table (the SQLite analogue of the file layout's
    ``*.corrupt`` quarantine files).
    """

    backend = "sqlite"

    def __init__(self, root: _t.Union[str, pathlib.Path]) -> None:
        root = pathlib.Path(root)
        if root.suffix in (".sqlite3", ".sqlite", ".db"):
            self.db_path = root
            self.root = root.parent
        else:
            self.root = root
            self.db_path = root / SQLITE_FILENAME
        self._conns = SqliteConnections(self.db_path, _SCHEMA)

    def get(self, key: str) -> _t.Optional[bytes]:
        conn = self._conns.get(create=False)
        if conn is None:
            return None
        row = conn.execute(
            "SELECT payload FROM results WHERE key = ?", (key,)).fetchone()
        return None if row is None else bytes(row[0])

    def put(self, key: str, data: bytes) -> None:
        conn = self._conns.get()
        assert conn is not None
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO results "
                "(key, payload, sha256, size, stored_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (key, data, hashlib.sha256(data).hexdigest(), len(data),
                 time.time()))

    def has(self, key: str) -> bool:
        conn = self._conns.get(create=False)
        if conn is None:
            return False
        return conn.execute("SELECT 1 FROM results WHERE key = ?",
                            (key,)).fetchone() is not None

    def delete(self, key: str) -> bool:
        conn = self._conns.get(create=False)
        if conn is None:
            return False
        with conn:
            cur = conn.execute("DELETE FROM results WHERE key = ?",
                               (key,))
        return cur.rowcount > 0

    def iter_keys(self) -> _t.Iterator[str]:
        conn = self._conns.get(create=False)
        if conn is None:
            return iter(())
        rows = conn.execute(
            "SELECT key FROM results ORDER BY key").fetchall()
        return iter(r[0] for r in rows)

    def stats(self) -> StoreStats:
        conn = self._conns.get(create=False)
        if conn is None:
            return StoreStats(self.backend, str(self.db_path), 0, 0, 0)
        entries, total = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM results"
        ).fetchone()
        corrupt, = conn.execute("SELECT COUNT(*) FROM corrupt").fetchone()
        return StoreStats(self.backend, str(self.db_path), entries,
                          total, corrupt)

    def quarantine(self, key: str, reason: str) -> _t.Optional[str]:
        conn = self._conns.get(create=False)
        if conn is None:
            return None
        try:
            with conn:
                row = conn.execute(
                    "SELECT payload, sha256 FROM results WHERE key = ?",
                    (key,)).fetchone()
                if row is None:
                    return None
                conn.execute(
                    "INSERT INTO corrupt "
                    "(key, payload, sha256, reason, quarantined_at) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (key, row[0], row[1], reason, time.time()))
                conn.execute("DELETE FROM results WHERE key = ?", (key,))
        except sqlite3.Error:
            return None
        return f"corrupt table row for {key[:12]}…"

    def corrupt_rows(self) -> _t.List[_t.Tuple[str, str]]:
        """(key, reason) of every quarantined row, oldest first — the
        post-mortem listing (``cache stats`` shows the count)."""
        conn = self._conns.get(create=False)
        if conn is None:
            return []
        return [(k, r) for k, r in conn.execute(
            "SELECT key, reason FROM corrupt ORDER BY quarantined_at")]

    def clear(self) -> int:
        conn = self._conns.get(create=False)
        if conn is None:
            return 0
        with conn:
            removed = conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]
            conn.execute("DELETE FROM results")
            conn.execute("DELETE FROM corrupt")
        return removed

    def prune(self) -> int:
        conn = self._conns.get(create=False)
        if conn is None:
            return 0
        with conn:
            removed = conn.execute(
                "SELECT COUNT(*) FROM corrupt").fetchone()[0]
            conn.execute("DELETE FROM corrupt")
        return removed

    def verify(self) -> _t.List[_t.Tuple[str, str]]:
        conn = self._conns.get(create=False)
        if conn is None:
            return []
        problems: _t.List[_t.Tuple[str, str]] = []
        for key, payload, digest in conn.execute(
                "SELECT key, payload, sha256 FROM results ORDER BY key"):
            actual = hashlib.sha256(bytes(payload)).hexdigest()
            if actual != digest:
                problems.append(
                    (key, f"digest mismatch: stored {digest[:12]}…, "
                          f"bytes hash to {actual[:12]}…"))
        return problems

    def close(self) -> None:
        self._conns.close()


_STORE_TYPES: _t.Dict[str, _t.Type[ResultStore]] = {
    "file": FileStore, "sqlite": SqliteStore,
}


def open_store(root: _t.Union[str, pathlib.Path],
               backend: _t.Optional[str] = None) -> ResultStore:
    """Open the result store at ``root`` for the selected backend
    (``None`` → the process-wide default: ``REPRO_CACHE_BACKEND`` /
    :func:`set_cache_backend`, ``file`` out of the box).

    Both backends share one cache root: the file layout's shard
    directories and the SQLite backend's ``results.sqlite3`` coexist
    there, which is what lets ``cache migrate`` convert in place.
    """
    return _STORE_TYPES[resolve_cache_backend(backend)](root)


# -------------------------------------------------------- result codec
def write_result(store: ResultStore, key: str, value: _t.Any) -> None:
    """Store ``value`` under ``key`` as a pickle at the highest
    protocol: the one byte format every writer of every backend uses,
    so caches filled by sweeps and by fabric workers interchange."""
    store.put(key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _warn(problem: str) -> None:
    warnings.warn(problem, RuntimeWarning, stacklevel=3)


def read_result(store: ResultStore, key: str,
                report: _t.Callable[[str], None] = _warn
                ) -> _t.Tuple[bool, _t.Any]:
    """``(hit, value)`` for ``key``; never raises.

    A read that raises is a miss and leaves the entry alone.  A payload
    that does not unpickle is quarantined (:meth:`ResultStore.quarantine`)
    and is a miss too, so it neither crashes the caller nor shadows its
    slot.  Either way ``report`` (a ``RuntimeWarning`` by default) gets
    one line saying why, and the point recomputes."""
    try:
        data = store.get(key)
    except Exception as exc:  # noqa: BLE001 — a broken read must
        # degrade to a miss, never fail a sweep or the service
        report(f"result store read failed for {key[:12]}… "
               f"({type(exc).__name__}: {exc}); treating it as a miss")
        return False, None
    if data is None:
        return False, None
    try:
        return True, pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 — corrupt pickles raise
        # nearly anything
        reason = f"{type(exc).__name__}: {exc}"
        where = store.quarantine(key, reason)
        note = f"; entry quarantined to {where}" if where else ""
        report(f"ignoring corrupt result store entry {key[:12]}… "
               f"({reason}){note}; the point will recompute")
        return False, None
