"""Durable storage primitives shared by the persistence layer.

The version store's value proposition — any version is reconstructible
from the completed deltas — only holds if the bytes carrying those
deltas survive crashes.  Two layers provide that:

- :mod:`repro.storage.atomic` — the write discipline every file-based
  path uses: temp file + ``os.replace`` (readers never observe a
  half-written file), optional ``fsync`` per a durability policy, and
  SHA-256 digests so a manifest can later prove the bytes on disk are
  the bytes that were committed.
- :mod:`repro.storage.backend` — the :class:`StorageBackend` protocol
  the repository commits through, with four conforming
  implementations: :class:`~repro.storage.filesystem.FilesystemBackend`
  (the classic directory layout, byte-identical with pre-protocol
  stores), :class:`~repro.storage.sqlite_store.SQLiteBackend` (one WAL
  database file, transactional commits),
  :class:`~repro.storage.blobstore.BlobStoreBackend`
  (content-addressed objects with refcounted GC) and
  :class:`~repro.storage.memory.MemoryBackend` (a process-local dict).
  The persistent backends are addressed by store URL (``file://``,
  ``sqlite://``, ``blob://``) via :func:`open_backend`.
"""

from repro.storage.atomic import (
    DURABILITY_LEVELS,
    atomic_write,
    atomic_write_json,
    check_durability,
    sha256_bytes,
    sha256_file,
)
from repro.storage.backend import (
    STORE_SCHEMES,
    StorageBackend,
    open_backend,
    parse_store_url,
)
from repro.storage.blobstore import BlobStoreBackend
from repro.storage.filesystem import FilesystemBackend
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite_store import SQLiteBackend

__all__ = [
    "DURABILITY_LEVELS",
    "STORE_SCHEMES",
    "BlobStoreBackend",
    "FilesystemBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "StorageBackend",
    "atomic_write",
    "atomic_write_json",
    "check_durability",
    "open_backend",
    "parse_store_url",
    "sha256_bytes",
    "sha256_file",
]
