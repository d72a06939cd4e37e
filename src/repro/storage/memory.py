"""Memory backend: the store as a dict inside the process.

It backs :class:`repro.versioning.repository.MemoryRepository`, so an
in-memory store runs the same journaled commit protocol, recovery and
``verify`` as a persistent one.  No URL scheme is registered: nothing
outlives the backend object.  As on SQLite, an injected tear leaves
half the payload visible under the key before the crash is raised;
wrapping the same backend in a new repository then runs recovery.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.atomic import sha256_bytes
from repro.storage.backend import StorageBackend

__all__ = ["MemoryBackend"]


class MemoryBackend(StorageBackend):
    """All keys in one process-local dict."""

    scheme = "memory"

    def __init__(self, *, durability: str = "none", faults=None):
        super().__init__("", durability=durability, faults=faults)
        self._data: dict[str, bytes] = {}

    def put(self, key: str, data: bytes, *, label: Optional[str] = None) -> str:
        if self.faults is not None:

            def tear(half: bytes) -> None:
                self._data[key] = half

            self.faults.on_write(
                label or key.rsplit("/", 1)[-1],
                self.location(key),
                data,
                tear=tear,
            )
        self._data[key] = data
        return sha256_bytes(data)

    def get(self, key: str) -> bytes:
        try:
            return self._data[key]
        except KeyError:
            raise FileNotFoundError(key) from None

    def delete(self, key: str, *, label: Optional[str] = None) -> None:
        if self.faults is not None:
            self.faults.on_unlink(
                label or key.rsplit("/", 1)[-1], self.location(key)
            )
        self._data.pop(key, None)

    def list_keys(self, prefix: str = "") -> list[str]:
        # list() snapshots the keys, so a concurrent put cannot change
        # the dict's size mid-iteration.
        keys = list(self._data)
        return sorted(key for key in keys if key.startswith(prefix))

    def exists(self, key: str) -> bool:
        return key in self._data
