"""Filesystem backend: keys map 1:1 to files under the store root.

It backs ``file://`` stores, which open as a
:class:`repro.versioning.repository.DirectoryRepository` (a
:class:`~repro.versioning.repository.BackendRepository` over this
backend).  The bytes it writes are **identical** to the
one-directory-per-document store written before the storage protocol
existed, so every such store opens unchanged and ``fsck`` stays clean.
Atomicity comes from :func:`repro.storage.atomic.
atomic_write` (temp file + ``os.replace``); the temp files a crash can
leave behind surface through :meth:`FilesystemBackend.orphans`.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.storage.atomic import (
    atomic_write,
    fault_aware_unlink,
    is_temp_file,
    sha256_file,
)
from repro.storage.backend import StorageBackend, register_scheme

__all__ = ["FilesystemBackend"]


@register_scheme
class FilesystemBackend(StorageBackend):
    """One file per key under ``root`` (``file://PATH``)."""

    scheme = "file"

    def __init__(self, root, *, durability: str = "none", faults=None):
        super().__init__(root, durability=durability, faults=faults)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    def put(self, key: str, data: bytes, *, label: Optional[str] = None) -> str:
        path = self._path(key)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return atomic_write(
            path,
            data,
            durability=self.durability,
            faults=self.faults,
            label=label or os.path.basename(path),
        )

    def get(self, key: str) -> bytes:
        with open(self._path(key), "rb") as handle:
            return handle.read()

    def delete(self, key: str, *, label: Optional[str] = None) -> None:
        path = self._path(key)
        fault_aware_unlink(
            path,
            faults=self.faults,
            label=label or os.path.basename(path),
        )

    def list_keys(self, prefix: str = "") -> list[str]:
        # Everything up to the prefix's last "/" names a directory —
        # walk only that subtree, so per-document enumeration (fsck
        # verifying a 100k-document store) stays O(document), not
        # O(store).
        base = self.root
        head, _, _ = prefix.rpartition("/")
        if head:
            base = os.path.join(self.root, *head.split("/"))
            if not os.path.isdir(base):
                return []
        keys = []
        for directory, _, names in os.walk(base):
            for name in names:
                if is_temp_file(name):
                    continue
                path = os.path.join(directory, name)
                key = os.path.relpath(path, self.root).replace(os.sep, "/")
                if key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def digest(self, key: str) -> str:
        try:
            return sha256_file(self._path(key))
        except OSError as exc:
            raise FileNotFoundError(key) from exc

    def size(self, key: str) -> int:
        try:
            return os.path.getsize(self._path(key))
        except OSError as exc:
            raise FileNotFoundError(key) from exc

    def location(self, key: str) -> str:
        return self._path(key)

    def orphans(self) -> list[str]:
        refs = []
        for directory, _, names in os.walk(self.root):
            for name in names:
                if is_temp_file(name):
                    path = os.path.join(directory, name)
                    refs.append(
                        os.path.relpath(path, self.root).replace(os.sep, "/")
                    )
        return sorted(refs)

    def sweep_orphan(self, ref: str) -> bool:
        try:
            os.unlink(self._path(ref))
        except OSError:
            return False
        return True
