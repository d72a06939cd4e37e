"""Sharded repository router: ``hash(doc_id) → shard`` over any backend.

The paper's target scenario is a warehouse tracking versions of
millions of documents; one directory (or one SQLite file) per store
stops scaling long before that.  :class:`ShardedRepository` routes each
document to one of N :class:`~repro.versioning.repository
.BackendRepository` shards by hashing its id, composing any registered
backend:

- ``shard://warehouse?shards=8`` — eight filesystem shards
  (``shard-000`` ... ``shard-007``) under ``warehouse/``;
- ``shard://warehouse?shards=8&backend=sqlite`` — eight WAL databases
  (``shard-000.sqlite`` ...);
- ``shard://warehouse?backend=blob`` — content-addressed shards.

The shard count and backend scheme are fixed at creation and recorded
in ``shard.json`` at the root (reopening ignores the URL parameters, so
a stale ``?shards=`` cannot silently split the store).  Routing is
``sha256(doc_id) mod shards`` — stable across runs and platforms,
unlike ``hash()``.

Writers take a per-shard :class:`threading.Lock`, so concurrent commits
to documents on *different* shards proceed in parallel while two
writers on the same shard serialise.  Lookups are **rebalance-aware**:
a document is searched in its home shard first, then the rest — a store
mid-:meth:`~ShardedRepository.rebalance` (after a manual shard-count
change to ``shard.json``) stays fully readable.

:func:`open_repository` is the one constructor every consumer (CLI,
fsck, bench) goes through: it accepts any store URL — ``file://``,
``sqlite://``, ``blob://``, ``shard://`` — or a bare path, sniffing the
layout on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Optional

from repro.storage.backend import (
    STORE_SCHEMES,
    open_backend,
    parse_store_url,
    sniff_scheme,
)
from repro.versioning.repository import (
    BackendRepository,
    DirectoryRepository,
    Finding,
    RecoveryEvent,
    Repository,
)
from repro.xmlkit.errors import RepositoryError

__all__ = ["ShardedRepository", "open_repository"]

_SHARD_MARKER = "shard.json"
_DEFAULT_SHARDS = 4


def _shard_index(doc_id: str, shards: int) -> int:
    digest = hashlib.sha256(doc_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class ShardedRepository(Repository):
    """Route documents across N single-backend repositories by hash.

    Args:
        root: Directory holding ``shard.json`` and the shard stores.
        shards: Shard count for a *new* store (ignored, with a
            consistency check, when ``shard.json`` already exists).
        backend_scheme: Backend for a new store: ``file`` (default),
            ``sqlite`` or ``blob``.
        tracer: Passed to every shard repository.
        durability: Write policy for every shard backend.
        faults: Fault injector shared by every shard backend.
    """

    def __init__(
        self,
        root,
        *,
        shards: Optional[int] = None,
        backend_scheme: Optional[str] = None,
        tracer=None,
        durability: str = "none",
        faults=None,
    ):
        self.root = os.fspath(root)
        marker = os.path.join(self.root, _SHARD_MARKER)
        if os.path.exists(marker):
            with open(marker, "r", encoding="utf-8") as handle:
                try:
                    config = json.load(handle)
                except json.JSONDecodeError as exc:
                    raise RepositoryError(
                        f"corrupt shard marker {marker}: {exc}"
                    ) from exc
            self.shards = int(config["shards"])
            self.backend_scheme = str(config.get("backend", "file"))
            if shards is not None and shards != self.shards:
                raise RepositoryError(
                    f"store at {self.root} has {self.shards} shards; "
                    f"got shards={shards} (edit shard.json and run "
                    "rebalance() to change the count)"
                )
            if (
                backend_scheme is not None
                and backend_scheme != self.backend_scheme
            ):
                raise RepositoryError(
                    f"store at {self.root} uses the "
                    f"{self.backend_scheme!r} backend; got "
                    f"backend={backend_scheme!r}"
                )
        else:
            self.shards = int(shards) if shards is not None else _DEFAULT_SHARDS
            if self.shards < 1:
                raise RepositoryError("shard count must be >= 1")
            self.backend_scheme = backend_scheme or "file"
            if self.backend_scheme not in STORE_SCHEMES:
                raise RepositoryError(
                    f"unknown backend scheme {self.backend_scheme!r}; "
                    f"expected one of {sorted(STORE_SCHEMES)}"
                )
            os.makedirs(self.root, exist_ok=True)
            with open(marker, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "schema": "repro.shard/1",
                        "shards": self.shards,
                        "backend": self.backend_scheme,
                    },
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
        self._repos = [
            BackendRepository(
                open_backend(
                    self._shard_url(index),
                    durability=durability,
                    faults=faults,
                ),
                tracer=tracer,
            )
            for index in range(self.shards)
        ]
        self._locks = [threading.Lock() for _ in range(self.shards)]

    def _shard_url(self, index: int) -> str:
        name = f"shard-{index:03d}"
        if self.backend_scheme == "sqlite":
            name += ".sqlite"
        return (
            f"{self.backend_scheme}://{os.path.join(self.root, name)}"
        )

    # -- routing -------------------------------------------------------------

    def shard_of(self, doc_id: str) -> int:
        """Home shard of a document (where new documents are created)."""
        return _shard_index(doc_id, self.shards)

    def shard_repo(self, index) -> BackendRepository:
        """The repository behind one shard (``fsck`` routes repairs here)."""
        if index is None or not 0 <= index < self.shards:
            raise RepositoryError(f"no shard {index!r}")
        return self._repos[index]

    def _locate(self, doc_id: str) -> Optional[int]:
        """Shard currently holding ``doc_id``; home first, then the rest
        (a store mid-rebalance keeps every document findable)."""
        home = self.shard_of(doc_id)
        if self._repos[home].exists(doc_id):
            return home
        for index, repo in enumerate(self._repos):
            if index != home and repo.exists(doc_id):
                return index
        return None

    def _repo_of(self, doc_id: str) -> BackendRepository:
        index = self._locate(doc_id)
        if index is None:
            raise RepositoryError(f"unknown document {doc_id!r}")
        return self._repos[index]

    # -- aggregated state ----------------------------------------------------

    @property
    def recovery_events(self) -> list[RecoveryEvent]:
        events: list[RecoveryEvent] = []
        for repo in self._repos:
            events.extend(repo.recovery_events)
        return events

    @property
    def durability(self) -> str:
        return self._repos[0].durability

    @durability.setter
    def durability(self, value: str) -> None:
        for repo in self._repos:
            repo.durability = value

    @property
    def faults(self):
        return self._repos[0].faults

    @faults.setter
    def faults(self, value) -> None:
        for repo in self._repos:
            repo.faults = value

    def close(self) -> None:
        for repo in self._repos:
            repo.close()

    # -- Repository interface ------------------------------------------------

    def create(self, doc_id, document, allocator, commit_record=None):
        # A document already present on any shard makes that shard's
        # create() refuse it, naming a colliding stored id if there is one.
        index = self._locate(doc_id)
        if index is None:
            index = self.shard_of(doc_id)
        with self._locks[index]:
            self._repos[index].create(
                doc_id, document, allocator, commit_record=commit_record
            )

    def exists(self, doc_id: str) -> bool:
        return self._locate(doc_id) is not None

    def document_ids(self) -> list[str]:
        ids: list[str] = []
        for repo in self._repos:
            ids.extend(repo.document_ids())
        return sorted(ids)

    def document_count(self) -> int:
        return sum(repo.document_count() for repo in self._repos)

    def current_version(self, doc_id: str) -> int:
        return self._repo_of(doc_id).current_version(doc_id)

    def load_current(self, doc_id, readonly: bool = False):
        return self._repo_of(doc_id).load_current(doc_id, readonly=readonly)

    def load_allocator(self, doc_id: str):
        return self._repo_of(doc_id).load_allocator(doc_id)

    def load_delta(self, doc_id: str, base_version: int):
        return self._repo_of(doc_id).load_delta(doc_id, base_version)

    def append(self, doc_id, delta, new_document, allocator, commit_record=None):
        index = self._locate(doc_id)
        if index is None:
            raise RepositoryError(f"unknown document {doc_id!r}")
        with self._locks[index]:
            self._repos[index].append(
                doc_id, delta, new_document, allocator,
                commit_record=commit_record,
            )

    def last_commit(self, doc_id):
        return self._repo_of(doc_id).last_commit(doc_id)

    def attribution(self, doc_id):
        return self._repo_of(doc_id).attribution(doc_id)

    def store_snapshot(self, doc_id, version, document):
        index = self._locate(doc_id)
        if index is None:
            raise RepositoryError(f"unknown document {doc_id!r}")
        with self._locks[index]:
            self._repos[index].store_snapshot(doc_id, version, document)

    def load_snapshot(self, doc_id, version):
        return self._repo_of(doc_id).load_snapshot(doc_id, version)

    def snapshot_versions(self, doc_id):
        return self._repo_of(doc_id).snapshot_versions(doc_id)

    def verify(self, doc_id: str | None = None) -> list[Finding]:
        if doc_id is not None:
            index = self._locate(doc_id)
            if index is None:
                raise RepositoryError(f"unknown document {doc_id!r}")
            findings = self._repos[index].verify(doc_id)
            for finding in findings:
                finding.shard = index
            return findings
        findings = []
        for index, repo in enumerate(self._repos):
            for finding in repo.verify():
                finding.shard = index
                findings.append(finding)
        return findings

    # -- rebalancing ---------------------------------------------------------

    def rebalance(self) -> int:
        """Move every document to its home shard; returns the move count.

        To change the shard count: edit ``shards`` in ``shard.json``,
        reopen the store (URL parameters are checked against the
        marker, so pass the new count or none), then call this.  The
        move is copy-then-delete per document — a crash mid-move leaves
        the document present in both shards, and ``_locate``'s
        home-first order keeps reads deterministic until the next
        rebalance finishes the job.
        """
        moved = 0
        for index, repo in enumerate(self._repos):
            for doc_id in repo.document_ids():
                home = self.shard_of(doc_id)
                if home == index:
                    continue
                self._move_document(repo, self._repos[home], doc_id)
                moved += 1
        return moved

    def _move_document(
        self,
        source: BackendRepository,
        target: BackendRepository,
        doc_id: str,
    ) -> None:
        prefix = source._doc_key(doc_id)
        keys = source.backend.list_keys(prefix + "/")
        with target.backend.batch():
            for key in keys:
                target.backend.put(key, source.backend.get(key))
        for key in keys:
            source.backend.delete(key)
        source._current_cache.pop(doc_id, None)


def open_repository(
    store,
    *,
    tracer=None,
    durability: str = "none",
    faults=None,
    must_exist: bool = False,
):
    """Open (or create) a repository from a store URL or bare path.

    Accepted forms:

    - ``file://PATH`` (or a bare directory path) — classic
      one-directory-per-document layout;
    - ``sqlite://PATH`` — one WAL database file;
    - ``blob://PATH`` — content-addressed object store;
    - ``shard://PATH?shards=N&backend=SCHEME`` — sharded router over
      any of the above.

    A bare path is sniffed: a ``shard.json`` marker means sharded, a
    ``blob.json`` marker means blob, an SQLite file (or ``.sqlite`` /
    ``.db`` suffix) means SQLite, anything else is the directory
    layout.

    Args:
        store: Store URL, bare path, or an already-open
            :class:`Repository` (returned unchanged — callers like
            ``fsck`` can be handed either).
        must_exist: Raise instead of creating a store that is not
            already on disk (``fsck`` never creates stores).
    """
    if isinstance(store, Repository):
        return store
    url = os.fspath(store)
    scheme, path, params = parse_store_url(url)
    if scheme is None:
        if os.path.exists(os.path.join(path, _SHARD_MARKER)):
            scheme = "shard"
        else:
            scheme = sniff_scheme(path)
    if must_exist and not os.path.exists(path):
        raise RepositoryError(f"store {url!r} does not exist")
    if scheme == "shard":
        shards = params.get("shards")
        if must_exist and not os.path.exists(
            os.path.join(path, _SHARD_MARKER)
        ):
            raise RepositoryError(f"store {url!r} is not a sharded store")
        return ShardedRepository(
            path,
            shards=int(shards) if shards is not None else None,
            backend_scheme=params.get("backend"),
            tracer=tracer,
            durability=durability,
            faults=faults,
        )
    if params:
        raise RepositoryError(
            f"store URL parameters are only valid with shard://: {url!r}"
        )
    if scheme == "file":
        if must_exist and not os.path.isdir(path):
            raise RepositoryError(
                f"store directory {path!r} does not exist"
            )
        return DirectoryRepository(
            path, tracer, durability=durability, faults=faults
        )
    backend = open_backend(
        f"{scheme}://{path}", durability=durability, faults=faults
    )
    return BackendRepository(backend, tracer=tracer)
