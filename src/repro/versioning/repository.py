"""Versioned document storage (the repository of Figure 1).

A :class:`Repository` keeps, per document: the **current snapshot**, the
**sequence of completed deltas** that produced it, and the **XID allocator
state**.  That is exactly the paper's storage policy — "this delta is
appended to the existing sequence of deltas for this document; the old
version is then possibly removed from the repository" — old versions are
reconstructed on demand by applying deltas backward from the current
snapshot.

Two implementations share the interface:

- :class:`BackendRepository` — storage through any
  :class:`repro.storage.backend.StorageBackend` (filesystem, SQLite,
  content-addressed blobs, process memory).  Per document it keeps the
  current snapshot (``<doc>/current.xml``), the deltas
  (``<doc>/delta-0001-0002.xml`` ...), and a small metadata record.
  Documents and deltas are stored in their XML forms, so the store is
  inspectable with any XML tooling — a property the paper makes a point
  of.
- :class:`repro.versioning.sharded.ShardedRepository` routes documents
  across many backend repositories by hash.

Two constructors name the common backends: :class:`MemoryRepository`
(a process-local :class:`~repro.storage.memory.MemoryBackend`, the
default store of a version store) and :class:`DirectoryRepository`
(the classic one-directory-per-document filesystem layout,
byte-identical with stores written before the protocol existed).

Durability
----------
The delta model exists so any version can be *reconstructed* — which is
only worth something if the stored bytes survive crashes.  The backend
repository therefore commits with a write discipline:

- every value is written atomically through the backend (the
  filesystem backend uses :mod:`repro.storage.atomic`: temp file +
  ``os.replace``; ``durability=`` adds ``fsync``);
- SHA-256 checksums of the content files live in a per-document
  ``manifest.json``;
- :meth:`BackendRepository.append` is **journaled**: a commit-intent
  record (``journal.json``) carrying the post-state checksums and the
  new metadata is written *first* and removed *last*, inside a backend
  ``batch()`` scope (a no-op on file-based backends; a native
  transaction on SQLite).  On reopen, a leftover journal identifies a
  torn commit, which is rolled forward (all content landed — finish
  the metadata) or rolled back (remove the half-commit; if
  ``current.xml`` itself was torn, replay the delta chain from the
  nearest checkpoint to re-derive it) deterministically.

:meth:`BackendRepository.verify` audits checksums and structure and
returns findings; ``repro fsck`` (see :mod:`repro.versioning.fsck`)
wraps it with repair.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Optional

from repro.core.delta import Delta
from repro.core.deltaxml import delta_from_document, delta_to_document
from repro.core.xid import XidAllocator
from repro.storage.atomic import check_durability, sha256_bytes
from repro.storage.backend import StorageBackend
from repro.storage.filesystem import FilesystemBackend
from repro.storage.memory import MemoryBackend
from repro.xmlkit.errors import RepositoryError, XmlParseError
from repro.xmlkit.model import Document
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import serialize_bytes

__all__ = [
    "BackendRepository",
    "CorruptStoreError",
    "DirectoryRepository",
    "Finding",
    "MemoryRepository",
    "RecoveryEvent",
    "Repository",
]

_DELTA_FILE_RE = re.compile(r"^delta-(\d+)-(\d+)\.xml$")
_SNAPSHOT_FILE_RE = re.compile(r"^snapshot-(\d+)\.xml$")

CURRENT_NAME = "current.xml"
META_NAME = "meta.json"
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.json"


class CorruptStoreError(RepositoryError):
    """A stored file is unreadable or fails validation.

    Unlike plain :class:`RepositoryError` (misuse: unknown document,
    out-of-range version), this means bytes on disk are damaged.  The
    offending file is carried in :attr:`path` so tooling (``fsck``, a
    monitoring hook) can point at it.
    """

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = os.fspath(path) if path is not None else None


@dataclass
class Finding:
    """One problem reported by :meth:`BackendRepository.verify`.

    Attributes:
        doc_id: Document the finding belongs to (storage prefix when
            the metadata naming it is itself unreadable).
        kind: Machine-readable category (``torn-commit``,
            ``corrupt-meta``, ``missing-manifest``, ``missing-checksum``,
            ``missing-file``, ``checksum-mismatch``, ``orphan-temp``,
            ``unexpected-file``, ``incomplete-document``).
        path: Offending file, key location or directory.
        message: Human-readable description.
        repairable: Whether ``fsck --repair`` has a deterministic fix.
        scheme: Backend scheme the finding came from (``file``,
            ``sqlite``, ``blob``).
        shard: Shard index when the store is a
            :class:`~repro.versioning.sharded.ShardedRepository`.
        key: Backend key (or orphan reference) the repair acts on.
    """

    doc_id: str
    kind: str
    path: str
    message: str
    repairable: bool = False
    scheme: str = ""
    shard: Optional[int] = None
    key: str = ""


@dataclass
class RecoveryEvent:
    """One torn commit handled while opening a backend repository.

    ``action`` is ``rolled-forward``, ``rolled-back``,
    ``rolled-back-replay``, ``removed-invalid-journal`` or
    ``unrecoverable`` (the journal is left in place and
    :meth:`BackendRepository.verify` keeps reporting it).
    """

    doc_dir: str
    action: str
    detail: str = ""


class Repository:
    """Interface of a versioned document store.

    ``create`` and ``append`` accept an optional ``commit_record`` — an
    idempotency marker (``{"key": ..., "digest": ...}``) persisted
    *with* the commit, in the same journaled write, so a retried commit
    can be recognised even across a crash.  :meth:`last_commit` reads
    the record back (with the ``version`` it produced); a commit
    without a record clears any previous one — the record always
    describes the *latest* version or nothing.

    ``create`` and ``append`` take ownership of the document they store:
    the repository may keep that instance as its cached current version,
    so the caller must not mutate it afterwards.
    """

    def create(
        self,
        doc_id: str,
        document: Document,
        allocator: XidAllocator,
        commit_record: Optional[dict] = None,
    ):
        """Store version 1 of a new document."""
        raise NotImplementedError

    def exists(self, doc_id: str) -> bool:
        raise NotImplementedError

    def document_ids(self) -> list[str]:
        raise NotImplementedError

    def document_count(self) -> int:
        """Number of document slots in the store.

        Unlike ``len(document_ids())`` this also counts half-created
        documents (a prefix without readable metadata), which is what
        ``fsck`` reports.
        """
        raise NotImplementedError

    def current_version(self, doc_id: str) -> int:
        """Highest stored version number (versions start at 1)."""
        raise NotImplementedError

    def load_current(self, doc_id: str, readonly: bool = False) -> Document:
        """The current snapshot.

        By default the caller receives a private copy it may freely
        mutate.  With ``readonly=True`` the repository may return a
        shared instance instead (skipping a full-tree clone — the
        version store's diff-on-commit hot path reads the current
        version and throws it away); the caller promises not to mutate
        it.
        """
        raise NotImplementedError

    def load_allocator(self, doc_id: str) -> XidAllocator:
        raise NotImplementedError

    def load_delta(self, doc_id: str, base_version: int) -> Delta:
        """The delta from ``base_version`` to ``base_version + 1``."""
        raise NotImplementedError

    def append(
        self,
        doc_id: str,
        delta: Delta,
        new_document: Document,
        allocator: XidAllocator,
        commit_record: Optional[dict] = None,
    ):
        """Advance a document by one version."""
        raise NotImplementedError

    def last_commit(self, doc_id: str) -> Optional[dict]:
        """The idempotency record of the latest commit, or ``None``.

        The returned dict carries whatever the committer recorded
        (``key``, ``digest``) plus ``version`` — the version that
        commit produced.
        """
        raise NotImplementedError

    def attribution(self, doc_id: str) -> dict[str, str]:
        """``version -> request id`` for every attributed commit.

        Unlike :meth:`last_commit` (latest record only), this map keeps
        one entry per committed version whose ``commit_record`` carried
        a ``request_id`` — the durable end of request correlation: an
        acked commit can be traced from the client's retry log to the
        exact stored version it produced.  Versions are string keys
        (JSON round trip).
        """
        raise NotImplementedError

    def verify(self, doc_id: str | None = None) -> list[Finding]:
        """Audit stored state; returns findings (empty = clean)."""
        raise NotImplementedError

    # -- snapshot checkpoints -------------------------------------------------
    # Reconstruction normally walks deltas backward from the current
    # version; checkpoints bound that walk for long histories.

    def store_snapshot(self, doc_id: str, version: int, document: Document):
        """Keep a full copy of one historical version."""
        raise NotImplementedError

    def load_snapshot(self, doc_id: str, version: int):
        """A stored historical snapshot, or ``None``."""
        raise NotImplementedError

    def snapshot_versions(self, doc_id: str) -> list[int]:
        """Versions with a stored snapshot (ascending, possibly empty)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backing resources; idempotent."""
        raise NotImplementedError


class BackendRepository(Repository):
    """Repository persisted through a :class:`StorageBackend`.

    Every document maps to a key prefix (its sanitised id); the keys
    under it are the same names the classic directory layout used, so
    the protocol is one level of indirection, not a new format.

    ``load_current`` keeps a small per-document cache of the parsed
    current snapshot, keyed by version number, so the commit loop
    (load → diff → append) does not re-parse an unchanged ``current.xml``
    on every revisit.  ``append`` and ``create`` *roll the cache
    forward* (to the document they just wrote, which they own) rather
    than dropping it — in the commit loop the next ``load_current`` is
    always for the version just appended, so invalidation would
    guarantee a miss on the very access the cache exists for.  The
    backend stays the source of truth: ``meta.json`` is re-read on
    every load and the cache entry only counts while the *entire*
    metadata (version, XID labels, ID attributes) still matches it; an
    out-of-band edit to ``current.xml`` under an unchanged metadata
    record is the one change the cache cannot see.

    Opening the repository scans for leftover commit journals and
    recovers them (see the module docstring); what happened is recorded
    in :attr:`recovery_events`.

    Sanitising can map two ids to one prefix (``"site/a.html"`` and
    ``"site_a.html"``).  Every metadata read compares the stored
    ``doc_id`` with the requested one, so ``create``, ``load_current``
    and ``append`` on the second id raise :class:`RepositoryError`
    naming both instead of touching the first id's history.

    Args:
        backend: The storage backend holding the bytes.
        tracer: Optional :class:`repro.obs.trace.Tracer`; the
            storage-bound operations become ``repo.load-current`` (with
            a ``cache_hit`` attribute) and ``repo.append`` spans,
            nesting under whatever span the caller has open (a version
            store's ``store.commit``).
    """

    def __init__(self, backend: StorageBackend, tracer=None):
        self.backend = backend
        self.tracer = tracer
        self._current_cache: dict[str, tuple[dict, Document]] = {}
        #: Torn commits handled while opening the store.
        self.recovery_events: list[RecoveryEvent] = []
        self.recover()

    # The write policy and the fault injector live on the backend; the
    # properties keep ``repo.durability`` / ``repo.faults = ...`` (the
    # crash matrix arms an injector mid-test) working across backends.
    @property
    def durability(self) -> str:
        return self.backend.durability

    @durability.setter
    def durability(self, value: str) -> None:
        self.backend.durability = check_durability(value)

    @property
    def faults(self):
        return self.backend.faults

    @faults.setter
    def faults(self, value) -> None:
        self.backend.faults = value

    def close(self) -> None:
        self.backend.close()

    def _check_exists(self, doc_id: str) -> None:
        if not self.exists(doc_id):
            raise RepositoryError(f"unknown document {doc_id!r}")

    # -- keys ----------------------------------------------------------------

    def _doc_key(self, doc_id: str) -> str:
        return re.sub(r"[^A-Za-z0-9._-]", "_", doc_id)

    def _meta_key(self, doc_id: str) -> str:
        return self._doc_key(doc_id) + "/" + META_NAME

    def _current_key(self, doc_id: str) -> str:
        return self._doc_key(doc_id) + "/" + CURRENT_NAME

    def _manifest_key(self, doc_id: str) -> str:
        return self._doc_key(doc_id) + "/" + MANIFEST_NAME

    def _journal_key(self, doc_id: str) -> str:
        return self._doc_key(doc_id) + "/" + JOURNAL_NAME

    def _delta_name(self, base_version: int) -> str:
        return f"delta-{base_version:04d}-{base_version + 1:04d}.xml"

    def _delta_key(self, doc_id: str, base_version: int) -> str:
        return self._doc_key(doc_id) + "/" + self._delta_name(base_version)

    def _doc_prefixes(self) -> list[str]:
        return sorted(
            {
                key.split("/", 1)[0]
                for key in self.backend.list_keys()
                if "/" in key
            }
        )

    @staticmethod
    def _orphan_prefix(ref: str) -> Optional[str]:
        """Document prefix an orphan reference belongs to (None = global)."""
        parts = ref.split("/")
        if parts[0] == "refs" and len(parts) > 2:
            return parts[1]
        if parts[0] == "objects":
            return None
        return parts[0] if len(parts) > 1 else None

    # -- metadata / manifest records -----------------------------------------

    def _read_json(self, key: str, what: str) -> dict:
        location = self.backend.location(key)
        data = self.backend.get(key)
        try:
            return json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptStoreError(
                f"corrupt {what} at {location}: {exc}", path=location
            ) from exc

    def _load_meta(self, doc_id: str) -> dict:
        try:
            meta = self._read_json(self._meta_key(doc_id), "metadata")
        except FileNotFoundError as exc:
            raise RepositoryError(f"unknown document {doc_id!r}") from exc
        stored = str(meta.get("doc_id", doc_id))
        if stored != doc_id:
            raise RepositoryError(
                f"document id {doc_id!r} collides with stored document "
                f"{stored!r} (both map to {self._doc_key(doc_id)!r})"
            )
        return meta

    def _store_meta(self, doc_id: str, meta: dict) -> None:
        self.backend.put_json(self._meta_key(doc_id), meta, label="meta")

    def _load_manifest(self, doc_id: str) -> dict:
        try:
            return self._read_json(self._manifest_key(doc_id), "manifest")
        except FileNotFoundError:
            # Only a *missing* manifest falls back — stores written
            # before manifests existed keep working and fsck --repair
            # backfills the record.  An unreadable manifest raises
            # CorruptStoreError instead (with .path): silently
            # regenerating would launder damaged checksums into
            # trusted ones.
            return {"algorithm": "sha256", "files": {}}

    def _store_manifest(self, doc_id: str, manifest: dict) -> None:
        self.backend.put_json(
            self._manifest_key(doc_id), manifest, label="manifest"
        )

    # -- Repository interface ------------------------------------------------

    def create(self, doc_id, document, allocator, commit_record=None):
        if self.backend.exists(self._meta_key(doc_id)):
            self._load_meta(doc_id)  # raises first on a colliding id
            raise RepositoryError(f"document {doc_id!r} already exists")
        meta = {
            "doc_id": doc_id,
            "current_version": 1,
            "next_xid": allocator.next_xid,
            "id_attributes": sorted(
                list(pair) for pair in document.id_attributes
            ),
            "xid_labels": _collect_xids(document),
        }
        if commit_record is not None:
            meta["last_commit"] = dict(commit_record, version=1)
            if commit_record.get("request_id"):
                meta["attribution"] = {
                    "1": str(commit_record["request_id"])
                }
        with self.backend.batch():
            digest = self.backend.put(
                self._current_key(doc_id),
                serialize_bytes(document),
                label="current",
            )
            self._store_manifest(
                doc_id,
                {"algorithm": "sha256", "files": {CURRENT_NAME: digest}},
            )
            # meta.json lands last: its appearance is what makes the
            # document exist.  A crash before this point leaves an
            # incomplete prefix that the next create() overwrites and
            # fsck flags.
            self._store_meta(doc_id, meta)
        self._current_cache[doc_id] = (meta, document)

    def exists(self, doc_id: str) -> bool:
        return self.backend.exists(self._meta_key(doc_id))

    def document_ids(self) -> list[str]:
        ids = []
        for prefix in self._doc_prefixes():
            meta_key = prefix + "/" + META_NAME
            if self.backend.exists(meta_key):
                ids.append(str(self._read_json(meta_key, "metadata")["doc_id"]))
        return sorted(ids)

    def document_count(self) -> int:
        return len(self._doc_prefixes())

    def current_version(self, doc_id: str) -> int:
        return int(self._load_meta(doc_id)["current_version"])

    def load_current(self, doc_id: str, readonly: bool = False) -> Document:
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span("repo.load-current", doc_id=doc_id)
        try:
            self._check_exists(doc_id)
            meta = self._load_meta(doc_id)
            cached = self._current_cache.get(doc_id)
            if span is not None:
                span.attrs["cache_hit"] = bool(
                    cached is not None and cached[0] == meta
                )
            if cached is None or cached[0] != meta:
                key = self._current_key(doc_id)
                document = parse(
                    self.backend.get(key),
                    strip_whitespace=False,
                    origin=self.backend.location(key),
                )
                document.id_attributes = {
                    tuple(pair) for pair in meta.get("id_attributes", [])
                }
                _restore_xids(document, meta)
                cached = (meta, document)
                self._current_cache[doc_id] = cached
            return cached[1] if readonly else cached[1].clone()
        finally:
            if span is not None:
                self.tracer.end_span(span)

    def load_allocator(self, doc_id: str) -> XidAllocator:
        return XidAllocator(int(self._load_meta(doc_id)["next_xid"]))

    def last_commit(self, doc_id):
        record = self._load_meta(doc_id).get("last_commit")
        return dict(record) if record is not None else None

    def attribution(self, doc_id):
        return dict(self._load_meta(doc_id).get("attribution", {}))

    def load_delta(self, doc_id: str, base_version: int) -> Delta:
        self._check_exists(doc_id)
        key = self._delta_key(doc_id, base_version)
        if not self.backend.exists(key):
            raise RepositoryError(
                f"no delta {base_version}->{base_version + 1} for {doc_id!r}"
            )
        location = self.backend.location(key)
        try:
            return delta_from_document(
                parse(
                    self.backend.get(key),
                    strip_whitespace=False,
                    origin=location,
                )
            )
        except XmlParseError as exc:
            raise CorruptStoreError(
                f"corrupt delta file {location}: {exc}", path=location
            ) from exc

    def append(self, doc_id, delta, new_document, allocator, commit_record=None):
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span("repo.append", doc_id=doc_id)
        try:
            meta = self._load_meta(doc_id)
            version = int(meta["current_version"])
            if span is not None:
                span.attrs["base_version"] = version
            delta_name = self._delta_name(version)
            delta_bytes = serialize_bytes(delta_to_document(delta))
            current_bytes = serialize_bytes(new_document)
            manifest = self._load_manifest(doc_id)
            new_meta = dict(meta)
            new_meta["current_version"] = version + 1
            new_meta["next_xid"] = allocator.next_xid
            new_meta["xid_labels"] = _collect_xids(new_document)
            # The idempotency record commits (and clears) *with* the
            # version it describes: it rides the journaled metadata, so
            # roll-forward preserves it and roll-back discards it along
            # with the half-commit it belonged to.
            if commit_record is not None:
                new_meta["last_commit"] = dict(
                    commit_record, version=version + 1
                )
                # Attribution accumulates (one entry per version, vs
                # last_commit's latest-only record) and rides the same
                # journaled metadata write, so crash recovery keeps it
                # consistent with the version it describes.
                if commit_record.get("request_id"):
                    attribution = dict(meta.get("attribution", {}))
                    attribution[str(version + 1)] = str(
                        commit_record["request_id"]
                    )
                    new_meta["attribution"] = attribution
            else:
                new_meta.pop("last_commit", None)
            new_manifest = {
                "algorithm": "sha256",
                "files": dict(manifest.get("files", {})),
            }
            new_manifest["files"][delta_name] = sha256_bytes(delta_bytes)
            new_manifest["files"][CURRENT_NAME] = sha256_bytes(current_bytes)
            journal = {
                "doc_id": meta.get("doc_id", doc_id),
                "base_version": version,
                "target_version": version + 1,
                "delta_file": delta_name,
                "pre": {
                    CURRENT_NAME: manifest.get("files", {}).get(CURRENT_NAME)
                },
                "post": {
                    CURRENT_NAME: new_manifest["files"][CURRENT_NAME],
                    delta_name: new_manifest["files"][delta_name],
                },
                "meta": new_meta,
                "manifest": new_manifest,
            }
            # Commit protocol: intent first, content next, metadata
            # after the content it describes, journal removal last.
            # Every prefix of this sequence is recoverable.  The batch
            # scope lets a transactional backend make the whole
            # sequence atomic on top of that.
            with self.backend.batch():
                self.backend.put_json(
                    self._journal_key(doc_id), journal, label="journal"
                )
                self.backend.put(
                    self._delta_key(doc_id, version),
                    delta_bytes,
                    label="delta",
                )
                self.backend.put(
                    self._current_key(doc_id),
                    current_bytes,
                    label="current",
                )
                self._store_manifest(doc_id, new_manifest)
                self._store_meta(doc_id, new_meta)
                self.backend.delete(
                    self._journal_key(doc_id), label="journal-clear"
                )
            self._current_cache[doc_id] = (new_meta, new_document)
        finally:
            if span is not None:
                self.tracer.end_span(span)

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> list[RecoveryEvent]:
        """Detect and resolve torn commits (runs automatically on open).

        Returns the events appended to :attr:`recovery_events` by this
        scan.  Safe to call repeatedly; a healthy store is a no-op.
        Recovery I/O is never fault-injected — it models the fresh
        process that reopens the store after the crash.
        """
        events: list[RecoveryEvent] = []
        saved_faults = self.backend.faults
        self.backend.faults = None
        try:
            for key in self.backend.list_keys():
                if key.endswith("/" + JOURNAL_NAME):
                    events.append(self._recover_doc(key.rsplit("/", 1)[0]))
        finally:
            self.backend.faults = saved_faults
        self.recovery_events.extend(events)
        return events

    def _recover_doc(self, prefix: str) -> RecoveryEvent:
        backend = self.backend
        doc_ref = backend.location(prefix)
        journal_key = prefix + "/" + JOURNAL_NAME
        try:
            journal = self._read_json(journal_key, "journal")
        except (CorruptStoreError, OSError):
            # The journal is written atomically *before* any content
            # key, so an unreadable journal means the tear hit the
            # journal itself and nothing else changed: discard it.
            backend.delete(journal_key)
            return RecoveryEvent(doc_ref, "removed-invalid-journal")
        post = journal.get("post", {})
        pre = journal.get("pre", {})
        delta_name = journal.get("delta_file", "")
        delta_key = prefix + "/" + delta_name
        current_key = prefix + "/" + CURRENT_NAME
        delta_ok = bool(delta_name) and _digest_or_none(
            backend, delta_key
        ) == post.get(delta_name)
        current_digest = _digest_or_none(backend, current_key)
        if delta_ok and current_digest == post.get(CURRENT_NAME):
            # All content landed — the crash hit the metadata writes or
            # the journal removal.  Roll forward from the journal's
            # embedded copies.
            backend.put_json(
                prefix + "/" + MANIFEST_NAME, journal["manifest"]
            )
            backend.put_json(prefix + "/" + META_NAME, journal["meta"])
            backend.delete(journal_key)
            return RecoveryEvent(
                doc_ref,
                "rolled-forward",
                f"to version {journal.get('target_version')}",
            )
        pre_current = pre.get(CURRENT_NAME)
        if current_digest is not None and pre_current in (None, current_digest):
            # current.xml is still the pre-commit content (or a legacy
            # store never recorded its hash — trust the write order:
            # delta precedes current, and the delta did not land).
            backend.delete(delta_key)
            backend.delete(journal_key)
            return RecoveryEvent(
                doc_ref,
                "rolled-back",
                f"to version {journal.get('base_version')}",
            )
        # current.xml is neither pre nor post: it was torn.  Re-derive
        # the pre-commit content by replaying the delta chain from the
        # nearest checkpoint — the recovery mechanism completed deltas
        # make possible.
        try:
            meta = self._read_json(prefix + "/" + META_NAME, "metadata")
            base_version = int(journal.get("base_version", 0))
            replayed = _replay_from_snapshot(
                backend, prefix, meta, base_version
            )
        except (CorruptStoreError, RepositoryError, OSError):
            replayed = None
        if replayed is None:
            return RecoveryEvent(
                doc_ref,
                "unrecoverable",
                "current.xml torn and no checkpoint to replay from",
            )
        restored = serialize_bytes(replayed)
        if pre_current is not None and sha256_bytes(restored) != pre_current:
            return RecoveryEvent(
                doc_ref,
                "unrecoverable",
                "replayed content does not match the recorded checksum",
            )
        backend.put(current_key, restored)
        backend.delete(delta_key)
        backend.delete(journal_key)
        return RecoveryEvent(
            doc_ref,
            "rolled-back-replay",
            f"current.xml re-derived for version {journal.get('base_version')}",
        )

    # -- verification --------------------------------------------------------

    def verify(self, doc_id: str | None = None) -> list[Finding]:
        """Audit checksums and structure; returns findings (empty = clean).

        Verification never mutates the store; pair it with
        :func:`repro.versioning.fsck.fsck_store` for repair.
        """
        orphan_map: dict[Optional[str], list[str]] = {}
        for ref in self.backend.orphans():
            orphan_map.setdefault(self._orphan_prefix(ref), []).append(ref)
        if doc_id is not None:
            prefix = self._doc_key(doc_id)
            scoped = orphan_map.get(prefix, [])
            if not scoped and not self.backend.list_keys(prefix + "/"):
                raise RepositoryError(f"unknown document {doc_id!r}")
            return self._verify_prefix(prefix, scoped)
        findings: list[Finding] = []
        for prefix in self._doc_prefixes():
            findings.extend(
                self._verify_prefix(prefix, orphan_map.pop(prefix, []))
            )
        # Garbage not attributable to a live document (temp files in
        # removed prefixes, unreferenced blob objects).
        for prefix, refs in sorted(
            orphan_map.items(), key=lambda item: item[0] or ""
        ):
            for ref in refs:
                findings.append(self._orphan_finding(prefix or "-", ref))
        return findings

    def _orphan_finding(self, doc_label: str, ref: str) -> Finding:
        return Finding(
            doc_label,
            "orphan-temp",
            self.backend.location(ref),
            "leftover atomic-write temp file"
            if not ref.startswith("objects/")
            else "unreferenced content object",
            repairable=True,
            scheme=self.backend.scheme,
            key=ref,
        )

    def _verify_prefix(
        self, prefix: str, orphan_refs: list[str]
    ) -> list[Finding]:
        backend = self.backend
        scheme = backend.scheme
        findings: list[Finding] = []
        for ref in orphan_refs:
            findings.append(self._orphan_finding(prefix, ref))
        keys = backend.list_keys(prefix + "/")
        names = sorted(
            key[len(prefix) + 1 :]
            for key in keys
            if "/" not in key[len(prefix) + 1 :]
        )
        meta_key = prefix + "/" + META_NAME
        if META_NAME not in names:
            findings.append(
                Finding(
                    prefix,
                    "incomplete-document",
                    backend.location(prefix),
                    "document prefix has no meta.json "
                    "(crash before first commit)",
                    repairable=True,
                    scheme=scheme,
                    key=prefix,
                )
            )
            return findings
        try:
            meta = self._read_json(meta_key, "metadata")
        except CorruptStoreError as exc:
            findings.append(
                Finding(
                    prefix,
                    "corrupt-meta",
                    backend.location(meta_key),
                    str(exc),
                    scheme=scheme,
                    key=meta_key,
                )
            )
            return findings
        doc_label = str(meta.get("doc_id", prefix))
        if JOURNAL_NAME in names:
            findings.append(
                Finding(
                    doc_label,
                    "torn-commit",
                    backend.location(prefix + "/" + JOURNAL_NAME),
                    "unresolved commit journal "
                    "(recovery could not roll it back or forward)",
                    scheme=scheme,
                    key=prefix + "/" + JOURNAL_NAME,
                )
            )
        manifest_key = prefix + "/" + MANIFEST_NAME
        manifest_files: dict = {}
        if MANIFEST_NAME not in names:
            findings.append(
                Finding(
                    doc_label,
                    "missing-manifest",
                    backend.location(manifest_key),
                    "no checksum manifest (store predates manifests?)",
                    repairable=True,
                    scheme=scheme,
                    key=manifest_key,
                )
            )
        else:
            try:
                manifest_files = dict(
                    self._read_json(manifest_key, "manifest").get("files", {})
                )
            except CorruptStoreError as exc:
                findings.append(
                    Finding(
                        doc_label,
                        "missing-manifest",
                        backend.location(manifest_key),
                        str(exc),
                        repairable=True,
                        scheme=scheme,
                        key=manifest_key,
                    )
                )
        current_version = int(meta.get("current_version", 1))
        for name, digest in sorted(manifest_files.items()):
            key = prefix + "/" + name
            rederivable = name == CURRENT_NAME or bool(
                _SNAPSHOT_FILE_RE.match(name)
            )
            stored = _digest_or_none(backend, key)
            if stored is None:
                findings.append(
                    Finding(
                        doc_label,
                        "missing-file",
                        backend.location(key),
                        f"{name} is listed in the manifest but missing",
                        repairable=rederivable,
                        scheme=scheme,
                        key=key,
                    )
                )
            elif stored != digest:
                findings.append(
                    Finding(
                        doc_label,
                        "checksum-mismatch",
                        backend.location(key),
                        f"{name} does not match its recorded SHA-256",
                        repairable=rederivable,
                        scheme=scheme,
                        key=key,
                    )
                )
        for base in range(1, current_version):
            name = self._delta_name(base)
            key = prefix + "/" + name
            if name not in names:
                if name not in manifest_files:
                    findings.append(
                        Finding(
                            doc_label,
                            "missing-file",
                            backend.location(key),
                            f"delta {base}->{base + 1} is missing",
                            scheme=scheme,
                            key=key,
                        )
                    )
            elif manifest_files and name not in manifest_files:
                findings.append(
                    Finding(
                        doc_label,
                        "missing-checksum",
                        backend.location(key),
                        f"{name} has no recorded checksum",
                        repairable=True,
                        scheme=scheme,
                        key=key,
                    )
                )
        snapshot_versions = {int(v) for v in meta.get("snapshots", {})}
        for name in names:
            key = prefix + "/" + name
            delta_match = _DELTA_FILE_RE.match(name)
            snapshot_match = _SNAPSHOT_FILE_RE.match(name)
            if delta_match and not (
                1 <= int(delta_match.group(1)) < current_version
            ):
                findings.append(
                    Finding(
                        doc_label,
                        "unexpected-file",
                        backend.location(key),
                        f"{name} is outside the committed version range",
                        repairable=True,
                        scheme=scheme,
                        key=key,
                    )
                )
            elif snapshot_match and int(
                snapshot_match.group(1)
            ) not in snapshot_versions:
                findings.append(
                    Finding(
                        doc_label,
                        "unexpected-file",
                        backend.location(key),
                        f"{name} is not referenced by the metadata",
                        repairable=True,
                        scheme=scheme,
                        key=key,
                    )
                )
        return findings

    # -- snapshot checkpoints ------------------------------------------------

    def _snapshot_key(self, doc_id: str, version: int) -> str:
        return self._doc_key(doc_id) + f"/snapshot-{version:04d}.xml"

    def store_snapshot(self, doc_id, version, document):
        meta = self._load_meta(doc_id)
        with self.backend.batch():
            digest = self.backend.put(
                self._snapshot_key(doc_id, version),
                serialize_bytes(document),
                label="snapshot",
            )
            manifest = self._load_manifest(doc_id)
            manifest.setdefault("files", {})[
                f"snapshot-{version:04d}.xml"
            ] = digest
            self._store_manifest(doc_id, manifest)
            snapshots = meta.setdefault("snapshots", {})
            snapshots[str(version)] = _collect_xids(document)
            self._store_meta(doc_id, meta)

    def load_snapshot(self, doc_id, version):
        meta = self._load_meta(doc_id)
        labels = meta.get("snapshots", {}).get(str(version))
        if labels is None:
            return None
        key = self._snapshot_key(doc_id, version)
        document = parse(
            self.backend.get(key),
            strip_whitespace=False,
            origin=self.backend.location(key),
        )
        document.id_attributes = {
            tuple(pair) for pair in meta.get("id_attributes", [])
        }
        _restore_xids(document, {"xid_labels": labels})
        return document

    def snapshot_versions(self, doc_id):
        meta = self._load_meta(doc_id)
        return sorted(int(v) for v in meta.get("snapshots", {}))


class DirectoryRepository(BackendRepository):
    """Filesystem-backed repository (one subdirectory per document).

    A :class:`BackendRepository` over a
    :class:`~repro.storage.filesystem.FilesystemBackend` — the classic,
    byte-identical on-disk layout every pre-protocol store used.

    Args:
        base_path: Root directory of the store (created if missing).
        tracer: See :class:`BackendRepository`.
        durability: ``"none"`` (default), ``"fsync"`` or ``"full"`` —
            how hard every write pushes toward stable storage (see
            :mod:`repro.storage.atomic`).
        faults: Optional :class:`repro.testing.faults.FaultInjector`
            threaded through every write (crash-matrix testing).
    """

    def __init__(self, base_path, tracer=None, *, durability="none", faults=None):
        backend = FilesystemBackend(
            base_path, durability=durability, faults=faults
        )
        super().__init__(backend, tracer=tracer)


class MemoryRepository(BackendRepository):
    """A :class:`BackendRepository` over a fresh, process-local
    :class:`~repro.storage.memory.MemoryBackend`."""

    def __init__(self, tracer=None):
        super().__init__(MemoryBackend(), tracer=tracer)


def _digest_or_none(backend: StorageBackend, key: str) -> Optional[str]:
    try:
        return backend.digest(key)
    except FileNotFoundError:
        return None


def _replay_from_snapshot(
    backend: StorageBackend, prefix: str, meta: dict, target_version: int
):
    """Re-derive ``target_version`` from the nearest checkpoint at or below.

    Returns the reconstructed :class:`Document` (with XIDs restored), or
    ``None`` when no checkpoint bounds the walk.  Raises
    :class:`CorruptStoreError` when a value needed for the replay is
    itself unreadable.
    """
    from repro.core.apply import apply_delta

    snapshots = meta.get("snapshots", {})
    candidates = [
        int(version)
        for version in snapshots
        if int(version) <= target_version
    ]
    if not candidates:
        return None
    start = max(candidates)
    snapshot_key = prefix + f"/snapshot-{start:04d}.xml"
    try:
        document = parse(
            backend.get(snapshot_key),
            strip_whitespace=False,
            origin=backend.location(snapshot_key),
        )
    except FileNotFoundError:
        return None
    except XmlParseError as exc:
        location = backend.location(snapshot_key)
        raise CorruptStoreError(
            f"corrupt snapshot file {location}: {exc}", path=location
        ) from exc
    document.id_attributes = {
        tuple(pair) for pair in meta.get("id_attributes", [])
    }
    _restore_xids(document, {"xid_labels": snapshots[str(start)]})
    for base in range(start, target_version):
        delta_key = prefix + f"/delta-{base:04d}-{base + 1:04d}.xml"
        try:
            delta = delta_from_document(
                parse(
                    backend.get(delta_key),
                    strip_whitespace=False,
                    origin=backend.location(delta_key),
                )
            )
        except FileNotFoundError:
            return None
        except XmlParseError as exc:
            location = backend.location(delta_key)
            raise CorruptStoreError(
                f"corrupt delta file {location}: {exc}", path=location
            ) from exc
        document = apply_delta(delta, document, in_place=True)
    return document


def _collect_xids(document: Document) -> list[int]:
    """Postorder XID list of a snapshot (persisted in the metadata file).

    XIDs are the glue between the snapshot and its delta chain, but they
    are *not* serialized inside the XML content (that would pollute the
    document).  They are stored as a postorder list alongside it instead.
    """
    from repro.xmlkit.model import postorder

    xids = []
    for node in postorder(document):
        if node is document:
            continue
        if node.xid is None:
            raise RepositoryError(
                "cannot store a snapshot whose nodes lack XIDs"
            )
        xids.append(node.xid)
    return xids


def _restore_xids(document: Document, meta: dict) -> None:
    """Reattach the persisted postorder XID labels to a loaded snapshot."""
    from repro.core.xid import DOCUMENT_XID, assign_initial_xids
    from repro.xmlkit.model import postorder

    labels = meta.get("xid_labels")
    if labels:
        nodes = [node for node in postorder(document) if node is not document]
        if len(labels) != len(nodes):
            raise RepositoryError("stored XID labels do not fit the snapshot")
        for node, xid in zip(nodes, labels):
            node.xid = int(xid)
        document.xid = DOCUMENT_XID
    else:
        assign_initial_xids(document)
