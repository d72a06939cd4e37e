"""High-level change control: the paper's Figure 1 pipeline.

:class:`VersionStore` wires the pieces together the way Xyleme does: a new
version of a document arrives (from a crawler, a loader, an editor), the
diff module compares it against the stored current version, the resulting
delta is appended to the document's delta sequence, and the repository
snapshot moves forward.  Old versions are not stored — they are
reconstructed on demand by applying completed deltas backward, and
"changes between versions i and j" come from delta aggregation.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.core.apply import aggregate, apply_backward, apply_delta
from repro.core.config import DiffConfig
from repro.core.delta import Delta
from repro.core.diff import DiffStats
from repro.core.xid import assign_initial_xids
from repro.engine import AnnotationStore, DiffContext, DiffEngine, resolve_engine
from repro.obs.context import current_request_id
from repro.versioning.repository import MemoryRepository, Repository
from repro.xmlkit.errors import RepositoryError
from repro.xmlkit.model import Document, coalesce_text

__all__ = ["VersionStore"]


class VersionStore:
    """Versioned documents with diff-on-commit change control.

    Args:
        repository: Backing store; defaults to an in-memory repository.
        config: Diff configuration used by :meth:`commit`.
        on_commit: Optional callback ``f(doc_id, delta, new_document)``
            invoked after every successful commit — this is where the
            paper's *Alerter* (subscription system) and the incremental
            indexer hook in.  ``new_document`` is the stored current
            version itself: callbacks must not mutate it.
        engine: Diff engine used by :meth:`commit` — a registered name
            (``"buld"``, ``"lu"``, ...) or a
            :class:`~repro.engine.base.DiffEngine` instance.
        annotation_cache: When true (the default), the store keeps an
            :class:`~repro.engine.annotations.AnnotationStore` so a
            commit reuses the signatures/weights computed for the same
            content in a previous commit — the common crawler case where
            the stored current version is re-annotated on every revisit.
            Only the BULD engine consults it.
        tracer: Optional :class:`repro.obs.trace.Tracer`.  Every commit
            becomes a ``store.commit`` span whose children are the
            engine's ``engine:<name>``/``stage:<name>`` spans; ``create``
            becomes ``store.create``.  ``None`` (the default) keeps the
            commit path free of tracing work.
        metrics: Optional :class:`repro.obs.metrics.MetricsRegistry`.
            The store counts commits (``repro_commits_total``), feeds
            stage latencies through a
            :class:`~repro.obs.profiler.StageProfiler`, and hands the
            registry to its :class:`AnnotationStore` for hit/miss/
            eviction counters.
        events: Optional :class:`repro.obs.log.EventLogger`.  Every
            successful :meth:`create`/:meth:`commit` logs a
            ``repo.create``/``repo.commit`` event carrying the store
            name, doc id, version and (via the ambient request
            context) the request id that caused it.
        store_name: Name tagged onto the events above — the server's
            configured store alias; standalone embedders can leave it
            ``None``.
    """

    def __init__(
        self,
        repository: Optional[Repository] = None,
        config: Optional[DiffConfig] = None,
        on_commit: Optional[Callable[[str, Delta, Document], None]] = None,
        checkpoint_every: Optional[int] = None,
        engine: str | DiffEngine = "buld",
        annotation_cache: bool = True,
        tracer=None,
        metrics=None,
        events=None,
        store_name: Optional[str] = None,
    ):
        self.repository = repository if repository is not None else MemoryRepository()
        self.config = config or DiffConfig()
        self.on_commit = on_commit
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        self.engine = resolve_engine(engine)
        self.tracer = tracer
        self.metrics = metrics
        self.events = events
        self.store_name = store_name
        self._profiler = None
        self._commits_total = None
        if metrics is not None:
            from repro.obs.profiler import StageProfiler

            self._profiler = StageProfiler(metrics=metrics)
            self._commits_total = metrics.counter(
                "repro_commits_total", help="Version-store commits."
            )
        self.annotation_store: Optional[AnnotationStore] = (
            AnnotationStore(metrics=metrics) if annotation_cache else None
        )
        #: Stats of the most recent :meth:`commit` (None before the first).
        self.last_stats: Optional[DiffStats] = None

    # -- writing ------------------------------------------------------------

    def create(
        self,
        doc_id: str,
        document: Document,
        commit_record: Optional[dict] = None,
        tracer=None,
    ) -> int:
        """Store ``document`` as version 1 of a new document; returns 1.

        Stored content is normalized to its XML-serializable form
        (adjacent text siblings coalesce — they could not survive the
        repository's serialization round trip anyway).

        ``commit_record`` is an optional idempotency marker persisted
        with the commit; see :class:`~repro.versioning.repository
        .Repository`.  ``tracer`` overrides the store's own tracer for
        this call — the server threads its per-request tracer through
        here so the ``store.create`` span lands in the request's trace.
        """
        span = None
        tracer = tracer if tracer is not None else self.tracer
        request_id = current_request_id()
        if tracer is not None:
            attrs = {"doc_id": doc_id}
            if request_id is not None:
                attrs["request_id"] = request_id
            span = tracer.start_span("store.create", **attrs)
        try:
            working = document.clone(keep_xids=False)
            coalesce_text(working)
            allocator = assign_initial_xids(working)
            self.repository.create(
                doc_id, working, allocator, commit_record=commit_record
            )
        finally:
            if span is not None:
                tracer.end_span(span)
        if self.events is not None:
            self.events.emit(
                "repo.create", store=self.store_name, doc_id=doc_id
            )
        return 1

    def commit(
        self,
        doc_id: str,
        new_document: Document,
        commit_record: Optional[dict] = None,
        tracer=None,
    ) -> Delta:
        """Diff the new version against the current one and append it.

        Returns the computed delta (empty if nothing changed — an empty
        delta still advances the version, mirroring a crawler revisit).
        The stored content is normalized like :meth:`create`; ``tracer``
        overrides the store's own tracer for this call, like there.
        """
        span = None
        tracer = tracer if tracer is not None else self.tracer
        request_id = current_request_id()
        started = time.perf_counter()
        if tracer is not None:
            attrs = {"doc_id": doc_id}
            if request_id is not None:
                attrs["request_id"] = request_id
            span = tracer.start_span("store.commit", **attrs)
        try:
            # readonly: the diff never mutates its old side (delta payloads
            # are cloned out of it by the builder), so the repository can
            # hand over its cached instance without a full-tree copy.
            current = self.repository.load_current(doc_id, readonly=True)
            allocator = self.repository.load_allocator(doc_id)
            base_version = self.repository.current_version(doc_id)
            if span is not None:
                span.attrs["base_version"] = base_version
            working = new_document.clone(keep_xids=False)
            coalesce_text(working)
            # (doc_id, version) names immutable repository content, so it
            # can stand in for the content hash: the old side hits the
            # record the previous commit stored for its new side without
            # either of them paying the content-key walk.
            context = DiffContext(
                config=self.config,
                allocator=allocator,
                annotation_store=self.annotation_store,
                old_annotation_key=(doc_id, base_version),
                new_annotation_key=(doc_id, base_version + 1),
                tracer=tracer,
            )
            if self._profiler is not None:
                self._profiler.install(context)
            delta, stats = self.engine.diff_with_stats(
                current, working, context=context
            )
            self.last_stats = stats
            delta.base_version = base_version
            delta.target_version = delta.base_version + 1
            self.repository.append(
                doc_id, delta, working, allocator,
                commit_record=commit_record,
            )
            if self._commits_total is not None:
                self._commits_total.inc(engine=stats.engine)
            if (
                self.checkpoint_every is not None
                and delta.target_version % self.checkpoint_every == 0
            ):
                self.repository.store_snapshot(
                    doc_id, delta.target_version, working
                )
            if self.on_commit is not None:
                self.on_commit(doc_id, delta, working)
        finally:
            if span is not None:
                tracer.end_span(span)
        if self.events is not None:
            self.events.emit(
                "repo.commit",
                store=self.store_name,
                doc_id=doc_id,
                version=delta.target_version,
                duration_ms=round(
                    (time.perf_counter() - started) * 1000.0, 3
                ),
            )
        return delta

    # -- reading ------------------------------------------------------------

    def document_ids(self) -> list[str]:
        return self.repository.document_ids()

    def current_version(self, doc_id: str) -> int:
        return self.repository.current_version(doc_id)

    def get_current(self, doc_id: str) -> Document:
        """The latest version (XID-labelled)."""
        return self.repository.load_current(doc_id)

    def get_version(self, doc_id: str, version: int) -> Document:
        """Reconstruct any stored version.

        The walk starts from the nearest stored state at or above the
        requested version — the current snapshot by default, or a
        checkpoint when ``checkpoint_every`` stored one closer — and
        applies deltas backward from there.
        """
        current = self.repository.current_version(doc_id)
        if not 1 <= version <= current:
            raise RepositoryError(
                f"{doc_id!r} has versions 1..{current}, not {version}"
            )
        start = current
        document = None
        for checkpoint in self.repository.snapshot_versions(doc_id):
            if version <= checkpoint < start:
                start = checkpoint
        if start == version and start != current:
            loaded = self.repository.load_snapshot(doc_id, start)
            if loaded is not None:
                return loaded
        if start != current:
            document = self.repository.load_snapshot(doc_id, start)
        if document is None:
            start = current
            document = self.repository.load_current(doc_id)
        for base in range(start - 1, version - 1, -1):
            delta = self.repository.load_delta(doc_id, base)
            document = apply_backward(delta, document, in_place=True)
        return document

    def delta(self, doc_id: str, base_version: int) -> Delta:
        """The stored single-step delta ``base_version -> base_version+1``."""
        return self.repository.load_delta(doc_id, base_version)

    def deltas(self, doc_id: str) -> list[Delta]:
        """All stored deltas, oldest first."""
        return [
            self.repository.load_delta(doc_id, base)
            for base in range(1, self.repository.current_version(doc_id))
        ]

    def changes_between(
        self, doc_id: str, from_version: int, to_version: int
    ) -> Delta:
        """One delta describing everything between two versions.

        ``from_version < to_version`` aggregates forward; the reverse
        direction returns the inverse (completed deltas make both free).
        Equal versions yield an empty delta.
        """
        if from_version == to_version:
            return Delta([])
        if from_version > to_version:
            return self.changes_between(doc_id, to_version, from_version).inverted()
        base_document = self.get_version(doc_id, from_version)
        chain = [
            self.repository.load_delta(doc_id, base)
            for base in range(from_version, to_version)
        ]
        combined = aggregate(chain, base_document)
        combined.base_version = from_version
        combined.target_version = to_version
        return combined

    def verify_integrity(self, doc_id: str) -> bool:
        """Replay the whole chain forward from version 1: the result must
        equal the stored current snapshot.  A store self-check."""
        document = self.get_version(doc_id, 1)
        for base in range(1, self.repository.current_version(doc_id)):
            delta = self.repository.load_delta(doc_id, base)
            document = apply_delta(delta, document, in_place=True, verify=True)
        return document.deep_equal(self.repository.load_current(doc_id))
