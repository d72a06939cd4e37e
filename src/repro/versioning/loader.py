"""The Xyleme loader loop — Figure 1, wired end to end with accounting.

"When a new version of a document V(n) is received (or crawled from the
web), it is installed in the repository.  It is then sent to the diff
module that also acquires the previous version V(n-1) ...  The delta is
appended to the existing sequence ...  The alerter is in charge of
detecting patterns that may interest some subscriptions.  Efficiency is
here a key factor ... The diff has to run at the speed of the indexer."

:class:`WarehouseLoader` is that loop as a library object: feed it
document versions; it versions them (diff on commit), runs the alerter,
maintains the full-text index and the change statistics — and it times
every stage, so the paper's efficiency requirement ("diff at indexer
speed") is a measurable property, not a slogan
(``LoaderStats.diff_vs_index_ratio``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.core.config import DiffConfig
from repro.core.delta import Delta
from repro.core.deltaxml import delta_byte_size
from repro.core.diff import diff
from repro.versioning.alerter import Alert, Alerter
from repro.versioning.repository import MemoryRepository, Repository
from repro.versioning.statistics import ChangeStatistics
from repro.versioning.textindex import TextIndex
from repro.versioning.version_control import VersionStore
from repro.xmlkit.model import Document

__all__ = ["LoaderStats", "WarehouseLoader"]


@dataclass
class LoaderStats:
    """Cumulative accounting of one loader's activity.

    Attributes:
        documents: Distinct documents ever loaded.
        versions: Total versions stored (first loads included).
        diff_seconds: Time in the diff module.
        index_seconds: Time maintaining the full-text index.
        alert_seconds: Time in the alerter.
        store_seconds: Time in repository reads/writes.
        delta_bytes: Cumulative size of the delta stream.
        alerts: Alerts emitted.
    """

    documents: int = 0
    versions: int = 0
    diff_seconds: float = 0.0
    index_seconds: float = 0.0
    alert_seconds: float = 0.0
    store_seconds: float = 0.0
    delta_bytes: int = 0
    alerts: int = 0

    @property
    def diff_vs_index_ratio(self) -> float:
        """Diff time over index time — the paper's 'diff must run at the
        speed of the indexer' requirement wants this near (or below) 1."""
        if self.index_seconds == 0:
            return float("inf") if self.diff_seconds else 0.0
        return self.diff_seconds / self.index_seconds


class WarehouseLoader:
    """Versioning + alerting + indexing pipeline over a repository."""

    def __init__(
        self,
        repository: Optional[Repository] = None,
        alerter: Optional[Alerter] = None,
        index: Optional[TextIndex] = None,
        statistics: Optional[ChangeStatistics] = None,
        config: Optional[DiffConfig] = None,
    ):
        self.repository = repository if repository is not None else MemoryRepository()
        self.store = VersionStore(self.repository, config=config)
        self.alerter = alerter
        self.index = index
        self.statistics = statistics
        self.stats = LoaderStats()
        self.recent_alerts: list[Alert] = []

    def load(self, doc_id: str, document: Document) -> Optional[Delta]:
        """Ingest one (possibly first) version of a document.

        Returns the delta for revisits, ``None`` for first loads.
        """
        if not self.repository.exists(doc_id):
            started = time.perf_counter()
            self.store.create(doc_id, document)
            current = self.store.get_current(doc_id)
            self.stats.store_seconds += time.perf_counter() - started

            if self.index is not None:
                started = time.perf_counter()
                self.index.index_document(doc_id, current)
                self.stats.index_seconds += time.perf_counter() - started
            self.stats.documents += 1
            self.stats.versions += 1
            return None

        # revisit: fetch the previous version, diff, append, fan out
        started = time.perf_counter()
        previous = self.repository.load_current(doc_id)
        allocator = self.repository.load_allocator(doc_id)
        self.stats.store_seconds += time.perf_counter() - started

        working = document.clone(keep_xids=False)
        started = time.perf_counter()
        delta = diff(previous, working, self.store.config, allocator=allocator)
        self.stats.diff_seconds += time.perf_counter() - started
        delta.base_version = self.repository.current_version(doc_id)
        delta.target_version = delta.base_version + 1

        started = time.perf_counter()
        self.repository.append(doc_id, delta, working, allocator)
        self.stats.store_seconds += time.perf_counter() - started

        if self.alerter is not None:
            started = time.perf_counter()
            alerts = self.alerter.process(
                delta, working, doc_id=doc_id, old_document=previous
            )
            self.stats.alert_seconds += time.perf_counter() - started
            self.recent_alerts.extend(alerts)
            self.stats.alerts += len(alerts)

        if self.index is not None:
            started = time.perf_counter()
            self.index.update_from_delta(doc_id, delta)
            self.stats.index_seconds += time.perf_counter() - started

        if self.statistics is not None:
            self.statistics.observe(delta, previous, working)

        self.stats.versions += 1
        self.stats.delta_bytes += delta_byte_size(delta)
        return delta
