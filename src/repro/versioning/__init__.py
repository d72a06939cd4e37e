"""Xyleme-style change control built on the diff (the paper's Figure 1).

- :mod:`repro.versioning.repository` — snapshot + delta-chain storage
  through any :class:`repro.storage.StorageBackend` (process memory
  included).
- :mod:`repro.versioning.sharded` — the ``hash(doc_id) → shard``
  router and :func:`open_repository`, the store-URL front door.
- :mod:`repro.versioning.version_control` — commit pipeline, version
  reconstruction, cross-version aggregation.
- :mod:`repro.versioning.temporal` — querying the past via XIDs.
- :mod:`repro.versioning.alerter` — the subscription system.
- :mod:`repro.versioning.textindex` — delta-maintained full-text index.
"""

from repro.versioning.alerter import Alert, Alerter, Subscription
from repro.versioning.fsck import FsckReport, fsck_store
from repro.versioning.loader import LoaderStats, WarehouseLoader
from repro.versioning.merge import Conflict, MergeResult, merge
from repro.versioning.sitediff import SiteDelta, SiteSnapshot, diff_sites
from repro.versioning.statistics import ChangeStatistics
from repro.versioning.repository import (
    BackendRepository,
    CorruptStoreError,
    DirectoryRepository,
    Finding,
    MemoryRepository,
    RecoveryEvent,
    Repository,
)
from repro.versioning.sharded import ShardedRepository, open_repository
from repro.versioning.temporal import NodeHistory, TemporalQueries, VersionEvent
from repro.versioning.textindex import TextIndex
from repro.versioning.version_control import VersionStore

__all__ = [
    "Alert",
    "Alerter",
    "BackendRepository",
    "ChangeStatistics",
    "Conflict",
    "CorruptStoreError",
    "DirectoryRepository",
    "Finding",
    "FsckReport",
    "LoaderStats",
    "MergeResult",
    "WarehouseLoader",
    "fsck_store",
    "merge",
    "MemoryRepository",
    "NodeHistory",
    "RecoveryEvent",
    "Repository",
    "ShardedRepository",
    "SiteDelta",
    "SiteSnapshot",
    "Subscription",
    "diff_sites",
    "open_repository",
    "TemporalQueries",
    "TextIndex",
    "VersionEvent",
    "VersionStore",
]
