"""Store-health analytics: the ``repro.storewatch/1`` report.

The paper's setting is a warehouse continuously diffing and versioning
crawled documents; storage health (checksum rot, torn commits) and
delta-chain growth (reconstruction cost) are the operational risks.
:func:`collect_store_stats` walks any repository — filesystem, SQLite,
blob or in-memory, sharded or not — through its
:class:`~repro.storage.backend.StorageBackend` and produces one
schema-versioned report:

- document / version counts (plus documents whose metadata is
  unreadable — the corruption fsck would flag);
- on-disk bytes by kind (``snapshot``, ``delta``, ``meta``,
  ``journal``);
- the delta-chain length histogram (power-of-two buckets) that ROADMAP
  item 3's checkpoint/compaction policies need as input;
- checkpoint coverage and staleness (versions accumulated since the
  newest checkpoint — the backward-replay bound);
- the blob backend's dedup ratio (logical vs physical bytes);
- per-shard document balance for sharded stores.

The same report is served by ``GET /statz`` (never queued, like
``/metrics``), exported as gauges by :func:`publish_store_metrics`
(``repro_store_*``) and rendered offline by ``xydiff store stats``.
Collection is read-only and tolerant: a document with corrupt metadata
is *counted*, not raised.

Chain length is ``current_version - 1`` (the number of stored deltas).
Checkpoint staleness is ``current_version - newest checkpoint`` with
version 1 (the creation snapshot era) as the floor, so a one-version
document is never "stale".
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "SCHEMA",
    "collect_store_stats",
    "publish_store_metrics",
    "render_store_stats",
]

#: Schema identifier stamped on every report.
SCHEMA = "repro.storewatch/1"

#: Byte-accounting kinds, in render order.
BYTE_KINDS = ("snapshot", "delta", "meta", "journal", "other")


def _classify(name: str) -> str:
    """Byte-accounting kind of one per-document file name."""
    from repro.versioning.repository import (
        _DELTA_FILE_RE,
        _SNAPSHOT_FILE_RE,
        CURRENT_NAME,
        JOURNAL_NAME,
        MANIFEST_NAME,
        META_NAME,
    )

    if name == CURRENT_NAME or _SNAPSHOT_FILE_RE.match(name):
        return "snapshot"
    if _DELTA_FILE_RE.match(name):
        return "delta"
    if name in (META_NAME, MANIFEST_NAME):
        return "meta"
    if name == JOURNAL_NAME:
        return "journal"
    return "other"


def chain_bucket(length: int) -> str:
    """Histogram bucket label for a chain length (0..3 exact, then
    power-of-two ranges: ``4-7``, ``8-15``, ...)."""
    if length < 0:
        length = 0
    if length < 4:
        return str(length)
    low = 1 << (length.bit_length() - 1)
    return f"{low}-{2 * low - 1}"


def _bucket_sort_key(label: str) -> int:
    return int(label.split("-", 1)[0])


def _size_of(backend, key: str) -> int:
    try:
        return backend.size(key)
    except FileNotFoundError:
        return 0


def collect_store_stats(
    repository, *, label: Optional[str] = None, per_document: bool = False
) -> dict:
    """One ``repro.storewatch/1`` report for a repository.

    Args:
        repository: A :class:`~repro.versioning.repository.
            BackendRepository` (including a ``MemoryRepository``) or a
            :class:`~repro.versioning.sharded.ShardedRepository`.
        label: Store name/URL recorded in the report (defaults to the
            backend's URL / the sharded root).
        per_document: Also include a ``documents_detail`` list (doc id,
            shard, versions, checkpoints, bytes, staleness) — what
            ``xydiff store ls --sizes`` renders.  Off by default: the
            list is O(documents).
    """
    from repro.versioning.repository import META_NAME, CorruptStoreError
    from repro.versioning.sharded import ShardedRepository

    if isinstance(repository, ShardedRepository):
        shards = list(enumerate(repository._repos))
        sharded = True
        store_label = label if label is not None else repository.root
        backend_scheme = repository.backend_scheme
    else:
        shards = [(None, repository)]
        sharded = False
        store_label = label if label is not None else repository.backend.url
        backend_scheme = repository.backend.scheme

    documents = 0
    unreadable = 0
    versions_total = 0
    bytes_by_kind = {kind: 0 for kind in BYTE_KINDS}
    chain_histogram: dict[str, int] = {}
    chain_max = 0
    chain_sum = 0
    checkpoints_total = 0
    documents_with_checkpoint = 0
    staleness_max = 0
    staleness_sum = 0
    shard_documents = [0] * len(shards)
    dedup_parts: list[dict] = []
    detail: list[dict] = []

    for position, (shard_index, repo) in enumerate(shards):
        backend = repo.backend
        dedup_stats = getattr(backend, "dedup_stats", None)
        if dedup_stats is not None:
            dedup_parts.append(dedup_stats())
        for prefix in repo._doc_prefixes():
            documents += 1
            shard_documents[position] += 1
            doc_bytes = 0
            for key in backend.list_keys(prefix + "/"):
                name = key[len(prefix) + 1:]
                kind = "other" if "/" in name else _classify(name)
                size = _size_of(backend, key)
                bytes_by_kind[kind] += size
                doc_bytes += size
            doc_id = prefix
            versions: Optional[int] = None
            checkpoints: list[int] = []
            staleness = 0
            try:
                meta = repo._read_json(prefix + "/" + META_NAME, "metadata")
                doc_id = str(meta.get("doc_id", prefix))
                versions = int(meta.get("current_version", 1))
                checkpoints = sorted(
                    int(v) for v in meta.get("snapshots", {})
                )
            except (FileNotFoundError, CorruptStoreError, ValueError):
                unreadable += 1
            if versions is not None:
                versions_total += versions
                chain = versions - 1
                bucket = chain_bucket(chain)
                chain_histogram[bucket] = chain_histogram.get(bucket, 0) + 1
                chain_max = max(chain_max, chain)
                chain_sum += chain
                checkpoints_total += len(checkpoints)
                if checkpoints:
                    documents_with_checkpoint += 1
                newest = max(checkpoints) if checkpoints else 1
                staleness = max(0, versions - newest)
                staleness_max = max(staleness_max, staleness)
                staleness_sum += staleness
            if per_document:
                detail.append(
                    {
                        "doc_id": doc_id,
                        "shard": shard_index,
                        "versions": versions,
                        "checkpoints": len(checkpoints),
                        "staleness": staleness if versions is not None else None,
                        "bytes": doc_bytes,
                    }
                )

    readable = documents - unreadable
    dedup = None
    if dedup_parts:
        logical = sum(part["logical_bytes"] for part in dedup_parts)
        physical = sum(part["physical_bytes"] for part in dedup_parts)
        dedup = {
            "refs": sum(part["refs"] for part in dedup_parts),
            "objects": sum(part["objects"] for part in dedup_parts),
            "logical_bytes": logical,
            "physical_bytes": physical,
            "ratio": round(logical / physical, 6) if physical else 1.0,
        }
    shard_balance = None
    if sharded:
        mean = documents / len(shards) if shards else 0.0
        spread = (
            (max(shard_documents) - min(shard_documents)) / mean * 100.0
            if mean
            else 0.0
        )
        shard_balance = {
            "documents_per_shard": shard_documents,
            "imbalance_pct": round(spread, 3),
        }

    report = {
        "schema": SCHEMA,
        "store": str(store_label),
        "backend": backend_scheme,
        "sharded": sharded,
        "shards": len(shards),
        "documents": documents,
        "unreadable_documents": unreadable,
        "versions": versions_total,
        "deltas": versions_total - readable,
        "bytes_total": sum(bytes_by_kind.values()),
        "bytes_by_kind": bytes_by_kind,
        "chain": {
            "max": chain_max,
            "mean": round(chain_sum / readable, 6) if readable else 0.0,
            "histogram": {
                bucket: chain_histogram[bucket]
                for bucket in sorted(chain_histogram, key=_bucket_sort_key)
            },
        },
        "checkpoints": {
            "total": checkpoints_total,
            "documents_with_checkpoint": documents_with_checkpoint,
            "coverage": (
                round(documents_with_checkpoint / readable, 6)
                if readable
                else 0.0
            ),
            "max_staleness": staleness_max,
            "mean_staleness": (
                round(staleness_sum / readable, 6) if readable else 0.0
            ),
        },
        "dedup": dedup,
        "shard_balance": shard_balance,
    }
    if per_document:
        report["documents_detail"] = sorted(
            detail, key=lambda entry: entry["doc_id"]
        )
    return report


def publish_store_metrics(report: dict, metrics) -> None:
    """Export one report as ``repro_store_*`` gauges (labelled by
    store, so one registry can carry several stores)."""
    store = report["store"]
    metrics.gauge(
        "repro_store_documents",
        help="Documents in the store (incl. unreadable ones).",
    ).set(report["documents"], store=store)
    metrics.gauge(
        "repro_store_unreadable_documents",
        help="Documents whose metadata is missing or corrupt.",
    ).set(report["unreadable_documents"], store=store)
    metrics.gauge(
        "repro_store_versions",
        help="Stored versions, summed over every document.",
    ).set(report["versions"], store=store)
    bytes_gauge = metrics.gauge(
        "repro_store_bytes",
        help="On-disk bytes by content kind.",
        unit="bytes",
    )
    for kind, value in report["bytes_by_kind"].items():
        bytes_gauge.set(value, store=store, kind=kind)
    metrics.gauge(
        "repro_store_chain_length_max",
        help="Longest delta chain (versions - 1) of any document.",
    ).set(report["chain"]["max"], store=store)
    metrics.gauge(
        "repro_store_chain_length_mean",
        help="Mean delta-chain length across readable documents.",
    ).set(report["chain"]["mean"], store=store)
    metrics.gauge(
        "repro_store_checkpoint_coverage",
        help="Fraction of readable documents with >= 1 checkpoint.",
    ).set(report["checkpoints"]["coverage"], store=store)
    metrics.gauge(
        "repro_store_checkpoint_staleness_max",
        help="Most versions any document accumulated since its newest "
             "checkpoint.",
    ).set(report["checkpoints"]["max_staleness"], store=store)
    if report["dedup"] is not None:
        metrics.gauge(
            "repro_store_dedup_ratio",
            help="Blob store logical/physical byte ratio (1.0 = no "
                 "sharing).",
        ).set(report["dedup"]["ratio"], store=store)
    if report["shard_balance"] is not None:
        shard_gauge = metrics.gauge(
            "repro_store_shard_documents",
            help="Documents per shard of a sharded store.",
        )
        per_shard = report["shard_balance"]["documents_per_shard"]
        for index, count in enumerate(per_shard):
            shard_gauge.set(count, store=store, shard=f"{index:03d}")


def render_store_stats(report: dict) -> str:
    """Human-readable rendering of one report (``xydiff store stats``)."""
    layout = report["backend"]
    if report["sharded"]:
        layout += f", {report['shards']} shards"
    lines = [
        f"store: {report['store']} ({layout})",
        f"documents: {report['documents']}"
        + (
            f" ({report['unreadable_documents']} unreadable)"
            if report["unreadable_documents"]
            else ""
        ),
        f"versions: {report['versions']} (deltas: {report['deltas']})",
        "bytes: total={total} ".format(total=report["bytes_total"])
        + " ".join(
            f"{kind}={report['bytes_by_kind'].get(kind, 0)}"
            for kind in BYTE_KINDS
        ),
        f"chain length: max={report['chain']['max']} "
        f"mean={report['chain']['mean']:.2f}",
    ]
    for bucket, count in report["chain"]["histogram"].items():
        lines.append(f"  chain {bucket}: {count}")
    checkpoints = report["checkpoints"]
    lines.append(
        f"checkpoints: total={checkpoints['total']} "
        f"coverage={checkpoints['coverage']:.0%} "
        f"staleness max={checkpoints['max_staleness']} "
        f"mean={checkpoints['mean_staleness']:.2f}"
    )
    if report["dedup"] is not None:
        dedup = report["dedup"]
        lines.append(
            f"dedup: refs={dedup['refs']} objects={dedup['objects']} "
            f"ratio={dedup['ratio']:.2f}x"
        )
    if report["shard_balance"] is not None:
        balance = report["shard_balance"]
        counts = " ".join(
            f"{index:03d}={count}"
            for index, count in enumerate(balance["documents_per_shard"])
        )
        lines.append(
            f"shards: {counts} (imbalance {balance['imbalance_pct']:.1f}%)"
        )
    return "\n".join(lines)
