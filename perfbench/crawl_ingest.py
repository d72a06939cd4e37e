"""crawl-ingest: the paper's warehouse loop over a sharded SQLite store.

A simulated crawl of 400 web documents is loaded into a
``shard://...?shards=4&backend=sqlite`` store through
:class:`repro.versioning.VersionStore`.  Every week each document is
revisited in round-robin order; a seeded 30% of revisits return the
previous text byte for byte, the rest change under
``weekly_change_profile``.  Each revisit is parsed and committed.  From
the second week on, 300 seeded ``get_version`` reads per week, one or two
versions back, are spread evenly between the commits; they replay stored
deltas backward (the store takes no checkpoints).  One thread, closed
loop, ``durability=none``.

Correctness: every read equals the text committed for that version,
``verify()`` reports no findings, and a sha256 over every stored delta
in commit order (up to the checkpoint) is recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import statistics
import time
from dataclasses import dataclass

import repro
from common import (
    DURABILITY,
    CheckFailed,
    SpeedGauge,
    cold_import_seconds,
    latency_metrics,
    make_workdir,
    next_week,
    remove_workdir,
    settle,
    vm_hwm_mb,
    web_texts,
)

MIN_BYTES = 400
MAX_BYTES = 60_000
UNCHANGED_SHARE = 0.3
SHARDS = 4
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Scale:
    docs: int = 400
    reads_per_week: int = 300
    #: Weeks after which the byte ratios and the delta chain hash are
    #: taken (a fixed point of the seeded plan, whatever the speed).
    checkpoint_weeks: int = 4
    #: Weeks of the traced run's fixed plan.
    trace_weeks: int = 2


FULL = Scale()
TINY = Scale(docs=12, reads_per_week=10, checkpoint_weeks=2, trace_weeks=2)


def properties(scale: Scale, seed: int) -> dict:
    return {
        "documents": scale.docs,
        "size_bytes": f"log-uniform {MIN_BYTES}-{MAX_BYTES}, stratified",
        "unchanged_revisit_share": UNCHANGED_SHARE,
        "annotation_lru_entries": 128,
        "store": f"shard://?shards={SHARDS}&backend=sqlite",
        "loop": "closed, 1 thread, in-process",
        "reads_per_week": scale.reads_per_week,
        "read_depth": "1-2 versions back",
        "durability": DURABILITY,
        "seed": seed,
    }


class Crawl:
    """Seeded revisit texts, generated one week at a time.

    Only the week-0 texts and the last ``KEEP_WEEKS`` weeks are held, so
    the benchmark's own data stays the same size however many weeks a
    run gets through.
    """

    #: A read during week w goes back at most to version w - 2, whose
    #: text is that of week w - 3.
    KEEP_WEEKS = 4

    def __init__(self, seed: int, docs: int):
        self.seed = seed
        corpus = web_texts(seed, docs, MIN_BYTES, MAX_BYTES)
        self.doc_seeds = [doc_seed for doc_seed, _ in corpus]
        #: first[i]: the text document i is created with (week 0).
        self.first = [text for _, text in corpus]
        #: recent[i][w]: the text fetched for document i in week w.
        self.recent = [{0: text} for text in self.first]
        self.latest = 0
        self.ids = [f"doc-{i:04d}" for i in range(docs)]

    def week(self, week: int) -> list[str]:
        while self.latest < week:
            self.latest += 1
            current = self.latest
            rng = random.Random(f"crawl:{self.seed}:{current}")
            for doc_seed, texts in zip(self.doc_seeds, self.recent):
                previous = texts[current - 1]
                if rng.random() < UNCHANGED_SHARE:
                    texts[current] = previous
                else:
                    texts[current] = next_week(previous,
                                               doc_seed + 7_000 + current)
                if current - self.KEEP_WEEKS > 0:
                    del texts[current - self.KEEP_WEEKS]
        return [texts[week] for texts in self.recent]

    def text(self, index: int, week: int) -> str:
        return self.recent[index][week]


class _TimedEngine:
    """Stands in for a VersionStore's engine and times each diff."""

    def __init__(self, engine, record):
        self._engine = engine
        self._record = record

    def diff_with_stats(self, *args, **kwargs):
        started = time.perf_counter()
        result = self._engine.diff_with_stats(*args, **kwargs)
        self._record("diff", time.perf_counter() - started)
        return result

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _open_store(workdir: str, name: str, crawl: Crawl, gauge=None,
                kind: str = "setup"):
    """Open a fresh sharded store and load version 1 of every document;
    with a ``gauge``, the opening and each load are ``kind`` operations."""
    from repro.versioning import VersionStore
    from repro.versioning.sharded import open_repository

    def call(fn):
        return fn() if gauge is None else gauge.timed(kind, fn)

    repo = call(lambda: open_repository(
        f"shard://{workdir}/{name}?shards={SHARDS}&backend=sqlite",
        durability=DURABILITY,
    ))
    store = VersionStore(repo)
    for doc_id, text in zip(crawl.ids, crawl.first):
        call(lambda: store.create(doc_id, repro.parse(text)))
    return store


class Pass:
    """One pass over the seeded plan against one store.

    With a ``gauge``, each operation's time is also recorded there, and a
    reference slice is timed between operations when one is due.
    """

    def __init__(self, crawl: Crawl, store, scale: Scale, gauge=None):
        self.crawl = crawl
        self.store = store
        self.scale = scale
        self.gauge = gauge
        self.read_rng = random.Random(f"crawl-reads:{crawl.seed}")
        self.samples = {"commit": [], "diff": [], "read": []}
        self.timed = 0.0
        self.input_bytes = 0
        self.commit_log: list[tuple[str, int]] = []
        #: Context for the benchmark's own work inside a pass (a traced
        #: pass pauses the probes there).
        self.quiet = contextlib.nullcontext
        store.engine = _TimedEngine(store.engine, self.record)

    def record(self, kind: str, seconds: float) -> None:
        self.samples[kind].append(seconds)
        if self.gauge is not None:
            self.gauge.add(kind, seconds)

    def tick(self) -> None:
        if self.gauge is not None:
            self.gauge.tick()

    def run_week(self, week: int, stop=None) -> bool:
        """One week of commits, with reads spread evenly between them
        from week 2 on; False if ``stop()`` cut the week short."""
        with self.quiet():
            texts = self.crawl.week(week)
            settle()
        docs = len(texts)
        reads = self.scale.reads_per_week if week >= 2 else 0
        for position, (doc_id, text) in enumerate(zip(self.crawl.ids, texts)):
            started = time.perf_counter()
            self.store.commit(doc_id, repro.parse(text))
            elapsed = time.perf_counter() - started
            self.record("commit", elapsed)
            self.timed += elapsed
            self.tick()
            self.input_bytes += len(text.encode("utf-8"))
            if week <= self.scale.checkpoint_weeks:
                self.commit_log.append((doc_id, week))
            due = (position + 1) * reads // docs - position * reads // docs
            for _ in range(due):
                self.read(week, position)
            if stop is not None and stop():
                return False
        return True

    def read(self, week: int, position: int) -> None:
        """``get_version`` of a random document, 1-2 versions back; the
        documents up to ``position`` are already at version week + 1."""
        index = self.read_rng.randrange(len(self.crawl.ids))
        current = week + 1 if index <= position else week
        version = max(1, current - self.read_rng.randint(1, 2))
        started = time.perf_counter()
        document = self.store.get_version(self.crawl.ids[index], version)
        elapsed = time.perf_counter() - started
        self.record("read", elapsed)
        self.timed += elapsed
        with self.quiet():
            expected = repro.parse(self.crawl.text(index, version - 1))
            same = document.deep_equal(expected)
        if not same:
            raise CheckFailed(f"read of {self.crawl.ids[index]} v{version} "
                              "differs from the committed text")
        self.tick()


def checkpoint(crawl: Crawl, store, log: list, revisit_bytes: int) -> dict:
    """Byte ratios and the delta chain hash at the plan's checkpoint."""
    from repro.core.deltaxml import serialize_delta
    from repro.obs.storewatch import collect_store_stats

    chain = hashlib.sha256()
    delta_bytes = 0
    for doc_id, week in log:
        data = serialize_delta(store.delta(doc_id, week)).encode("utf-8")
        chain.update(data)
        delta_bytes += len(data)
    created = sum(len(text.encode("utf-8")) for text in crawl.first)
    stored = collect_store_stats(store.repository)["bytes_total"]
    return {
        "chain_sha256": chain.hexdigest(),
        "delta_bytes_per_input_byte": delta_bytes / revisit_bytes,
        "store_bytes_per_input_byte": stored / (created + revisit_bytes),
    }


def verify(store) -> None:
    findings = store.repository.verify()
    if findings:
        raise CheckFailed(f"verify() reported {len(findings)} findings: "
                          f"{findings[0]}")


def run(seed: int, seconds: float, scale: Scale = FULL) -> dict:
    workdir = make_workdir("crawl-")
    store = None
    try:
        crawl = Crawl(seed, scale.docs)
        gauge = SpeedGauge()
        setups = [f"setup-{attempt}" for attempt in range(SETUP_REPEATS)]
        for attempt, kind in enumerate(setups):
            if store is not None:
                store.repository.close()
            gauge.tick(force=True)
            gauge.timed(kind, cold_import_seconds)
            store = _open_store(workdir, f"store-{attempt}", crawl, gauge,
                                kind)
        gauge.tick(force=True)
        run_pass = Pass(crawl, store, scale, gauge)
        marks = {}
        week = 0

        def stop() -> bool:
            return run_pass.timed >= seconds and "chain_sha256" in marks

        while True:
            week += 1
            finished = run_pass.run_week(week, stop)
            if finished and week == scale.checkpoint_weeks:
                marks = checkpoint(crawl, store, run_pass.commit_log,
                                   run_pass.input_bytes)
            if not finished or stop():
                break
        gauge.finish()
        verify(store)
        scaled = {kind: gauge.scaled(kind)
                  for kind in ("commit", "diff", "read")}
        timed = sum(scaled["commit"]) + sum(scaled["read"])
        attempted = len(scaled["commit"]) + len(scaled["read"])
        metrics = {
            "setup_s": (statistics.median(sum(gauge.scaled(kind))
                                          for kind in setups), "s"),
            "ops_per_s": (attempted / timed, "1/s"),
            "input_mb_per_s": (run_pass.input_bytes / 1e6 / timed, "MB/s"),
            "delta_bytes_per_input_byte": (
                marks["delta_bytes_per_input_byte"], "ratio"),
            "store_bytes_per_input_byte": (
                marks["store_bytes_per_input_byte"], "ratio"),
            "peak_rss_mb": (vm_hwm_mb(), "MB"),
        }
        for kind in ("commit", "diff", "read"):
            metrics.update(latency_metrics(kind, scaled[kind]))
        return {
            "metrics": metrics,
            "attempted": attempted,
            "info": {
                "chain_sha256": marks["chain_sha256"],
                "weeks": week,
                "samples": {kind: len(values)
                            for kind, values in run_pass.samples.items()},
                "host_speed": gauge.speed(),
                "unscaled_ops_per_s": attempted / run_pass.timed,
                "properties": properties(scale, seed),
            },
        }
    finally:
        if store is not None:
            store.repository.close()
        remove_workdir(workdir)


def run_traced(seed: int, seconds: float, scale: Scale = FULL) -> dict:
    """Weeks 1..trace_weeks untraced, then traced on a fresh store."""
    from repro.obs import Tracer

    from probes import LayerProbe, StageTotals, layer_metrics

    workdir = make_workdir("crawl-trace-")
    stores = []
    probe = LayerProbe()
    try:
        crawl = Crawl(seed, scale.docs)
        walls = []
        for name in ("untraced", "traced"):
            store = _open_store(workdir, name, crawl)
            stores.append(store)
            run_pass = Pass(crawl, store, scale)
            tracer = None
            if name == "traced":
                probe.install()
                run_pass.quiet = probe.paused
                tracer = store.tracer = Tracer()
            for week in range(1, scale.trace_weeks + 1):
                run_pass.run_week(week)
            walls.append(run_pass.timed)
            if tracer is not None:
                probe.uninstall()
                stages = StageTotals()
                stages.harvest(tracer)
            verify(store)
        metrics = layer_metrics(probe, stages, wall_s=walls[1],
                                overhead_s=walls[1] - walls[0])
        return {
            "metrics": metrics,
            "attempted": (len(run_pass.samples["commit"])
                          + len(run_pass.samples["read"])),
            "info": {"properties": properties(scale, seed),
                     "untraced_wall_s": walls[0]},
        }
    finally:
        probe.uninstall()
        for store in stores:
            store.repository.close()
        remove_workdir(workdir)
