"""Per-layer probes: time the program's public functions from outside.

:class:`LayerProbe` replaces the public functions and methods of each
layer (``xmlkit`` parse/serialize, the ``engine``'s ``diff_with_stats``,
``deltaxml`` serialize/parse, ``apply``, ``VersionStore``, the
``Repository`` classes and every ``StorageBackend``) with wrappers that
keep a per-thread stack of open calls.  For every call it records

- the layer's *self* time: the call's duration minus the time its
  wrapped callees took (so the layers of one operation add up to the
  operation's wall time, and what is left is the residual);
- the function's total time and call count, counted only for the
  outermost call of a layer (``serialize_delta`` calling
  ``delta_to_document`` is one deltaxml operation, and a backend's
  ``replace`` that calls its own ``exists`` and ``put`` is one storage
  operation);
- work counters read off arguments and results at the same boundary:
  nodes parsed, nodes diffed, matches, annotation-cache hits and
  misses, storage operations by kind, bytes written, delta bytes.

The probe's own bookkeeping is timed separately and never charged to a
layer.  Nothing in ``src/`` changes: :meth:`LayerProbe.install` patches
the attributes at import level and :meth:`LayerProbe.uninstall` puts
the originals back.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from common import count_nodes

#: Stages of the BULD pipeline, in execution order.
STAGES = ("annotate", "id-attributes", "match-subtrees", "propagate",
          "build-delta")

#: Layers whose self time is reported, in call-depth order.
LAYERS = ("versioning", "repository", "storage", "engine", "deltaxml",
          "apply", "xmlkit")

#: Storage operations counted by kind.
STORAGE_OPS = ("get", "put", "replace", "delete", "list_keys", "exists")


class LayerProbe:
    """Self time, totals and work counters per layer (thread-aware)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything measured so far (the patches stay)."""
        self.layer_self = defaultdict(float)
        self.fn_self = defaultdict(float)
        self.fn_total = defaultdict(float)
        self.fn_calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.bookkeeping_s = 0.0

    _FIELDS = ("layer_self", "fn_self", "fn_total", "fn_calls", "counts")

    def to_dict(self) -> dict:
        with self._lock:
            data = {name: dict(getattr(self, name)) for name in self._FIELDS}
            data["bookkeeping_s"] = self.bookkeeping_s
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "LayerProbe":
        """A probe holding measurements another process wrote."""
        probe = cls()
        for name in cls._FIELDS:
            getattr(probe, name).update(data[name])
        probe.bookkeeping_s = data["bookkeeping_s"]
        return probe

    # -- measuring ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def paused(self):
        """Calls made inside this block (the benchmark's own input
        generation and output checks) are not measured."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def run(self, layer, name, fn, args, kwargs, after=None):
        """Call ``fn`` as one ``layer`` operation named ``name``."""
        if getattr(self._local, "paused", False):
            return fn(*args, **kwargs)
        perf = time.perf_counter
        stack = self._stack()
        outer = all(frame[0] != layer for frame in stack)
        frame = [layer, 0.0, name]
        stack.append(frame)
        started = perf()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            ended = perf()
            stack.pop()
            elapsed = ended - started
            extra = None
            if ok and outer and after is not None:
                extra = after(args, kwargs, result, stack)
            with self._lock:
                own = elapsed - frame[1]
                self.layer_self[layer] += own
                self.fn_self[name] += own
                if outer:
                    self.fn_total[name] += elapsed
                    self.fn_calls[name] += 1
                    if extra:
                        for key, amount in extra.items():
                            self.counts[key] += amount
                done = perf()
                self.bookkeeping_s += done - ended
            if stack:
                stack[-1][1] += done - started
        return result

    def _wrap(self, layer, name, original, after=None):
        probe = self

        def wrapper(*args, **kwargs):
            return probe.run(layer, name, original, args, kwargs, after)

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        return wrapper

    # -- installing --------------------------------------------------------

    def _patch_function(self, module_name, attr, layer, name, after=None):
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = self._wrap(layer, name, original, after)
        # ``from x import f`` copies the binding: patch every repro module
        # that holds this very function object.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def _patch_method(self, cls, attr, layer, name, after=None):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(layer, name, original, after))

    def install(self) -> "LayerProbe":
        """Wrap every public entry point of every layer."""
        import repro.core.apply  # noqa: F401  (load before patching)
        import repro.core.deltaxml  # noqa: F401
        import repro.core.diff  # noqa: F401
        import repro.obs.storewatch  # noqa: F401
        import repro.server.routes  # noqa: F401
        import repro.storage.blobstore  # noqa: F401
        import repro.storage.filesystem  # noqa: F401
        import repro.storage.sqlite_store  # noqa: F401
        import repro.versioning.sharded  # noqa: F401
        from repro.engine.base import DiffEngine
        from repro.storage.backend import StorageBackend
        from repro.versioning.repository import (
            BackendRepository,
            MemoryRepository,
        )
        from repro.versioning.sharded import ShardedRepository
        from repro.versioning.version_control import VersionStore

        self._patch_function("repro.xmlkit.parser", "parse", "xmlkit",
                             "xmlkit.parse", _after_parse)
        for attr in ("serialize", "serialize_bytes"):
            self._patch_function("repro.xmlkit.serializer", attr, "xmlkit",
                                 "xmlkit.serialize")
        self._patch_function("repro.core.deltaxml", "serialize_delta",
                             "deltaxml", "deltaxml.serialize",
                             _after_serialize_delta)
        self._patch_function("repro.core.deltaxml", "delta_to_document",
                             "deltaxml", "deltaxml.serialize")
        for attr in ("parse_delta", "delta_from_document"):
            self._patch_function("repro.core.deltaxml", attr, "deltaxml",
                                 "deltaxml.parse")
        self._patch_function("repro.core.apply", "apply_backward", "apply",
                             "apply.backward")
        self._patch_function("repro.core.apply", "apply_delta", "apply",
                             "apply.forward")
        self._patch_method(DiffEngine, "diff_with_stats", "engine",
                           "engine.diff", _after_diff)
        for attr in ("commit", "create", "get_version"):
            self._patch_method(VersionStore, attr, "versioning",
                               f"versioning.{attr}")
        for cls in (MemoryRepository, BackendRepository, ShardedRepository):
            for attr in ("create", "append", "load_current", "load_delta",
                         "current_version", "load_allocator", "exists",
                         "last_commit", "snapshot_versions",
                         "load_snapshot"):
                self._patch_method(cls, attr, "repository",
                                   f"repository.{attr}")
        for cls in _subclasses(StorageBackend):
            for attr in STORAGE_OPS + ("size",):
                self._patch_method(cls, attr, "storage", f"storage.{attr}",
                                   _after_storage(attr))
            original = cls.__dict__.get("batch")
            if original is not None:
                self._patches.append((cls, "batch", original))
                setattr(cls, "batch", _timed_batch(self, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _in_commit(stack) -> bool:
    return any(frame[2] == "versioning.commit" for frame in stack)


def _after_parse(args, kwargs, document, stack):
    source = args[0] if args else kwargs["source"]
    size = len(source.encode("utf-8")) if isinstance(source, str) else len(source)
    return {"parse_nodes": count_nodes(document), "parse_bytes": size}


def _after_serialize_delta(args, kwargs, text, stack):
    return {"delta_bytes": len(text.encode("utf-8"))}


def _after_diff(args, kwargs, result, stack):
    stats = result[1]
    return {
        "diff_nodes": stats.old_nodes + stats.new_nodes,
        "diff_new_nodes": stats.new_nodes,
        "diff_matched": stats.matched_nodes,
        "annotation_hits": stats.counters.get("annotation_cache_hits", 0),
        "annotation_misses": stats.counters.get(
            "annotation_cache_misses", 0
        ),
    }


def _after_storage(op):
    def after(args, kwargs, result, stack):
        extra = {f"storage.{op}": 1}
        in_commit = _in_commit(stack)
        if in_commit:
            extra[f"commit.storage.{op}"] = 1
        if op in ("put", "replace"):
            size = len(args[2] if len(args) > 2 else kwargs["data"])
            extra["bytes_written"] = size
            if in_commit:
                extra["commit.bytes_written"] = size
            if kwargs.get("label") == "delta":
                extra["delta_bytes"] = size
        return extra

    return after


def _timed_batch(probe, original):
    """``batch()`` replacement: entering and leaving the transactional
    scope (SQLite's BEGIN and COMMIT) count as storage time."""

    def batch(backend, *args, **kwargs):
        return _TimedScope(probe, original(backend, *args, **kwargs))

    return batch


class _TimedScope:
    def __init__(self, probe, scope):
        self._probe = probe
        self._scope = scope

    def __enter__(self):
        return self._probe.run("storage", "storage.batch",
                               self._scope.__enter__, (), {})

    def __exit__(self, *exc_info):
        return self._probe.run("storage", "storage.batch",
                               self._scope.__exit__, exc_info, {})


# ---------------------------------------------------------------------------
# engine stages from the program's own Tracer spans
# ---------------------------------------------------------------------------


class StageTotals:
    """Engine and ``stage:*`` span durations, summed."""

    def __init__(self):
        self.stage_s = defaultdict(float)
        self.engine_s = 0.0

    def add_span(self, name: str, duration: float) -> None:
        if name.startswith("stage:"):
            self.stage_s[name[len("stage:"):]] += duration
        elif name.startswith("engine:"):
            self.engine_s += duration

    def harvest(self, tracer) -> None:
        """Fold a Tracer's finished spans in and drop them."""
        for span in tracer.iter_spans():
            self.add_span(span.name, span.duration)
        tracer.roots.clear()

    def add_jsonl(self, lines) -> None:
        import json

        for line in lines:
            line = line.strip()
            if line:
                record = json.loads(line)
                self.add_span(record["name"], float(record["duration"]))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(probe: LayerProbe, stages: StageTotals, *, wall_s: float,
                  overhead_s: float) -> dict:
    """The per-layer metrics, as ``{name: (value, unit)}``.

    ``wall_s`` is the summed wall time of the traced operations and
    ``overhead_s`` their traced minus untraced wall time.
    """
    total = probe.fn_total
    calls = probe.fn_calls
    counts = probe.counts
    commits = calls.get("versioning.commit", 0)
    parse_s = total.get("xmlkit.parse", 0.0)
    out = {
        "xmlkit.parse_s": (parse_s, "s"),
        "xmlkit.parse_nodes": (counts.get("parse_nodes", 0), "count"),
        "xmlkit.parse_mb_per_s": (
            counts.get("parse_bytes", 0) / 1e6 / parse_s if parse_s else 0.0,
            "MB/s",
        ),
        "engine.unattributed_s": (
            max(stages.engine_s - sum(stages.stage_s.values()), 0.0), "s"
        ),
        "engine.nodes": (counts.get("diff_nodes", 0), "count"),
        "engine.matched_ratio": (
            _ratio(counts.get("diff_matched", 0),
                   counts.get("diff_new_nodes", 0)),
            "ratio",
        ),
        "engine.annotation_hits": (counts.get("annotation_hits", 0), "count"),
        "engine.annotation_misses": (
            counts.get("annotation_misses", 0), "count"
        ),
        "engine.annotation_hit_ratio": (
            _ratio(counts.get("annotation_hits", 0),
                   counts.get("annotation_hits", 0)
                   + counts.get("annotation_misses", 0)),
            "ratio",
        ),
        "deltaxml.serialize_s": (total.get("deltaxml.serialize", 0.0), "s"),
        "deltaxml.parse_s": (total.get("deltaxml.parse", 0.0), "s"),
        "deltaxml.delta_bytes": (counts.get("delta_bytes", 0), "B"),
        "apply.backward_s": (total.get("apply.backward", 0.0), "s"),
        "apply.deltas_per_read": (
            _ratio(calls.get("apply.backward", 0),
                   calls.get("versioning.get_version", 0)),
            "deltas/read",
        ),
        "versioning.commits": (commits, "count"),
        "versioning.commit_s": (total.get("versioning.commit", 0.0), "s"),
        "versioning.self_s": (probe.fn_self.get("versioning.commit", 0.0),
                              "s"),
        "repository.append_s": (total.get("repository.append", 0.0), "s"),
        "repository.load_current_s": (
            total.get("repository.load_current", 0.0), "s"
        ),
        "repository.load_delta_s": (
            total.get("repository.load_delta", 0.0), "s"
        ),
        "storage.busy_s": (probe.layer_self.get("storage", 0.0), "s"),
        "storage.ops": (
            sum(counts.get(f"storage.{op}", 0) for op in STORAGE_OPS),
            "count",
        ),
        "storage.bytes_written": (counts.get("bytes_written", 0), "B"),
        "storage.bytes_written_per_commit": (
            _ratio(counts.get("commit.bytes_written", 0), commits),
            "B/commit",
        ),
    }
    for stage in STAGES:
        out[f"engine.stage_s.{stage}"] = (stages.stage_s.get(stage, 0.0), "s")
    for op in STORAGE_OPS:
        out[f"storage.{op}_per_commit"] = (
            _ratio(counts.get(f"commit.storage.{op}", 0), commits),
            "ops/commit",
        )
    layer_sum = 0.0
    for layer in LAYERS:
        value = probe.layer_self.get(layer, 0.0)
        layer_sum += value
        out[f"{layer}.layer_self_s"] = (value, "s")
    # Filled in by the workload that runs the server; zero elsewhere.
    for route in ("diff", "commit", "version"):
        out[f"server.handler_p50_ms.{route}"] = (0.0, "ms")
    out["server.outside_handler_ms"] = (0.0, "ms")
    out["server.queue_depth_max"] = (0.0, "count")
    out["server.batch_size_mean"] = (0.0, "count")
    out["server.rejected"] = (0.0, "count")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.residual_s"] = (
        wall_s - layer_sum - probe.bookkeeping_s, "s"
    )
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
