"""serve-mixed: a small-body request mix against ``xydiff serve``.

The server runs in its own process (``python3 -m repro serve --repo
s=sqlite://...``, ``durability=none``).  This process is the load
generator: one thread holding one keep-alive ``DiffClient(retries=0)``
connection runs a closed loop (the next request goes out when the
previous answer is in), so every failure counts.  With one connection
the server works only while the client waits, so the whole run fits on
the one CPU ``run.py`` confines it to, and the scheduler does not set
the tail latencies.  The seeded mix is about

- 60% ``POST /diff`` of a pool of 512 web-document pairs (400 B-20 KB);
- 25% ``POST /repos/s/commit`` over a hot set of 64 documents of
  400 B-10 KB (fits the server's 128-entry annotation LRU), each cycling
  through six seeded versions, committed in a seeded cyclic order;
- 15% ``GET /repos/s/docs/{doc}/versions/{n}``, zero to three versions
  behind the current one.

Each kind of request cycles through its inputs in a seeded order.

A fixed, seeded warm-up precedes the timed window; the store ratio is
taken at its end (a fixed point of the plan, whatever the speed), the
delta ratio over the whole pool.

Correctness: every ``/diff`` delta applies to its old side and gives the
new side, commits acknowledge consecutive versions, and reads return the
document committed as that version.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from common import (
    DURABILITY,
    HERE,
    CheckFailed,
    SpeedGauge,
    latency_metrics,
    make_workdir,
    next_week,
    remove_workdir,
    settle,
    src_env,
    vm_hwm_mb,
    web_texts,
)

MIN_BYTES = 400
MAX_BYTES = 20_000
#: With hot documents up to 20 KB, about 1% of commits were slowed by a
#: garbage collection in the server, so ``commit_p99_ms`` fell among them
#: in some runs and below them in others.  Up to 10 KB, a commit makes
#: fewer objects and fewer commits meet a collection, and the p99 stays
#: among the commits of the largest documents.
HOT_MAX_BYTES = 10_000
MIX = (("diff", 0.60), ("commit", 0.25), ("read", 0.15))
HOT_VERSIONS = 6
MAX_READ_DEPTH = 3
SETUP_REPEATS = 3
STORE = "s"
READY_TIMEOUT = 60.0


@dataclass(frozen=True)
class Scale:
    pool: int = 512
    hot_docs: int = 64
    #: Requests in the warm-up (the byte-ratio checkpoint).
    warmup: int = 600
    #: Requests in the traced run's fixed plan.
    plan: int = 1200


FULL = Scale()
TINY = Scale(pool=6, hot_docs=6, warmup=40, plan=60)


def properties(scale: Scale, seed: int) -> dict:
    return {
        "mix": {name: share for name, share in MIX},
        "diff_pool_pairs": scale.pool,
        "hot_docs": scale.hot_docs,
        "annotation_lru_entries": 128,
        "size_bytes": f"log-uniform {MIN_BYTES}-{MAX_BYTES}, stratified",
        "hot_size_bytes": f"log-uniform {MIN_BYTES}-{HOT_MAX_BYTES}, "
                          "stratified",
        "loop": "closed, 1 keep-alive DiffClient(retries=0) connection, "
                "one load-generator thread",
        "server": f"xydiff serve --repo {STORE}=sqlite://",
        "warmup_requests": scale.warmup,
        "durability": DURABILITY,
        "seed": seed,
    }


class Inputs:
    """The diff pool and the hot set's version texts."""

    def __init__(self, seed: int, scale: Scale):
        pool = web_texts(2 * seed, scale.pool, MIN_BYTES, MAX_BYTES)
        self.pairs = [(text, next_week(text, doc_seed + 7_000))
                      for doc_seed, text in pool]
        self.versions = {}
        hot = web_texts(2 * seed + 1, scale.hot_docs, MIN_BYTES,
                        HOT_MAX_BYTES)
        for index, (doc_seed, text) in enumerate(hot):
            texts = [text]
            for week in range(1, HOT_VERSIONS):
                texts.append(next_week(texts[-1], doc_seed + 7_000 + week))
            self.versions[f"hot-{index:03d}"] = texts

    def text(self, doc_id: str, version: int) -> str:
        """The text committed as ``version`` (1-based) of ``doc_id``."""
        return self.versions[doc_id][(version - 1) % HOT_VERSIONS]


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """``xydiff serve`` in a child process, on an ephemeral port."""

    def __init__(self, workdir: str, name: str, *, probe_out=None,
                 trace_dir=None):
        self.log_path = os.path.join(workdir, f"{name}.stderr")
        argv = ["serve", "--port", "0", "--durability", DURABILITY,
                "--repo", f"{STORE}=sqlite://{workdir}/{name}.sqlite"]
        if trace_dir is not None:
            argv += ["--trace-sample", "1", "--trace-dir", trace_dir]
        if probe_out is not None:
            command = [sys.executable, os.path.join(HERE, "serve_probed.py"),
                       probe_out, *argv]
        else:
            command = [sys.executable, "-m", "repro", *argv]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                command, env=src_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.url = self._wait_for_url()
        split = urlsplit(self.url)
        self.host, self.port = split.hostname, split.port

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as log:
                found = re.search(r"serving on (http://\S+)", log.read())
            if found:
                return found.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.log_path, encoding="utf-8") as log:
            raise RuntimeError(f"server did not start:\n{log.read()}")

    def get_text(self, path: str) -> str:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            if response.status != 200:
                raise RuntimeError(f"GET {path}: {response.status}")
            return body
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def start_and_load(workdir: str, name: str, inputs: Inputs, gauge=None,
                   kind: str = "setup", **kwargs):
    """Start a server, wait until it answers, create the hot set; with a
    ``gauge``, the start and each request are ``kind`` operations."""
    from repro.client import DiffClient

    def call(fn):
        return fn() if gauge is None else gauge.timed(kind, fn)

    server = call(lambda: Server(workdir, name, **kwargs))
    try:
        with DiffClient(server.url, retries=0, timeout=60) as client:
            call(client.healthz)
            for doc_id in inputs.versions:
                reply = call(lambda: client.commit(
                    STORE, doc_id, inputs.text(doc_id, 1)))
                if reply.get("version") != 1:
                    raise CheckFailed(f"create of {doc_id} acked {reply}")
    except BaseException:
        server.stop()
        raise
    return server


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------


class Connection:
    """The closed-loop client: a seeded op stream over one connection.

    With a ``gauge``, each request's latency is also recorded there, and
    a reference slice is timed between requests when one is due.
    """

    def __init__(self, seed: int, url: str, inputs: Inputs):
        from repro.client import DiffClient

        self.client = DiffClient(url, retries=0, timeout=60)
        self.inputs = inputs
        self.gauge = None
        self.rng = random.Random(f"serve:{seed}")
        self.docs = sorted(inputs.versions)
        self.version = {doc: 1 for doc in self.docs}
        # Every request kind cycles through its inputs in a seeded order
        # (reads also through the depths 0..MAX_READ_DEPTH), so every pair,
        # document and depth is sent equally often: the work per request
        # does not depend on the seed's luck.
        self.pair_order = list(range(len(inputs.pairs)))
        self.rng.shuffle(self.pair_order)
        self.commit_order = list(self.docs)
        self.rng.shuffle(self.commit_order)
        self.read_order = list(self.docs)
        self.rng.shuffle(self.read_order)
        self.sent = {name: 0 for name, _ in MIX}
        self.reset()
        # Outputs kept for the checks after the timed window.
        self.deltas: set[tuple[int, str]] = set()
        self.reads: set[tuple[str, int, str]] = set()
        self.errors: list[str] = []
        self.failed = 0

    def reset(self) -> None:
        self.samples = {name: [] for name, _ in MIX}
        self.input_bytes = 0
        self.committed_bytes = 0

    def step(self) -> None:
        kind = self.rng.choices([n for n, _ in MIX], [w for _, w in MIX])[0]
        turn = self.sent[kind]
        self.sent[kind] += 1
        if kind == "diff":
            index = self.pair_order[turn % len(self.pair_order)]
            old, new = self.inputs.pairs[index]
            reply = self._call(kind, self.client.diff, old, new)
            if reply is not None:
                self.deltas.add((index, reply["delta"]))
                self.input_bytes += len(old.encode()) + len(new.encode())
            return
        if not self.docs:
            raise RuntimeError("every hot document failed")
        if kind == "commit":
            doc = self.commit_order[turn % len(self.commit_order)]
            if doc not in self.docs:
                return
            target = self.version[doc] + 1
            text = self.inputs.text(doc, target)
            reply = self._call(kind, self.client.commit, STORE, doc, text)
            if reply is None:
                # Unknown outcome: leave the document alone from now on.
                self.docs.remove(doc)
                return
            if reply.get("version") != target:
                raise CheckFailed(f"commit of {doc} acked version "
                                  f"{reply.get('version')}, not {target}")
            self.version[doc] = target
            self.input_bytes += len(text.encode())
            self.committed_bytes += len(text.encode())
            return
        doc = self.read_order[turn % len(self.read_order)]
        if doc not in self.docs:
            return
        depth = turn // len(self.read_order) % (MAX_READ_DEPTH + 1)
        version = max(1, self.version[doc] - depth)
        reply = self._call(kind, self.client.get_version, STORE, doc,
                           version)
        if reply is not None:
            self.reads.add((doc, version, reply["xml"]))

    def _call(self, kind, fn, *args):
        started = time.perf_counter()
        try:
            reply = fn(*args)
        except Exception as error:  # a failed request counts, then goes on
            self.failed += 1
            self.errors.append(f"{kind}: {error}")
            return None
        elapsed = time.perf_counter() - started
        self.samples[kind].append(elapsed)
        if self.gauge is not None:
            self.gauge.add(kind, elapsed)
        return reply

    def close(self) -> None:
        self.client.close()


def drive(connection: Connection, *, requests=None, seconds=None) -> float:
    """Run the closed loop; returns its wall time.  Stops after
    ``requests`` or once ``seconds`` have passed."""
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    count = 0
    while requests is None or count < requests:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        connection.step()
        count += 1
        if connection.gauge is not None:
            connection.gauge.tick()
    return time.perf_counter() - started


def check_outputs(connection: Connection, inputs: Inputs) -> None:
    """Every delta applies to its old side; every read is what was
    committed as that version."""
    import repro
    from repro.core.apply import apply_delta
    from repro.core.deltaxml import parse_delta
    from repro.core.xid import assign_initial_xids

    for index, delta_text in connection.deltas:
        old_text, new_text = inputs.pairs[index]
        old = repro.parse(old_text)
        assign_initial_xids(old)
        try:
            applied = apply_delta(parse_delta(delta_text), old, verify=True)
        except Exception as error:  # any failure to apply is a bad delta
            raise CheckFailed(f"/diff delta for pair {index} does not "
                              f"apply: {error}") from error
        if not applied.deep_equal(repro.parse(new_text)):
            raise CheckFailed(f"/diff delta for pair {index} does not "
                              "give the new side")
    for doc, version, xml in connection.reads:
        if not repro.parse(xml).deep_equal(
            repro.parse(inputs.text(doc, version))
        ):
            raise CheckFailed(f"read of {doc} v{version} differs from "
                              "the committed text")


def store_ratio(server: Server, connection: Connection,
                inputs: Inputs) -> tuple:
    """Store bytes per byte committed, at the end of the warm-up."""
    report = json.loads(server.get_text(f"/repos/{STORE}/statz"))
    created = sum(len(inputs.text(doc, 1).encode()) for doc in inputs.versions)
    return (report["bytes_total"] / (created + connection.committed_bytes),
            "ratio")


def delta_ratio(connection: Connection, inputs: Inputs) -> tuple:
    """Delta bytes per new-side byte over every pair of the pool.

    The timed window sends each pair many times; a pair it missed (a very
    slow run) is diffed here, untimed, so the ratio covers the whole pool.
    """
    deltas = dict(connection.deltas)
    for index, (old, new) in enumerate(inputs.pairs):
        if index not in deltas:
            deltas[index] = connection.client.diff(old, new)["delta"]
            connection.deltas.add((index, deltas[index]))
    delta = sum(len(text.encode()) for text in deltas.values())
    new = sum(len(pair[1].encode()) for pair in inputs.pairs)
    return delta / new, "ratio"


def _setup(workdir, inputs, gauge):
    """Start the server SETUP_REPEATS times; keep the last one.  Returns
    it and the median scaled set-up time."""
    server = None
    setups = [f"setup-{attempt}" for attempt in range(SETUP_REPEATS)]
    for attempt, kind in enumerate(setups):
        if server is not None:
            server.stop()
        gauge.tick(force=True)
        server = start_and_load(workdir, f"store-{attempt}", inputs, gauge,
                                kind)
    gauge.tick(force=True)
    return server, statistics.median(sum(gauge.scaled(kind))
                                     for kind in setups)


def run(seed: int, seconds: float, scale: Scale = FULL) -> dict:
    workdir = make_workdir("serve-")
    server = None
    connection = None
    try:
        inputs = Inputs(seed, scale)
        gauge = SpeedGauge()
        server, setup_s = _setup(workdir, inputs, gauge)
        connection = Connection(seed, server.url, inputs)
        drive(connection, requests=scale.warmup)
        store_bytes = store_ratio(server, connection, inputs)
        connection.reset()
        settle()
        failed_before = connection.failed
        connection.gauge = gauge
        gauge.tick(force=True)
        wall = drive(connection, seconds=seconds)
        gauge.finish()
        connection.gauge = None
        delta_bytes = delta_ratio(connection, inputs)
        peak = server.peak_rss_mb()
        check_outputs(connection, inputs)
        scaled = {name: gauge.scaled(name) for name, _ in MIX}
        busy = sum(map(sum, scaled.values()))
        done = sum(map(len, scaled.values()))
        failed = connection.failed - failed_before
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (done / busy, "1/s"),
            "input_mb_per_s": (connection.input_bytes / 1e6 / busy, "MB/s"),
            "peak_rss_mb": (peak, "MB"),
            "store_bytes_per_input_byte": store_bytes,
            "delta_bytes_per_input_byte": delta_bytes,
        }
        for name, values in scaled.items():
            metrics.update(latency_metrics(name, values))
        return {
            "metrics": metrics,
            "attempted": done + failed,
            "failed": failed,
            "info": {
                "samples": {name: len(v) for name, v in scaled.items()},
                "errors": connection.errors[:5],
                "host_speed": gauge.speed(),
                "window_s": wall,
                "properties": properties(scale, seed),
            },
        }
    finally:
        if connection is not None:
            connection.close()
        if server is not None:
            server.stop()
        remove_workdir(workdir)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def parse_metrics(text: str) -> dict:
    """Prometheus text -> ``{(name, ((label, value), ...)): value}``."""
    series = {}
    pattern = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})? (\S+)$")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        found = pattern.match(line)
        if found is None:
            continue
        name, labels, value = found.groups()
        pairs = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', labels or "")))
        series[(name, pairs)] = float(value)
    return series


def _delta(after: dict, before: dict, name: str, **match) -> dict:
    """Series of ``name`` whose labels include ``match``, after - before."""
    out = {}
    for (series_name, labels), value in after.items():
        if series_name != name:
            continue
        label_map = dict(labels)
        if any(label_map.get(k) != v for k, v in match.items()):
            continue
        out[labels] = value - before.get((series_name, labels), 0.0)
    return out


def handler_p50_ms(after: dict, before: dict, route: str) -> float:
    """Median of ``repro_server_request_seconds{route}`` over the plan,
    interpolated inside its histogram bucket."""
    buckets = sorted(
        (float(dict(labels)["le"]), count)
        for labels, count in _delta(after, before,
                                    "repro_server_request_seconds_bucket",
                                    route=route).items()
    )
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    half = buckets[-1][1] / 2.0
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= half:
            if bound == float("inf"):
                return lower_bound * 1000.0
            share = (half - lower_count) / max(count - lower_count, 1e-12)
            return (lower_bound + share * (bound - lower_bound)) * 1000.0
        lower_bound, lower_count = bound, count
    return lower_bound * 1000.0


def server_metrics(before: dict, after: dict, connection: Connection,
                   queue_max: float) -> dict:
    routes = {"diff": "diff", "commit": "commit", "read": "version"}
    handler_sum = handler_count = 0.0
    for route in routes.values():
        handler_sum += sum(_delta(after, before,
                                  "repro_server_request_seconds_sum",
                                  route=route).values())
        handler_count += sum(_delta(after, before,
                                    "repro_server_request_seconds_count",
                                    route=route).values())
    client = [value for values in connection.samples.values()
              for value in values]
    batch_sum = sum(_delta(after, before,
                           "repro_server_pool_batch_size_sum").values())
    batch_count = sum(_delta(after, before,
                             "repro_server_pool_batch_size_count").values())
    out = {
        f"server.handler_p50_ms.{route}": (
            handler_p50_ms(after, before, route), "ms")
        for route in routes.values()
    }
    out["server.outside_handler_ms"] = (
        (statistics.fmean(client) - handler_sum / max(handler_count, 1))
        * 1000.0, "ms")
    out["server.queue_depth_max"] = (queue_max, "count")
    out["server.batch_size_mean"] = (
        batch_sum / batch_count if batch_count else 0.0, "count")
    out["server.rejected"] = (
        sum(_delta(after, before, "repro_server_rejected_total").values()),
        "count")
    return out


class QueuePoller(threading.Thread):
    """Samples the server's queue-depth gauge while the plan runs."""

    def __init__(self, server: Server):
        super().__init__()
        self.server = server
        self.stopping = threading.Event()
        self.maximum = 0.0

    def run(self) -> None:
        while not self.stopping.wait(0.025):
            series = parse_metrics(self.server.get_text("/metrics"))
            depth = sum(v for (name, _), v in series.items()
                        if name == "repro_server_queue_depth")
            self.maximum = max(self.maximum, depth)


def run_traced(seed: int, seconds: float, scale: Scale = FULL) -> dict:
    """The fixed plan on a plain server, then on a traced, probed one."""
    from probes import LayerProbe, StageTotals, layer_metrics

    workdir = make_workdir("serve-trace-")
    servers = []
    connection = None
    try:
        inputs = Inputs(seed, scale)
        trace_dir = os.path.join(workdir, "traces")
        probe_out = os.path.join(workdir, "probe.json")
        walls = []
        for traced in (False, True):
            extra = {"probe_out": probe_out, "trace_dir": trace_dir} \
                if traced else {}
            server = start_and_load(workdir, f"trace-{traced}", inputs,
                                    **extra)
            servers.append(server)
            connection = Connection(seed, server.url, inputs)
            drive(connection, requests=scale.warmup)
            connection.reset()
            if traced:
                time.sleep(0.1)  # let the last warm-up trace reach the file
                trace_file = os.path.join(trace_dir, "traces.jsonl")
                offset = os.path.getsize(trace_file)
                server.proc.send_signal(signal.SIGUSR1)  # zero the probes
                time.sleep(0.1)
                before = parse_metrics(server.get_text("/metrics"))
                poller = QueuePoller(server)
                poller.start()
            try:
                walls.append(drive(connection, requests=scale.plan))
            finally:
                if traced:
                    poller.stopping.set()
                    poller.join()
            check_outputs(connection, inputs)
            if not traced:
                connection.close()
                server.stop()
        after = parse_metrics(server.get_text("/metrics"))
        server.stop()
        with open(probe_out, encoding="utf-8") as handle:
            probe = LayerProbe.from_dict(json.load(handle))
        stages = StageTotals()
        with open(trace_file, encoding="utf-8") as handle:
            handle.seek(offset)
            stages.add_jsonl(handle)
        client_wall = sum(map(sum, connection.samples.values()))
        metrics = layer_metrics(probe, stages, wall_s=client_wall,
                                overhead_s=walls[1] - walls[0])
        metrics.update(server_metrics(before, after, connection,
                                      poller.maximum))
        return {
            "metrics": metrics,
            "attempted": scale.plan,
            "failed": connection.failed,
            "info": {"properties": properties(scale, seed),
                     "untraced_wall_s": walls[0], "traced_wall_s": walls[1]},
        }
    finally:
        if connection is not None:
            connection.close()
        for server in servers:
            server.stop()
        remove_workdir(workdir)
