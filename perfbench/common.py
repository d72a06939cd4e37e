"""Shared helpers: timing summaries, process memory, scratch space, checks."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import repeat

#: The benchmark's directory, and the root of the checkout above it.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, traces and logs; removed after every run.
WORK = os.path.join(ROOT, ".perfbench_work")

#: Modules a cold start of the program imports (timed as part of set-up).
IMPORT_PROBE = (
    "import repro, repro.core.deltaxml, repro.versioning, "
    "repro.storage, repro.simulator"
)

#: Write policy of every store the benchmark opens (the CLI default).
DURABILITY = "none"

#: Serialized bytes per generated node, the sizing rule ``WebCorpus`` uses.
BYTES_PER_NODE = 55


class CheckFailed(Exception):
    """A program output did not match what the benchmark expected."""


def src_env() -> dict:
    """Environment for a child process that runs the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def make_workdir(prefix: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass  # another run's directory is still there, or already gone


def cold_import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=src_env(),
        check=True,
        timeout=60,
    )
    return time.perf_counter() - started


def web_texts(seed: int, count: int, min_bytes: int, max_bytes: int):
    """``count`` web-like documents as ``(document_seed, xml_text)``.

    The documents are drawn like ``repro.simulator.WebCorpus`` draws
    them (same generator, same per-document shape parameters, sizes
    log-uniform between the bounds), except that the sizes are
    stratified: document ``i`` takes one draw from its own slice of the
    log range, and the slices are dealt out in a seeded order.
    ``WebCorpus`` draws every size independently, which moves the median
    size of 400 documents by about 12% from one seed to the next; here
    every seed has the same size mix and the seed changes the content.
    """
    import repro
    from repro.simulator import GeneratorConfig, generate_document

    log_min, log_max = math.log(min_bytes), math.log(max_bytes)
    width = (log_max - log_min) / count
    slots = list(range(count))
    random.Random(f"sizes:{seed}").shuffle(slots)
    out = []
    for index, slot in enumerate(slots):
        doc_seed = seed * 10_000 + index
        rng = random.Random(doc_seed)
        target_bytes = math.exp(log_min + (slot + rng.random()) * width)
        document = generate_document(GeneratorConfig(
            target_nodes=max(8, int(target_bytes / BYTES_PER_NODE)),
            max_depth=rng.randint(4, 10),
            max_fanout=rng.randint(3, 10),
            labels_per_depth=rng.randint(2, 6),
            text_probability=rng.uniform(0.3, 0.6),
            long_text_probability=rng.uniform(0.02, 0.15),
            seed=doc_seed,
        ))
        out.append((doc_seed, repro.serialize(document)))
    return out


def next_week(text: str, seed: int) -> str:
    """The next weekly version of a document under the web change profile.

    Works from the text, so the benchmark keeps no document trees alive
    between weeks (they would add to every garbage collection the
    program's operations pay for).
    """
    import repro
    from repro.simulator import simulate_changes, weekly_change_profile

    result = simulate_changes(repro.parse(text), weekly_change_profile(seed))
    return repro.serialize(result.new_document)


def settle() -> None:
    """Collect the benchmark's own garbage before a timed phase."""
    gc.collect()


#: Work of one reference slice: lookups in a 256-byte table and
#: arithmetic on bytes, which stays among the small integers CPython
#: keeps preallocated.  It allocates nothing, so neither the state of the
#: program's heap nor its garbage collections touch it, and it touches
#: neither.
_REF_TABLE = bytes((i * 167 + 13) % 256 for i in range(256))
_REF_ROUNDS = 30_000
#: Wall time of one reference slice at the benchmark's nominal CPU speed.
#: On a 2-core Xeon sandbox the slice took 1.8 to 3.0 ms, as the host's
#: load came and went; scaled times read in ms or s at a round value
#: between.
REF_NOMINAL_S = 0.0025
#: Longest time between two reference slices.
SLICE_EVERY_S = 0.05


def pin_to_one_cpu() -> int:
    """Confine this thread, and every thread or process it starts from
    now on, to one CPU (the highest-numbered one it may use); returns it.

    The workloads are sequential: one thread in-process, or one
    closed-loop connection whose server works only while the client
    waits.  On one CPU every hand-over between them is a switch on that
    CPU rather than a wake-up across CPUs, and the reference slices of
    :class:`SpeedGauge` time the CPU that does all the work.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_slice() -> float:
    """Run the reference work once and return its wall time."""
    table = _REF_TABLE
    key = total = 1
    started = time.perf_counter()
    for _ in repeat(None, _REF_ROUNDS):
        key = table[key ^ total]
        total = (total + key) & 0xFF
    return time.perf_counter() - started


class SpeedGauge:
    """Scales the timed operations of a run to a nominal CPU speed.

    A shared host's CPU speed drifts by tens of percent over seconds to
    minutes, with the load of whatever shares its cores and caches, and
    that drift moved whole runs further apart than a regression bound.
    The gauge times a fixed reference slice (:func:`reference_slice`,
    work that owes nothing to the program) between operations, at least
    every ``SLICE_EVERY_S`` seconds, in the same thread.  An operation's scaled
    time is its wall time times ``REF_NOMINAL_S`` over the local slice
    time: the median of the two slices before it and the two after it,
    so one slice that the host stalled does not count.  The program and
    the reference slow down together, so the scaled time stays put while
    the host drifts.
    """

    def __init__(self):
        self.refs = [reference_slice()]
        self.last = time.perf_counter()
        #: kind -> [(index of the reference slice before it, seconds)]
        self.samples: dict[str, list[tuple[int, float]]] = {}

    def tick(self, force: bool = False) -> None:
        """Between operations: time a reference slice if one is due."""
        if force or time.perf_counter() - self.last >= SLICE_EVERY_S:
            self.refs.append(reference_slice())
            self.last = time.perf_counter()

    def add(self, kind: str, seconds: float) -> None:
        """Record one operation's wall time."""
        self.samples.setdefault(kind, []).append((len(self.refs) - 1,
                                                  seconds))

    def timed(self, kind: str, fn):
        """Call ``fn()``, record its wall time, then tick; its result."""
        started = time.perf_counter()
        result = fn()
        self.add(kind, time.perf_counter() - started)
        self.tick()
        return result

    def finish(self) -> None:
        """Time the slice after the last operation."""
        self.tick(force=True)

    def scaled(self, kind: str) -> list[float]:
        """Every recorded time of ``kind``, scaled to the nominal speed
        (after :meth:`finish`)."""
        refs = self.refs
        return [seconds * REF_NOMINAL_S
                / statistics.median(refs[max(0, i - 1):i + 3])
                for i, seconds in self.samples.get(kind, [])]

    def speed(self) -> float:
        """Median host speed over the run, relative to nominal (info)."""
        return REF_NOMINAL_S / statistics.median(self.refs)


def percentile(values, q: float) -> float:
    """Inclusive-method percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[int(q) - 1]


def latency_metrics(prefix: str, seconds: list[float]) -> dict:
    """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` of a latency sample."""
    if not seconds:
        raise CheckFailed(f"no {prefix} operations completed")
    return {
        f"{prefix}_p50_ms": (statistics.median(seconds) * 1000.0, "ms"),
        f"{prefix}_p99_ms": (percentile(seconds, 99) * 1000.0, "ms"),
    }


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def count_nodes(document) -> int:
    """Nodes of a parsed document, the document node excluded."""
    count = 0
    stack = list(document.children)
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def emit(payload: dict) -> None:
    """Print one JSON line to standard output."""
    print(json.dumps(payload, sort_keys=True), flush=True)


def metrics_block(values: dict) -> dict:
    """``{name: (value, unit)}`` -> the result's ``metrics`` object."""
    return {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in sorted(values.items())
    }
