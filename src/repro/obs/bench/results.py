"""Benchmark result payloads: schema, statistics, validation, file I/O.

One benchmark run of one experiment produces one JSON payload, written
as ``BENCH_<EXPERIMENT>.json`` (``render_text`` prints it as a table).
The payload is schema-versioned (:data:`SCHEMA`): consumers (the
``--compare`` regression gate, CI's schema check, plotting scripts)
refuse files whose ``schema`` field they do not understand instead of
misreading them.

Layout (see ``docs/benchmarks.md`` for the field-by-field reference)::

    {
      "schema": "repro.bench/1",
      "experiment": "FIG4",
      "title": "...",
      "fast": true,
      "generated_at": 1754..., "generated_at_iso": "...",
      "git_sha": "..." | null,
      "machine": {"platform": ..., "python": ..., "cpu_count": ...},
      "settings": {"repeat": 3, "warmup": 1, "trace_memory": false},
      "cases": [
        {
          "name": "nodes=2000",
          "params": {...},
          "wall_seconds": {"median":, "min":, "max":, "mean":, "iqr":,
                           "samples": [...]},
          "cpu_seconds": {...same shape...},
          "stage_seconds": {"annotate": {...same shape...}, ...},
          "stage_histogram": {...repro_stage_seconds export or null...},
          "memory_peak_bytes": 123 | null,
          "quality": {"delta_bytes": 1234, ...},
          "gated_quality": ["delta_bytes"]
        }, ...
      ],
      "summary": {...experiment-level derived figures...}
    }

Validation is hand-rolled (:func:`validate_bench_payload`) — the repo is
stdlib-only, so there is no ``jsonschema`` to lean on — and is run both
when a payload is written and by ``tools/check_bench.py`` in CI.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Optional

__all__ = [
    "HISTORY_SCHEMA",
    "SCHEMA",
    "append_history",
    "bench_filename",
    "git_sha",
    "history_record",
    "load_result",
    "machine_info",
    "stat_summary",
    "validate_bench_payload",
    "write_result",
]

#: Schema identifier embedded in every payload.  Bump the suffix on any
#: backwards-incompatible change to the layout above.
SCHEMA = "repro.bench/1"

#: Schema of one ``history.jsonl`` line (``xydiff bench --history``).
HISTORY_SCHEMA = "repro.benchhist/1"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def stat_summary(samples: list[float]) -> dict:
    """Median/min/max/mean/IQR summary of a sample list.

    The raw samples are kept in the payload — re-deriving a different
    statistic later must not require re-running the benchmark.
    """
    if not samples:
        raise ValueError("stat_summary needs at least one sample")
    ordered = sorted(float(value) for value in samples)
    return {
        "median": _quantile(ordered, 0.5),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "iqr": _quantile(ordered, 0.75) - _quantile(ordered, 0.25),
        "samples": [float(value) for value in samples],
    }


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


# ---------------------------------------------------------------------------
# environment metadata
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    """Host metadata embedded in every payload (comparability check)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 0,
    }


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit, or ``None`` outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def timestamp() -> tuple[float, str]:
    """``(epoch_seconds, iso_utc)`` for the ``generated_at`` fields."""
    now = time.time()
    iso = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now))
    return now, iso


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_SUMMARY_KEYS = ("median", "min", "max", "mean", "iqr", "samples")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_stat(problems: list[str], where: str, value) -> None:
    if not isinstance(value, dict):
        problems.append(f"{where}: expected a stat summary object")
        return
    for key in _SUMMARY_KEYS:
        if key not in value:
            problems.append(f"{where}: missing {key!r}")
        elif key == "samples":
            samples = value[key]
            if not isinstance(samples, list) or not samples or not all(
                _is_number(sample) for sample in samples
            ):
                problems.append(
                    f"{where}: 'samples' must be a non-empty number list"
                )
        elif not _is_number(value[key]):
            problems.append(f"{where}: {key!r} must be a number")


def validate_bench_payload(payload: dict) -> list[str]:
    """All schema violations in ``payload`` (empty list == valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("schema") != SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}"
        )
    experiment = payload.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        problems.append("'experiment' must be a non-empty string")
    if not isinstance(payload.get("title"), str):
        problems.append("'title' must be a string")
    if not isinstance(payload.get("fast"), bool):
        problems.append("'fast' must be a boolean")
    if not _is_number(payload.get("generated_at")):
        problems.append("'generated_at' must be a number")
    if not isinstance(payload.get("generated_at_iso"), str):
        problems.append("'generated_at_iso' must be a string")
    sha = payload.get("git_sha")
    if sha is not None and not isinstance(sha, str):
        problems.append("'git_sha' must be a string or null")
    machine = payload.get("machine")
    if not isinstance(machine, dict) or "python" not in machine:
        problems.append("'machine' must be an object with 'python'")
    settings = payload.get("settings")
    if not isinstance(settings, dict) or not all(
        isinstance(settings.get(key), int)
        for key in ("repeat", "warmup")
    ):
        problems.append(
            "'settings' must be an object with integer 'repeat'/'warmup'"
        )
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        problems.append("'summary' must be an object")

    cases = payload.get("cases")
    if not isinstance(cases, list) or not cases:
        problems.append("'cases' must be a non-empty list")
        return problems
    seen: set[str] = set()
    for index, case in enumerate(cases):
        where = f"cases[{index}]"
        if not isinstance(case, dict):
            problems.append(f"{where}: not an object")
            continue
        name = case.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: 'name' must be a non-empty string")
        elif name in seen:
            problems.append(f"{where}: duplicate case name {name!r}")
        else:
            seen.add(name)
        if not isinstance(case.get("params"), dict):
            problems.append(f"{where}: 'params' must be an object")
        _check_stat(problems, f"{where}.wall_seconds", case.get("wall_seconds"))
        _check_stat(problems, f"{where}.cpu_seconds", case.get("cpu_seconds"))
        stages = case.get("stage_seconds")
        if not isinstance(stages, dict):
            problems.append(f"{where}: 'stage_seconds' must be an object")
        else:
            for stage, value in stages.items():
                _check_stat(
                    problems, f"{where}.stage_seconds[{stage!r}]", value
                )
        peak = case.get("memory_peak_bytes")
        if peak is not None and not _is_number(peak):
            problems.append(
                f"{where}: 'memory_peak_bytes' must be a number or null"
            )
        quality = case.get("quality")
        if not isinstance(quality, dict):
            problems.append(f"{where}: 'quality' must be an object")
            quality = {}
        else:
            for key, value in quality.items():
                if not (_is_number(value) or isinstance(value, str)):
                    problems.append(
                        f"{where}: quality {key!r} must be number or string"
                    )
        gated = case.get("gated_quality")
        if not isinstance(gated, list) or not all(
            isinstance(key, str) for key in gated
        ):
            problems.append(f"{where}: 'gated_quality' must be a string list")
        else:
            for key in gated:
                if key not in quality:
                    problems.append(
                        f"{where}: gated quality key {key!r} not in 'quality'"
                    )
                elif not _is_number(quality[key]):
                    problems.append(
                        f"{where}: gated quality key {key!r} must be numeric"
                    )
        if "gate_wall" in case and not isinstance(case["gate_wall"], bool):
            problems.append(f"{where}: 'gate_wall' must be a boolean")
        if "stage_histogram" in case and case["stage_histogram"] is not None:
            if not isinstance(case["stage_histogram"], dict):
                problems.append(
                    f"{where}: 'stage_histogram' must be an object or null"
                )
    return problems


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def bench_filename(experiment: str) -> str:
    """``BENCH_<EXPERIMENT>.json`` — the trajectory file name."""
    return f"BENCH_{experiment.upper()}.json"


def write_result(payload: dict, out_dir: str = ".") -> str:
    """Validate ``payload`` and write it to ``out_dir``; returns the path.

    An invalid payload raises ``ValueError`` (listing every violation)
    rather than writing a file the regression gate would later reject.
    """
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError(
            "refusing to write invalid bench payload:\n  "
            + "\n  ".join(problems)
        )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(payload["experiment"]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_result(path: str) -> dict:
    """Read and validate a ``BENCH_*.json`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError(
            f"{path} is not a valid bench payload:\n  " + "\n  ".join(problems)
        )
    return payload


# ---------------------------------------------------------------------------
# run history (the perf trajectory across runs)
# ---------------------------------------------------------------------------


def history_record(payload: dict) -> dict:
    """One ``repro.benchhist/1`` line distilled from a bench payload.

    Only the longitudinally comparable figures survive: per-case wall
    medians and the *gated* quality keys (the ones ``--compare``
    judges).  Raw samples, stage splits and machine metadata stay in
    the full ``BENCH_*.json``.
    """
    cases = []
    for case in payload["cases"]:
        quality = case.get("quality") or {}
        gated = case.get("gated_quality") or []
        cases.append(
            {
                "name": case["name"],
                "wall_median": case["wall_seconds"]["median"],
                "quality": {
                    key: quality[key] for key in gated if key in quality
                },
            }
        )
    return {
        "schema": HISTORY_SCHEMA,
        "experiment": payload["experiment"],
        "git_sha": payload.get("git_sha"),
        "generated_at": payload["generated_at"],
        "generated_at_iso": payload.get("generated_at_iso"),
        "fast": payload.get("fast", False),
        "cases": cases,
    }


def append_history(payload: dict, history_dir: str) -> str:
    """Append one run's :func:`history_record` to
    ``history_dir/history.jsonl``; returns the file path.

    Append-only JSONL: runs accumulate across commits, and
    ``tools/bench_history.py`` renders the trend / flags sustained
    regressions.
    """
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError(
            "refusing to append invalid bench payload:\n  "
            + "\n  ".join(problems)
        )
    os.makedirs(history_dir, exist_ok=True)
    path = os.path.join(history_dir, "history.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(history_record(payload), sort_keys=True))
        handle.write("\n")
    return path
