#!/usr/bin/env python3
"""Render the bench-history trajectory and flag sustained regressions.

``xydiff bench --history DIR`` appends one ``repro.benchhist/1`` JSON
line per run to ``DIR/history.jsonl`` — per-case wall medians plus the
gated quality keys.  This tool reads that file and, per
``experiment:case`` series:

- prints a trend table (run count, oldest/newest medians, the last few
  medians, newest-vs-previous delta);
- flags a **regression** when the wall median got monotonically worse
  over the last ``--runs`` runs *and* the cumulative slowdown exceeds
  ``--threshold`` percent — one noisy run never trips it, a sustained
  drift does;
- flags any gated quality key whose newest value differs from the
  previous run (quality keys are deterministic, so any drift is real).

Exit code 1 with ``--fail-on-regression`` when something is flagged,
else 0.  Unreadable input exits 2.

Usage::

    python tools/bench_history.py bench_artifacts/history.jsonl
    python tools/bench_history.py HISTORY --runs 3 --threshold 5 \
        --fail-on-regression
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "repro.benchhist/1"

#: Medians shown per series in the trend table.
SHOWN = 5


def load_history(path: str) -> list[dict]:
    """Parse ``history.jsonl``; skips blank lines, rejects bad schema."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: not JSON: {error}")
            if record.get("schema") != SCHEMA:
                raise ValueError(
                    f"{path}:{number}: schema is "
                    f"{record.get('schema')!r}, expected {SCHEMA!r}"
                )
            records.append(record)
    return records


def build_series(records: list[dict]) -> dict:
    """``"EXP:case" -> list of (wall_median, quality, git_sha)`` in
    file (= chronological) order."""
    series: dict[str, list[tuple]] = {}
    for record in records:
        for case in record.get("cases", []):
            key = f"{record['experiment']}:{case['name']}"
            series.setdefault(key, []).append(
                (
                    float(case["wall_median"]),
                    case.get("quality") or {},
                    record.get("git_sha"),
                )
            )
    return series


def detect_regression(
    medians: list[float], runs: int, threshold_pct: float
) -> bool:
    """True when the last ``runs`` medians are strictly increasing and
    the total increase across them exceeds ``threshold_pct``."""
    if runs < 2 or len(medians) < runs:
        return False
    window = medians[-runs:]
    for older, newer in zip(window, window[1:]):
        if newer <= older:
            return False
    if window[0] <= 0:
        return False
    return (window[-1] / window[0] - 1.0) * 100.0 > threshold_pct


def quality_drifts(points: list[tuple]) -> list[str]:
    """Gated quality keys whose newest value differs from the previous
    run's."""
    if len(points) < 2:
        return []
    previous, newest = points[-2][1], points[-1][1]
    return sorted(
        key
        for key in newest
        if key in previous and newest[key] != previous[key]
    )


def render(series: dict, runs: int, threshold_pct: float) -> tuple[str, int]:
    """``(report_text, flagged_count)`` for every series."""
    width = max((len(key) for key in series), default=4)
    lines = [
        f"{'case':<{width}}  runs  {'oldest':>10}  {'newest':>10}  "
        f"{'delta':>8}  recent medians"
    ]
    flagged = 0
    for key in sorted(series):
        points = series[key]
        medians = [point[0] for point in points]
        delta = "—"
        if len(medians) >= 2 and medians[-2] > 0:
            delta = f"{(medians[-1] / medians[-2] - 1.0) * 100.0:+.1f}%"
        recent = " ".join(f"{value:.4f}" for value in medians[-SHOWN:])
        marks = []
        if detect_regression(medians, runs, threshold_pct):
            marks.append(
                f"REGRESSION ({runs} runs, "
                f"+{(medians[-1] / medians[-runs] - 1.0) * 100.0:.1f}%)"
            )
        drifts = quality_drifts(points)
        if drifts:
            marks.append("quality drift: " + ", ".join(drifts))
        if marks:
            flagged += 1
        suffix = ("  <-- " + "; ".join(marks)) if marks else ""
        lines.append(
            f"{key:<{width}}  {len(points):>4}  {medians[0]:>10.4f}  "
            f"{medians[-1]:>10.4f}  {delta:>8}  {recent}{suffix}"
        )
    lines.append(
        f"summary: series={len(series)} flagged={flagged} "
        f"(window={runs} runs, threshold={threshold_pct:g}%)"
    )
    return "\n".join(lines), flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="render a bench history.jsonl trend table and flag "
                    "sustained regressions"
    )
    parser.add_argument("history", help="path to history.jsonl")
    parser.add_argument("--runs", type=int, default=3, metavar="N",
                        help="consecutive worsening runs that count as a "
                             "regression (default 3)")
    parser.add_argument("--threshold", type=float, default=5.0,
                        metavar="PCT",
                        help="cumulative slowdown across the window that "
                             "trips the flag (default 5)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any series is flagged")
    args = parser.parse_args(argv)

    try:
        records = load_history(args.history)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not records:
        print(f"{args.history}: no runs recorded yet")
        return 0
    series = build_series(records)
    report, flagged = render(series, args.runs, args.threshold)
    print(report)
    if flagged and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
