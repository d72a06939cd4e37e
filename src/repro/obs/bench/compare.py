"""The regression gate: diff two benchmark payloads, flag slowdowns.

``compare_payloads(old, new)`` lines up the two payloads case by case
and produces one row per gated measurement:

- **time** — the case's median wall seconds.  A regression is a relative
  increase beyond ``threshold``; medians under ``min_seconds`` on both
  sides are never gated (sub-millisecond timings on shared CI hardware
  are noise, not signal).
- **quality** — every key the case lists in ``gated_quality``
  (lower-is-better by convention: delta bytes, cost ratios).  Quality is
  deterministic in this repo (seeded generators), so no noise floor
  applies.
- **presence** — a case of the old payload that the new payload lacks
  is a regression too: renaming or dropping a gated case must not pass
  the gate.  Cases only the new payload has are listed, never gated.

The report renders as the table behind ``xydiff bench --compare`` and
drives its exit code: 0 clean, 1 at least one regression, 2 unusable
input (schema mismatch, different experiments) — the same contract CI's
``perf-smoke`` job relies on (see ``docs/benchmarks.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CompareError",
    "ComparisonReport",
    "ComparisonRow",
    "compare_payloads",
    "render_comparison",
]

#: Time regressions below this many median seconds (on both sides) are
#: reported but never gate — timer noise dominates down there.
DEFAULT_MIN_SECONDS = 0.001

#: Default relative-change gate (25%): wide enough for shared-runner
#: jitter on real workloads, tight enough to catch a lost optimization.
DEFAULT_THRESHOLD = 0.25


class CompareError(ValueError):
    """The two payloads cannot be meaningfully compared."""


@dataclass
class ComparisonRow:
    """One gated measurement of one case, old vs new."""

    case: str
    metric: str  # "wall median" or "quality:<key>"
    old: float
    new: float
    change: float  # relative: (new - old) / old
    regression: bool
    note: str = ""


@dataclass
class ComparisonReport:
    """Everything ``--compare`` prints plus the gate verdict."""

    experiment: str
    threshold: float
    rows: list[ComparisonRow] = field(default_factory=list)
    missing_cases: list[str] = field(default_factory=list)  # old only
    added_cases: list[str] = field(default_factory=list)  # new only
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[ComparisonRow]:
        return [row for row in self.rows if row.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing_cases


def compare_payloads(
    old: dict,
    new: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> ComparisonReport:
    """Compare two validated payloads of the *same* experiment.

    Raises :class:`CompareError` when the experiments differ — comparing
    FIG4 against FIG6 is a usage error, not a clean result.
    """
    if old.get("experiment") != new.get("experiment"):
        raise CompareError(
            f"experiment mismatch: {old.get('experiment')!r} vs "
            f"{new.get('experiment')!r}"
        )
    if threshold <= 0:
        raise CompareError("threshold must be positive")
    report = ComparisonReport(
        experiment=new["experiment"], threshold=threshold
    )
    if old.get("fast") != new.get("fast"):
        report.notes.append(
            "tier mismatch (one side --fast): timings are not comparable "
            "across tiers; rows are informational only"
        )
    old_cases = {case["name"]: case for case in old["cases"]}
    new_cases = {case["name"]: case for case in new["cases"]}
    report.missing_cases = [
        name for name in old_cases if name not in new_cases
    ]
    report.added_cases = [name for name in new_cases if name not in old_cases]
    tiers_match = old.get("fast") == new.get("fast")

    for name, new_case in new_cases.items():
        old_case = old_cases.get(name)
        if old_case is None:
            continue
        old_wall = old_case["wall_seconds"]["median"]
        new_wall = new_case["wall_seconds"]["median"]
        change = _relative_change(old_wall, new_wall)
        below_floor = old_wall < min_seconds and new_wall < min_seconds
        # Both sides must opt in: a case that declared its timing
        # fault-dominated (gate_wall false) stays informational even
        # against an older baseline that predates the field.
        wall_gated = old_case.get("gate_wall", True) and new_case.get(
            "gate_wall", True
        )
        note = ""
        if below_floor:
            note = "below noise floor"
        elif not wall_gated:
            note = "informational"
        report.rows.append(
            ComparisonRow(
                case=name,
                metric="wall median",
                old=old_wall,
                new=new_wall,
                change=change,
                regression=(
                    tiers_match
                    and wall_gated
                    and not below_floor
                    and change > threshold
                ),
                note=note,
            )
        )
        gated = set(old_case.get("gated_quality", [])) & set(
            new_case.get("gated_quality", [])
        )
        for key in sorted(gated):
            old_value = old_case["quality"][key]
            new_value = new_case["quality"][key]
            change = _relative_change(old_value, new_value)
            report.rows.append(
                ComparisonRow(
                    case=name,
                    metric=f"quality:{key}",
                    old=old_value,
                    new=new_value,
                    change=change,
                    regression=change > threshold,
                )
            )
    return report


def _relative_change(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / old


def render_comparison(report: ComparisonReport) -> str:
    """The human-readable regression table."""
    lines = [
        f"{report.experiment} — old vs new "
        f"(gate: +{report.threshold:.0%} on wall median and gated quality)",
        "",
    ]
    header = (
        f"{'case':<28} {'metric':<22} {'old':>12} {'new':>12} "
        f"{'change':>8}  verdict"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        verdict = "REGRESSION" if row.regression else (
            "improved" if row.change < -report.threshold else "ok"
        )
        if row.note:
            verdict += f" ({row.note})"
        old, new = _format_value(row.metric, row.old), _format_value(
            row.metric, row.new
        )
        change = (
            "+inf" if row.change == float("inf") else f"{row.change:+.1%}"
        )
        lines.append(
            f"{row.case:<28} {row.metric:<22} {old:>12} {new:>12} "
            f"{change:>8}  {verdict}"
        )
    for name in report.missing_cases:
        lines.append(
            f"{name:<28} {'case':<22} {'present':>12} {'missing':>12} "
            f"{'':>8}  REGRESSION (case missing)"
        )
    for name in report.added_cases:
        lines.append(f"{name:<28} (new case; nothing to compare)")
    lines.append("")
    for note in report.notes:
        lines.append(f"note: {note}")
    count = len(report.regressions) + len(report.missing_cases)
    lines.append(
        "verdict: "
        + (f"{count} regression(s) beyond the gate" if count else "no regressions")
    )
    return "\n".join(lines)


def _format_value(metric: str, value: float) -> str:
    if metric == "wall median":
        return f"{value * 1000:.2f}ms"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3f}"
