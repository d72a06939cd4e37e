"""Text rendering of benchmark payloads.

The table ``xydiff bench`` prints after writing each
``BENCH_<EXPERIMENT>.json`` is a *view* of that payload, rendered by
:func:`render_text`; there is no second measurement code path.
"""

from __future__ import annotations

__all__ = ["render_text"]


def render_text(payload: dict) -> str:
    """Human-readable report for one experiment payload."""
    lines = [
        f"{payload['experiment']} — {payload['title']}",
        (
            f"tier: {'fast' if payload['fast'] else 'full'} | "
            f"repeat: {payload['settings']['repeat']} "
            f"(warmup {payload['settings']['warmup']}) | "
            f"python {payload['machine'].get('python', '?')} | "
            f"git {(payload.get('git_sha') or 'unknown')[:12]} | "
            f"{payload.get('generated_at_iso', '')}"
        ),
        "",
    ]
    stage_order = _stage_order(payload["cases"])
    header = f"{'case':<32} {'wall med':>10} {'cpu med':>10}"
    for stage in stage_order:
        header += f" {_stage_label(stage):>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for case in payload["cases"]:
        row = (
            f"{case['name']:<32} "
            f"{_ms(case['wall_seconds']['median']):>10} "
            f"{_ms(case['cpu_seconds']['median']):>10}"
        )
        for stage in stage_order:
            stat = case["stage_seconds"].get(stage)
            row += f" {_ms(stat['median']) if stat else '-':>10}"
        lines.append(row)

    quality_keys = _quality_order(payload["cases"])
    if quality_keys:
        lines.append("")
        header = f"{'case':<32}"
        for key in quality_keys:
            header += f" {key[:16]:>16}"
        lines.append(header)
        lines.append("-" * len(header))
        for case in payload["cases"]:
            row = f"{case['name']:<32}"
            for key in quality_keys:
                row += f" {_quality(case['quality'].get(key)):>16}"
            lines.append(row)

    if any(case.get("memory_peak_bytes") is not None
           for case in payload["cases"]):
        lines.append("")
        for case in payload["cases"]:
            peak = case.get("memory_peak_bytes")
            if peak is not None:
                lines.append(
                    f"{case['name']:<32} peak traced memory "
                    f"{peak / 1e6:.1f} MB"
                )

    if payload["summary"]:
        lines.append("")
        for key in sorted(payload["summary"]):
            lines.append(f"{key}: {_quality(payload['summary'][key])}")
    if payload.get("notes"):
        lines.append("")
        for note in payload["notes"]:
            lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _quality_order(cases: list[dict]) -> list[str]:
    """Quality keys in first-seen order across cases."""
    order: list[str] = []
    for case in cases:
        for key in case["quality"]:
            if key not in order:
                order.append(key)
    return order


def _stage_order(cases: list[dict]) -> list[str]:
    """Stages in first-seen order across cases (pipeline order)."""
    order: list[str] = []
    for case in cases:
        for stage in case["stage_seconds"]:
            if stage not in order:
                order.append(stage)
    return order


def _stage_label(stage: str) -> str:
    return stage if len(stage) <= 10 else stage[:9] + "…"


def _ms(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.1f}s"
    return f"{seconds * 1000:.2f}ms"


def _quality(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value if len(value) <= 16 else value[:13] + "..."
    if isinstance(value, bool):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"
