"""The regression gate: compare_payloads semantics and the CLI exit codes.

The acceptance contract: ``xydiff bench --compare`` exits 0 on clean
results, 1 when an injected slowdown (or gated-quality drop) beyond the
threshold is present, and 2 on input it cannot judge.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    BenchCase,
    BenchRunner,
    CompareError,
    Experiment,
    compare_payloads,
    render_comparison,
    write_result,
)


def _payload(wall=0.1, delta_bytes=1000, experiment="TOY", fast=False):
    def run(prepared, obs):
        span = obs.tracer.start_span("stage:fixed")
        obs.tracer.end_span(span, duration=wall / 2)
        return {"delta_bytes": delta_bytes}

    toy = Experiment(
        id=experiment,
        title="toy",
        cases=lambda _: [
            BenchCase(
                name="only",
                setup=lambda: None,
                run=run,
                gated_quality=("delta_bytes",),
            )
        ],
    )
    payload = BenchRunner(repeat=1, warmup=0).run_experiment(toy)
    # pin the measured wall time so comparisons are deterministic
    for key in ("median", "min", "max", "mean"):
        payload["cases"][0]["wall_seconds"][key] = wall
    payload["cases"][0]["wall_seconds"]["samples"] = [wall]
    payload["fast"] = fast
    return payload


class TestComparePayloads:
    def test_identical_payloads_are_clean(self):
        payload = _payload()
        report = compare_payloads(payload, copy.deepcopy(payload))
        assert report.ok
        assert {row.metric for row in report.rows} == {
            "wall median", "quality:delta_bytes"
        }

    def test_injected_slowdown_beyond_threshold_regresses(self):
        report = compare_payloads(_payload(wall=0.1), _payload(wall=0.2))
        (regression,) = report.regressions
        assert regression.metric == "wall median"
        assert regression.change == pytest.approx(1.0)
        assert not report.ok

    def test_slowdown_within_threshold_passes(self):
        report = compare_payloads(_payload(wall=0.1), _payload(wall=0.11))
        assert report.ok

    def test_threshold_is_configurable(self):
        old, new = _payload(wall=0.1), _payload(wall=0.115)
        assert compare_payloads(old, new, threshold=0.25).ok
        assert not compare_payloads(old, new, threshold=0.10).ok

    def test_quality_drop_regresses_lower_is_better(self):
        report = compare_payloads(
            _payload(delta_bytes=1000), _payload(delta_bytes=2000)
        )
        (regression,) = report.regressions
        assert regression.metric == "quality:delta_bytes"
        # and an improvement never gates
        assert compare_payloads(
            _payload(delta_bytes=2000), _payload(delta_bytes=1000)
        ).ok

    def test_noise_floor_suppresses_micro_timings(self):
        # 100 µs -> 300 µs is +200% but under the 1 ms floor on both sides
        report = compare_payloads(
            _payload(wall=0.0001), _payload(wall=0.0003)
        )
        (row,) = [r for r in report.rows if r.metric == "wall median"]
        assert not row.regression
        assert row.note == "below noise floor"

    def test_experiment_mismatch_raises(self):
        with pytest.raises(CompareError, match="mismatch"):
            compare_payloads(
                _payload(experiment="TOY"), _payload(experiment="OTHER")
            )

    def test_tier_mismatch_never_gates_time(self):
        report = compare_payloads(
            _payload(wall=0.1, fast=True), _payload(wall=0.9, fast=False)
        )
        assert all(
            not row.regression
            for row in report.rows
            if row.metric == "wall median"
        )
        assert any("tier mismatch" in note for note in report.notes)
        # quality stays deterministic across tiers, so it still gates
        report = compare_payloads(
            _payload(delta_bytes=100, fast=True),
            _payload(delta_bytes=200, fast=False),
        )
        assert not report.ok

    def test_missing_and_added_cases_reported(self):
        old, new = _payload(), _payload()
        new["cases"][0]["name"] = "renamed"
        report = compare_payloads(old, new)
        assert report.missing_cases == ["only"]
        assert report.added_cases == ["renamed"]

    def test_missing_baseline_case_fails_the_gate(self):
        old, new = _payload(), _payload()
        new["cases"][0]["name"] = "renamed"
        report = compare_payloads(old, new)
        assert not report.ok
        text = render_comparison(report)
        assert "REGRESSION (case missing)" in text
        assert "1 regression(s) beyond the gate" in text

    def test_added_case_alone_does_not_gate(self):
        old, new = _payload(), _payload()
        extra = copy.deepcopy(new["cases"][0])
        extra["name"] = "extra"
        new["cases"].append(extra)
        report = compare_payloads(old, new)
        assert report.added_cases == ["extra"]
        assert report.ok

    def test_render_mentions_verdicts(self):
        text = render_comparison(
            compare_payloads(_payload(wall=0.1), _payload(wall=0.3))
        )
        assert "REGRESSION" in text
        assert "regression(s) beyond the gate" in text
        clean = render_comparison(
            compare_payloads(_payload(), _payload())
        )
        assert "no regressions" in clean


class TestCompareCli:
    """The acceptance criterion: exit 1 on an injected slowdown."""

    def _write(self, tmp_path, name, payload):
        directory = tmp_path / name
        directory.mkdir()
        return write_result(payload, out_dir=str(directory))

    def test_exit_0_on_clean(self, tmp_path, capsys):
        old = self._write(tmp_path, "old", _payload())
        new = self._write(tmp_path, "new", _payload())
        assert main(["bench", "--compare", old, new]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_1_on_injected_slowdown(self, tmp_path, capsys):
        old = self._write(tmp_path, "old", _payload(wall=0.1))
        new = self._write(tmp_path, "new", _payload(wall=0.2))
        assert main(["bench", "--compare", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag_is_percent(self, tmp_path):
        old = self._write(tmp_path, "old", _payload(wall=0.1))
        new = self._write(tmp_path, "new", _payload(wall=0.115))
        assert main(["bench", "--compare", old, new]) == 0
        assert main(
            ["bench", "--compare", old, new, "--threshold", "10"]
        ) == 1

    def test_one_file_form_uses_out_dir(self, tmp_path):
        old = self._write(tmp_path, "old", _payload(wall=0.2))
        new_dir = tmp_path / "new"
        new_dir.mkdir()
        write_result(_payload(wall=0.1), out_dir=str(new_dir))
        assert main(
            ["bench", "--compare", old, "--out-dir", str(new_dir)]
        ) == 0

    def test_exit_1_when_a_baseline_case_is_missing(self, tmp_path, capsys):
        renamed = _payload()
        renamed["cases"][0]["name"] = "renamed"
        old = self._write(tmp_path, "old", _payload())
        new = self._write(tmp_path, "new", renamed)
        assert main(["bench", "--compare", old, new]) == 1
        assert "REGRESSION (case missing)" in capsys.readouterr().out

    def test_exit_2_on_missing_file(self, tmp_path, capsys):
        old = self._write(tmp_path, "old", _payload())
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--compare", old, missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_2_on_invalid_json(self, tmp_path, capsys):
        old = self._write(tmp_path, "old", _payload())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other"}))
        assert main(["bench", "--compare", old, str(bad)]) == 2

    def test_exit_2_on_experiment_mismatch(self, tmp_path):
        old = self._write(tmp_path, "old", _payload(experiment="TOY"))
        new = self._write(tmp_path, "new", _payload(experiment="OTHER"))
        assert main(["bench", "--compare", old, new]) == 2
