"""The disabled path must be the seed's exact path.

With no recorder (or a :class:`NullRecorder`, which the engine
normalizes to ``None``) the run may not differ observably from the
seed: tracer and metrics outputs byte-identical, and no call into the
disabled recorder, so it adds no work to the hot paths.
"""

import time

from repro.core.diff import diff, diff_with_stats
from repro.obs import MetricsRegistry, Tracer
from repro.obs.provenance import NullRecorder
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)


def scenario(doc_seed, sim_seed, nodes=90):
    base = generate_document(GeneratorConfig(target_nodes=nodes, seed=doc_seed))
    result = simulate_changes(base, SimulatorConfig(seed=sim_seed))
    return (
        base.clone(keep_xids=False),
        result.new_document.clone(keep_xids=False),
    )


class FrozenClocks:
    """Deterministic stand-ins for the three clocks a Span captures."""

    def __init__(self):
        self.wall = 1_700_000_000.0
        self.perf = 0.0
        self.cpu = 0.0

    def time(self):
        self.wall += 0.001
        return self.wall

    def perf_counter(self):
        self.perf += 0.001
        return self.perf

    def process_time(self):
        self.cpu += 0.0005
        return self.cpu


def instrumented_run(monkeypatch, recorder):
    clocks = FrozenClocks()
    monkeypatch.setattr(time, "time", clocks.time)
    monkeypatch.setattr(time, "perf_counter", clocks.perf_counter)
    monkeypatch.setattr(time, "process_time", clocks.process_time)
    old, new = scenario(3, 30)
    tracer = Tracer()
    metrics = MetricsRegistry()
    diff_with_stats(
        old, new, tracer=tracer, metrics=metrics, recorder=recorder
    )
    return tracer.to_jsonl(), metrics.to_prometheus()


class TestByteIdenticalWhenDisabled:
    def test_trace_and_metrics_identical(self, monkeypatch):
        baseline_trace, baseline_metrics = instrumented_run(monkeypatch, None)
        null_trace, null_metrics = instrumented_run(
            monkeypatch, NullRecorder()
        )
        assert null_trace == baseline_trace
        assert null_metrics == baseline_metrics

    def test_no_match_attrs_without_recorder(self, monkeypatch):
        trace, metrics_text = instrumented_run(monkeypatch, None)
        assert '"matches"' not in trace
        assert "repro_matches_total" not in metrics_text


class TripwireRecorder(NullRecorder):
    """A disabled recorder whose hooks count every call.

    Any overhead a disabled recorder could add comes from the engine
    calling it, so proving zero calls proves zero overhead.
    """

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = []

    def record_match(self, old, new):
        self.calls.append("record_match")

    def record_lock(self, node):
        self.calls.append("record_lock")

    def record_rejection(self, reason, old=None, new=None):
        self.calls.append("record_rejection")

    def set_weights(self, old_annotations, new_annotations):
        self.calls.append("set_weights")


class TestNullRecorderOverhead:
    def test_disabled_recorder_is_never_called(self):
        old, new = scenario(11, 12, nodes=200)
        recorder = TripwireRecorder()
        delta, _ = diff_with_stats(old, new, recorder=recorder)
        assert not delta.is_empty()
        assert recorder.calls == []

    def test_matcher_normalizes_disabled_recorder_to_none(self):
        from repro.core.buld import BuldMatcher
        from repro.core.config import DiffConfig

        old, new = scenario(11, 12, nodes=200)
        recorder = TripwireRecorder()
        matcher = BuldMatcher(old, new, DiffConfig(), recorder=recorder)
        assert matcher.recorder is None

    def test_delta_identical_with_null_recorder(self):
        from repro.core.deltaxml import serialize_delta

        old_a, new_a = scenario(13, 14)
        old_b, new_b = scenario(13, 14)
        plain = diff(old_a, new_a)
        nulled, _ = diff_with_stats(old_b, new_b, recorder=NullRecorder())
        assert serialize_delta(plain) == serialize_delta(nulled)
