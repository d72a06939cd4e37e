"""The paper's Section 6 claims, checked on ``xydiff bench`` payloads.

One module-scoped run of the fast tier of the eight paper experiments
(one repeat, no warmup) feeds every assertion below.  The bounds sit on
the quality keys and summaries, which come from seeded workloads and are
the same on every machine.  Wall-clock claims (FIG4 ``loglog_slope``,
COMP ``lu_scaling``, SITE ``core_fraction``) are reported by ``xydiff
bench`` and not asserted here: a timing bound in this suite would pass
only some of the time.

The ID-attribute bounds and the linear-memory claim need workloads the
fast tier does not have (ABL's generated pair carries no ID
attributes), so they run on their own seeded pairs.
"""

import json
import pathlib
import tracemalloc

import pytest

from repro.baselines import tree_edit_distance, unix_diff_size
from repro.core import DiffConfig, delta_byte_size, diff
from repro.obs.bench import BenchRunner, validate_bench_payload
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    WebCorpus,
    WebCorpusConfig,
    generate_catalog,
    generate_document,
    simulate_changes,
)
from repro.xmlkit import parse, serialize

ROOT = pathlib.Path(__file__).resolve().parents[2]

PAPER_EXPERIMENTS = (
    "FIG4", "FIG5", "FIG6", "SITE", "COMP", "QUAL", "ABL", "STORE",
)


@pytest.fixture(scope="module")
def payloads():
    runner = BenchRunner(repeat=1, warmup=0)
    return {
        name: runner.run_experiment(name, fast=True)
        for name in PAPER_EXPERIMENTS
    }


def quality(payload, case_name):
    (case,) = [c for c in payload["cases"] if c["name"] == case_name]
    return case["quality"]


def fresh_pair(old, new):
    return old.clone(keep_xids=False), new.clone(keep_xids=False)


def test_every_payload_is_schema_valid(payloads):
    for name, payload in payloads.items():
        assert payload["experiment"] == name
        assert payload["fast"] is True
        assert validate_bench_payload(payload) == []


class TestFig5Quality:
    """Computed delta vs the simulator's perfect delta (Figure 5)."""

    def test_every_rate_within_the_papers_envelope(self, payloads):
        for case in payloads["FIG5"]["cases"]:
            assert case["quality"]["ratio"] < 2.5, case["name"]

    def test_low_change_rate_is_near_perfect(self, payloads):
        low = [
            case["quality"]["ratio"]
            for case in payloads["FIG5"]["cases"]
            if case["params"]["rate"] <= 0.02
        ]
        assert low
        assert sum(low) / len(low) < 1.8

    def test_sometimes_approaches_or_beats_the_simulator(self, payloads):
        assert payloads["FIG5"]["summary"]["best_ratio"] < 1.1


class TestFig6UnixDiff:
    """Delta size over Unix-diff size on the weekly web corpus (Figure 6)."""

    def test_average_ratio_is_roughly_one(self, payloads):
        weekly = quality(payloads["FIG6"], "weekly-corpus")
        assert 0.2 < weekly["mean_ratio"] < 3.0

    def test_no_document_scatters_past_eight(self, payloads):
        assert quality(payloads["FIG6"], "weekly-corpus")["max_ratio"] < 8

    def test_delta_under_document_size(self, payloads):
        weekly = quality(payloads["FIG6"], "weekly-corpus")
        assert weekly["mean_doc_fraction"] < 1

    def test_long_single_line_pathology(self):
        # With everything on one line the line diff ships the whole
        # document, while the tree delta stays proportional to the change.
        corpus = WebCorpus(
            WebCorpusConfig(
                documents=12, min_bytes=1_000, max_bytes=120_000, seed=6
            )
        )
        old, new = corpus.weekly_versions(2, weeks=1)
        compact_old, compact_new = serialize(old), serialize(new)
        unix_size = unix_diff_size(compact_old, compact_new)
        delta_size = delta_byte_size(diff(*fresh_pair(old, new)))
        assert unix_size >= len(compact_new)
        assert delta_size < unix_size


class TestSite:
    def test_delta_smaller_than_snapshot(self, payloads):
        (case,) = payloads["SITE"]["cases"]
        assert case["quality"]["delta_bytes"] < case["quality"][
            "snapshot_bytes"
        ]


class TestQualVsOptimum:
    """BULD's cost against the exact move-less optimum (Section 5)."""

    def test_within_a_small_factor_of_the_optimum(self, payloads):
        for case in payloads["QUAL"]["cases"]:
            optimal = case["quality"]["optimal_cost"]
            cost = case["quality"]["buld_cost"]
            assert optimal <= cost <= max(3 * optimal, optimal + 12), (
                case["name"]
            )

    def test_a_move_beats_the_moveless_optimum(self):
        old = parse(
            "<r><a><big><x>payload one</x><y>payload two</y>"
            "<z>payload three</z></big></a><b/></r>"
        )
        new = parse(
            "<r><a/><b><big><x>payload one</x><y>payload two</y>"
            "<z>payload three</z></big></b></r>"
        )
        assert diff(*fresh_pair(old, new)).summary() == {"move": 1}
        assert 1 < tree_edit_distance(old, new)


class TestAblations:
    """Section 5.2 tuning knobs and the conclusion's moves trade-off."""

    def test_fast_signatures_give_identical_deltas(self, payloads):
        abl = payloads["ABL"]
        assert (
            quality(abl, "fast-signatures")["delta_bytes"]
            == quality(abl, "defaults")["delta_bytes"]
        )

    def test_more_passes_never_hurt_quality_much(self, payloads):
        abl = payloads["ABL"]
        assert (
            quality(abl, "optimization-passes=4")["delta_bytes"]
            <= quality(abl, "optimization-passes=0")["delta_bytes"] * 1.1
        )

    def test_moves_save_bytes(self, payloads):
        moves = quality(payloads["ABL"], "moves-vs-edits")
        assert moves["moves"] > 0
        assert moves["as_edits_bytes"] > moves["delta_bytes"]

    def test_declared_ids_do_not_hurt_quality(self):
        old = generate_catalog(
            products=300, categories=8, seed=41, with_ids=True
        )
        new = simulate_changes(
            old, SimulatorConfig(0.05, 0.15, 0.05, 0.05, seed=42)
        ).new_document
        with_ids = diff(
            *fresh_pair(old, new), DiffConfig(use_id_attributes=True)
        )
        without = diff(
            *fresh_pair(old, new), DiffConfig(use_id_attributes=False)
        )
        assert delta_byte_size(with_ids) <= delta_byte_size(without) * 1.5

    def test_inferred_ids_do_not_hurt_quality(self):
        # No declared DTD ids: inference must find product/sku itself.
        old = generate_catalog(products=200, categories=5, seed=81)
        new = simulate_changes(
            old, SimulatorConfig(0.05, 0.15, 0.05, 0.05, seed=82)
        ).new_document
        inferred = diff(
            *fresh_pair(old, new), DiffConfig(infer_id_attributes=True)
        )
        plain = diff(
            *fresh_pair(old, new), DiffConfig(infer_id_attributes=False)
        )
        assert delta_byte_size(inferred) <= delta_byte_size(plain) * 1.3


class TestStoreCommitLoop:
    """Commit-loop reuse must not change a single delta byte."""

    def test_chains_identical_across_configurations(self, payloads):
        assert payloads["STORE"]["summary"]["chains_identical"] == 1

    def test_chain_digest_matches_committed_baseline(self, payloads):
        committed = json.loads((ROOT / "BENCH_STORE.json").read_text())
        expected = {
            case["name"]: case["quality"]["chain_sha256"]
            for case in committed["cases"]
        }
        for case in payloads["STORE"]["cases"]:
            assert case["quality"]["chain_sha256"] == expected[case["name"]]


def test_diff_memory_is_linear_in_input():
    """Section 5.3: "the memory usage is linear in the total size"."""

    def peak_diff_memory(nodes):
        base = generate_document(
            GeneratorConfig(target_nodes=nodes, seed=71)
        )
        changed = simulate_changes(
            base, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=72)
        ).new_document
        old, new = fresh_pair(base, changed)
        tracemalloc.start()
        try:
            diff(old, new)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    ratio = peak_diff_memory(4_000) / peak_diff_memory(500)
    # 8x the input must not need more than ~8x (+slack) the memory
    assert ratio < 8 * 2.5, f"memory grew {ratio:.1f}x for 8x input"
