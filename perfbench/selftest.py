"""Fast self-test of the benchmark (about 20 seconds).

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

It runs a tiny version of every workload, untraced and traced, and
asserts that each prints exactly the metrics ``BENCHMARK.json`` names,
with their units.  It then feeds each workload's correctness checks a
corrupted delta and asserts that they fire, checks that the crawl's
delta chain hash repeats for one seed, and that the benchmark exits
non-zero without printing a result when the program's source is absent.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

from common import HERE, ROOT, SRC, CheckFailed, make_workdir, remove_workdir

sys.path.insert(0, SRC)
import crawl_ingest  # noqa: E402
import serve_mixed  # noqa: E402

WORKLOADS = {
    "crawl-ingest": crawl_ingest,
    "serve-mixed": serve_mixed,
}


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_metrics(name: str, trace: int, result: dict, expected: dict):
    got = {metric: unit for metric, (_, unit) in result["metrics"].items()}
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    assert not missing and not extra, (name, trace, missing, extra)
    for metric, unit in expected.items():
        assert got[metric] == unit, (name, metric, got[metric], unit)
        value = result["metrics"][metric][0]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            name, metric, value)
    assert result["attempted"] >= 1


def expect_check_failure(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed:
        return
    raise AssertionError(f"{what}: the correctness check did not fire")


def corrupt(delta_text: str) -> str:
    """The same delta with its last operation dropped."""
    from repro.core.deltaxml import parse_delta, serialize_delta

    delta = parse_delta(delta_text)
    assert delta.operations, "cannot corrupt an empty delta"
    delta.operations.pop()
    return serialize_delta(delta)


def test_serve_check_fires() -> None:
    import repro
    from repro.core.xid import assign_initial_xids

    inputs = serve_mixed.Inputs(3, serve_mixed.TINY)
    old_text, new_text = inputs.pairs[0]
    old = repro.parse(old_text)
    assign_initial_xids(old)
    delta, _ = repro.diff_with_stats(old, repro.parse(new_text))
    from repro.core.deltaxml import serialize_delta

    class Outputs:
        reads = set()

    good = Outputs()
    good.deltas = {(0, serialize_delta(delta))}
    serve_mixed.check_outputs(good, inputs)
    bad = Outputs()
    bad.deltas = {(0, corrupt(serialize_delta(delta)))}
    expect_check_failure("serve-mixed delta", serve_mixed.check_outputs,
                         bad, inputs)


def test_crawl_checks_fire() -> None:
    scale = crawl_ingest.TINY
    workdir = make_workdir("selftest-")
    store = None
    try:
        crawl = crawl_ingest.Crawl(3, scale.docs)
        store = crawl_ingest._open_store(workdir, "store", crawl)
        run_pass = crawl_ingest.Pass(crawl, store, scale)
        for week in (1, 2):
            run_pass.run_week(week)
        crawl_ingest.verify(store)
        # Overwrite one stored delta with another document's delta.
        repo = store.repository
        doc_id = crawl.ids[0]
        backend = repo.shard_repo(repo.shard_of(doc_id)).backend
        keys = [k for k in backend.list_keys() if "delta" in k]
        backend.put(keys[0], backend.get(keys[-1]))
        expect_check_failure("crawl-ingest stored delta",
                             crawl_ingest.verify, store)
    finally:
        if store is not None:
            store.repository.close()
        remove_workdir(workdir)


def test_missing_source_fails() -> None:
    bare = make_workdir("bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "crawl-ingest", "--seed", "1", "--seconds", "1", "--trace",
             "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0, proc.returncode
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        remove_workdir(bare)


def main() -> int:
    expected = declared()
    for name, module in WORKLOADS.items():
        tiny = module.TINY
        check_metrics(name, 0, module.run(5, 0.2, tiny), expected[0])
        check_metrics(name, 1, module.run_traced(5, 0.2, tiny), expected[1])
        print(f"ok  {name}: every declared metric, with its unit")
    first = crawl_ingest.run(7, 0.2, crawl_ingest.TINY)["info"]
    again = crawl_ingest.run(7, 0.2, crawl_ingest.TINY)["info"]
    other = crawl_ingest.run(8, 0.2, crawl_ingest.TINY)["info"]
    assert first["chain_sha256"] == again["chain_sha256"]
    assert first["chain_sha256"] != other["chain_sha256"]
    print("ok  crawl-ingest: delta chain hash repeats for one seed")
    test_serve_check_fires()
    test_crawl_checks_fire()
    print("ok  corrupted deltas fail the correctness checks")
    test_missing_source_fails()
    print("ok  no program source: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
