"""The docs checker passes on the repo and actually detects drift."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_sync_server_page(skip_header=None, skip_status=None) -> str:
    """A minimal server.md that satisfies every drift check.

    ``skip_header``/``skip_status`` punch one hole for the
    drift-detection tests.
    """
    from repro.server import API_HEADERS, route_table, status_reasons

    lines = [
        f"| `{method} {pattern}` | req | resp |"
        for method, pattern in route_table()
    ]
    lines += [
        f"| `{header}` | — |"
        for header in API_HEADERS
        if header != skip_header
    ]
    lines += [
        f"| `{code}` | {reason} |"
        for code, reason in status_reasons().items()
        if code != skip_status
    ]
    return "\n".join(lines) + "\n"


class TestRepoDocs:
    def test_the_repo_documentation_is_clean(self, check_docs, capsys):
        assert check_docs.main() == 0
        assert "docs OK" in capsys.readouterr().out


class TestDriftDetection:
    def test_dead_relative_link_flagged(self, check_docs):
        problems = []
        check_docs.check_links(
            ROOT / "docs" / "cli.md",
            "[missing](no-such-page.md) [ok](architecture.md) "
            "[ext](https://example.com) [anchor](#section)",
            problems,
        )
        assert len(problems) == 1
        assert "no-such-page.md" in problems[0]

    def test_anchor_suffix_ignored_when_file_exists(self, check_docs):
        problems = []
        check_docs.check_links(
            ROOT / "docs" / "cli.md",
            "[section link](observability.md#metrics)",
            problems,
        )
        assert problems == []

    def test_phantom_file_path_flagged(self, check_docs):
        problems = []
        check_docs.check_paths(
            ROOT / "docs" / "cli.md",
            "see `gone/report.py`, `tools/check_docs.py`, "
            "`../EXPERIMENTS.md`, `tests/obs/`, `BENCH_*.json`",
            problems,
        )
        assert problems == ["docs/cli.md: phantom file path 'gone/report.py'"]

    def test_path_check_skips_placeholders_urls_and_non_paths(
        self, check_docs
    ):
        problems = []
        check_docs.check_paths(
            ROOT / "docs" / "cli.md",
            "`DIR/history.jsonl` `https://example.com/x.md` "
            "`sqlite:///tmp/s.db` `/tmp/out.json` `repro.bench/1` "
            "`POST /diff`",
            problems,
        )
        assert problems == []

    def test_placeholder_ends_the_checked_prefix(self, check_docs):
        problems = []
        check_docs.check_paths(
            ROOT / "README.md",
            "`gone/<ID>.txt` `tests/<name>.py` `gone/*.txt` "
            "`tests/test_cli.py::TestBenchCommand` `gone/test_x.py::T`",
            problems,
        )
        assert problems == [
            "README.md: phantom file path 'gone/*.txt'",
            "README.md: phantom file path 'gone/<ID>.txt'",
            "README.md: phantom file path 'gone/test_x.py::T'",
        ]

    def test_phantom_module_flagged(self, check_docs):
        problems = []
        check_docs.check_module_refs(
            ROOT / "README.md", "see `repro.no_such_subsystem`", problems
        )
        assert len(problems) == 1

    def test_phantom_attribute_flagged(self, check_docs):
        problems = []
        check_docs.check_module_refs(
            ROOT / "README.md", "`repro.obs.trace.NoSuchClass`", problems
        )
        assert problems and "NoSuchClass" in problems[0]

    def test_valid_deep_reference_accepted(self, check_docs):
        problems = []
        check_docs.check_module_refs(
            ROOT / "README.md",
            "`repro.engine.base.DiffEngine` and "
            "`repro.obs.profiler.STAGE_BUCKETS`",
            problems,
        )
        assert problems == []

    def test_phantom_cli_flag_flagged(self, check_docs, tmp_path):
        flags, commands = check_docs.real_cli_surface()
        docs = tmp_path / "docs"
        docs.mkdir()
        headings = "\n".join(f"## {name}" for name in sorted(commands))
        (docs / "cli.md").write_text(
            f"{headings}\n\nuse `--definitely-not-a-flag` here\n"
        )
        problems = []
        check_docs.check_cli_docs(docs, problems)
        assert any("--definitely-not-a-flag" in p for p in problems)

    def test_undocumented_subcommand_flagged(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text("## diff\n")  # everything else missing
        problems = []
        check_docs.check_cli_docs(docs, problems)
        assert any("'stats' undocumented" in p for p in problems)

    def test_real_surface_contains_new_obs_flags(self, check_docs):
        flags, commands = check_docs.real_cli_surface()
        assert {"--trace", "--trace-memory", "--metrics-out",
                "--metrics-format"} <= flags
        assert "obs" in commands
        assert "serve" in commands
        assert {"--queue-limit", "--retry-after", "--trace-sample"} <= flags

    def test_missing_server_page_flagged(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert any("docs/server.md: missing" in p for p in problems)

    def test_endpoint_drift_flagged_both_directions(
        self, check_docs, tmp_path
    ):
        from repro.server import route_table

        docs = tmp_path / "docs"
        docs.mkdir()
        rows = [
            f"| `{method} {pattern}` | — | — |"
            for method, pattern in route_table()
        ]
        # Drop a real endpoint and invent a phantom one.
        dropped = rows.pop()
        rows.append("| `DELETE /phantom` | — | — |")
        (docs / "server.md").write_text("\n".join(rows) + "\n")
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert any("DELETE /phantom" in p and "not registered" in p
                   for p in problems)
        assert any("missing from the endpoint table" in p
                   for p in problems)

    def test_endpoint_table_in_sync_passes(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "server.md").write_text(_in_sync_server_page())
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert problems == []

    def test_header_drift_flagged_both_directions(
        self, check_docs, tmp_path
    ):
        from repro.server import API_HEADERS

        docs = tmp_path / "docs"
        docs.mkdir()
        # Drop a declared header, invent an undeclared one.
        dropped = sorted(API_HEADERS)[0]
        page = _in_sync_server_page(skip_header=dropped)
        page += "\nAlso consider `X-Repro-Phantom`.\n"
        (docs / "server.md").write_text(page)
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert any(dropped in p and "never documented" in p
                   for p in problems)
        assert any("X-Repro-Phantom" in p and "not" in p for p in problems)

    def test_status_code_drift_flagged_both_directions(
        self, check_docs, tmp_path
    ):
        from repro.server import status_reasons

        docs = tmp_path / "docs"
        docs.mkdir()
        dropped = sorted(status_reasons())[-1]
        page = _in_sync_server_page(skip_status=dropped)
        page += "\n| `999` | never happens |\n"
        (docs / "server.md").write_text(page)
        problems = []
        check_docs.check_server_docs(docs, problems)
        assert any(str(dropped) in p and "missing from the status-code"
                   in p for p in problems)
        assert any("999" in p and "does not declare" in p
                   for p in problems)
