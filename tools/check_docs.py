#!/usr/bin/env python3
"""Documentation consistency checker (run by the CI docs job).

Eight classes of drift, all fatal:

1. **Dead links** — every relative markdown link in README.md,
   EXPERIMENTS.md and docs/*.md must point at an existing file.
2. **Phantom code references** — every dotted ``repro.*`` name in the
   docs and README must resolve: the longest module prefix must import,
   and any remaining parts must exist as attributes.
3. **Phantom CLI flags** — every ``--flag`` mentioned in docs/*.md must
   exist somewhere in the real argparse tree, and every subcommand of
   the real parser — including nested ones such as ``obs render`` —
   must have a section in docs/cli.md.
4. **Phantom store schemes** — every ``scheme://`` store-URL example in
   the docs and README must use a scheme the storage layer actually
   registers (``file``, ``sqlite``, ``blob``, ``shard``); web schemes
   (``http(s)``, ``mailto``) are exempt.
5. **Endpoint-table drift** — the endpoint reference table in
   docs/server.md must list exactly the routes ``repro.server``
   registers (``route_table()``), in both directions: no documented
   endpoint the server lacks, no served endpoint the docs omit.
6. **Header and status-code drift** — docs/server.md must mention every
   header in ``repro.server.API_HEADERS`` and must not name an API
   header the code does not declare; its status-code table must equal
   ``repro.server.status_reasons()`` in both directions.
7. **Event-catalogue drift** — the "Event catalogue" table in
   docs/observability.md must list exactly the event names in
   ``repro.obs.log.EVENT_CATALOG``, in both directions: no documented
   event the logger would reject, no emittable event the docs omit.
8. **Phantom file paths** — every backticked repo path in README.md,
   EXPERIMENTS.md, DESIGN.md and docs/*.md (a token containing ``/``
   that ends in a file extension or ``/``) must exist relative to the
   repo root or to the doc's own directory.  A component that stands
   for a name the reader picks (``DIR/traces.jsonl``, ``<ID>``) ends
   the checked prefix; globs must match at least one file.

Usage: ``python tools/check_docs.py`` (from anywhere; exits 1 on drift).
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# The trailing lookahead skips versioned identifier strings such as the
# bench schema id `repro.bench/1`, which are not import paths.
MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+(?![\w/])")
FLAG_RE = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")
HEADING_RE = re.compile(r"^##+\s+(.+?)\s*$", re.MULTILINE)
SCHEME_RE = re.compile(r"\b([a-z][a-z0-9+.-]*)://")
#: A docs/server.md endpoint-table row: first cell is `METHOD /path`.
ENDPOINT_ROW_RE = re.compile(
    r"^\|\s*`(GET|POST|PUT|PATCH|DELETE)\s+(/[^`]*)`", re.MULTILINE
)
#: Backticked API-header mentions in docs/server.md: the `X-Repro-*`
#: namespace plus the two standard headers the API gives meaning to.
HEADER_TOKEN_RE = re.compile(
    r"`(X-Repro-[A-Za-z-]+|Idempotency-Key|Retry-After)(?::[^`]*)?`"
)
#: A status-table row: first cell is one or more backticked codes
#: (`200` / `201`).
STATUS_ROW_RE = re.compile(r"^\|\s*((?:`\d{3}`(?:\s*/\s*)?)+)\s*\|",
                           re.MULTILINE)
#: An event-catalogue table row: first cell is the `component.event`
#: name (dots and dashes, the EVENT_CATALOG naming shape).
EVENT_ROW_RE = re.compile(
    r"^\|\s*`([a-z]+(?:\.[a-z][a-z-]*)+)`\s*\|", re.MULTILINE
)
#: Any backticked token without whitespace; check_paths filters it.
CODE_TOKEN_RE = re.compile(r"`([^`\s]+)`")
#: The last component of a file path: a name with an extension.
FILE_NAME_RE = re.compile(r"[^/]*\.[A-Za-z0-9]+$")
#: A path component standing for a reader-chosen name: `DIR`, `<ID>.txt`.
PLACEHOLDER_RE = re.compile(r"[A-Z][A-Z0-9_]*|<[^>]*>.*")
#: URL schemes that are links, not store addresses.
WEB_SCHEMES = {"http", "https", "mailto"}

LINK_FILES = ["README.md", "EXPERIMENTS.md"]
PATH_FILES = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]  # + docs/*.md
REFERENCE_FILES = ["README.md"]  # + docs/*.md, added in main()


def _rel(path: pathlib.Path) -> str:
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def check_links(path: pathlib.Path, text: str, problems: list[str]) -> None:
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{_rel(path)}: dead link {target!r}")


def check_module_refs(path: pathlib.Path, text: str, problems: list[str]) -> None:
    for token in sorted(set(MODULE_RE.findall(text))):
        parts = token.split(".")
        module = None
        index = len(parts)
        while index > 0:
            try:
                module = importlib.import_module(".".join(parts[:index]))
                break
            except ImportError:
                index -= 1
        if module is None:
            problems.append(
                f"{_rel(path)}: unimportable reference {token!r}"
            )
            continue
        obj = module
        for attribute in parts[index:]:
            try:
                obj = getattr(obj, attribute)
            except AttributeError:
                problems.append(
                    f"{_rel(path)}: {token!r} — "
                    f"{'.'.join(parts[:index])} has no attribute "
                    f"{attribute!r}"
                )
                break


def check_paths(path: pathlib.Path, text: str, problems: list[str]) -> None:
    """Every backticked repo-relative path must name an existing file."""
    for token in sorted(set(CODE_TOKEN_RE.findall(text))):
        target = token.split("::", 1)[0]  # pytest node ids
        if "/" not in target or "://" in target or target[0] in "/~":
            continue
        if not (target.endswith("/") or FILE_NAME_RE.search(target)):
            continue
        parts = []
        for part in target.rstrip("/").split("/"):
            if PLACEHOLDER_RE.fullmatch(part):
                break
            parts.append(part)
        if not parts:
            continue
        checked = "/".join(parts)
        bases = (ROOT, path.parent)
        if any(char in checked for char in "*?["):
            found = any(next(base.glob(checked), None) for base in bases)
        else:
            found = any((base / checked).exists() for base in bases)
        if not found:
            problems.append(f"{_rel(path)}: phantom file path {token!r}")


def real_cli_surface():
    """(all option strings, all subcommand names) from the parser.

    Nested subcommands are reported with their full path (``"obs
    render"``), so docs/cli.md must carry a heading for each leaf, not
    just for the top-level group.
    """
    import argparse

    from repro.cli import build_parser

    flags: set[str] = set()
    commands: set[str] = set()

    def walk(parser, prefix):
        for action in parser._actions:
            flags.update(
                option
                for option in action.option_strings
                if option.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    full = f"{prefix} {name}".strip()
                    commands.add(full)
                    walk(child, full)

    walk(build_parser(), "")
    return flags, commands


def check_cli_docs(docs_dir: pathlib.Path, problems: list[str]) -> None:
    flags, commands = real_cli_surface()
    for path in sorted(docs_dir.glob("*.md")):
        for flag in sorted(set(FLAG_RE.findall(path.read_text()))):
            if flag not in flags:
                problems.append(
                    f"{_rel(path)}: flag {flag!r} does not "
                    "exist in repro.cli"
                )
    cli_page = docs_dir / "cli.md"
    documented = set(HEADING_RE.findall(cli_page.read_text()))
    for command in sorted(commands):
        # A group like "obs" counts as documented when any of its leaves
        # ("obs render") has a heading; leaves need their own heading.
        if command in documented or any(
            heading.startswith(command + " ") for heading in documented
        ):
            continue
        problems.append(f"docs/cli.md: subcommand {command!r} undocumented")


def check_store_schemes(path: pathlib.Path, text: str, problems: list[str]) -> None:
    """Every ``scheme://`` example must name a registered store scheme."""
    from repro.storage import STORE_SCHEMES

    known = set(STORE_SCHEMES) | {"shard"}
    for scheme in sorted(set(SCHEME_RE.findall(text))):
        if scheme in WEB_SCHEMES or scheme in known:
            continue
        problems.append(
            f"{_rel(path)}: store URL scheme {scheme!r} is not "
            f"registered (expected one of {sorted(known)})"
        )


def check_server_docs(docs_dir: pathlib.Path, problems: list[str]) -> None:
    """docs/server.md's endpoint table must equal the registered routes."""
    from repro.server import route_table

    page = docs_dir / "server.md"
    if not page.exists():
        problems.append("docs/server.md: missing (the HTTP API reference)")
        return
    documented = {
        (method, pattern.strip())
        for method, pattern in ENDPOINT_ROW_RE.findall(page.read_text())
    }
    registered = set(route_table())
    for method, pattern in sorted(documented - registered):
        problems.append(
            f"docs/server.md: endpoint `{method} {pattern}` is "
            "documented but not registered by repro.server"
        )
    for method, pattern in sorted(registered - documented):
        problems.append(
            f"docs/server.md: endpoint `{method} {pattern}` is "
            "served but missing from the endpoint table"
        )

    from repro.server import API_HEADERS, status_reasons

    text = page.read_text()
    mentioned = set(HEADER_TOKEN_RE.findall(text))
    declared = set(API_HEADERS)
    for header in sorted(declared - mentioned):
        problems.append(
            f"docs/server.md: API header {header!r} is declared in "
            "repro.server.API_HEADERS but never documented"
        )
    for header in sorted(mentioned - declared):
        problems.append(
            f"docs/server.md: header {header!r} is documented but not "
            "declared in repro.server.API_HEADERS"
        )

    documented_codes = {
        int(code)
        for row in STATUS_ROW_RE.findall(text)
        for code in re.findall(r"\d{3}", row)
    }
    real_codes = set(status_reasons())
    for code in sorted(real_codes - documented_codes):
        problems.append(
            f"docs/server.md: status {code} can be emitted but is "
            "missing from the status-code table"
        )
    for code in sorted(documented_codes - real_codes):
        problems.append(
            f"docs/server.md: status {code} is documented but "
            "repro.server.status_reasons() does not declare it"
        )


def check_event_catalog(docs_dir: pathlib.Path, problems: list[str]) -> None:
    """The docs event catalogue must equal the emitter registry."""
    from repro.obs.log import EVENT_CATALOG

    page = docs_dir / "observability.md"
    if not page.exists():
        problems.append(
            "docs/observability.md: missing (the telemetry reference)"
        )
        return
    text = page.read_text()
    heading = re.search(
        r"^##+\s+Event catalogue\s*$", text, re.MULTILINE
    )
    if heading is None:
        problems.append(
            "docs/observability.md: no 'Event catalogue' section "
            "(repro.obs.log.EVENT_CATALOG must be documented there)"
        )
        return
    section = text[heading.end():]
    following = re.search(r"^##\s", section, re.MULTILINE)
    if following is not None:
        section = section[: following.start()]
    documented = set(EVENT_ROW_RE.findall(section))
    registered = set(EVENT_CATALOG)
    for event in sorted(documented - registered):
        problems.append(
            f"docs/observability.md: event {event!r} is documented but "
            "not in repro.obs.log.EVENT_CATALOG (the logger would "
            "reject it)"
        )
    for event in sorted(registered - documented):
        problems.append(
            f"docs/observability.md: event {event!r} can be emitted "
            "but is missing from the event-catalogue table"
        )


def main() -> int:
    problems: list[str] = []
    docs_dir = ROOT / "docs"
    if not docs_dir.is_dir():
        print("FAIL: docs/ directory is missing", file=sys.stderr)
        return 1

    link_files = [ROOT / name for name in LINK_FILES]
    link_files += sorted(docs_dir.glob("*.md"))
    for path in link_files:
        check_links(path, path.read_text(), problems)

    reference_files = [ROOT / name for name in REFERENCE_FILES]
    reference_files += sorted(docs_dir.glob("*.md"))
    for path in reference_files:
        text = path.read_text()
        check_module_refs(path, text, problems)
        check_store_schemes(path, text, problems)

    path_files = [ROOT / name for name in PATH_FILES]
    path_files += sorted(docs_dir.glob("*.md"))
    for path in path_files:
        check_paths(path, path.read_text(), problems)

    check_cli_docs(docs_dir, problems)
    check_server_docs(docs_dir, problems)
    check_event_catalog(docs_dir, problems)

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK ({len(link_files)} pages checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
