#!/usr/bin/env python3
"""Documentation checks: internal links resolve, runnable examples run,
named code exists, protocol tables match the code.

Four passes over ``README.md`` and ``docs/*.md`` (standard library only, so
the CI docs job needs no installs):

1. **Link check** — every markdown link ``[text](target)`` with a relative
   target must point at an existing file or directory; fragments
   (``file.md#section`` or ``#section``) must match a heading's GitHub-style
   anchor in the target file.  External schemes (http/https/mailto) are
   skipped — CI should not fail on someone else's outage.
2. **Doctest check** — fenced code blocks whose info string is
   ``python doctest`` are executed with the standard :mod:`doctest` runner
   (with ``src`` on ``sys.path``).  Mark an example runnable only when its
   output is deterministic.
3. **Name check** — every backticked dotted path that starts with
   ``repro.`` (``repro.transport.publish_frontier``, with or without a
   trailing call) must resolve: the longest importable module prefix is
   imported and the rest is looked up with ``getattr``.  Naming a class by
   its dotted path is what makes a doc fail when that class is deleted.
   The same holds in the code: every reST role in ``src/**/*.py``
   (``:class:``, ``:meth:``, ``:func:``, ``:attr:``, ...) whose target is
   a fully qualified ``repro.`` path — ``~repro.x.Y``, or the explicit
   target of ``Title <repro.x.Y.z>``, possibly wrapped across lines — must
   resolve the same way.
4. **Protocol-table check** — ``docs/deployment.md`` carries one protocol
   table per live node role (a markdown table whose first header cell is
   ``op``, under a heading that names the role in backticks).  Its op column
   must equal the keys of that role's op table in ``repro.live.node.ROLES``
   — both directions, so an op added to the code without a doc row fails
   like a doc row for an op the code dropped — and each row's placement cell
   must start with the entry's placement and say ``standby`` iff the entry
   does.

Exit status is non-zero on any failure, with one line per finding.

Run as:  PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import doctest
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: ``[text](target)`` — target captured up to the closing parenthesis.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
FENCE_RE = re.compile(r"^```(.*)$")
EXTERNAL_SCHEMES = ("http://", "https://", "mailto:")
#: Where the live nodes' protocol tables are documented.
PROTOCOL_DOC = REPO_ROOT / "docs" / "deployment.md"
#: A backticked ``repro.<dotted.path>``, optionally written as a call.
DOTTED_NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")
#: A Python-domain reST cross-reference, ``:role:`body``` (body may wrap).
ROLE_RE = re.compile(r":(?:py:)?(?:attr|class|const|data|exc|func|meth|mod|obj):`([^`]+)`")
#: A title form's explicit target: ``Title <target>``.
ROLE_TARGET_RE = re.compile(r"<([^<>]+)>\s*$")


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def github_anchor(heading: str) -> str:
    """GitHub's heading-to-anchor slug: lowercase, drop punctuation,
    spaces to hyphens (backticks and markdown emphasis stripped first)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def strip_fenced_blocks(text: str) -> str:
    """Remove fenced code blocks so links/headings inside them are ignored."""
    out_lines, in_fence = [], False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            out_lines.append(line)
    return "\n".join(out_lines)


def anchors_of(path: Path) -> set[str]:
    anchors = set()
    for line in strip_fenced_blocks(path.read_text()).splitlines():
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_anchor(match.group(1)))
    return anchors


def check_links(files: list[Path]) -> list[str]:
    errors = []
    anchor_cache: dict[Path, set[str]] = {}
    for md_file in files:
        prose = strip_fenced_blocks(md_file.read_text())
        for target in LINK_RE.findall(prose):
            if target.startswith(EXTERNAL_SCHEMES):
                continue
            rel = md_file.relative_to(REPO_ROOT)
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (md_file.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(f"{rel}: broken link -> {target}")
                    continue
            else:
                resolved = md_file
            if fragment:
                if resolved.suffix != ".md" or resolved.is_dir():
                    continue  # anchors only checked inside markdown
                if resolved not in anchor_cache:
                    anchor_cache[resolved] = anchors_of(resolved)
                if fragment.lower() not in anchor_cache[resolved]:
                    errors.append(f"{rel}: broken anchor -> {target}")
    return errors


def runnable_blocks(path: Path) -> list[tuple[int, str]]:
    """``(first_line_number, source)`` of every ``python doctest`` fence."""
    blocks, current, start_line = [], None, 0
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        fence = FENCE_RE.match(line.strip())
        if fence and current is None:
            info = fence.group(1).strip().lower()
            if info.startswith("python") and "doctest" in info:
                current, start_line = [], number + 1
        elif fence and current is not None:
            blocks.append((start_line, "\n".join(current) + "\n"))
            current = None
        elif current is not None:
            current.append(line)
    return blocks


def check_doctests(files: list[Path]) -> tuple[list[str], int]:
    errors, total = [], 0
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for md_file in files:
        rel = md_file.relative_to(REPO_ROOT)
        for line_number, source in runnable_blocks(md_file):
            total += 1
            name = f"{rel}:{line_number}"
            try:
                test = parser.get_doctest(source, {}, name, str(rel), line_number)
            except ValueError as exc:
                errors.append(f"{name}: unparseable doctest block ({exc})")
                continue
            result = runner.run(test, clear_globs=True)
            if result.failed:
                errors.append(
                    f"{name}: {result.failed}/{result.attempted} example(s) failed"
                )
    return errors, total


def resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, ``getattr`` the rest."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError, ValueError):
        return False
    return True


def check_names(files: list[Path]) -> tuple[list[str], int]:
    errors, names = [], set()
    for md_file in files:
        rel = md_file.relative_to(REPO_ROOT)
        prose = strip_fenced_blocks(md_file.read_text())
        for dotted in sorted(set(DOTTED_NAME_RE.findall(prose))):
            names.add(dotted)
            if not resolves(dotted):
                errors.append(f"{rel}: `{dotted}` does not resolve")
    return errors, len(names)


def role_targets(source: str) -> list[str]:
    """The ``repro.`` targets of the reST roles in ``source``: the explicit
    ``<target>`` of a title form, else the body; ``~``/``!`` prefixes and
    line wraps (whitespace, ``#:`` comment continuations) dropped."""
    targets = []
    for body in ROLE_RE.findall(source):
        explicit = ROLE_TARGET_RE.search(body)
        target = explicit.group(1) if explicit else body
        target = re.sub(r"\s+(?:#:?\s*)?", "", target).lstrip("~!")
        if target.startswith("repro."):
            targets.append(target)
    return targets


def check_code_names(files: list[Path]) -> tuple[list[str], int]:
    """Resolve every fully qualified role target in the given sources."""
    errors, names = [], set()
    for py_file in files:
        rel = py_file.relative_to(REPO_ROOT) if py_file.is_relative_to(REPO_ROOT) else py_file
        for target in sorted(set(role_targets(py_file.read_text()))):
            names.add(target)
            if not resolves(target):
                errors.append(f"{rel}: role target `{target}` does not resolve")
    return errors, len(names)


def protocol_tables(path: Path) -> dict[str, list[list[str]]]:
    """``heading text -> rows`` of every table in ``path`` whose first header
    cell is ``op``; a row is its cells with backticks stripped."""
    tables: dict[str, list[list[str]]] = {}
    heading, rows = "", None
    for line in strip_fenced_blocks(path.read_text()).splitlines():
        match = HEADING_RE.match(line)
        if match:
            heading, rows = match.group(1), None
        elif not line.startswith("|"):
            rows = None
        else:
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if rows is None and cells[0] == "op":
                rows = tables.setdefault(heading, [])
            elif rows is not None and not set(cells[0]) <= set("-: "):
                rows.append([cells[0].strip("`"), *cells[1:]])
    return tables


def check_protocol_tables() -> tuple[list[str], int]:
    from repro.live.node import ROLES

    rel = PROTOCOL_DOC.relative_to(REPO_ROOT)
    tables = protocol_tables(PROTOCOL_DOC)
    errors = []
    for role_name, where in ROLES.items():
        role = pkgutil.resolve_name(where)
        found = [rows for heading, rows in tables.items() if f"`{role_name}`" in heading]
        if len(found) != 1:
            errors.append(f"{rel}: {len(found)} protocol tables for role `{role_name}`")
            continue
        documented = {row[0]: row for row in found[0]}
        for op in sorted(set(role.ops) - set(documented)):
            errors.append(f"{rel}: `{role_name}` op `{op}` has no protocol-table row")
        for op in sorted(set(documented) - set(role.ops)):
            errors.append(f"{rel}: `{role_name}` table documents `{op}`, which the code lacks")
        for op in sorted(set(documented) & set(role.ops)):
            entry, placement = role.ops[op], documented[op][2]
            if not placement.startswith(entry.placement) \
                    or ("standby" in placement) != entry.standby:
                errors.append(f"{rel}: `{role_name}` op `{op}` is placed "
                              f"{entry.placement}{' · standby' if entry.standby else ''}, "
                              f"the table says {placement!r}")
    return errors, len(ROLES)


def main() -> int:
    files = doc_files()
    if not files:
        print("check_docs: no documentation files found", file=sys.stderr)
        return 1
    link_errors = check_links(files)
    doctest_errors, doctests_run = check_doctests(files)
    name_errors, names_checked = check_names(files)
    code_errors, code_names_checked = check_code_names(sorted(SRC.rglob("*.py")))
    name_errors += code_errors
    table_errors, tables_checked = check_protocol_tables()
    for error in link_errors + doctest_errors + name_errors + table_errors:
        print(f"FAIL {error}")
    if link_errors or doctest_errors or name_errors or table_errors:
        print(f"check_docs: {len(link_errors)} link / {len(doctest_errors)} "
              f"doctest / {len(name_errors)} name / {len(table_errors)} "
              f"protocol-table failure(s) across {len(files)} file(s)")
        return 1
    print(f"check_docs: OK — {len(files)} file(s), links resolve, "
          f"{doctests_run} runnable block(s) passed, "
          f"{names_checked} repro.* name(s) and {code_names_checked} "
          f"docstring role target(s) resolve, "
          f"{tables_checked} protocol table(s) match the code")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
