#!/usr/bin/env python3
"""Unused-import check: every imported name must be referenced.

The lint job's ruff rule set (``ruff.toml``) leaves out F401, so this pass
does that one job with the standard library only.  For every ``.py`` file
under ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and ``tools/``
it reports each name an ``import`` binds that the file never references.

A name counts as referenced when it appears as an identifier anywhere in
the file (an attribute chain counts for its root), inside a string
annotation, or in the module's ``__all__`` (a re-export).  ``from
__future__`` imports are exempt, and so is any import whose line carries
``# noqa`` or ``# noqa: F401`` (an import kept for its side effect).

Exit status is non-zero on any finding, with one ``path:line`` per name.

Run as:  python tools/check_unused_imports.py [path ...]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")
NOQA = re.compile(r"#\s*noqa(?::[\s\w,]*\bF401\b|\s*$)", re.IGNORECASE)


def _annotation_names(node: ast.AST) -> set[str]:
    """Identifiers inside an annotation, string annotations included."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return {elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return set()


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` for every name ``path`` imports and never references."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    imported: list[tuple[int, int, str]] = []
    referenced = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, getattr(alias, "lineno", node.lineno), bound))
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            referenced |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            referenced |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            referenced |= _annotation_names(node.annotation)
    return [
        (line, name) for statement_line, line, name in imported
        if name not in referenced
        and not any(NOQA.search(lines[n - 1]) for n in {statement_line, line})
    ]


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [ROOT / d for d in SCANNED]
    files = sorted(f for root in roots
                   for f in ([root] if root.is_file() else root.rglob("*.py")))
    findings = 0
    for path in files:
        for line, name in unused_imports(path):
            shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
            print(f"{shown}:{line}: {name!r} imported but unused")
            findings += 1
    if findings:
        print(f"check_unused_imports: {findings} unused import(s)", file=sys.stderr)
        return 1
    print(f"check_unused_imports: OK — {len(files)} file(s), no unused imports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
