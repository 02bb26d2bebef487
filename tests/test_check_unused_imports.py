"""``tools/check_unused_imports.py``: what counts as a use, and what is exempt."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_unused_imports.py"
_spec = importlib.util.spec_from_file_location("check_unused_imports", TOOL)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def findings(tmp_path, source: str) -> list[tuple[int, str]]:
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    return checker.unused_imports(path)


def test_flags_only_names_the_file_never_references(tmp_path):
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import Iterable, Sequence\n"
        "from collections import (\n"
        "    OrderedDict,\n"
        "    deque,\n"
        ")\n"
        "def f(items: 'Sequence[int]') -> None:\n"
        "    return os.path.join(codec.dumps(list(items)), str(deque()))\n"
    )
    assert findings(tmp_path, source) == [(4, "Iterable"), (6, "OrderedDict")]


def test_re_exports_and_noqa_are_exempt(tmp_path):
    source = (
        "from typing import Iterable\n"
        "import sys  # noqa: F401 - imported for its side effect\n"
        "import abc  # noqa: E402\n"
        "__all__ = ['Iterable']\n"
    )
    assert findings(tmp_path, source) == [(3, "abc")]
