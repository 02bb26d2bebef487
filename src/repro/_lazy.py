"""Package namespaces that load their public names on first access.

A package ``__init__`` that imported all of its submodules would make every
process pay for the whole library: a live certifier-shard node, which runs
the wire, the server and its WAL file, would load the simulator, the
experiment runner and the workloads before it answers its first frame.  So
a package declares where each public name is defined and calls
:func:`lazy_exports`; the ``__getattr__`` it returns (PEP 562) imports a
name's defining module the first time the name is read, and stores the value
in the package so the next read is a plain attribute lookup.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> tuple[list[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` for ``package``, where ``exports`` maps each
    defining module to the public names it provides."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return sorted(home), __getattr__
