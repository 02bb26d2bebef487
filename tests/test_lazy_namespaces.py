"""The package namespaces that load their public names on first access.

Every package below declares its public names through
:func:`repro._lazy.lazy_exports` instead of importing its submodules when it
loads (so a live node process imports only what its role runs; see
``tests/test_live_server.py`` for the per-role budget).  Pinned here:

* each ``__all__`` name resolves — by ``getattr``, by the package's own
  ``__getattr__`` hook and by ``from pkg import name`` — to the object its
  defining module holds;
* an unknown name raises ``AttributeError``, and ``from pkg import`` of it
  raises ``ImportError``, as for an ordinary module;
* a fresh ``import repro`` loads neither the simulator nor its cluster models.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cluster",
    "repro.consensus",
    "repro.core",
    "repro.engine",
    "repro.middleware",
    "repro.recovery",
    "repro.sim",
    "repro.transport",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_to_the_object_its_module_defines(package):
    namespace = importlib.import_module(package)
    assert namespace.__all__
    for name in namespace.__all__:
        value = getattr(namespace, name)
        defined = getattr(sys.modules[value.__module__], value.__name__)
        assert value is defined, name
        assert namespace.__getattr__(name) is defined, name
        imported: dict[str, object] = {}
        exec(f"from {package} import {name}", imported)
        assert imported[name] is defined, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_an_unknown_name_is_an_attribute_error(package):
    namespace = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(namespace, "no_such_name")
    assert not hasattr(namespace, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_importing_the_package_loads_no_simulator():
    listing = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print(sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True).stdout
    assert "'repro'" in listing
    assert "'repro.cluster" not in listing
    assert "'repro.sim" not in listing
