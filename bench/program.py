"""Import cvconc from the source tree this benchmark sits in, never from an
installed copy, so a checkout measures its own code."""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace


class SourceMissing(RuntimeError):
    pass


def source_dir(root) -> str:
    src = os.path.join(os.fspath(root), "src")
    if not os.path.isfile(os.path.join(src, "cvconc", "__init__.py")):
        raise SourceMissing(f"no cvconc package under {src}")
    return src


# The modules the benchmark calls into.
ENTRY_MODULES = ("cli", "states", "concurrence", "spectral", "transpose", "quadrature")


def import_modules(root) -> SimpleNamespace:
    """Import cvconc from <root>/src; return its entry modules by short name.

    Callers look functions up on these modules at call time, so a tracer
    that replaces module attributes sees every call."""
    src = source_dir(root)
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"cvconc.{name}") for name in ENTRY_MODULES}
    found = os.path.dirname(os.path.dirname(os.path.abspath(modules["cli"].__file__)))
    if found != os.path.abspath(src):
        raise SourceMissing(f"cvconc was imported from {found}, not from {src}")
    return SimpleNamespace(**modules)
