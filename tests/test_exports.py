"""Every public name of marketgraph has a caller or a documented use.

A name exported at the package top level passes when it is referenced in a
``src/`` module other than the one defining it and ``__init__.py``, in
``benchmarks/`` or ``perfbench/``, or in README.md.  A name that only its
own module and its tests use should be made private or deleted.
"""

import re
import types
from pathlib import Path

import pytest

import marketgraph

# the checkout of the package under test: src/marketgraph, two levels down
PACKAGE = Path(marketgraph.__file__).resolve().parent
ROOT = PACKAGE.parent.parent


def _public_names():
    return sorted(
        name for name, value in vars(marketgraph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def _defining_file(value):
    # classes and functions know their module; constants live in __init__.py
    module = getattr(value, "__module__", None) if callable(value) else None
    if module is None or not module.startswith("marketgraph."):
        return PACKAGE / "__init__.py"
    return PACKAGE / (module.split(".", 1)[1] + ".py")


def _sources(exclude):
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py" and f != exclude]
    files += sorted((ROOT / "benchmarks").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    files.append(ROOT / "README.md")
    return files


def test_public_names_found():
    names = _public_names()
    assert "learn_connected_gaussian" in names and "solvers" not in names


@pytest.mark.parametrize("name", _public_names())
def test_public_name_has_a_caller_or_documented_use(name):
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    files = _sources(_defining_file(getattr(marketgraph, name)))
    assert any(pattern.search(f.read_text()) for f in files), (
        f"marketgraph.{name} is used by no other src module, benchmarks/, perfbench/ "
        "or README.md; document it in the README or delete it"
    )
