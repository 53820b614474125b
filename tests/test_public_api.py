"""The package's exports and its modules' ``__all__`` lists agree.

Every name a module lists in ``__all__`` must exist in it, and every name
the package root re-exports must be listed in its module's ``__all__``, so
that removing a function leaves no stale export behind.
"""

from __future__ import annotations

import ast
import importlib
import inspect

import pytest

import loewner_lab

# ``errors`` has no ``__all__``: every class it defines is public.
MODULES = [
    "cli",
    "descriptor_ops",
    "freq_data",
    "lddc",
    "loewner_core",
    "mfsa",
    "pi_synth",
    "plant_oracle",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"loewner_lab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _root_imports():
    """(module, name) for every ``from .module import name`` in the root."""
    tree = ast.parse(inspect.getsource(loewner_lab))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_root_exports_are_listed_in_their_modules():
    unlisted = []
    for module_name, name in _root_imports():
        module = importlib.import_module(f"loewner_lab.{module_name}")
        if name not in module.__all__:
            unlisted.append(f"{module_name}.{name}")
    assert unlisted == []

