"""The package's exports and its modules' ``__all__`` lists agree.

Every name a module lists in ``__all__`` must exist in it, and every name
the package root re-exports must be listed in its module's ``__all__``, so
that removing a function leaves no stale export behind.  The structure
guards keep a realization's real Schur form behind ``descriptor_ops``, and
the pencil's and the pairing's internals behind ``loewner_core`` and
``freq_data``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

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


SCHUR_INTERNALS = {"_schur", "_real_schur", "_schur_values", "_eigenvalues", "_SchurForm"}


def _module_trees():
    """(module name, parsed source) for every module of the package."""
    for path in sorted(Path(loewner_lab.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _lookups(tree):
    """Every identifier a module imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _names(tree):
    """Every identifier a module reads, imports or looks up as an attribute."""
    yield from (node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    yield from _lookups(tree)


def test_the_schur_form_stays_behind_descriptor_ops():
    # Every other module reaches a realization's real Schur form through
    # eval_transfer, poles and stable_antistable_split only.
    leaks = [
        f"{module}: {name}"
        for module, tree in _module_trees() if module != "descriptor_ops"
        for name in sorted(SCHUR_INTERNALS & set(_names(tree)))
    ]
    assert leaks == []


# Private names that only their own module may name: the Loewner pencil's
# assembly, leading-subspace factorization and projection, and the
# conjugate-partner lookup.
OWNED_INTERNALS = {
    "loewner_core": {"_assemble", "_leading_left", "_project"},
    "freq_data": {"_conjugate_index"},
}


def test_pencil_and_pairing_internals_stay_in_their_modules():
    # The LDDC sweep takes its candidates from loewner_core._sweep_candidates
    # and solves the whole grid, so no other module reaches into these.
    leaks = [
        f"{module}: {name}"
        for module, tree in _module_trees()
        for owner, internals in OWNED_INTERNALS.items() if module != owner
        for name in sorted(internals & set(_names(tree)))
    ]
    assert leaks == []


def test_no_module_calls_scipy_eig():
    # Poles come from the realization's one real QZ, not a second
    # eigensolve; no module names any ``eig`` (scipy's or numpy's).
    users = [module for module, tree in _module_trees() if "eig" in set(_names(tree))]
    assert users == []


def test_no_module_takes_a_determinant():
    # Regularity has one rule, the realization's cached QZ: no module
    # imports or looks up ``det`` or ``slogdet`` (numpy's or scipy's).
    # A local name, such as the Schur solve's block determinant, is no
    # lookup.
    users = [
        module for module, tree in _module_trees() if {"det", "slogdet"} & set(_lookups(tree))
    ]
    assert users == []


def test_no_module_warns():
    # The package reports through exceptions and report fields only: no
    # module imports ``warnings`` or calls any ``warn``.
    users = [
        module for module, tree in _module_trees() if {"warnings", "warn"} & set(_names(tree))
    ]
    assert users == []
