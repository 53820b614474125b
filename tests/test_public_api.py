"""The package's exports and its modules' ``__all__`` lists agree.

Every name a module lists in ``__all__`` must exist in it, and every name
the package root re-exports must be listed in its module's ``__all__``, so
that removing a function leaves no stale export behind.  The structure
guards keep a realization's real Schur form and scipy behind
``descriptor_ops``, the pencil's and the pairing's internals behind
``loewner_core`` and ``freq_data``, and every other module's private
names out of ``cli``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
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


def test_no_public_function_takes_a_threshold():
    # The rank cut and the stability threshold are module constants
    # (loewner_core.RANK_TOL, mfsa.STABILITY_EPSILON), set in one place; a
    # test that needs another value patches the constant.
    takes = []
    for name in MODULES:
        module = importlib.import_module(f"loewner_lab.{name}")
        for export in module.__all__:
            fn = getattr(module, export)
            if inspect.isfunction(fn):
                params = inspect.signature(fn).parameters
                takes += [f"{name}.{export}({p})" for p in ("tol", "epsilon") if p in params]
    assert takes == []


SCHUR_INTERNALS = {
    "_schur", "_real_schur", "_gges", "_schur_values", "_eigenvalues", "_SchurForm",
}


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
    # eval_transfer, poles and stable_antistable_split only, and the PI
    # screen's eigenvalue-only QZ through _unity_loop_poles.
    leaks = [
        f"{module}: {name}"
        for module, tree in _module_trees() if module != "descriptor_ops"
        for name in sorted(SCHUR_INTERNALS & set(_names(tree)))
    ]
    assert leaks == []


# Private names that only their own module may name: the Loewner pencil's
# assembly, leading-subspace factorization and projection, the
# conjugate-partner lookup, and the bound LAPACK routines.
OWNED_INTERNALS = {
    "loewner_core": {"_assemble", "_leading_left", "_project"},
    "freq_data": {"_conjugate_index"},
    "descriptor_ops": {"_lapack"},
}


def test_pencil_and_pairing_internals_stay_in_their_modules():
    # The LDDC sweep takes its candidates from loewner_core._sweep_candidates
    # and solves the whole grid, so no other module reaches into these; and
    # every LAPACK call, the PI screen's QZ included, is made in
    # descriptor_ops.
    leaks = [
        f"{module}: {name}"
        for module, tree in _module_trees()
        for owner, internals in OWNED_INTERNALS.items() if module != owner
        for name in sorted(internals & set(_names(tree)))
    ]
    assert leaks == []


def test_cli_imports_only_the_one_delay_rule_privately():
    # The CLI decides no verdict, pick or file format itself: it calls the
    # public names of the modules that own them.  Its one private import
    # is descriptor_ops._check_delays, the package's one delay rule, which
    # it applies to the delay-sweep bounds before building the delays.
    tree = dict(_module_trees())["cli"]
    private = sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name.startswith("_")
    )
    lookups = sorted(
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in MODULES and node.attr.startswith("_")
    )
    assert (private, lookups) == (["descriptor_ops._check_delays"], [])


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


def _mentions_scipy(tree):
    """Whether a module reads, imports or names (as a module-path string)
    ``scipy`` or any of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value if re.fullmatch(r"[\w.]+", node.value) else ""
        else:
            continue
        if name.split(".")[0] == "scipy":
            return True
    return False


def _import_time_modules(tree):
    """Every module a module imports when it is itself imported: its
    import statements outside function bodies."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))


def test_only_descriptor_ops_names_scipy():
    # descriptor_ops binds scipy's three LAPACK routines in one function;
    # no other module reaches scipy.
    users = [module for module, tree in _module_trees() if _mentions_scipy(tree)]
    assert users == ["descriptor_ops"]


def test_no_module_imports_scipy_linalg_at_import_time():
    # ``import scipy.linalg`` runs the package's whole init, most of the
    # library's import time; only the binding's fallback may import it.
    users = [
        f"{module}: {name}"
        for module, tree in _module_trees()
        for name in _import_time_modules(tree)
        if name.split(".")[:2] == ["scipy", "linalg"]
    ]
    assert users == []
