"""The benchmark tracer's bindings still exist on the library modules.

``perfbench/tracing.py`` swaps named attributes of hetclaw modules for
wrappers during a traced round.  Some of those names are imported but not
called by the module that holds them, so a cleanup that drops them would
only break the traced benchmark; these tests catch that in the main
suite, along with a dropped argument that a wrapper reads off a call.
The last four tests keep the library free of imports nothing uses, of
private constants read across modules, of public names only tests call,
and of exemptions from that rule for names that no longer exist.
"""
from __future__ import annotations

import ast
import glob
import importlib.util
import inspect
import os
import re

import pytest

import hetclaw

ROOT = os.path.dirname(os.path.dirname(__file__))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, *_ in tracing.PATCHES],
    ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_traced_name_is_bound(module, attr):
    assert hasattr(module, attr)


# Arguments each describer kind reads off the patched call.
DESCRIBED = {
    "scalar_march": {"t", "dt_max"},
    "batch_march": {"q0", "t", "dt_max"},
    "batch_record": {"q0", "record_times", "dt_max"},
    "solve": {"shoot_tol"},
    "solve_batch": {"shoot_tol"},
    "evolve": {"u0"},
}


@pytest.mark.parametrize(
    "module, attr, kind",
    [(m, a, k) for m, a, _, k, _ in tracing.PATCHES if k in DESCRIBED],
    ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_traced_signature_has_the_described_arguments(module, attr, kind):
    params = inspect.signature(getattr(module, attr)).parameters
    assert DESCRIBED[kind] <= set(params)


SRC = os.path.join(ROOT, "src", "hetclaw")


@pytest.mark.parametrize("fname", sorted(f for f in os.listdir(SRC)
                                         if f.endswith(".py")))
def test_no_dead_imports(fname):
    """Every imported name is used, exported in ``__all__``, or a name the
    tracer swaps on that module."""
    with open(os.path.join(SRC, fname)) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    module = f"hetclaw.{fname[:-3]}"
    traced = {a for m, a, *_ in tracing.PATCHES if m.__name__ == module}
    dead = imported - used - exported - traced
    assert not dead, f"{fname} imports {sorted(dead)} and never uses them"


@pytest.mark.parametrize("fname", sorted(f for f in os.listdir(SRC)
                                         if f.endswith(".py")))
def test_no_private_constants_from_siblings(fname):
    """No module reads a private constant (``_UPPER_CASE``) of another, so
    a rule such as a quadrature's nodes and panels has one home and is
    changed in one place."""
    with open(os.path.join(SRC, fname)) as fh:
        tree = ast.parse(fh.read())
    borrowed = [f"{node.module}.{a.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("hetclaw"))
                for a in node.names if re.fullmatch(r"_[A-Z0-9_]+", a.name)]
    assert not borrowed, f"{fname} imports {borrowed}"


# Independent routes to a number the library computes another way, kept
# for the tests that compare the two; no experiment calls them.
# period_by_ode backs acceptance criterion 4; godunov_flux is the plain
# interface flux the FVM bit tests hold the in-place _update to.
REFERENCE_ROUTES = {"period_by_ode", "godunov_flux"}


def _references(path):
    """Names a file reads, as a variable, an attribute or a string."""
    with open(path) as fh:
        nodes = list(ast.walk(ast.parse(fh.read())))
    return ({n.id for n in nodes if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.value for n in nodes if isinstance(n, ast.Constant)})


def _public_definitions():
    """The exports and every public module-level function and class."""
    names = set(hetclaw.__all__)
    for fname in os.listdir(SRC):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                body = ast.parse(fh.read()).body
            names |= {node.name for node in body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_")}
    return names


def test_every_export_has_a_caller_outside_the_tests():
    """A public name only its own test calls is a diagnostic the library
    need not carry."""
    files = [os.path.join(SRC, f) for f in os.listdir(SRC)
             if f.endswith(".py") and f != "__init__.py"]
    files += glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    refs = set().union(*map(_references, files))
    unused = _public_definitions() - refs - REFERENCE_ROUTES
    assert not unused, f"only tests use {sorted(unused)}"


def test_reference_routes_are_public_names_that_exist():
    """Every exempted reference route is still a public name, so an
    exemption leaves the lint with its route."""
    stale = REFERENCE_ROUTES - _public_definitions()
    assert not stale, f"REFERENCE_ROUTES names {sorted(stale)}, which " \
                      f"src/hetclaw does not define in public"
