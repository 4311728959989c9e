"""The declared runtime dependencies import, the public names resolve, and
no module keeps an import it never reads."""

import ast
import glob
import importlib
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYPROJECT = os.path.join(ROOT, "pyproject.toml")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_dependencies_import():
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for spec in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_public_names_resolve():
    import tatkit

    missing = [name for name in tatkit.__all__ if not hasattr(tatkit, name)]
    assert not missing, f"names in tatkit.__all__ are gone: {missing}"


def test_module_imports_are_used():
    # every module-level import of a tatkit module is read in that module, or
    # its statement carries "# noqa: F401" with a reason naming it
    unused = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tatkit", "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source)
        lines = source.split("\n")
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            _, _, reason = lines[stmt.lineno - 1].partition("# noqa: F401")
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and name not in reason:
                    unused.append(f"{os.path.basename(path)}:{stmt.lineno} {name}")
    assert not unused, f"module-level imports never read: {unused}"


def test_private_helpers_are_read():
    # every module-level _name (function, class or constant) of tatkit is
    # read somewhere in tatkit, as a name or as a module attribute: no
    # private helper outlives its last caller
    defined, read = {}, set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tatkit", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{os.path.basename(path)}:{stmt.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    orphans = [f"{site} {name}" for name, site in defined.items() if name not in read]
    assert not orphans, f"private module-level names never read: {orphans}"


def test_library_reads_what_it_keeps():
    # every MonomialBasis array is read as an attribute in tatkit outside the
    # class, and every public tensorops product is called from another
    # tatkit module (not counting the re-exports in __init__): no field or
    # product outlives its last library reader
    trees = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tatkit", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    cls = next(stmt for stmt in trees["lowrank.py"].body
               if isinstance(stmt, ast.ClassDef) and stmt.name == "MonomialBasis")
    fields = {stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)} - {"d", "g"}
    inside = {id(node) for node in ast.walk(cls)}
    products = {stmt.name for stmt in trees["tensorops.py"].body
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")}
    attrs, called = set(), set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in inside):
                attrs.add(node.attr)
            if name not in ("tensorops.py", "__init__.py") and isinstance(node, ast.Call):
                called.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
    assert fields and products
    unread = sorted(fields - attrs) + sorted(products - called)
    assert not unread, f"kept but never read by the library: {unread}"


def _holds_abs(expr, abs_names):
    # an abs call, or a name the function bound to an expression holding one
    return any((isinstance(node, ast.Call) and "abs" in (getattr(node.func, "attr", None),
                                                        getattr(node.func, "id", None)))
               or (isinstance(node, ast.Name) and node.id in abs_names)
               for node in ast.walk(expr))


def _column_max_of_abs(call, abs_names):
    # a max-reduction along an axis of an expression holding an abs:
    # X.max(axis=k), np.max(X, k), np.amax(X, k) or np.maximum.reduce(X[, k])
    # (a ufunc's reduce runs along axis 0 when none is given)
    f = call.func
    if not isinstance(f, ast.Attribute):
        return False
    axis = next((k.value for k in call.keywords if k.arg == "axis"), None)
    if f.attr == "reduce" and getattr(f.value, "attr", None) == "maximum":
        operand, at, default = call.args[0], 1, ast.Constant(0)
    elif f.attr in ("max", "amax") and getattr(f.value, "id", None) == "np":
        operand, at, default = call.args[0], 1, None
    elif f.attr == "max":
        operand, at, default = f.value, 0, None
    else:
        return False
    axis = axis or (call.args[at] if len(call.args) > at else default)
    if axis is None or (isinstance(axis, ast.Constant) and axis.value is None):
        return False
    return _holds_abs(operand, abs_names)


def test_column_maxima_are_taken_once():
    # lowrank.row_bounds takes the projections' column maxima for every
    # reader (both engines' admission, the fast engine's feature scaling,
    # the specification and the error budget); no other function does
    sites = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tatkit", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            abs_names = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                         and _holds_abs(node.value, ()) for target in node.targets
                         if isinstance(target, ast.Name)}
            if any(isinstance(node, ast.Call) and _column_max_of_abs(node, abs_names)
                   for node in ast.walk(fn)):
                sites.append(f"{os.path.basename(path)}:{fn.name}")
    assert sites == ["lowrank.py:row_bounds"], f"column maxima of |.| taken in {sites}"


def test_exp_limit_is_compared_once():
    # every dense stream (the exact engine, the FD oracle, the hard-curve
    # probe) calls exact.check_exp_limit instead of spelling its own test
    sites = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tatkit", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            # a bare name or an attribute such as exact.EXP_ARG_LIMIT
            names = {getattr(sub, "id", None) or getattr(sub, "attr", None)
                     for sub in ast.walk(node)}
            if "EXP_ARG_LIMIT" in names:
                sites.append(f"{os.path.basename(path)}:{node.lineno}")
    assert len(sites) == 1, f"comparisons against EXP_ARG_LIMIT: {sites}"


def _calls(node, name):
    # a call of ``name``, bare or as an attribute such as lowrank.build_basis
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def _clamps_at_one(node):
    # np.maximum(col_max, 1.0): each column's divisor, its maximum where that exceeds 1
    return (_calls(node, "maximum") and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == 1)


def test_feature_stage_is_written_once():
    # lowrank.staged_features alone chooses the degree, builds the basis and
    # scales the feature columns; the fast engine and the specification
    # both call it instead of keeping a copy
    stages = {"choose_degree": lambda node: _calls(node, "choose_degree"),
              "build_basis": lambda node: _calls(node, "build_basis"),
              "column scaling": _clamps_at_one}
    sites = {what: [] for what in stages}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tatkit", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for what, test in stages.items():
                if any(test(node) for node in ast.walk(fn)):
                    sites[what].append(f"{os.path.basename(path)}:{fn.name}")
    assert sites == {what: ["lowrank.py:staged_features"] for what in stages}, sites
