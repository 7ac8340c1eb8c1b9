"""Every name ``exitsim`` exports, and every function, class, method and
property it defines, has a caller in the product.

A definition that only the tests use belongs in ``tests/reference.py``,
not in the package.  The scan matches bare names, so a name collision
hides dead code: a method passes whenever code in ``src/exitsim/`` or
``scripts/`` reads the same name for anything else.  ``expected``
and ``index`` are such names (a local variable and ``list.index``).

No product module imports a ``_``-prefixed name from another ``exitsim``
module: a name another module needs is public.
"""

import ast
import os
import subprocess
import sys

import exitsim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "exitsim")
PRODUCT_DIRS = ("src/exitsim", "scripts")

# Definitions with no product caller, and why each stays.
UNREAD_ALLOWED = {
    "TokenTrace": "bench/tracer.py imports it to patch from_arrays",
    "TokenTrace.from_arrays": "bench/tracer.py wraps it as a per-layer stage",
}


def names_used(path):
    """Every name the code of ``path`` reads, as a bare name, an attribute
    or an import.  A definition's or assignment's own name and string
    literals, docstrings included, are not uses."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def definitions(path):
    """``(qualified name, name)`` of every top-level function or class of
    ``path`` and every non-dunder method or property of its classes."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.name


def product_files():
    for directory in PRODUCT_DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, directory))):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(ROOT, directory, name)


def product_names():
    return set().union(*(names_used(path) for path in product_files()))


def exported_names():
    with open(exitsim.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_has_a_product_caller():
    assert sorted(exported_names() - product_names()) == []


def test_every_definition_has_a_product_caller():
    used = product_names()
    unread = {
        qualified
        for name in sorted(os.listdir(PACKAGE_DIR))
        if name.endswith(".py")
        for qualified, bare in definitions(os.path.join(PACKAGE_DIR, name))
        if bare not in used
    }
    assert sorted(unread) == sorted(UNREAD_ALLOWED)


def test_docstrings_are_not_uses(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""Mentions run_caption."""\n'
        "def run_caption():\n"
        '    """And reward."""\n'
        "x = speedup_ratio(h).total\n"
        "from exitsim.cascade import exit_counts\n"
    )
    assert names_used(str(path)) == {"speedup_ratio", "h", "total", "exit_counts"}


def private_imports(path):
    """``(module, name)`` of every ``_``-prefixed name that ``path``
    imports from an ``exitsim`` module, relative imports included; a
    relative module is written with its leading dots."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    return [
        ("." * node.level + (node.module or ""), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "exitsim")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_name_crosses_a_module_boundary():
    # The tests may reach into a module; product code may not.
    paths = [*product_files(), os.path.join(PACKAGE_DIR, "__init__.py")]
    found = [
        (os.path.relpath(path, ROOT), *hit)
        for path in paths
        for hit in private_imports(path)
    ]
    assert found == []


def test_private_imports_are_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""from exitsim.cli import _quoted"""\n'
        "from exitsim.cli import ABLATION_SCHEMA, _helper\n"
        "from .bandit import _fold as fold\n"
        "from . import _module\n"
        "from exitsim import cli as _cli\n"
        "from numpy import _private\n"
        "from exitsimulator import _other\n"
        "def f():\n"
        "    from exitsim.synth import _MATRIX_SPAN\n"
    )
    assert private_imports(str(path)) == [
        ("exitsim.cli", "_helper"),
        (".bandit", "_fold"),
        (".", "_module"),
        ("exitsim.synth", "_MATRIX_SPAN"),
    ]


# Installs the benchmark's tracer over the package under test and checks
# that it wraps TokenTrace.from_arrays, the allowlisted method.
_TRACER_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from exitsim.cascade import TokenTrace
TokenTrace.from_arrays([0.5, 0.25], [1, 2])
print(tracer.metrics(0.0)["cascade.TokenTrace.from_arrays.calls"])
"""


def test_the_bench_tracer_installs_over_the_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(exitsim.__file__))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # bench/ is only read
    result = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE, os.path.join(ROOT, "bench")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1"]
