"""Every name ``exitsim`` exports has a caller in the product.

A name that only the tests use belongs in ``tests/reference.py``, not in
the package's public surface.
"""

import ast
import os

import exitsim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRODUCT_DIRS = ("src/exitsim", "scripts")


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


def product_files():
    for directory in PRODUCT_DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, directory))):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(ROOT, directory, name)


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
    used = set().union(*(names_used(path) for path in product_files()))
    assert sorted(exported_names() - used) == []


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
