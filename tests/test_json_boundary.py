"""Every JSON document crosses the file boundary in ``exitsim.staging``.

``staging.read_json`` is the one JSON parse, ``staging.write_json`` the one
strict serializer and ``staging.check_format`` the one format-and-version
check.  A scan of ``src/exitsim/`` keeps a second copy of any of them from
growing elsewhere, as the checkpoint's and the snapshot's once did.
"""

import ast
import os

import exitsim

PACKAGE_DIR = os.path.dirname(os.path.abspath(exitsim.__file__))
BOUNDARY = "staging.py"
DOCUMENT_KEYS = ("format", "version")


def _is_key(node):
    return isinstance(node, ast.Constant) and node.value in DOCUMENT_KEYS


def boundary_uses(path):
    """``(line, what)`` of each JSON parse (``json.load``, ``json.loads``),
    each ``allow_nan`` argument and each read of a ``"format"`` or
    ``"version"`` key (a subscript, a ``.get`` or an ``in`` test) in the
    module at ``path``.  Dict literals that write those keys are not reads."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
            and node.attr in ("load", "loads")
        ):
            yield node.lineno, f"json.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            for alias in node.names:
                if alias.name in ("load", "loads"):
                    yield node.lineno, f"json.{alias.name}"
        elif isinstance(node, ast.keyword) and node.arg == "allow_nan":
            yield node.lineno, "allow_nan"
        elif isinstance(node, ast.Subscript) and _is_key(node.slice):
            yield node.lineno, f"[{node.slice.value!r}]"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and _is_key(node.args[0])
        ):
            yield node.lineno, f".get({node.args[0].value!r})"
        elif (
            isinstance(node, ast.Compare)
            and _is_key(node.left)
            and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        ):
            yield node.lineno, f"{node.left.value!r} in"


def test_only_staging_parses_serializes_strictly_or_reads_a_document_header():
    found = {
        name: list(boundary_uses(os.path.join(PACKAGE_DIR, name)))
        for name in sorted(os.listdir(PACKAGE_DIR))
        if name.endswith(".py") and name != BOUNDARY
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_scan_finds_the_boundary_in_staging():
    uses = {what for _, what in boundary_uses(os.path.join(PACKAGE_DIR, BOUNDARY))}
    assert {"json.load", "allow_nan", ".get('format')", ".get('version')"} <= uses


def test_the_scan_finds_reads_not_writes(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import json\n"
        "from json import loads\n"
        "doc = json.loads(text)\n"
        "json.dumps(doc, allow_nan=True)\n"
        "if doc['format'] != 'x' or 'version' not in doc:\n"
        "    doc.get('version')\n"
        "out = {'format': 'x', 'version': 1}\n"
        "name = doc.format\n"
    )
    assert sorted(boundary_uses(str(path))) == [
        (2, "json.loads"),
        (3, "json.loads"),
        (4, "allow_nan"),
        (5, "'version' in"),
        (5, "['format']"),
        (6, ".get('version')"),
    ]
