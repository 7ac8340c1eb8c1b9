"""README runs as written: the "Library sketch" against the package at
small counts, and every row of the "Exit codes" table through the CLI,
so neither can drift from the code."""

import os
import re
import shlex

import numpy as np
import pytest

from exitsim import ToyConfig, cli, init_cascade, save_cascade

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_section(pattern):
    with open(README, encoding="utf-8") as handle:
        [section] = re.findall(pattern, handle.read(), re.S | re.M)
    return section


def library_sketch():
    return readme_section(r"^## Library sketch\n\n```python\n(.*?)^```")


def test_library_sketch_runs_at_small_counts(capsys):
    code = library_sketch()
    # The sketch's token budget and oracle sample count, made small.
    assert "100_000" in code and "200_000" in code
    code = code.replace("100_000", "2_000").replace("200_000", "1_000")
    namespace = {}
    exec(compile(code, "README.md (Library sketch)", "exec"), namespace)
    assert capsys.readouterr().out
    assert namespace["cell"].t == 2_000
    assert [c.t for c in namespace["cells"]] == [2_000] * 4
    assert len(namespace["estimates"]) == len(namespace["sigmas"])


def exit_code_table():
    return readme_section(r"^### Exit codes\n(.*?)^#")


ROW = r"^\| (\d) \| (\w+) \| [^\n]* \| `exitsim ([^`]*)` \|$"
ROWS = [
    (int(code), category, shlex.split(example))
    for code, category, example in re.findall(ROW, exit_code_table(), re.M)
]


def write_input_files(root):
    """The input files the Exit codes table says its examples run beside."""
    (root / "seed.json").write_text('{"seed": 3}')
    (root / "latin1.json").write_bytes('{"gamma": "café"}'.encode("latin-1"))
    narrow = init_cascade(ToyConfig(input_dim=3), np.random.default_rng(0))
    narrow.frozen = True
    save_cascade(narrow, str(root / "narrow.json"))


def files_under(root):
    return sorted(
        os.path.relpath(os.path.join(path, name), root)
        for path, _, names in os.walk(root)
        for name in names
    )


def test_every_exit_code_row_parses_and_each_code_has_one_category():
    lines = [line for line in exit_code_table().splitlines() if line.startswith("| ")]
    assert len(ROWS) == len(lines) - 1  # every line but the header
    assert {(code, category) for code, category, _ in ROWS} == {
        (2, "config"), (3, "input"), (4, "runtime")
    }


@pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning"
)
@pytest.mark.parametrize(
    "code, category, argv", ROWS, ids=[shlex.join(argv) for _, _, argv in ROWS]
)
def test_exit_code_table_row_runs_as_documented(
    code, category, argv, tmp_path, capsys, monkeypatch
):
    write_input_files(tmp_path)
    inputs = files_under(tmp_path)
    monkeypatch.chdir(tmp_path)  # the default --out-dir
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {category}: ") and len(err.splitlines()) == 1
    assert out == ""
    assert files_under(tmp_path) == inputs  # no output, not even a temp file
