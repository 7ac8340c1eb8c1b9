"""README's "Library sketch" runs as written against the package, at
small counts, so the sketch cannot drift from the API."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_sketch():
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    sketch = r"^## Library sketch\n\n```python\n(.*?)^```"
    [code] = re.findall(sketch, text, re.S | re.M)
    return code


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
