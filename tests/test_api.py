"""The public surface: the package's exported names and the README's example."""

import contextlib
import io
import re
from pathlib import Path

import graphres

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from graphres import *", namespace)
    assert set(graphres.__all__) <= namespace.keys()


def test_the_readme_library_example_prints_its_comments():
    # the one python block under "## Library", run as written
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    [code] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the results its comments give: 11 resonances, unitary S, non-Weyl 0.2853
    assert len(lines) == 4
    assert lines[0].startswith("11 [")
    assert lines[1] == "True"
    label, slope = lines[3].split()
    assert label == "non-Weyl" and round(float(slope), 4) == 0.2853
