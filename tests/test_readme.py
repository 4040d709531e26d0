"""The README's library snippet runs as written."""

import contextlib
import io
import os
import re

from ssd.corpus import write_dataset

from conftest import make_support_corpus

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_snippet() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs(tmp_path, monkeypatch):
    write_dataset(make_support_corpus(200, seed=41, hierarchical=True),
                  str(tmp_path / "data.csv"))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_snippet(), "README.md", "exec"), {})
    macro_f1, label = out.getvalue().splitlines()
    assert 0.9 <= float(macro_f1) <= 1.0
    assert label.startswith("HierLabel(support='SS'")
