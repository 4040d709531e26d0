"""The README's library snippet runs and its config loads as written."""

import contextlib
import io
import json
import os
import re

from ssd.corpus import write_dataset
from ssd.pipeline import config_from_dict

from conftest import make_support_corpus

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_block(heading: str, lang: str) -> str:
    """The first `lang` code block under a README heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs(tmp_path, monkeypatch):
    write_dataset(make_support_corpus(200, seed=41, hierarchical=True),
                  str(tmp_path / "data.csv"))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("## Library", "python"), "README.md", "exec"), {})
    macro_f1, label = out.getvalue().splitlines()
    assert 0.9 <= float(macro_f1) <= 1.0
    assert label.startswith("HierLabel(support='SS'")


def test_config_example_loads():
    raw = json.loads(readme_block("### Experiment config", "json"))
    cfg = config_from_dict(raw)
    assert cfg.models == tuple(raw["models"])
    assert cfg.hyperparameters == raw["hyperparameters"]
