"""The README's commands and library snippet run, and its config loads, as
written."""

import contextlib
import io
import json
import os
import re
import shlex

from ssd import models as M
from ssd.cli import main
from ssd.corpus import write_dataset
from ssd.pipeline import CONFIG_FIELDS, config_from_dict

from conftest import CATEGORY_DIC, EMOTION_TSV, VALENCE_TSV, make_support_corpus

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


def test_every_config_key_is_documented():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n### Experiment config\n", 1)[1].split("\n### ", 1)[0]
    assert [key for key in CONFIG_FIELDS if f'"{key}"' not in section
            and f"`{key}`" not in section] == []


def test_hyperparameter_table_is_the_family_table():
    """The README's table names every (family, hyperparameter) of
    M.FAMILIES, in its order, with its default and admitted values."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n#### Model hyperparameters\n", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `(.+?)` \| (.+?) \|$", section, re.M)
    assert [(family, name) for family, name, _, _ in rows] == [
        (family, name) for family, row in M.FAMILIES.items() for name in row.hyper]
    for family, name, default, says in rows:
        assert (json.loads(default), says) == (
            M.FAMILIES[family].hyper[name][0], M.FAMILIES[family].hyper[name][1].says)


def test_command_line_block_runs(tmp_path, monkeypatch):
    """Every command but `fetch` (it needs the network) exits 0, run in
    order in one directory holding the files the commands name."""
    ds = make_support_corpus(200, seed=41, hierarchical=True)
    for name in ("data.csv", "a.csv", "b.csv"):
        write_dataset(ds, str(tmp_path / name))
    for name, text in (("liwc.dic", CATEGORY_DIC), ("emo.tsv", EMOTION_TSV),
                       ("val.tsv", VALENCE_TSV)):
        (tmp_path / name).write_text(text)
    (tmp_path / "exp.json").write_text(json.dumps({
        "dataset": "data.csv", "subtask": 1,
        "features": ["tfidf", "liwc", "emotion", "sentiment"],
        "scaling": "zscore", "models": ["lr"], "folds": 2,
        "lexicons": {"category": "liwc.dic", "emotion": "emo.tsv",
                     "valence": "val.tsv"},
        "tfidf": {"min_df": 1}, "hyperparameters": {"lr": {"max_iter": 50}},
    }))
    texts = make_support_corpus(6, seed=42).texts()
    (tmp_path / "new.csv").write_text(
        "id,text\n" + "".join(f"n{i},{t}\n" for i, t in enumerate(texts)))
    (tmp_path / "comments.txt").write_text("".join(f"{t}\n" for t in texts))
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in readme_block("## Command line", "sh").splitlines():
        args = shlex.split(line, comments=True)
        assert args[0] == "ssd"
        if args[1] != "fetch":
            assert main(args[1:]) == 0, line
            ran.append(args[1])
    assert len(ran) == 8
