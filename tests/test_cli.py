"""End-to-end command-line runs through main(): outputs, files, exit codes."""

import csv
import io
import json
from pathlib import Path

import pytest

from ssd.cli import main
from ssd.corpus import write_dataset
from ssd.errors import DataError
from ssd.ingest import API_KEY_ENV

from conftest import make_support_corpus


@pytest.fixture
def workdir(tmp_path, lexicon_files):
    ds = make_support_corpus(200, seed=17, hierarchical=True)
    data = tmp_path / "data.csv"
    write_dataset(ds, str(data))
    cfg = {
        "dataset": "data.csv",
        "subtask": 1,
        "features": ["tfidf"],
        "models": ["lr"],
        "folds": 5,
        "seed": 1,
        "tfidf": {"min_df": 1},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    return {"tmp": tmp_path, "ds": ds, "data": str(data),
            "config": str(cfg_path), "lex": lexicon_files}


class TestStats:
    def test_text_output(self, workdir, capsys):
        assert main(["stats", workdir["data"]]) == 0
        out = capsys.readouterr().out
        assert "SS" in out and "NSS" in out

    def test_json_output(self, workdir, capsys):
        assert main(["stats", workdir["data"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counts = payload["subtask1"]
        assert counts["SS"] + counts["NSS"] == 200

    def test_missing_file_is_data_error(self, capsys):
        assert main(["stats", "no/such/file.csv"]) == 2
        assert "error:" in capsys.readouterr().err


class TestProfile:
    def test_table_output(self, workdir, capsys):
        code = main(["profile", workdir["data"],
                     "--category", workdir["lex"]["category"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "Category features" in out

    def test_json_output(self, workdir, capsys):
        code = main(["profile", workdir["data"], "--json",
                     "--valence", workdir["lex"]["valence"]])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["labels"] == ["SS", "NSS"]

    def test_no_lexicon_is_usage_error(self, workdir, capsys):
        assert main(["profile", workdir["data"]]) == 1
        assert "lexicon" in capsys.readouterr().err


class TestMissingInputFiles:
    """A path that cannot be opened is one `error:` line and exit 2."""

    @staticmethod
    def assert_one_error_line(capsys, kind):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind} file not found: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag,kind", [
        ("--category", "category lexicon"),
        ("--emotion", "emotion lexicon"),
        ("--valence", "valence lexicon"),
    ])
    def test_profile_lexicon(self, workdir, capsys, flag, kind):
        nope = str(workdir["tmp"] / "nope")
        assert main(["profile", workdir["data"], flag, nope]) == 2
        self.assert_one_error_line(capsys, kind)

    @pytest.mark.parametrize("flag", ["--negators", "--boosters"])
    def test_profile_word_list(self, workdir, capsys, flag):
        nope = str(workdir["tmp"] / "nope")
        code = main(["profile", workdir["data"],
                     "--valence", workdir["lex"]["valence"], flag, nope])
        assert code == 2
        self.assert_one_error_line(capsys, flag[2:])

    def test_cv_category_lexicon(self, workdir, capsys):
        cfg = json.loads(Path(workdir["config"]).read_text())
        cfg.update(features=["liwc", "tfidf"], lexicons={"category": "nope.dic"})
        Path(workdir["config"]).write_text(json.dumps(cfg))
        assert main(["cv", "--config", workdir["config"]]) == 2
        self.assert_one_error_line(capsys, "category lexicon")


class TestCv:
    def test_prints_table_and_writes_artifacts(self, workdir, capsys):
        out_dir = workdir["tmp"] / "cvout"
        code = main(["cv", "--config", workdir["config"],
                     "--output-dir", str(out_dir)])
        assert code == 0
        captured = capsys.readouterr()
        assert "lr" in captured.out
        assert "F1(m)" in captured.out
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.md").exists()
        assert (out_dir / "timing.json").exists()

    def test_stdout_rows_carry_the_report_md_numbers(self, workdir, capsys):
        raw = json.loads(Path(workdir["config"]).read_text())
        raw["models"] = ["lr", "dt", "soft_vote"]
        Path(workdir["config"]).write_text(json.dumps(raw))
        out_dir = workdir["tmp"] / "cvout"
        assert main(["cv", "--config", workdir["config"],
                     "--output-dir", str(out_dir)]) == 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        md = (out_dir / "report.md").read_text()
        table = md.split("## Mean scores over folds\n\n")[1].split("\n\n")[0]
        summary = [line.strip("| ").split(" | ") for line in table.splitlines()[2:]]
        assert [row[0] for row in printed] == ["lr", "dt", "soft_vote"]
        assert printed == summary

    def test_seed_flag_overrides_config(self, workdir, capsys):
        out_a = workdir["tmp"] / "a"
        out_b = workdir["tmp"] / "b"
        main(["cv", "--config", workdir["config"], "--seed", "5",
              "--output-dir", str(out_a)])
        main(["cv", "--config", workdir["config"], "--seed", "5",
              "--output-dir", str(out_b)])
        capsys.readouterr()
        assert (out_a / "report.json").read_bytes() == \
            (out_b / "report.json").read_bytes()

    def test_missing_dataset_is_data_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dataset": "ghost.csv", "subtask": 1}))
        assert main(["cv", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(
            {"dataset": "d.csv", "subtask": 1, "classifier": "lr"}))
        assert main(["cv", "--config", str(cfg)]) == 1
        assert "classifier" in capsys.readouterr().err


    @pytest.mark.parametrize("key,value,named", [
        ("hyperparameters", {"lr": 5}, "lr"),
        ("hyperparameters", {"lr": "ab"}, "lr"),
        ("hyperparameters", {"xx": {}}, "xx"),
        ("hyperparameters", {"lr": {"C": -1}}, "lr.C"),
        ("preprocess", {"stem": "no"}, "stem"),
        ("preprocess", {"stemming": True}, "stemming"),
        ("hyperparameters", {"lr": {"learning_rate": 0.1}}, "learning_rate"),
        # svm_linear's Pegasos epochs, which max_iter replaced
        ("hyperparameters", {"svm_linear": {"epochs": 5}}, "epochs"),
    ])
    def test_bad_section_is_usage_error_before_data_is_read(
        self, tmp_path, capsys, key, value, named
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dataset": "ghost.csv", "subtask": 1, key: value}))
        assert main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key,value", [
        ("models", "lr"), ("features", "tfidf"), ("ensemble_members", "rf"),
    ])
    def test_bare_string_for_a_list_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dataset": "ghost.csv", "subtask": 1, key: value}))
        assert main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(key) in err and "must be a list" in err

    @pytest.mark.parametrize("what", ["a directory", "not UTF-8"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, what):
        cfg = tmp_path / "exp.json"
        if what == "a directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b'{"dataset": "\xff"}')
        assert main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err
        assert len(err.splitlines()) == 1

    def test_null_tfidf_max_features_is_usage_error(self, workdir, capsys):
        raw = json.loads(Path(workdir["config"]).read_text())
        raw["tfidf"] = {"max_features": None}
        cfg = workdir["tmp"] / "null.json"
        cfg.write_text(json.dumps(raw))
        assert main(["cv", "--config", str(cfg)]) == 1
        assert "max_features" in capsys.readouterr().err

    def test_zscore_with_tfidf_only(self, workdir, capsys):
        raw = json.loads(Path(workdir["config"]).read_text())
        raw["scaling"] = "zscore"
        cfg = workdir["tmp"] / "zscore.json"
        cfg.write_text(json.dumps(raw))
        out_dir = workdir["tmp"] / "zout"
        assert main(["cv", "--config", str(cfg), "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "report.json").exists()

class TestUnwritableOutputs:
    """An output path that cannot be written is one `error:` line and exit 2."""

    @pytest.mark.parametrize("command", ["train", "cascade-train"])
    def test_out_in_missing_directory(self, workdir, capsys, command):
        out = str(workdir["tmp"] / "missing_dir" / "p.json")
        assert main([command, "--config", workdir["config"], "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and out in err
        assert len(err.splitlines()) == 1

    FITS = {"train": "ssd.cli.fit_pipeline", "cascade-train": "ssd.cascade.train_cascade"}

    @pytest.mark.parametrize("command", ["train", "cascade-train"])
    def test_unwritable_out_fails_before_fitting(self, workdir, capsys, monkeypatch,
                                                  command):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking --out")

        monkeypatch.setattr(self.FITS[command], no_fit)
        out = str(workdir["tmp"] / "missing_dir" / "p.json")
        assert main([command, "--config", workdir["config"], "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")

    @pytest.mark.parametrize("command", ["train", "cascade-train"])
    def test_failed_fit_leaves_out_as_it_was(self, workdir, capsys, monkeypatch,
                                             command):
        def failing_fit(*args, **kwargs):
            raise DataError("the fit failed")

        monkeypatch.setattr(self.FITS[command], failing_fit)
        new = workdir["tmp"] / "new.json"
        assert main([command, "--config", workdir["config"], "--out", str(new)]) == 2
        assert not new.exists()
        old = workdir["tmp"] / "old.json"
        old.write_text("kept")
        assert main([command, "--config", workdir["config"], "--out", str(old)]) == 2
        assert old.read_text() == "kept"
        capsys.readouterr()

    def test_cv_output_dir_is_a_file(self, workdir, capsys):
        assert main(["cv", "--config", workdir["config"],
                     "--output-dir", workdir["data"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory ")
        assert len(err.splitlines()) == 1


def _reindex_a_word(env, index):
    vocabulary = env["tfidf"]["vocabulary"]
    vocabulary[min(vocabulary)] = index


class TestTrainPredict:
    def test_round_trip(self, workdir, capsys):
        model_path = workdir["tmp"] / "model.json"
        assert main(["train", "--config", workdir["config"],
                     "--out", str(model_path)]) == 0
        assert model_path.exists()

        pred_path = workdir["tmp"] / "preds.csv"
        assert main(["predict", "--model", str(model_path),
                     "--input", workdir["data"],
                     "--out", str(pred_path)]) == 0
        capsys.readouterr()
        lines = pred_path.read_text().strip().split("\n")
        assert lines[0] == "id,label,p_SS,p_NSS"
        assert len(lines) == 201
        # the planted corpus is separable, so training-set accuracy is high
        truth = {it.comment.id: it.label.support for it in workdir["ds"].items}
        hits = 0
        for line in lines[1:]:
            cid, label, p_ss, p_nss = line.split(",")
            assert abs(float(p_ss) + float(p_nss) - 1.0) < 1e-6
            hits += truth[cid] == label
        assert hits / 200 >= 0.95

    def test_ids_with_commas_and_quotes_stay_one_field(self, workdir, capsys):
        model_path = workdir["tmp"] / "model.json"
        main(["train", "--config", workdir["config"], "--out", str(model_path)])
        input_path = workdir["tmp"] / "odd_ids.csv"
        ids = ["plain", "a,b", 'say "hi"', "x1"]
        with open(input_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "text"])
            for cid in ids:
                writer.writerow([cid, "bless hope strong"])
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path),
                     "--input", str(input_path)]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["id", "label", "p_SS", "p_NSS"]
        assert [row[0] for row in rows[1:]] == ids
        assert all(len(row) == 4 for row in rows)
        # a plain id is written as it is, with no quotes
        assert out.splitlines()[1].startswith("plain,")
        assert out.splitlines()[4].startswith("x1,")

    def test_over_long_field_is_data_error(self, workdir, capsys):
        model_path = workdir["tmp"] / "model.json"
        main(["train", "--config", workdir["config"], "--out", str(model_path)])
        input_path = workdir["tmp"] / "long.csv"
        input_path.write_text("id,text\na,bless hope\nb," + "x" * 200_000 + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path),
                     "--input", str(input_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {input_path}:3: malformed CSV: field larger")
        assert len(err.splitlines()) == 1

    def test_predict_to_stdout(self, workdir, capsys):
        model_path = workdir["tmp"] / "model.json"
        main(["train", "--config", workdir["config"], "--out", str(model_path)])
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path),
                     "--input", workdir["data"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("id,label,")

    def test_missing_model_file(self, workdir, capsys):
        assert main(["predict", "--model", "ghost.json",
                     "--input", workdir["data"]]) == 2
        capsys.readouterr()

    def test_listed_block_without_its_lexicon_is_format_error(self, workdir, capsys):
        cfg = json.loads(Path(workdir["config"]).read_text())
        cfg.update(features=["liwc", "tfidf"],
                   lexicons={"category": workdir["lex"]["category"]})
        Path(workdir["config"]).write_text(json.dumps(cfg))
        model_path = workdir["tmp"] / "model.json"
        assert main(["train", "--config", workdir["config"],
                     "--out", str(model_path)]) == 0
        env = json.loads(model_path.read_text())
        del env["lexicons"]["category"]
        env["lexicon_fingerprints"] = {}
        model_path.write_text(json.dumps(env))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path),
                     "--input", workdir["data"]]) == 2
        err = capsys.readouterr().err
        assert "'liwc'" in err and "'category'" in err

    @pytest.mark.parametrize("features,edit,section", [
        (["tfidf"], lambda env: env.pop("tfidf"), "'tfidf'"),
        (["tfidf"], lambda env: env.update(tfidf="x"), "'tfidf'"),
        (["liwc", "tfidf"], lambda env: env["lexicons"].update(category={}),
         "'lexicons.category'"),
        # unchecked, these failed with an IndexError at the first predict,
        # labelled with three idf weights, or weighted a word by the last idf
        (["tfidf"], lambda env: _reindex_a_word(env, 10**6), "'tfidf'"),
        (["tfidf"], lambda env: env["tfidf"].update(idf=env["tfidf"]["idf"][:3]),
         "'tfidf'"),
        (["tfidf"], lambda env: _reindex_a_word(env, -1), "'tfidf'"),
        # an abbreviation key that is no whole run
        (["tfidf"], lambda env: env["preprocess"]["abbrev_map"].update({"w/": "with"}),
         "'preprocess'"),
    ], ids=["tfidf-missing", "tfidf-mistyped", "category-empty", "tfidf-index-large",
            "tfidf-idf-short", "tfidf-index-negative", "preprocess-abbrev-w/"])
    def test_malformed_section_is_format_error(self, workdir, capsys,
                                               features, edit, section):
        cfg = json.loads(Path(workdir["config"]).read_text())
        cfg.update(features=features, lexicons={"category": workdir["lex"]["category"]})
        Path(workdir["config"]).write_text(json.dumps(cfg))
        model_path = workdir["tmp"] / "model.json"
        assert main(["train", "--config", workdir["config"],
                     "--out", str(model_path)]) == 0
        env = json.loads(model_path.read_text())
        edit(env)
        model_path.write_text(json.dumps(env))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path),
                     "--input", workdir["data"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and section in err
        assert len(err.splitlines()) == 1

    def test_saved_learning_rate_is_usage_error(self, workdir, capsys):
        # lr has no learning_rate since it fits by Newton-CG; a model saved
        # with one set is refused as the config would be
        model_path = workdir["tmp"] / "model.json"
        assert main(["train", "--config", workdir["config"],
                     "--out", str(model_path)]) == 0
        env = json.loads(model_path.read_text())
        env["model"]["spec"]["hyperparameters"]["learning_rate"] = 0.1
        model_path.write_text(json.dumps(env))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path),
                     "--input", workdir["data"]]) == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_saved_epochs_is_usage_error(self, workdir, capsys):
        # svm_linear has no epochs since it fits by Newton-CG; a model file
        # written before then is refused as its config would be
        model_path = workdir["tmp"] / "model.json"
        assert main(["train", "--config", workdir["config"], "--model", "svm_linear",
                     "--out", str(model_path)]) == 0
        env = json.loads(model_path.read_text())
        assert env["model"]["spec"]["family"] == "svm_linear"
        env["model"]["spec"]["hyperparameters"]["epochs"] = 50
        model_path.write_text(json.dumps(env))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path),
                     "--input", workdir["data"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epochs" in err
        assert len(err.splitlines()) == 1

    def test_edited_vocabulary_is_usage_error_at_load(self, workdir, capsys):
        model_path = workdir["tmp"] / "model.json"
        assert main(["train", "--config", workdir["config"],
                     "--out", str(model_path)]) == 0
        env = json.loads(model_path.read_text())
        # and its idf, so that the tfidf section still agrees with itself
        vocabulary = env["tfidf"]["vocabulary"]
        del vocabulary[max(vocabulary, key=vocabulary.get)]
        env["tfidf"]["idf"].pop()
        model_path.write_text(json.dumps(env))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path),
                     "--input", workdir["data"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: saved pipeline model has")
        assert len(err.splitlines()) == 1

    def test_unknown_model_name(self, workdir, capsys):
        assert main(["train", "--config", workdir["config"],
                     "--model", "adaboost",
                     "--out", str(workdir["tmp"] / "x.json")]) == 1
        capsys.readouterr()


class TestCascadeCommands:
    def test_round_trip(self, workdir, capsys):
        model_path = workdir["tmp"] / "cascade.json"
        assert main(["cascade-train", "--config", workdir["config"],
                     "--out", str(model_path)]) == 0

        input_path = workdir["tmp"] / "texts.txt"
        input_path.write_text(
            "hate trash awful video\n"
            "\n"  # blank lines are skipped
            "bless hope community everyone pride rainbow queer\n")
        pred_path = workdir["tmp"] / "cascade_preds.csv"
        assert main(["cascade-predict", "--model", str(model_path),
                     "--input", str(input_path),
                     "--out", str(pred_path)]) == 0
        capsys.readouterr()
        lines = pred_path.read_text().strip().split("\n")
        assert lines[0] == "id,support,target,group,p1,p2,p3"
        assert len(lines) == 3  # two non-blank inputs
        assert lines[1].split(",")[1] == "NSS"
        assert lines[2].split(",")[1] == "SS"
        # ids are input line numbers, counting the blank line
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]

    def test_case_folded_abbreviation_lookalike_is_left_alone(self, workdir, capsys):
        # IGNORECASE matched "plſ" to the key "pls" but "plſ".lower() is no key
        model_path = workdir["tmp"] / "cascade.json"
        assert main(["cascade-train", "--config", workdir["config"],
                     "--out", str(model_path)]) == 0
        input_path = workdir["tmp"] / "texts.txt"
        input_path.write_text("plſ help me\nİdk hate trash\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["cascade-predict", "--model", str(model_path),
                     "--input", str(input_path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3


class TestKappa:
    def test_perfect_agreement(self, workdir, capsys):
        assert main(["kappa", "--a", workdir["data"],
                     "--b", workdir["data"]]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_target_column(self, workdir, capsys):
        code = main(["kappa", "--a", workdir["data"], "--b", workdir["data"],
                     "--column", "target"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_mismatched_ids(self, workdir, tmp_path, capsys):
        from ssd.corpus import Dataset

        subset = Dataset(workdir["ds"].items[:100])
        other = tmp_path / "subset.csv"
        write_dataset(subset, str(other))
        assert main(["kappa", "--a", workdir["data"], "--b", str(other)]) == 2
        assert "different ids" in capsys.readouterr().err


class TestFetch:
    def make_mock(self, tmp_path, texts):
        items = [
            {"id": f"v1-c{i}",
             "snippet": {"topLevelComment": {"snippet": {"textOriginal": t}}}}
            for i, t in enumerate(texts)
        ]
        (tmp_path / "v1.page1.json").write_text(json.dumps({"items": items}))
        return str(tmp_path)

    def test_mock_fetch_writes_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        mock = self.make_mock(tmp_path, ["this is a fine day for all of us",
                                         "we hope you stay strong in this"])
        out = tmp_path / "comments.csv"
        code = main(["fetch", "--videos", "v1", "--mock-dir", mock,
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "id,video_id,text,fetched_at"
        assert len(lines) == 3

    def test_sampling_flags(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        texts = [f"we hope for better day number {i}" if i % 2 == 0
                 else f"that was such a fine game {i}" for i in range(20)]
        mock = self.make_mock(tmp_path, texts)
        out = tmp_path / "sampled.csv"
        code = main(["fetch", "--videos", "v1", "--mock-dir", mock,
                     "--keywords", "hope", "--n-keyword", "3", "--n-random", "2",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert len(out.read_text().strip().split("\n")) == 6

    def test_missing_credentials(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        code = main(["fetch", "--videos", "v1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert API_KEY_ENV in capsys.readouterr().err

    def test_no_videos_is_usage_error(self, tmp_path, capsys):
        assert main(["fetch", "--out", str(tmp_path / "x.csv")]) == 1
        capsys.readouterr()


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "ssd" in capsys.readouterr().out
