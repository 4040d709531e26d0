"""The program's first calls, run in a process of their own:

    python3 perfbench/fixture.py train CONFIG OUT   # train and save a cascade
    python3 perfbench/fixture.py warm-cv CONFIG OUT
    python3 perfbench/fixture.py warm-cascade CONFIG OUT

`run.py` times `warm-*` in fresh processes as the cold start that `setup_s`
reports: the import of the program with its bundled maps, then the first
cross-validation (`warm-cv`) or the first train, save, load and predict
(`warm-cascade`) on a small corpus, so every one-time cost (imports, regex
compiles, lexicon and `lru_cache` fill) is paid inside the timed process.
`run.py` also calls the warm functions in its own process, untimed, before
its job. `train` builds the desk cascade that the `cv-desk` label phase
applies, so that the benchmark process's peak memory is not that of its
training. Nothing of the program is imported before a function here is
called.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def train(cfg_path: str, model_path: str) -> None:
    from ssd import cascade, corpus, pipeline

    conf = pipeline.load_experiment_config(cfg_path)
    cascade.save_cascade(cascade.train_cascade(corpus.load_dataset(conf.dataset), conf),
                         model_path)


def warm_cv(cfg_path: str, out_dir: str) -> None:
    from ssd import corpus, evaluation, pipeline

    conf = pipeline.load_experiment_config(cfg_path)
    report = evaluation.cross_validate(conf, corpus.load_dataset(conf.dataset))
    evaluation.write_cv_artifacts(report, out_dir)


def warm_cascade(cfg_path: str, model_path: str) -> None:
    from ssd import cascade, corpus, pipeline

    conf = pipeline.load_experiment_config(cfg_path)
    ds = corpus.load_dataset(conf.dataset)
    cascade.save_cascade(cascade.train_cascade(ds, conf), model_path)
    model = cascade.load_cascade(model_path)
    cascade.cascade_predict_batch(model, ds.texts()[:50])
    cascade.cascade_predict(model, ds.texts()[0])


COMMANDS = {"train": train, "warm-cv": warm_cv, "warm-cascade": warm_cascade}

if __name__ == "__main__":
    COMMANDS[sys.argv[1]](sys.argv[2], sys.argv[3])
