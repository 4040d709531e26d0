"""Benchmark for the social-support detector.

    python3 perfbench/run.py --workload <cv-desk|paper-cascade>
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The program is imported from `src/` of
that checkout and nowhere else. Inputs are generated from the seed into
`.perfbench-runs/`, which the run removes again (a traced run keeps its
span file there). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Progress and
host facts go to standard error. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
BLAS_THREADS = "1"
SETUP_ROUNDS = 3  # cold starts, each in a fresh process

DESK_ITEMS = 200
DESK_WARM_ITEMS = 40
DESK_FIT_ITEMS = 1000
DESK_FLOOR = 0.9  # the negative tokens alone separate NSS from SS
# planted noise swaps about 6% of signals per stage, which caps exact match
# near 0.9; the majority class alone scores 0.78, so 0.82 rejects a cascade
# that has stopped separating support from non-support
PAPER_ACCURACY_FLOOR = 0.82
P99_BLOCK = 1000  # single calls per block: ten lie beyond each block's p99
VERIFY = 1000
WARM_ITEMS = 300
ALL_MODELS = ["lr", "svm_linear", "svm_rbf", "dt", "rf", "soft_vote", "hard_vote"]
ALL_BLOCKS = ["liwc", "emotion", "sentiment", "tfidf"]


STARTED = time.perf_counter()


def log(msg: str) -> None:
    print(f"perfbench: {time.perf_counter() - STARTED:6.1f} s: {msg}", file=sys.stderr, flush=True)


def load_program():
    """Import `ssd` from this checkout's `src/`; refuse any other copy."""
    if not (SRC / "ssd" / "__init__.py").is_file():
        log(f"no program source under {SRC}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ssd

    if not Path(ssd.__file__).resolve().is_relative_to(SRC):
        log(f"imported ssd from {ssd.__file__}, not from {SRC}")
        sys.exit(2)


def host_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def as_tuple(pred) -> tuple:
    lab = pred.label
    return (lab.support, lab.target, lab.group, pred.p1, pred.p2, pred.p3)


def predict_counted(model, texts: list[str]) -> tuple[list[tuple], tuple[int, int, int]]:
    """Label `texts` as one batch, counting the texts each stage scores."""
    from ssd import cascade

    items = [0, 0, 0]
    original = cascade.predict_pipeline

    def counted(p, batch):
        items[p.subtask - 1] += len(batch)
        return original(p, batch)

    cascade.predict_pipeline = counted
    try:
        preds = [as_tuple(p) for p in cascade.cascade_predict_batch(model, texts)]
    finally:
        cascade.predict_pipeline = original
    return preds, tuple(items)


def nearest_rank(samples: list[float], pct: int) -> float:
    ordered = sorted(samples)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def p50_p99(samples: list[float]) -> tuple[float, float]:
    """The median of all latencies, and the median over blocks of at least
    P99_BLOCK consecutive calls of each block's nearest-rank p99, taken
    over the latencies of that block."""
    blocks = max(1, len(samples) // P99_BLOCK)
    cuts = [len(samples) * k // blocks for k in range(blocks + 1)]
    p99s = [nearest_rank(samples[a:b], 99) for a, b in zip(cuts, cuts[1:])]
    return nearest_rank(samples, 50), statistics.median(p99s)


class LabelPart:
    """One part of a workload's label phase: the batch texts in batches of
    CHUNK and, after each batch, an equal share of the single texts one per
    call, so that both kinds of call are spread over the part. Batch and
    single texts come from separate generator streams, and every part has
    streams of its own, so no timed call sees a text that an earlier call
    has seen. The host's pace is sampled after every batch and every GROUP
    single calls; each call's wall time is kept as (start, seconds). The
    rows carry the generator's truth."""

    CHUNK = 250
    GROUP = 50

    def __init__(self, model, pace, batch_rows: list[tuple], single_rows: list[tuple]):
        from ssd import cascade

        self.model = model
        self.batch_rows, self.single_rows = batch_rows, single_rows
        batch, singles = [r[1] for r in batch_rows], [r[1] for r in single_rows]
        starts = range(0, len(batch), self.CHUNK)
        share = [len(singles) * j // len(starts) for j in range(len(starts) + 1)]
        self.batch: list[tuple] = []
        self.singles: list[tuple] = []
        self.batch_calls: list[tuple[float, float]] = []
        self.single_calls: list[tuple[float, float]] = []
        gc.collect()
        pace.sample()
        for j, start in enumerate(starts):
            t0 = time.perf_counter()
            preds = cascade.cascade_predict_batch(model, batch[start:start + self.CHUNK])
            self.batch_calls.append((t0, time.perf_counter() - t0))
            pace.sample()
            self.batch += [as_tuple(p) for p in preds]
            mine = singles[share[j]:share[j + 1]]
            for g in range(0, len(mine), self.GROUP):
                for text in mine[g:g + self.GROUP]:
                    t0 = time.perf_counter()
                    pred = cascade.cascade_predict(model, text)
                    self.single_calls.append((t0, time.perf_counter() - t0))
                    self.singles.append(as_tuple(pred))
                pace.sample()
        self.ops = len(batch) + len(singles)


def write_config(path: Path, **cfg) -> Path:
    path.write_text(json.dumps(cfg, indent=1))
    return path


def cascade_config(path: Path, lex: dict, dataset: str, **extra) -> Path:
    return write_config(path, dataset=dataset, subtask=1, features=ALL_BLOCKS,
                        scaling="zscore", models=["lr"], seed=0, lexicons=lex, **extra)


def run_fixture(command: str, cfg_path: Path, out: Path) -> float:
    """Run `fixture.py` in a fresh process; return its wall time."""
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, str(HERE / "fixture.py"), command,
                            str(cfg_path), str(out)], stdout=sys.stderr)
    elapsed = time.perf_counter() - t0
    if child.returncode != 0:
        log(f"fixture.py {command} failed with exit code {child.returncode}")
        sys.exit(2)
    return elapsed


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """setup() writes the inputs that do not change between rounds and sets
    `warm`, the fixture command that makes the program's first calls;
    prepare() builds fixtures once; inputs(i) writes round i's fresh inputs,
    untimed; round() is one job; label(k) runs part k of the label phase;
    check() returns problems. A run labels LABEL_PARTS parts: one before
    the first job round when LABEL_FIRST, one after each round while more
    than one part is left, and the rest after the last round."""

    LABEL_FIRST = False
    LABEL_PARTS = 2

    def __init__(self, seed: int, pace):
        self.seed = seed
        self.pace = pace
        self.parts: list[LabelPart] = []

    def prepare(self) -> None:
        pass


class CvDesk(Workload):
    name = "cv-desk"
    LABEL_FIRST = True
    LABEL_PARTS = 3
    PART_BATCH = 700
    PART_SINGLES = 1334

    def setup(self, d: Path) -> None:
        import gen

        self.dir = d
        self.lex = gen.write_desk_lexicons(str(d))
        gen.write_csv(gen.desk_corpus(DESK_WARM_ITEMS, self.seed, "desk-warm"),
                      str(d / "warm.csv"))
        self.warm = ("warm-cv", write_config(
            d / "warm.json", dataset="warm.csv", subtask=1, features=ALL_BLOCKS,
            scaling="zscore", models=ALL_MODELS, folds=2, seed=self.seed,
            lexicons=self.lex), d / "warm-out")
        self.out = d / "cv-out"
        self.cfg_path = write_config(
            d / "desk.json", dataset="desk.csv", subtask=1, features=ALL_BLOCKS,
            scaling="zscore", models=ALL_MODELS, folds=5, seed=self.seed,
            lexicons=self.lex, output_dir="cv-out")

    def prepare(self) -> None:
        # the cascade the label phase applies, fitted on more planted items
        # than the cv corpus has so that every stage sees enough of each class
        import gen
        from ssd import cascade

        gen.write_csv(gen.desk_corpus(DESK_FIT_ITEMS, self.seed, "desk-fit"),
                      str(self.dir / "desk-fit.csv"))
        model_path = self.dir / "desk-cascade.json"
        run_fixture("train", cascade_config(self.dir / "desk-fit.json", self.lex,
                                            "desk-fit.csv"), model_path)
        self.cascade = cascade.load_cascade(str(model_path))
        # the cascade path's own first calls, on texts no label part sees
        cascade.cascade_predict_batch(
            self.cascade, [r[1] for r in gen.desk_corpus(20, self.seed, "desk-warm")])

    def inputs(self, i: int) -> None:
        import gen

        self.rows = gen.desk_corpus(DESK_ITEMS, self.seed, f"desk-{i}")
        gen.write_csv(self.rows, str(self.dir / "desk.csv"))

    def round(self) -> int:
        from ssd import corpus, evaluation, pipeline

        conf = pipeline.load_experiment_config(str(self.cfg_path))
        ds = corpus.load_dataset(conf.dataset)
        report = evaluation.cross_validate(conf, ds)
        evaluation.write_cv_artifacts(report, conf.output_dir)
        return len(conf.models) * conf.folds

    def label(self, k: int) -> int:
        import gen

        part = LabelPart(self.cascade, self.pace,
                         gen.desk_corpus(self.PART_BATCH, self.seed, f"desk-label-{k}"),
                         gen.desk_corpus(self.PART_SINGLES, self.seed, f"desk-single-{k}"))
        self.parts.append(part)
        return part.ops

    def check(self) -> list[str]:
        import checks
        from ssd import corpus

        report = json.loads((self.out / "report.json").read_text())
        truth = [r[2] for r in self.rows]
        folds = corpus.stratified_kfold_labels(truth, report["folds"], report["seed"])
        problems = checks.check_cv_report(report, truth, folds, DESK_FLOOR)
        for i, (fp, (_, test)) in enumerate(zip(report["fold_fingerprints"], folds)):
            if fp["test_size"] != len(test):
                problems.append(f"fold {i}: report test size {fp['test_size']} != {len(test)}")
        problems += label_checks(self.parts, DESK_FLOOR)
        return problems


class PaperCascade(Workload):
    name = "paper-cascade"
    LABEL_PARTS = 2
    PART_BATCH = 1500
    PART_SINGLES = 500

    def setup(self, d: Path) -> None:
        import gen

        self.dir = d
        self.vocab = gen.PaperVocabulary(str(SRC / "ssd" / "data"))
        lex = gen.write_paper_lexicons(str(d), self.vocab)
        gen.write_csv(gen.paper_unseen(self.seed, self.vocab, WARM_ITEMS, "warm"),
                      str(d / "warm.csv"))
        # few LR iterations: the count does not matter for one-time costs
        self.warm = ("warm-cascade", cascade_config(
            d / "warm.json", lex, "warm.csv", hyperparameters={"lr": {"max_iter": 20}}),
            d / "warm-cascade.json")
        self.cfg_path = cascade_config(d / "paper.json", lex, "paper.csv")
        self.model_path = d / "cascade.json"

    def inputs(self, i: int) -> None:
        import gen

        self.rows = gen.paper_corpus(self.seed, self.vocab, f"paper-{i}")
        gen.write_csv(self.rows, str(self.dir / "paper.csv"))

    def round(self) -> int:
        # `ssd cascade-train`, then the load `ssd cascade-predict` starts with
        from ssd import cascade, corpus, pipeline

        conf = pipeline.load_experiment_config(str(self.cfg_path))
        ds = corpus.load_dataset(conf.dataset)
        self.model = cascade.train_cascade(ds, conf)
        cascade.save_cascade(self.model, str(self.model_path))
        self.served = cascade.load_cascade(str(self.model_path))
        self.dataset = ds
        return 3

    def label(self, k: int) -> int:
        # unseen comments through the cascade the last round saved and loaded
        import gen

        part = LabelPart(self.served, self.pace,
                         gen.paper_unseen(self.seed, self.vocab, self.PART_BATCH, f"unseen-{k}"),
                         gen.paper_unseen(self.seed, self.vocab, self.PART_SINGLES,
                                          f"unseen-single-{k}"))
        self.parts.append(part)
        return part.ops

    def check(self) -> list[str]:
        import checks
        from ssd import corpus

        problems = checks.check_stats(corpus.dataset_stats(self.dataset).to_json_dict(), self.rows)
        for stage in self.model.stages():
            problems += checks.check_loss_traces(stage.model.state["loss_traces"])
        # the last part was labeled by load(save(m)) of the last round's m;
        # label its first texts again with m itself, the stage calls counted
        last = self.parts[-1]
        fresh, items = predict_counted(self.model, [r[1] for r in last.batch_rows[:VERIFY]])
        problems += checks.check_same_predictions(fresh, last.batch[:VERIFY],
                                                  "m vs load(save(m))")
        problems += checks.check_stage_items(items, fresh)
        problems += label_checks(self.parts, PAPER_ACCURACY_FLOOR)
        return problems


def label_checks(parts: list[LabelPart], floor: float) -> list[str]:
    import checks
    from ssd import cascade

    problems = []
    for part in parts:
        problems += checks.check_valid_labels(part.batch)
        problems += checks.check_valid_labels(part.singles)
        texts = [r[1] for r in part.single_rows[:VERIFY]]
        as_batch = [as_tuple(p) for p in cascade.cascade_predict_batch(part.model, texts)]
        problems += checks.check_same_predictions(as_batch, part.singles[:VERIFY],
                                                  "batch vs single-text")
        problems += checks.check_accuracy(part.batch, part.batch_rows, floor)
        problems += checks.check_accuracy(part.singles, part.single_rows, floor)
        log(f"label part exact-match accuracy {checks.accuracy(part.batch, part.batch_rows):.4f}"
            f" batch, {checks.accuracy(part.singles, part.single_rows):.4f} single")
    return problems


WORKLOADS = {w.name: w for w in (CvDesk, PaperCascade)}


# ---------------------------------------------------------------------------
# running a workload


def timed_round(wl: Workload, i: int) -> tuple[int, float, float]:
    """Round i on fresh inputs, with the pace sampled on both sides; its
    operations, start and wall time."""
    wl.inputs(i)
    gc.collect()
    wl.pace.sample(wl.pace.AROUND)
    t0 = time.perf_counter()
    ops = wl.round()
    wall = time.perf_counter() - t0
    wl.pace.sample(wl.pace.AROUND)
    return ops, t0, wall


def cold_start(wl: Workload) -> tuple[float, float]:
    wl.pace.sample(wl.pace.AROUND)
    t0 = time.perf_counter()
    wall = run_fixture(*wl.warm)
    wl.pace.sample(wl.pace.AROUND)
    return t0, wall


def end_to_end(wl: Workload, setups: list[tuple], rounds: list[tuple], scaled: bool) -> dict:
    """The end-to-end metrics. Scaled, every time is brought to the nominal
    pace: a label call by the pace sampled around it, and a cold start or
    job round, which runs in one piece with no sample inside it, by the
    median pace of the whole run."""
    pace = wl.pace

    def at_pace(units, local: bool):
        if not scaled:
            return [wall for _, wall in units]
        return [wall * (pace.local(t0, t0 + wall) if local else pace.whole())
                for t0, wall in units]

    batch_s = sum(at_pace([c for part in wl.parts for c in part.batch_calls], True))
    p50, p99 = p50_p99(at_pace([c for part in wl.parts for c in part.single_calls], True))
    return {
        "setup_s": (statistics.median(at_pace(setups, False)), "s"),
        "job_s": (statistics.median(at_pace(rounds, False)), "s"),
        "label_texts_per_s": (sum(len(part.batch) for part in wl.parts) / batch_s, "1/s"),
        "label_one_p50_ms": (p50 * 1e3, "ms"),
        "label_one_p99_ms": (p99 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run(args) -> dict:
    load_program()
    import pace

    log(json.dumps(host_facts()))
    wl = WORKLOADS[args.workload](args.seed, pace.Pace())
    run_dir = RUNS / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        run_dir.mkdir(parents=True)
        wl.setup(run_dir)
        # setup_s: the program's cold start, in fresh processes
        setups = [] if args.trace else [cold_start(wl) for _ in range(SETUP_ROUNDS)]
        import fixture

        command, cfg_path, out = wl.warm
        log("set-up and cold starts done")
        fixture.COMMANDS[command](str(cfg_path), str(out))
        wl.prepare()
        log("first calls and fixtures done")

        attempted = 0
        if args.trace:
            attempted, metrics = traced(wl, args)
        else:
            # whole job rounds, each on fresh inputs, until --seconds of job
            # time; the label parts around and between them
            parts = wl.LABEL_PARTS
            if wl.LABEL_FIRST:
                attempted += wl.label(len(wl.parts))
                parts -= 1
            rounds: list[tuple] = []
            while sum(wall for _, wall in rounds) < args.seconds:
                ops, t0, wall = timed_round(wl, len(rounds))
                attempted += ops
                rounds.append((t0, wall))
                if parts > 1:
                    attempted += wl.label(len(wl.parts))
                    parts -= 1
            for _ in range(parts):
                attempted += wl.label(len(wl.parts))
            metrics = end_to_end(wl, setups, rounds, scaled=True)
            unscaled = end_to_end(wl, setups, rounds, scaled=False)
            log("cold starts " + " ".join(f"{w:.3f}" for _, w in setups))
            log("job rounds " + " ".join(f"{w:.3f}" for _, w in rounds))
            log("unscaled " + json.dumps({k: v for k, (v, _) in unscaled.items()}))
            log(f"pace: {len(wl.pace.samples)} references, median "
                f"{statistics.median(wl.pace.samples) * 1e3:.2f} ms "
                f"(nominal {pace.REFERENCE_S * 1e3:.2f} ms)")
        log("timed part done")
        problems = wl.check()
        for p in problems[:50]:
            log("CHECK FAILED: " + p)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(wl: Workload, args) -> tuple[int, dict]:
    """One round (and, on paper-cascade, one label part) untraced, then the
    same traced on fresh inputs; the per-layer metrics of the traced one."""
    import spans

    def job(i: int) -> tuple[int, float]:
        ops, _, wall = timed_round(wl, i)
        if not wl.LABEL_FIRST:
            t0 = time.perf_counter()
            ops += wl.label(i)
            wall += time.perf_counter() - t0
        return ops, wall

    attempted, untraced = job(0)
    rec = spans.Recorder()
    ins = spans.instrument(rec)
    try:
        ops, traced_s = job(1)
        attempted += ops
    finally:
        ins.restore()
    log(f"job untraced {untraced:.3f} s, traced {traced_s:.3f} s")
    spans.write_trace(rec, str(RUNS / f"trace-{args.workload}-s{args.seed}.json"),
                      {"workload": args.workload, "seed": args.seed,
                       "job_s": {"untraced": untraced, "traced": traced_s}})
    metrics = spans.layer_metrics(rec)
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    return attempted, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # fixed before numpy loads, so BLAS starts no extra threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
