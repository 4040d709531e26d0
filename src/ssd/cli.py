"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 external
service error. Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

from . import cascade as casc
from . import evaluation as ev
from . import ingest
from .corpus import CSV_HEADER, SUBTASKS, dataset_stats, load_dataset
from .errors import DataError, SsdError, UsageError
from .pipeline import (
    LEXICON_BLOCKS,
    LEXICON_PATH_KEYS,
    LexiconSet,
    fit_pipeline,
    lexicons_from_paths,
    load_experiment_config,
    load_pipeline,
    predict_pipeline,
    save_pipeline,
)
from .preprocess import default_config
from .util import (
    canonical_json,
    check_output,
    format_table,
    open_input,
    open_output,
)


class _Parser(argparse.ArgumentParser):
    # argparse normally prints and exits; surface a typed error instead so
    # the exit-code mapping stays in one place
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="ssd", description="Social support detection toolkit.")
    sub = p.add_subparsers(dest="command", metavar="command")
    sub.required = True

    q = sub.add_parser("stats",
                       help="print label counts for a dataset")
    q.add_argument("dataset")
    q.add_argument("--json", action="store_true", help="machine-readable output")

    q = sub.add_parser("profile",
                       help="per-label mean lexicon features")
    q.add_argument("dataset")
    q.add_argument("--subtask", type=int, default=1, choices=tuple(SUBTASKS))
    q.add_argument("--category", help="category lexicon (.dic)")
    q.add_argument("--emotion", help="emotion association lexicon (TSV)")
    q.add_argument("--valence", help="valence lexicon (TSV)")
    q.add_argument("--negators", help="negator word list")
    q.add_argument("--boosters", help="booster TSV")
    q.add_argument("--no-stem", action="store_true")
    q.add_argument("--keep-stopwords", action="store_true")
    q.add_argument("--json", action="store_true")

    q = sub.add_parser("cv",
                       help="stratified cross-validation over a model grid")
    q.add_argument("--config", required=True, help="experiment config JSON")
    q.add_argument("--output-dir", help="override the config's output_dir")
    q.add_argument("--seed", type=int, help="override the config's seed")

    q = sub.add_parser("train",
                       help="fit one model on the full dataset and save it")
    q.add_argument("--config", required=True)
    q.add_argument("--model", help="model name (default: first in config)")
    q.add_argument("--seed", type=int, help="override the config's seed")
    q.add_argument("--out", required=True, help="pipeline file to write")

    q = sub.add_parser("predict",
                       help="label texts with a saved model")
    q.add_argument("--model", required=True, help="pipeline file")
    q.add_argument("--input", required=True, help="CSV with id,text columns")
    q.add_argument("--out", help="output CSV (default: stdout)")

    q = sub.add_parser("cascade-train",
                       help="fit the three-stage hierarchical model")
    q.add_argument("--config", required=True)
    q.add_argument("--model", help="model name (default: first in config)")
    q.add_argument("--seed", type=int, help="override the config's seed")
    q.add_argument("--out", required=True, help="cascade file to write")

    q = sub.add_parser("cascade-predict",
                       help="hierarchical labels for one text per line")
    q.add_argument("--model", required=True, help="cascade file")
    q.add_argument("--input", required=True, help="text file, one text per line")
    q.add_argument("--out", help="output CSV (default: stdout)")

    q = sub.add_parser("kappa",
                       help="inter-annotator agreement between two label files")
    q.add_argument("--a", required=True, help="first annotator's dataset CSV")
    q.add_argument("--b", required=True, help="second annotator's dataset CSV")
    q.add_argument("--column", default="support",
                   choices=tuple(st.field for st in SUBTASKS.values()))

    q = sub.add_parser("fetch",
                       help="collect comments, clean them, and sample")
    q.add_argument("--videos", help="comma-separated video ids")
    q.add_argument("--videos-file", help="file with one video id per line")
    q.add_argument("--api-key", help=f"overrides ${ingest.API_KEY_ENV}")
    q.add_argument("--mock-dir", help="replay recorded JSON responses")
    q.add_argument("--page-limit", type=int)
    q.add_argument("--jobs", type=int, default=4)
    q.add_argument("--english-threshold", type=float,
                   default=ingest.DEFAULT_ENGLISH_THRESHOLD)
    q.add_argument("--no-filter", action="store_true",
                   help="skip dedup and language filtering")
    q.add_argument("--keywords", help="comma-separated keyword phrases")
    q.add_argument("--synonyms", help="extra keyword phrases, one per line")
    q.add_argument("--n-keyword", type=int)
    q.add_argument("--n-random", type=int)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True, help="output CSV")
    return p


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_stats(args) -> int:
    report = dataset_stats(load_dataset(args.dataset))
    if args.json:
        print(canonical_json(report.to_json_dict()))
    else:
        print(report.to_text(), end="")
    return 0


def _profile_lexicons(args) -> LexiconSet:
    paths = {key: getattr(args, key) for key in LEXICON_PATH_KEYS if getattr(args, key)}
    blocks = [block for block, row in LEXICON_BLOCKS.items() if row.key in paths]
    if not blocks:
        raise UsageError(
            "profile needs at least one lexicon "
            "(--category, --emotion, or --valence)"
        )
    return lexicons_from_paths(paths, blocks)


def _cmd_profile(args) -> int:
    d = load_dataset(args.dataset)
    lex = _profile_lexicons(args)
    pcfg = default_config(
        stem=not args.no_stem, remove_stopwords=not args.keep_stopwords
    )
    report = ev.profile_features(d, lex, args.subtask, pcfg)
    if args.json:
        print(canonical_json(report.to_json_dict()))
    else:
        print(report.to_text(), end="")
    return 0


def _load_config(args):
    cfg = load_experiment_config(args.config)
    from dataclasses import replace

    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "output_dir", None):
        cfg = replace(cfg, output_dir=args.output_dir)
    return cfg


def _cmd_cv(args) -> int:
    cfg = _load_config(args)
    report = ev.cross_validate(cfg)
    headers = ["model", "P(w)", "R(w)", "F1(w)", "P(m)", "R(m)", "F1(m)", "acc"]
    rows = [[name, *ev.summary_row(result.mean)] for name, result in report.models.items()]
    print(format_table(headers, rows))
    if cfg.output_dir:
        for path in ev.write_cv_artifacts(report, cfg.output_dir):
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    check_output(args.out, "pipeline")
    from .corpus import stage_view

    ds = load_dataset(cfg.dataset)
    view = stage_view(ds, cfg.subtask)
    pipeline = fit_pipeline(
        view.texts(), view.labels(cfg.subtask), cfg, model_name=args.model
    )
    save_pipeline(pipeline, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _read_texts_csv(path: str) -> tuple[list[str], list[str]]:
    """Accepts either the dataset CSV layout or a plain id,text CSV."""
    with open_input(path, "input", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty input file") from None
        if tuple(header) != CSV_HEADER and tuple(header[:2]) != ("id", "text"):
            raise DataError(
                f"{path}: expected a header starting with id,text"
            )
        ids, texts = [], []
        for row_number, row in enumerate(reader, start=2):
            if len(row) < 2:
                raise DataError(f"{path}:{row_number}: expected id,text columns")
            ids.append(row[0])
            texts.append(row[1])
    return ids, texts


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open_output(out, "output") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text, end="")


def _cmd_predict(args) -> int:
    pipeline = load_pipeline(args.model)
    ids, texts = _read_texts_csv(args.input)
    labels, proba = predict_pipeline(pipeline, texts)
    lines = ["id,label," + ",".join(f"p_{c}" for c in pipeline.classes)]
    for i, (cid, lab) in enumerate(zip(ids, labels)):
        probs = ",".join(f"{v:.6f}" for v in proba[i])
        lines.append(f"{cid},{lab},{probs}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cascade_train(args) -> int:
    cfg = _load_config(args)
    check_output(args.out, "cascade")
    ds = load_dataset(cfg.dataset)
    model = casc.train_cascade(ds, cfg, model_name=args.model)
    casc.save_cascade(model, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_cascade_predict(args) -> int:
    model = casc.load_cascade(args.model)
    with open_input(args.input, "input") as fh:
        texts = [line.rstrip("\n") for line in fh]
    texts = [t for t in texts if t.strip()]
    preds = casc.cascade_predict_batch(model, texts)
    _write_or_print(casc.predictions_csv(preds), args.out)
    return 0


def _cmd_kappa(args) -> int:
    da = load_dataset(args.a)
    db = load_dataset(args.b)
    by_id_a = {it.comment.id: it for it in da}
    by_id_b = {it.comment.id: it for it in db}
    if set(by_id_a) != set(by_id_b):
        only_a = len(set(by_id_a) - set(by_id_b))
        only_b = len(set(by_id_b) - set(by_id_a))
        raise DataError(
            f"annotation files cover different ids "
            f"({only_a} only in --a, {only_b} only in --b)"
        )
    pairs = []
    for cid in by_id_a:
        la, lb = by_id_a[cid].label, by_id_b[cid].label
        va = getattr(la, args.column, None) if la else None
        vb = getattr(lb, args.column, None) if lb else None
        if va is not None and vb is not None:
            pairs.append((va, vb))
    if not pairs:
        raise DataError(
            f"no ids carry a {args.column} label in both files"
        )
    value = ev.cohens_kappa([a for a, _ in pairs], [b for _, b in pairs])
    print(f"{value:.4f}")
    return 0


def _cmd_fetch(args) -> int:
    video_ids: list[str] = []
    if args.videos:
        video_ids += [v.strip() for v in args.videos.split(",") if v.strip()]
    if args.videos_file:
        with open_input(args.videos_file, "videos") as fh:
            video_ids += [ln.strip() for ln in fh if ln.strip()]
    if not video_ids:
        raise UsageError("no video ids given: use --videos or --videos-file")

    credentials = ingest.resolve_credentials(args.api_key, args.mock_dir)
    transport = (
        ingest.MockDirTransport(args.mock_dir) if args.mock_dir else None
    )
    comments = ingest.fetch_comments(
        video_ids, credentials, args.page_limit,
        transport=transport, jobs=args.jobs,
    )
    print(f"fetched {len(comments)} comments", file=sys.stderr)
    if not args.no_filter:
        comments = ingest.dedup_and_filter(comments, args.english_threshold)
        print(f"kept {len(comments)} after dedup/language filter",
              file=sys.stderr)

    wants_sample = args.n_keyword is not None or args.n_random is not None
    if wants_sample:
        keywords: list[str] = []
        if args.keywords:
            keywords += [
                k.strip().lower() for k in args.keywords.split(",") if k.strip()
            ]
        if args.synonyms:
            keywords += list(ingest.load_synonyms(args.synonyms))
        plan = ingest.SamplePlan(
            tuple(keywords), args.n_keyword or 0, args.n_random or 0, args.seed
        )
        comments = ingest.keyword_sample(comments, plan)
        print(f"sampled {len(comments)} comments", file=sys.stderr)

    ingest.write_comments_csv(comments, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "profile": _cmd_profile,
    "cv": _cmd_cv,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "cascade-train": _cmd_cascade_train,
    "cascade-predict": _cmd_cascade_predict,
    "kappa": _cmd_kappa,
    "fetch": _cmd_fetch,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except SsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
