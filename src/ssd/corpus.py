"""Dataset model for hierarchically labeled comments.

A comment's label has up to three stages: supportive or not (SS/NSS), the
support target (Individual/Group), and for group support the community
concerned. CSV is the canonical on-disk format; JSON Lines is accepted as
an alternate. Includes label statistics, per-stage views, and seeded
stratified k-fold splitting.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import DataError
from .util import derive_rng, format_table, open_input, open_output

SUPPORT_LABELS = ("SS", "NSS")
TARGET_LABELS = ("Individual", "Group")
GROUP_LABELS = ("Nation", "Religion", "BlackCommunity", "LGBTQ", "Women", "Other")


class Subtask(NamedTuple):
    field: str  # the HierLabel field this subtask labels, also its report name
    labels: tuple[str, ...]  # canonical class order
    opener: str | None  # the previous subtask's verdict that opens this one


# The label hierarchy: every stage-wise rule (label checks, stage views,
# stats, class order, cascade gating) is read from this table.
SUBTASKS = {
    1: Subtask("support", SUPPORT_LABELS, None),
    2: Subtask("target", TARGET_LABELS, "SS"),
    3: Subtask("group", GROUP_LABELS, "Group"),
}

# display/community spellings accepted on input
_GROUP_ALIASES = {"Black Community": "BlackCommunity"}

CSV_HEADER = ("id", "text", *(st.field for st in SUBTASKS.values()))


@dataclass(frozen=True)
class Comment:
    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("comment id must be non-empty")
        if not self.text.strip():
            raise DataError(f"comment {self.id!r}: text must be non-empty")


@dataclass(frozen=True)
class HierLabel:
    """Three-stage label, one field per row of SUBTASKS. A stage holds a
    label only when the previous stage's verdict is its opener. A stage so
    opened may be blank, which marks the label incomplete; any other
    combination is rejected outright."""

    support: str
    target: str | None = None
    group: str | None = None

    def __post_init__(self) -> None:
        if self.group in _GROUP_ALIASES:
            object.__setattr__(self, "group", _GROUP_ALIASES[self.group])
        previous = None
        for k, (field, labels, opener) in SUBTASKS.items():
            value = getattr(self, field)
            if value is not None or opener is None:
                if value not in labels:
                    raise DataError(f"unknown {field} label {value!r}")
                if previous != opener:
                    raise DataError(
                        f"{field} label {value!r} requires "
                        f"{SUBTASKS[k - 1].field}={opener}, got {previous!r}"
                    )
            previous = value

    @property
    def incomplete(self) -> bool:
        """A stage that the previous verdict opens has no label."""
        values = [getattr(self, st.field) for st in SUBTASKS.values()]
        return any(
            value is None and previous == st.opener
            for st, previous, value in zip(SUBTASKS.values(), [None] + values, values)
        )

    def stage(self, subtask: int) -> str | None:
        return getattr(self, _subtask(subtask).field)


def _subtask(subtask: int) -> Subtask:
    """The table row of a subtask number; any other number is a DataError."""
    if subtask not in SUBTASKS:
        raise DataError(f"subtask must be one of {list(SUBTASKS)}, got {subtask}")
    return SUBTASKS[subtask]


@dataclass(frozen=True)
class DatasetItem:
    comment: Comment
    label: HierLabel | None


@dataclass(frozen=True)
class Dataset:
    items: tuple[DatasetItem, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for item in self.items:
            if item.comment.id in seen:
                raise DataError(f"duplicate comment id {item.comment.id!r}")
            seen.add(item.comment.id)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def texts(self) -> list[str]:
        return [item.comment.text for item in self.items]

    def labels(self, subtask: int) -> list[str]:
        out = []
        for item in self.items:
            value = item.label.stage(subtask) if item.label else None
            if value is None:
                raise DataError(
                    f"comment {item.comment.id!r} has no subtask-{subtask} label"
                )
            out.append(value)
        return out


def _parse_label(
    row_name: str, stages: Sequence[str], require_complete: bool
) -> HierLabel | None:
    if not any(stages):
        return None
    try:
        label = HierLabel(*(value or None for value in stages))
    except DataError as exc:
        raise DataError(f"{row_name}: {exc}") from None
    if require_complete and label.incomplete:
        raise DataError(f"{row_name}: incomplete label (missing later stage)")
    return label


def _items_from_rows(
    rows: Iterable[tuple[str, ...]], require_complete: bool
) -> list[DatasetItem]:
    items = []
    for row_name, cid, text, *stages in rows:
        try:
            comment = Comment(cid, text)
        except DataError as exc:
            raise DataError(f"{row_name}: {exc}") from None
        label = _parse_label(row_name, stages, require_complete)
        items.append(DatasetItem(comment, label))
    return items


def load_dataset(path: str, require_complete: bool = False) -> Dataset:
    """Load a labeled (or partially labeled) dataset from CSV or JSON Lines."""
    if str(path).endswith(".jsonl"):
        return _load_jsonl(path, require_complete)
    with open_input(path, "dataset", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected header") from None
        except csv.Error as exc:
            raise DataError(f"{path}: malformed CSV: {exc}") from None
        if tuple(header) != CSV_HEADER:
            raise DataError(
                f"{path}: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        rows = []
        try:
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(CSV_HEADER):
                    raise DataError(
                        f"{path}: row {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                    )
                rows.append((f"{path}: row {lineno}", *row))
        except csv.Error as exc:
            raise DataError(f"{path}: malformed CSV: {exc}") from None
    try:
        return Dataset(tuple(_items_from_rows(rows, require_complete)), str(path))
    except DataError as exc:
        raise DataError(str(exc)) from None


def _load_jsonl(path: str, require_complete: bool) -> Dataset:
    rows = []
    with open_input(path, "dataset") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}: line {lineno}: expected an object")
            rows.append(
                (
                    f"{path}: line {lineno}",
                    str(obj.get("id", "")),
                    str(obj.get("text", "")),
                    *(str(obj.get(st.field) or "") for st in SUBTASKS.values()),
                )
            )
    return Dataset(tuple(_items_from_rows(rows, require_complete)), str(path))


def write_dataset(d: Dataset, path: str) -> None:
    """Write canonical CSV (or JSON Lines when the path ends in .jsonl)."""
    rows = []
    for it in d.items:
        stages = [it.label.stage(k) if it.label else None for k in SUBTASKS]
        rows.append([it.comment.id, it.comment.text, *(v or "" for v in stages)])
    if str(path).endswith(".jsonl"):
        text = "".join(
            json.dumps(dict(zip(CSV_HEADER, row)), ensure_ascii=False) + "\n"
            for row in rows
        )
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
        text = buf.getvalue()
    with open_output(path, "dataset") as fh:
        fh.write(text)


@dataclass(frozen=True)
class StatsReport:
    support_counts: dict[str, int]
    target_counts: dict[str, int]
    group_counts: dict[str, int]
    n_labeled: int
    n_unlabeled: int
    n_incomplete: int

    def to_json_dict(self) -> dict:
        out: dict = {f"subtask{k}": c for k, c in self.by_subtask().items()}
        out["totals"] = {
            "labeled": self.n_labeled,
            "unlabeled": self.n_unlabeled,
            "incomplete": self.n_incomplete,
        }
        return out

    def to_text(self) -> str:
        rows = []
        for subtask, counts in self.by_subtask().items():
            for name, count in counts.items():
                rows.append((str(subtask), name, str(count)))
            rows.append((str(subtask), "(total)", str(sum(counts.values()))))
        return format_table(("subtask", "label", "count"), rows)

    def by_subtask(self) -> dict[int, dict[str, int]]:
        counts = (self.support_counts, self.target_counts, self.group_counts)
        return dict(zip(SUBTASKS, counts))


def dataset_stats(d: Dataset) -> StatsReport:
    """Exact per-stage label counts; each stage counts the labels present."""
    counts = {k: dict.fromkeys(st.labels, 0) for k, st in SUBTASKS.items()}
    n_labeled = n_unlabeled = n_incomplete = 0
    for item in d.items:
        lab = item.label
        if lab is None:
            n_unlabeled += 1
            continue
        n_labeled += 1
        n_incomplete += lab.incomplete
        for k, stage_counts in counts.items():
            value = lab.stage(k)
            if value is not None:
                stage_counts[value] += 1
    return StatsReport(*counts.values(), n_labeled, n_unlabeled, n_incomplete)


def stage_view(d: Dataset, subtask: int) -> Dataset:
    """Dataset restricted to the items a given subtask classifies."""
    opener = _subtask(subtask).opener
    kept = [
        it for it in d.items
        if it.label is not None and it.label.stage(subtask) is not None
    ]
    if opener is not None and not kept:
        raise DataError(f"subtask-{subtask} view is empty")
    return Dataset(tuple(kept), d.provenance)


def stratified_kfold_labels(
    labels: Sequence[str], k: int, seed: int
) -> list[tuple[list[int], list[int]]]:
    """Round-robin deal of per-class shuffled indices into k folds.

    The fold pointer carries across classes so overall fold sizes stay
    balanced; each class lands within one item of exact proportionality.
    """
    n = len(labels)
    if k < 2:
        raise DataError(f"k must be at least 2, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds dataset size {n}")
    fold_of = [0] * n
    pointer = 0
    for cls in sorted(set(labels)):
        idx = [i for i, lab in enumerate(labels) if lab == cls]
        derive_rng(seed, "kfold", cls).shuffle(idx)
        for i in idx:
            fold_of[i] = pointer % k
            pointer += 1
    folds = []
    for f in range(k):
        test = [i for i in range(n) if fold_of[i] == f]
        train = [i for i in range(n) if fold_of[i] != f]
        folds.append((train, test))
    return folds


def stratified_kfold(
    d: Dataset, k: int, seed: int, subtask: int = 1
) -> list[tuple[list[int], list[int]]]:
    return stratified_kfold_labels(d.labels(subtask), k, seed)
