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
from typing import Iterable, Sequence

from .errors import DataError
from .util import derive_rng, format_table, open_input

SUPPORT_LABELS = ("SS", "NSS")
TARGET_LABELS = ("Individual", "Group")
GROUP_LABELS = ("Nation", "Religion", "BlackCommunity", "LGBTQ", "Women", "Other")

# display/community spellings accepted on input
_GROUP_ALIASES = {"Black Community": "BlackCommunity"}

CSV_HEADER = ("id", "text", "support", "target", "group")


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
    """Three-stage label. Later stages may be absent only in the two
    tolerated incomplete shapes: SS without a target, or Group without a
    community. Contradictory combinations are rejected outright."""

    support: str
    target: str | None = None
    group: str | None = None

    def __post_init__(self) -> None:
        if self.group in _GROUP_ALIASES:
            object.__setattr__(self, "group", _GROUP_ALIASES[self.group])
        if self.support not in SUPPORT_LABELS:
            raise DataError(f"unknown support label {self.support!r}")
        if self.target is not None and self.target not in TARGET_LABELS:
            raise DataError(f"unknown target label {self.target!r}")
        if self.group is not None and self.group not in GROUP_LABELS:
            raise DataError(f"unknown group label {self.group!r}")
        if self.support == "NSS" and (self.target or self.group):
            raise DataError("NSS forbids target and group labels")
        if self.target == "Individual" and self.group:
            raise DataError("Individual target forbids a group label")
        if self.group and self.target != "Group":
            raise DataError("group label requires target=Group")

    @property
    def incomplete(self) -> bool:
        return (self.support == "SS" and self.target is None) or (
            self.target == "Group" and self.group is None
        )

    def stage(self, subtask: int) -> str | None:
        if subtask == 1:
            return self.support
        if subtask == 2:
            return self.target
        if subtask == 3:
            return self.group
        raise DataError(f"subtask must be 1, 2, or 3, got {subtask}")


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
    row_name: str, support: str, target: str, group: str, require_complete: bool
) -> HierLabel | None:
    if not support and not target and not group:
        return None
    group = _GROUP_ALIASES.get(group, group)
    try:
        label = HierLabel(support, target or None, group or None)
    except DataError as exc:
        raise DataError(f"{row_name}: {exc}") from None
    if require_complete and label.incomplete:
        raise DataError(f"{row_name}: incomplete label (missing later stage)")
    return label


def _items_from_rows(
    rows: Iterable[tuple[str, str, str, str, str, str]], require_complete: bool
) -> list[DatasetItem]:
    items = []
    for row_name, cid, text, support, target, group in rows:
        try:
            comment = Comment(cid, text)
        except DataError as exc:
            raise DataError(f"{row_name}: {exc}") from None
        label = _parse_label(row_name, support, target, group, require_complete)
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
                    str(obj.get("support") or ""),
                    str(obj.get("target") or ""),
                    str(obj.get("group") or ""),
                )
            )
    return Dataset(tuple(_items_from_rows(rows, require_complete)), str(path))


def write_dataset(d: Dataset, path: str) -> None:
    """Write canonical CSV (or JSON Lines when the path ends in .jsonl)."""
    if str(path).endswith(".jsonl"):
        with open(path, "w", encoding="utf-8") as fh:
            for item in d.items:
                lab = item.label
                fh.write(
                    json.dumps(
                        {
                            "id": item.comment.id,
                            "text": item.comment.text,
                            "support": lab.support if lab else "",
                            "target": (lab.target or "") if lab else "",
                            "group": (lab.group or "") if lab else "",
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for item in d.items:
        lab = item.label
        writer.writerow(
            [
                item.comment.id,
                item.comment.text,
                lab.support if lab else "",
                (lab.target or "") if lab else "",
                (lab.group or "") if lab else "",
            ]
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


@dataclass(frozen=True)
class StatsReport:
    support_counts: dict[str, int]
    target_counts: dict[str, int]
    group_counts: dict[str, int]
    n_labeled: int
    n_unlabeled: int
    n_incomplete: int

    def to_json_dict(self) -> dict:
        return {
            "subtask1": self.support_counts,
            "subtask2": self.target_counts,
            "subtask3": self.group_counts,
            "totals": {
                "labeled": self.n_labeled,
                "unlabeled": self.n_unlabeled,
                "incomplete": self.n_incomplete,
            },
        }

    def to_text(self) -> str:
        rows = []
        for subtask, counts in (
            ("1", self.support_counts),
            ("2", self.target_counts),
            ("3", self.group_counts),
        ):
            for name, count in counts.items():
                rows.append((subtask, name, str(count)))
            rows.append((subtask, "(total)", str(sum(counts.values()))))
        return format_table(("subtask", "label", "count"), rows)


def dataset_stats(d: Dataset) -> StatsReport:
    """Exact per-stage label counts; each stage counts the labels present."""
    support = {name: 0 for name in SUPPORT_LABELS}
    target = {name: 0 for name in TARGET_LABELS}
    group = {name: 0 for name in GROUP_LABELS}
    n_labeled = n_unlabeled = n_incomplete = 0
    for item in d.items:
        lab = item.label
        if lab is None:
            n_unlabeled += 1
            continue
        n_labeled += 1
        n_incomplete += lab.incomplete
        support[lab.support] += 1
        if lab.target:
            target[lab.target] += 1
        if lab.group:
            group[lab.group] += 1
    return StatsReport(support, target, group, n_labeled, n_unlabeled, n_incomplete)


def stage_view(d: Dataset, subtask: int) -> Dataset:
    """Dataset restricted to the items a given subtask classifies."""
    if subtask == 1:
        kept = [it for it in d.items if it.label is not None]
    elif subtask == 2:
        kept = [
            it
            for it in d.items
            if it.label is not None
            and it.label.support == "SS"
            and it.label.target is not None
        ]
    elif subtask == 3:
        kept = [
            it
            for it in d.items
            if it.label is not None
            and it.label.target == "Group"
            and it.label.group is not None
        ]
    else:
        raise DataError(f"subtask must be 1, 2, or 3, got {subtask}")
    if subtask != 1 and not kept:
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
