"""Dataset handling: hierarchical labels, loading, stats, stratified folds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd.corpus import (
    CSV_HEADER,
    Comment,
    Dataset,
    DatasetItem,
    GROUP_LABELS,
    HierLabel,
    dataset_stats,
    load_dataset,
    stage_view,
    stratified_kfold,
    stratified_kfold_labels,
    write_dataset,
)
from ssd.errors import DataError

from conftest import make_support_corpus


def _item(i, support, target=None, group=None, text="some words here"):
    return DatasetItem(Comment(f"c{i}", text), HierLabel(support, target, group))


class TestHierLabel:
    def test_valid_paths(self):
        HierLabel("NSS", None, None)
        HierLabel("SS", "Individual", None)
        HierLabel("SS", "Group", "Nation")

    def test_black_community_alias_accepted(self):
        lab = HierLabel("SS", "Group", "Black Community")
        assert lab.group == "BlackCommunity"

    @pytest.mark.parametrize(
        "support,target,group",
        [
            ("NSS", "Individual", None),     # NSS cannot carry a target
            ("NSS", None, "Nation"),         # NSS cannot carry a group
            ("SS", "Individual", "Nation"),  # Individual cannot carry a group
            ("SS", None, "Nation"),          # group requires target=Group
            ("Maybe", None, None),           # unknown support label
            ("SS", "Crowd", None),           # unknown target label
            ("SS", "Group", "Aliens"),       # unknown group label
        ],
    )
    def test_invariant_violations_rejected(self, support, target, group):
        with pytest.raises(DataError) as info:
            HierLabel(support, target, group)
        # the last label given is the offending one: the error names its stage
        stage, value = [
            (name, v) for name, v in zip(CSV_HEADER[2:], (support, target, group)) if v
        ][-1]
        assert stage in str(info.value) and repr(value) in str(info.value)

    def test_incomplete_flags(self):
        assert HierLabel("SS", None, None).incomplete
        assert HierLabel("SS", "Group", None).incomplete
        assert not HierLabel("SS", "Group", "Women").incomplete
        assert not HierLabel("NSS", None, None).incomplete


class TestDatasetIO:
    def test_round_trip_csv(self, tmp_path):
        ds = make_support_corpus(50, seed=1, hierarchical=True)
        path = tmp_path / "d.csv"
        write_dataset(ds, str(path))
        again = load_dataset(str(path))
        assert len(again) == 50
        assert [it.comment.id for it in again] == [it.comment.id for it in ds]
        assert [it.label for it in again] == [it.label for it in ds]

    def test_round_trip_is_byte_stable(self, tmp_path):
        ds = make_support_corpus(30, seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(ds, str(p1))
        write_dataset(load_dataset(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_round_trip(self, tmp_path):
        ds = make_support_corpus(20, seed=3, hierarchical=True)
        path = tmp_path / "d.jsonl"
        write_dataset(ds, str(path))
        again = load_dataset(str(path))
        assert [it.label for it in again] == [it.label for it in ds]

    def test_missing_file_is_data_error(self):
        with pytest.raises(DataError, match="no/such/file"):
            load_dataset("no/such/file.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,body\n1,hello\n")
        with pytest.raises(DataError):
            load_dataset(str(path))

    def test_invariant_violation_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,text,support,target,group\n"
            "a,fine,SS,Individual,\n"
            "b,broken,NSS,Individual,\n"
        )
        with pytest.raises(DataError, match="3"):
            load_dataset(str(path))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            Dataset((_item(1, "NSS"), _item(1, "NSS")))

    def test_require_complete(self, tmp_path):
        path = tmp_path / "inc.csv"
        path.write_text("id,text,support,target,group\na,words,SS,,\n")
        load_dataset(str(path))  # tolerated by default
        with pytest.raises(DataError):
            load_dataset(str(path), require_complete=True)


class TestStats:
    def test_worked_example(self):
        ds = Dataset((
            _item(0, "SS", "Group", "Nation"),
            _item(1, "SS", "Group", "Nation"),
            _item(2, "SS", "Group", "Nation"),
            _item(3, "NSS"),
        ))
        stats = dataset_stats(ds)
        assert stats.support_counts == {"SS": 3, "NSS": 1}
        assert stats.target_counts["Group"] == 3
        assert stats.target_counts["Individual"] == 0
        assert stats.group_counts["Nation"] == 3
        assert sum(stats.group_counts.values()) == 3
        assert stats.n_labeled == 4

    def test_stage_gaps_counted_per_stage(self):
        # an SS item without a target contributes to stage 1 only
        ds = Dataset((
            _item(0, "SS", "Group", "Women"),
            _item(1, "SS", None, None),
            _item(2, "SS", "Group", None),
            _item(3, "NSS"),
        ))
        stats = dataset_stats(ds)
        assert stats.support_counts["SS"] == 3
        assert stats.target_counts["Group"] == 2
        assert sum(stats.target_counts.values()) == 2
        assert stats.group_counts["Women"] == 1
        assert sum(stats.group_counts.values()) == 1
        assert stats.n_incomplete == 2

    def test_text_output_mentions_counts(self):
        ds = Dataset((_item(0, "SS", "Individual"), _item(1, "NSS")))
        text = dataset_stats(ds).to_text()
        assert "SS" in text and "NSS" in text and "Individual" in text


class TestStageViews:
    def test_views_shrink_down_the_hierarchy(self):
        ds = make_support_corpus(200, seed=4, hierarchical=True)
        v1, v2, v3 = (stage_view(ds, k) for k in (1, 2, 3))
        assert len(v1) == 200
        assert len(v2) < len(v1)
        assert len(v3) < len(v2)
        assert all(it.label.support == "SS" for it in v2)
        assert all(it.label.target == "Group" for it in v3)

    def test_empty_view_is_data_error(self):
        ds = Dataset((_item(0, "NSS"), _item(1, "NSS")))
        with pytest.raises(DataError):
            stage_view(ds, 2)


class TestStratifiedKFold:
    def test_worked_example_eight_two(self):
        labels = ["A"] * 8 + ["B"] * 2
        folds = stratified_kfold_labels(labels, 5, seed=0)
        assert len(folds) == 5
        for train, test in folds:
            assert sorted(train + test) == list(range(10))
            assert len(test) == 2
        b_rows = {i for i, y in enumerate(labels) if y == "B"}
        covered = [any(i in b_rows for i in test) for _, test in folds]
        assert sum(covered) == 2  # the two B items land in two distinct folds

    def test_k_bounds(self):
        with pytest.raises(DataError):
            stratified_kfold_labels(["A", "B"], 1, seed=0)
        with pytest.raises(DataError):
            stratified_kfold_labels(["A", "B"], 3, seed=0)

    def test_dataset_level_wrapper(self):
        ds = make_support_corpus(60, seed=6)
        folds = stratified_kfold(ds, 5, seed=1)
        assert len(folds) == 5

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 25), min_size=2, max_size=5),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partition_and_proportionality(self, counts, k, seed):
        labels = [f"L{c}" for c, n in enumerate(counts) for _ in range(n)]
        if k > len(labels):
            return
        folds = stratified_kfold_labels(labels, k, seed=seed)
        all_test = sorted(i for _, test in folds for i in test)
        assert all_test == list(range(len(labels)))  # exact partition
        for cls in set(labels):
            total = sum(1 for y in labels if y == cls)
            per_fold = [
                sum(1 for i in test if labels[i] == cls) for _, test in folds
            ]
            lo, hi = math.floor(total / k), math.ceil(total / k)
            assert all(lo <= n <= hi for n in per_fold)

    def test_seed_changes_assignment_not_shape(self):
        labels = ["A"] * 20 + ["B"] * 10
        f0 = stratified_kfold_labels(labels, 5, seed=0)
        f1 = stratified_kfold_labels(labels, 5, seed=1)
        assert [len(t) for _, t in f0] == [len(t) for _, t in f1]
        assert f0 != f1

    def test_deterministic_per_seed(self):
        labels = ["A"] * 17 + ["B"] * 13
        assert stratified_kfold_labels(labels, 5, 9) == stratified_kfold_labels(
            labels, 5, 9
        )
