"""Lexicon extractors, TF-IDF, scaling, and feature-block assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from ssd.errors import DataError, FormatError, UsageError
from ssd.features import (
    EMOTIONS,
    CategoryLexicon,
    EmotionLexicon,
    TfidfVectorizer,
    ValenceLexicon,
    combine_features,
    emotion_features,
    fit_feature_scaler,
    fit_tfidf,
    index_dtype,
    liwc_features,
    load_category_lexicon,
    load_emotion_lexicon,
    load_valence_lexicon,
    sentiment_scores,
    transform_tfidf,
    transform_tfidf_corpus,
)


def ts(*tokens):
    return tuple(tokens)


class TestCategoryLexicon:
    def test_parse_prefix_and_exact(self, tmp_path):
        p = tmp_path / "d.dic"
        p.write_text("%\n1\tsocial\n%\nfriend*\t1\ntalk\t1\n")
        lex = load_category_lexicon(str(p))
        assert lex.names == ("social",)
        assert liwc_features(ts("friend", "friends", "talking", "cat"), lex).tolist() \
            == [4.0, 50.0]

    def test_undefined_id_reports_line(self, tmp_path):
        p = tmp_path / "d.dic"
        p.write_text("%\n1\tsocial\n%\nhello\t9\n")
        with pytest.raises(FormatError, match="4"):
            load_category_lexicon(str(p))

    def test_word_in_two_categories(self, tmp_path):
        p = tmp_path / "d.dic"
        p.write_text("%\n1\tposemo\n2\tsocial\n%\nlove\t1\t2\n")
        lex = load_category_lexicon(str(p))
        out = liwc_features(ts("love"), lex)
        assert out.tolist() == [1.0, 100.0, 100.0]

    def test_missing_delimiters_rejected(self, tmp_path):
        p = tmp_path / "d.dic"
        p.write_text("1\tsocial\nfriend\t1\n")
        with pytest.raises(FormatError):
            load_category_lexicon(str(p))

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "d.dic"
        p.write_text("%\n1\ta\n1\tb\n%\nx\t1\n")
        with pytest.raises(FormatError):
            load_category_lexicon(str(p))

    def test_empty_stream_all_zero(self, tmp_path):
        p = tmp_path / "d.dic"
        p.write_text("%\n1\tsocial\n%\ntalk\t1\n")
        lex = load_category_lexicon(str(p))
        assert liwc_features(ts(), lex).tolist() == [0.0, 0.0]

    def test_saturation_at_100(self, tmp_path):
        p = tmp_path / "d.dic"
        p.write_text("%\n1\tsocial\n%\ntalk\t1\n")
        lex = load_category_lexicon(str(p))
        assert liwc_features(ts("talk", "talk", "talk"), lex).tolist() == [3.0, 100.0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["talk", "friend", "cat", "dog"]), max_size=20))
    def test_scores_bounded_and_monotone(self, tokens):
        lex = CategoryLexicon((("social", ("talk", "friend*")),))
        out = liwc_features(ts(*tokens), lex)
        assert 0.0 <= out[1] <= 100.0
        more = liwc_features(ts(*(list(tokens) + ["talk"])), lex)
        assert more[1] >= out[1] - 1e-12 or out[1] == 100.0


    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(
        ["talk", "talked", "friend", "friends", "fri", "love", "lovely", "cat", ""]),
        max_size=25))
    def test_memoized_hits_match_fresh_recompute(self, tokens):
        lex = CategoryLexicon((
            ("social", ("talk", "friend*")),
            ("posemo", ("love*", "friend")),
            ("empty", ()),
            ("animal", ("cat", "ca*")),
        ))

        def fresh(stream):
            # every token matched against every pattern, nothing remembered
            counts = np.zeros(len(lex.categories))
            for tok in stream:
                for i, (_, pats) in enumerate(lex.categories):
                    if any(tok == p or (p.endswith("*") and tok.startswith(p[:-1]))
                           for p in pats):
                        counts[i] += 1
            n = len(stream)
            return np.concatenate(([float(n)], 100.0 * counts / max(1, n)))

        stream = ts(*tokens)
        for _ in range(2):  # the second pass is served from the memo
            out = liwc_features(stream, lex)
            assert out.tobytes() == fresh(stream).tobytes()
        assert lex._hits.cache_info().maxsize is not None


class TestEmotionLexicon:
    def test_counts_multi_emotion(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("win\tjoy\t1\nwin\tanticipation\t1\nloss\tsadness\t1\n")
        lex = load_emotion_lexicon(str(p))
        out = emotion_features(ts("win", "win", "cat"), lex)
        by = dict(zip(EMOTIONS, out))
        assert by["joy"] == 2 and by["anticipation"] == 2
        assert sum(out) == 4

    def test_zero_flag_means_no_association(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("win\tjoy\t0\n")
        lex = load_emotion_lexicon(str(p))
        assert emotion_features(ts("win"), lex).tolist() == [0.0] * 8

    def test_polarity_rows_skipped(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("win\tpositive\t1\nwin\tjoy\t1\n")
        lex = load_emotion_lexicon(str(p))
        assert sum(emotion_features(ts("win"), lex)) == 1

    def test_bad_flag_rejected(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("win\tjoy\t2\n")
        with pytest.raises(FormatError):
            load_emotion_lexicon(str(p))

    def test_empty_stream(self):
        lex = EmotionLexicon({"win": frozenset({"joy"})})
        assert emotion_features(ts(), lex).tolist() == [0.0] * 8


class TestSentiment:
    def lex(self, **entries):
        return ValenceLexicon(dict(entries))

    def test_worked_example_mixed(self):
        out = sentiment_scores(ts("good", "table"), self.lex(good=2.0))
        assert out == pytest.approx((0.0, 0.25, 0.75), abs=1e-12)

    def test_worked_example_negation(self):
        out = sentiment_scores(ts("not", "good"), self.lex(good=2.0))
        # 2.0 × −0.74 = −1.48 → Nm = 2.48, sole mass
        assert out == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_neutral_default(self):
        assert sentiment_scores(ts("chair", "table"), self.lex(good=2.0)) \
            == pytest.approx((0.0, 1.0, 0.0))
        assert sentiment_scores(ts(), self.lex(good=2.0)) == (0.0, 1.0, 0.0)

    def test_booster_amplifies(self):
        base = sentiment_scores(ts("good"), self.lex(good=2.0))
        boosted = sentiment_scores(ts("very", "good"), self.lex(good=2.0))
        assert boosted[2] == base[2]  # single token: proportions saturate
        # check via raw mass: P = v+1; boosted v = 2.293
        out = sentiment_scores(ts("very", "good", "chair"), self.lex(good=2.0))
        expected_pos = (2.0 + 0.293 + 1) / (2.0 + 0.293 + 1 + 1)
        assert out[2] == pytest.approx(expected_pos, abs=1e-12)

    def test_negator_window_is_three_tokens(self):
        lex = self.lex(good=2.0)
        hit = sentiment_scores(ts("not", "x", "y", "good"), lex)
        assert hit[0] > 0  # within window of 3
        miss = sentiment_scores(ts("not", "x", "y", "z", "good"), lex)
        assert miss[0] == 0.0  # outside window

    def test_modifiers_do_not_score_as_neutral(self):
        # "not" and "very" are modifiers: excluded from U
        out = sentiment_scores(ts("very", "not"), self.lex(good=2.0))
        assert out == (0.0, 1.0, 0.0)  # empty mass falls back to neutral

    def test_proportions_sum_to_one(self):
        lex = self.lex(good=2.0, bad=-1.5)
        out = sentiment_scores(ts("good", "bad", "stone"), lex)
        assert sum(out) == pytest.approx(1.0, abs=1e-9)

    def test_negators_boosters_must_be_disjoint(self):
        with pytest.raises(DataError):
            ValenceLexicon({}, frozenset({"not"}), {"not": 0.3})

    def test_valence_bounds_enforced(self):
        with pytest.raises(DataError):
            ValenceLexicon({"w": 4.5})

    @pytest.mark.parametrize("increment", ["nan", "inf", "-inf"])
    def test_non_finite_booster_increment_names_its_line(self, tmp_path, increment):
        val = tmp_path / "v.tsv"
        val.write_text("strong\t2.0\n")
        boo = tmp_path / "b.tsv"
        boo.write_text(f"mega\t0.5\nsuper\t{increment}\n")
        with pytest.raises(FormatError, match=f"b.tsv:2: bad increment '{increment}'"):
            load_valence_lexicon(str(val), None, str(boo))

    @pytest.mark.parametrize("valence", ["nan", "inf", "-inf", "4.5", "-4.0001"])
    def test_bad_valence_names_its_line(self, tmp_path, valence):
        val = tmp_path / "v.tsv"
        val.write_text(f"strong\t2.0\ngood\t{valence}\n")
        with pytest.raises(FormatError, match=f"v.tsv:2: valence '{valence}' outside"):
            load_valence_lexicon(str(val))
        val.write_text("edge\t-4\nother\t4.0\n")  # the bounds themselves load
        assert load_valence_lexicon(str(val)).entries == {"edge": -4.0, "other": 4.0}

    @pytest.mark.parametrize("valence,negators,boosters,where", [
        ("good\t2.0\n\t1.5\n", None, None, "v.tsv:2"),
        # "Good" would leave "good" scoring neutral, and "NOT" "not bad" unnegated
        ("good\t2.0\nGood\t2.0\n", None, None, "v.tsv:2"),
        ("good\t2.0\n", "nope\nNOT\n", None, "n.txt:2"),
        ("good\t2.0\n", None, "mega\t0.5\nVery\n", "b.tsv:2"),
    ], ids=["empty-word", "uppercase-word", "uppercase-negator", "uppercase-booster"])
    def test_word_no_token_can_match_names_its_line(
            self, tmp_path, valence, negators, boosters, where):
        paths = []
        for name, body in (("v.tsv", valence), ("n.txt", negators), ("b.tsv", boosters)):
            if body is not None:
                (tmp_path / name).write_text(body)
            paths.append(str(tmp_path / name) if body is not None else None)
        with pytest.raises(FormatError, match=f"{where}: words must be non-empty lowercase"):
            load_valence_lexicon(*paths)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_increment_or_negation_factor_rejected(self, bad):
        with pytest.raises(DataError, match="'super'"):
            ValenceLexicon({"strong": 2.0}, boosters={"super": bad})
        with pytest.raises(DataError, match="negation factor"):
            ValenceLexicon({"strong": 2.0}, negation_factor=bad)

    def test_load_with_custom_modifier_files(self, tmp_path):
        val = tmp_path / "v.tsv"
        val.write_text("good\t2.0\n")
        neg = tmp_path / "n.txt"
        neg.write_text("nope\n")
        boo = tmp_path / "b.tsv"
        boo.write_text("mega\t0.5\n")
        lex = load_valence_lexicon(str(val), str(neg), str(boo))
        assert lex.negators == frozenset({"nope"})
        assert lex.boosters == {"mega": 0.5}
        out = sentiment_scores(ts("nope", "good"), lex)
        assert out[0] == 1.0


class TestTfidf:
    def make(self, min_df=1, max_features=20000):
        return fit_tfidf([ts("a", "b"), ts("a", "c")], min_df, max_features)

    def test_worked_example_fit(self):
        v = self.make()
        assert sorted(v.vocabulary) == ["a", "b", "c"]
        assert v.vocabulary == {"a": 0, "b": 1, "c": 2}
        assert v.idf[0] == pytest.approx(1.0, abs=1e-12)
        assert v.idf[1] == pytest.approx(math.log(1.5) + 1, abs=1e-12)
        assert v.idf[2] == pytest.approx(math.log(1.5) + 1, abs=1e-12)

    def test_worked_example_transform(self):
        v = self.make()
        row = transform_tfidf(v, ts("a", "b")).toarray()[0]
        norm = math.hypot(1.0, math.log(1.5) + 1)
        assert row == pytest.approx([1.0 / norm, (math.log(1.5) + 1) / norm, 0.0],
                                    abs=1e-9)

    def test_min_df_filters(self):
        v = self.make(min_df=2)
        assert list(v.vocabulary) == ["a"]

    def test_max_features_keeps_highest_df(self):
        v = self.make(max_features=1)
        assert list(v.vocabulary) == ["a"]

    def test_oov_only_gives_zero_row(self):
        v = self.make()
        row = transform_tfidf(v, ts("zzz"))
        assert row.nnz == 0

    def test_repeated_token_normalizes_to_one(self):
        v = self.make()
        row = transform_tfidf(v, ts("a", "a")).toarray()[0]
        assert row[0] == pytest.approx(1.0)

    def test_rows_unit_norm(self):
        v = self.make()
        X = transform_tfidf_corpus(v, [ts("a", "b"), ts("b", "c", "c"), ts("zzz")])
        norms = sparse.linalg.norm(X, axis=1)
        assert norms[0] == pytest.approx(1.0, abs=1e-9)
        assert norms[1] == pytest.approx(1.0, abs=1e-9)
        assert norms[2] == 0.0

    def test_transform_is_pure(self):
        v = self.make()
        before = (dict(v.vocabulary), v.idf.copy())
        transform_tfidf_corpus(v, [ts("a"), ts("q")])
        assert dict(v.vocabulary) == before[0]
        assert np.array_equal(v.idf, before[1])

    def test_empty_vocabulary_is_data_error(self):
        with pytest.raises(DataError):
            fit_tfidf([ts("a")], min_df=2, max_features=10)

    def test_bad_bounds_are_usage_errors(self):
        with pytest.raises(UsageError):
            fit_tfidf([ts("a")], min_df=0, max_features=10)
        with pytest.raises(UsageError):
            fit_tfidf([ts("a")], min_df=1, max_features=0)


def _same_csr_arrays(got, want):
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


class _WideVocabulary(dict):
    """A vocabulary that reports 2**31 columns while holding a few words,
    so a TF-IDF matrix past the int32 limit costs no memory."""

    def __len__(self):
        return 2**31


class TestTfidfConstruction:
    """The CSR is built from typed index arrays; its arrays are those that
    scipy makes of Python lists (the conftest oracle builds it so)."""

    @pytest.mark.parametrize("streams", [
        [ts("a", "b"), ts("b", "c", "c")],
        [ts("zzz"), ts("a", "b"), ts(), ts("c"), ts("qq")],  # empty rows
        [ts(), ts("zzz")],  # no stored entry at all
        [],  # an empty batch
    ], ids=["rows", "empty-rows", "all-empty", "no-rows"])
    def test_arrays_equal_those_built_from_lists(self, streams):
        from conftest import oracle_transform_tfidf_corpus

        v = fit_tfidf([ts("a", "b"), ts("a", "c")], min_df=1)
        got = transform_tfidf_corpus(v, streams)
        _same_csr_arrays(got, oracle_transform_tfidf_corpus(v, streams))
        assert got.indices.dtype == got.indptr.dtype == np.int32

    def test_past_the_int32_limit_indices_are_int64(self):
        from conftest import oracle_transform_tfidf_corpus

        v = TfidfVectorizer(_WideVocabulary(a=0, b=1), np.array([1.0, 2.0]), 1, 2)
        streams = [ts("a", "b", "b"), ts("zzz")]
        got = transform_tfidf_corpus(v, streams)
        assert got.shape == (2, 2**31)
        assert got.indices.dtype == np.int64
        _same_csr_arrays(got, oracle_transform_tfidf_corpus(v, streams))

    @pytest.mark.parametrize("bounds", [
        (), (0,), (1, 5, 0), (2**31 - 1,), (3, 2**31 - 1, 2**31 - 1),
        (2**31,), (1, 2**31, 7), (5, 5, 2**31), (2**40,),
    ])
    def test_index_dtype_rule(self, bounds):
        """int32 exactly where scipy picks it for the largest bound."""
        want = sparse.get_index_dtype(maxval=max(bounds, default=0))
        assert index_dtype(*bounds) is want
        assert (want is np.int32) == (max(bounds, default=0) < 2**31)


# a small word pool, so that streams repeat their tokens and prefixes match
# several words; TF-IDF rows draw from a larger one, so that a row can hold
# more entries than a BLAS dot product sums one by one
POOL = ("a", "ab", "abc", "b", "ba", "c", "ca", "d", "e", "f")
TFIDF_POOL = tuple(f"t{k}" for k in range(40))
UNKNOWN = ("zz", "qq")
ROLES = ("negator", "booster", "plain")
# values that reach the float paths' edge cases: signed zeros, and for a
# hand-edited idf, NaN and infinities
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
IDF_VALUES = st.one_of(SIGNED_ZEROS, st.floats(-10, 10),
                       st.sampled_from([math.nan, math.inf]))


def streams_over(words, max_tokens=14):
    tokens = st.sampled_from(words + UNKNOWN)
    return st.lists(st.integers(0, max_tokens).flatmap(
        lambda n: st.lists(tokens, min_size=n, max_size=n)).map(lambda toks: ts(*toks)),
        max_size=6)


@st.composite
def category_lexicons(draw):
    pattern = st.sampled_from(POOL).flatmap(
        lambda w: st.sampled_from((w, w + "*", w[:1] + "*", "*")))
    return CategoryLexicon(tuple(
        (f"cat{k}", tuple(draw(st.lists(pattern, max_size=4))))
        for k in range(draw(st.integers(0, 4)))
    ))


@st.composite
def sentiment_cases(draw):
    """A valence lexicon over POOL, and streams made of phrases: one or two
    modifiers, 0-4 other tokens, then a word; so negators stand 1 to 6
    tokens before a valence word, boosters just before one, and modifiers
    next to each other."""
    roles = dict(zip(POOL, draw(st.lists(st.sampled_from(ROLES),
                                         min_size=len(POOL), max_size=len(POOL)))))
    increments = st.one_of(SIGNED_ZEROS, st.floats(-2, 2))
    valences = st.one_of(SIGNED_ZEROS, st.floats(-4, 4))
    lex = ValenceLexicon(
        {w: draw(valences) for w in POOL if draw(st.booleans())},
        frozenset(w for w, r in roles.items() if r == "negator"),
        {w: draw(increments) for w, r in roles.items() if r == "booster"},
        draw(st.one_of(st.just(-0.74), SIGNED_ZEROS, st.floats(-3, 3))),
    )
    modifiers = sorted(lex.negators | lex.boosters.keys()) or list(UNKNOWN)
    token = st.sampled_from(POOL + UNKNOWN)
    phrase = st.tuples(
        st.lists(st.sampled_from(modifiers), min_size=1, max_size=2),
        st.lists(token, max_size=4),
        st.sampled_from(sorted(lex.entries) or list(POOL)),
    ).map(lambda p: [*p[0], *p[1], p[2]])
    pieces = st.lists(st.one_of(phrase, token.map(lambda t: [t])), max_size=6)
    streams = draw(st.lists(pieces.map(lambda ps: ts(*(t for p in ps for t in p))),
                            max_size=5))
    return lex, streams


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestAgainstReferenceLoops:
    """The extractors and the TF-IDF transform give, bit for bit, what the
    reference loops in conftest.py give, over drawn lexicons and streams."""

    @settings(max_examples=150, deadline=None)
    @given(category_lexicons(), streams_over(POOL))
    def test_liwc_features(self, lex, streams):
        from conftest import oracle_liwc_features

        for stream in streams:
            assert same_bits(liwc_features(stream, lex), oracle_liwc_features(stream, lex))

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.sampled_from(POOL),
                           st.frozensets(st.sampled_from(EMOTIONS))),
           streams_over(POOL))
    def test_emotion_features(self, entries, streams):
        from conftest import oracle_emotion_features

        lex = EmotionLexicon(entries)
        for stream in streams:
            assert same_bits(emotion_features(stream, lex),
                             oracle_emotion_features(stream, lex))

    @settings(max_examples=200, deadline=None)
    @given(sentiment_cases())
    def test_sentiment_scores(self, case):
        from conftest import oracle_sentiment_scores

        lex, streams = case
        for stream in streams:
            got = sentiment_scores(stream, lex)
            assert isinstance(got, tuple)
            assert same_bits(got, oracle_sentiment_scores(stream, lex))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_transform_tfidf_corpus(self, data):
        from conftest import oracle_transform_tfidf_corpus

        words = data.draw(st.lists(st.sampled_from(TFIDF_POOL), unique=True, min_size=1),
                          label="vocabulary")
        idf = data.draw(st.lists(IDF_VALUES, min_size=len(words), max_size=len(words)),
                        label="idf")
        v = TfidfVectorizer({w: j for j, w in enumerate(words)},
                            np.array(idf, dtype=float), 1, len(words))
        streams = data.draw(streams_over(TFIDF_POOL, 60), label="streams")
        with np.errstate(invalid="ignore"):  # an infinite idf makes inf / inf
            got = transform_tfidf_corpus(v, streams)
            want = oracle_transform_tfidf_corpus(v, streams)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype, part
            assert np.array_equal(a.view(np.int64) if part == "data" else a,
                                  b.view(np.int64) if part == "data" else b), part


class TestCombine:
    def test_layout_and_order(self):
        liwc = np.array([[3.0, 10.0]])
        emo = np.zeros((1, 8))
        sent = np.array([[0.0, 1.0, 0.0]])
        tf = sparse.csr_matrix(np.array([[0.5, 0.5]]))
        fm = combine_features(
            [("tfidf", tf), ("sentiment", sent), ("liwc", liwc), ("emotion", emo)]
        )
        assert fm.layout == (("liwc", 2), ("emotion", 8), ("sentiment", 3), ("tfidf", 2))
        assert fm.dense.shape == (1, 2 + 8 + 3)
        assert fm.dense[0, 0] == 3.0 and fm.tfidf[0, 1] == 0.5
        assert fm.tfidf is tf  # a CSR block is not copied

    def test_zscore_requires_stats(self):
        with pytest.raises(UsageError):
            combine_features([("liwc", np.ones((2, 2)))], scaling="zscore")

    def test_zscore_standardizes_and_skips_constant(self):
        X = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
        scaler = fit_feature_scaler(X)
        fm = combine_features([("liwc", X)], scaling="zscore", fit_stats=scaler)
        col = fm.dense[:, 0]
        assert col.mean() == pytest.approx(0.0, abs=1e-7)
        assert col.std() == pytest.approx(1.0, abs=1e-6)
        assert fm.dense[:, 1] == pytest.approx([5.0, 5.0, 5.0])  # σ=0 untouched

    def test_zscore_equals_the_masked_formula_bit_for_bit(self):
        """A precomputed shift and scale give what standardizing only the
        non-constant columns gives; the input blocks are left alone."""
        fit = np.array([[1.0, 5.0, -0.0, 2.0], [3.0, 5.0, 0.0, 7.5], [5.5, 5.0, 0.0, 1e-300]])
        scaler = fit_feature_scaler(fit)
        X = np.array([[0.1, 5.0, -0.0, 3.0], [-7.0, -0.0, 2.0, 1e300], [1.0, 4.0, 0.0, -0.0]])
        before = X.copy()
        fm = combine_features([("liwc", X)], scaling="zscore", fit_stats=scaler)
        want = X.copy()
        nonconstant = scaler.std > 0
        want[:, nonconstant] = (want[:, nonconstant] - scaler.mean[nonconstant]) \
            / scaler.std[nonconstant]
        assert fm.dense.tobytes() == want.tobytes()
        assert X.tobytes() == before.tobytes()
        assert not nonconstant.all() and nonconstant.any()

    def test_unknown_block_rejected(self):
        with pytest.raises(UsageError):
            combine_features([("bigrams", np.ones((1, 2)))])

    def test_row_mismatch_rejected(self):
        with pytest.raises(UsageError):
            combine_features(
                [("liwc", np.ones((2, 2))), ("sentiment", np.ones((3, 3)))]
            )
