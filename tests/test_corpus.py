import math

import numpy as np
import pytest

from dataselect.corpus import (
    Corpus,
    Document,
    PreprocessOptions,
    TfidfModel,
    Vocabulary,
    build_vocabulary,
    counts_matrix,
    default_stopwords,
    load_corpus,
    preprocess,
)
from dataselect.errors import ConfigError, DataError, ParseError

from conftest import make_corpus, write_jsonl


class TestLoadCorpus:
    def test_three_line_file(self, tmp_path):
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [
                {"id": "a", "text": "x", "domain": "books", "label": "positive"},
                {"id": "b", "text": "y", "domain": "books", "label": None},
                {"id": "c", "text": "z", "domain": "dvd", "label": "negative"},
            ],
        )
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.domains == {"books", "dvd"}
        assert [d.id for d in corpus] == ["a", "b", "c"]

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [
                {"id": "d1", "text": "x", "domain": "a", "label": None},
                {"id": "d1", "text": "y", "domain": "a", "label": None},
            ],
        )
        with pytest.raises(DataError, match="duplicate.*d1"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        corpus = load_corpus(path)
        assert len(corpus) == 0
        assert corpus.domains == set()

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x", "domain": "a", "label": null}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_missing_field_names_line_number(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": "x"}])
        with pytest.raises(ParseError, match="line 1.*domain"):
            load_corpus(path)

    def test_bad_label_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "a", "text": "x", "domain": "a", "label": "meh"}],
        )
        with pytest.raises(ParseError, match="label"):
            load_corpus(path)

    def test_reload_is_identical(self, tmp_path):
        rows = [
            {"id": f"r{i}", "text": f"text {i}", "domain": "books" if i % 2 else "dvd",
             "label": None}
            for i in range(20)
        ]
        path = write_jsonl(tmp_path / "c.jsonl", rows)
        first = load_corpus(path)
        second = load_corpus(path)
        assert [d.id for d in first] == [d.id for d in second]
        assert [d.domain for d in first] == [d.domain for d in second]
        assert first.domains == second.domains


class TestPreprocess:
    def test_placeholders(self):
        assert preprocess("Check http://x.co @bob #win") == [
            "check", "<url>", "<user>", "<hashtag>",
        ]

    def test_stopwords_removed_by_default(self):
        stop = default_stopwords()
        assert "the" in stop and "was" in stop
        assert preprocess("the movie was the best") == ["movie", "best"]

    def test_empty_text(self):
        assert preprocess("") == []

    def test_lowercase_off(self):
        options = PreprocessOptions(lowercase=False, stopwords=frozenset())
        assert preprocess("Great Movie", options) == ["Great", "Movie"]

    def test_stopword_override(self):
        options = PreprocessOptions(stopwords=frozenset({"movie"}))
        assert preprocess("the movie was great", options) == ["the", "was", "great"]

    def test_punctuation_separates(self):
        assert preprocess("good,bad!plot?") == ["good", "bad", "plot"]

    def test_placeholder_substitution_can_be_disabled(self):
        options = PreprocessOptions(
            replace_urls=False, replace_users=False, replace_hashtags=False,
            stopwords=frozenset(),
        )
        assert preprocess("see www.x.co @bob", options) == ["see", "www", "x", "co", "bob"]

    def test_stopwords_removed_after_substitution(self):
        # "was" inside a hashtag disappears with the tag, not as a stopword
        assert preprocess("#was movie") == ["<hashtag>", "movie"]


class TestVocabulary:
    def test_frequency_ranking(self):
        corpus = make_corpus([("1", "a a a b b c", "x", None)])
        options = PreprocessOptions(stopwords=frozenset())
        vocab = build_vocabulary(corpus, cap=2, options=options)
        assert vocab.tokens == ("a", "b")

    def test_lexicographic_tie_break(self):
        corpus = make_corpus([("1", "b a b a", "x", None)])
        options = PreprocessOptions(stopwords=frozenset())
        vocab = build_vocabulary(corpus, cap=1, options=options)
        assert vocab.tokens == ("a",)

    def test_cap_bounds_size(self):
        corpus = make_corpus([("1", " ".join(f"tok{i}" for i in range(50)), "x", None)])
        vocab = build_vocabulary(corpus, cap=10)
        assert len(vocab) == 10

    def test_empty_corpus_is_valid(self):
        vocab = build_vocabulary(Corpus([]), cap=5)
        assert len(vocab) == 0

    def test_cap_must_be_positive(self):
        with pytest.raises(ConfigError):
            build_vocabulary(Corpus([]), cap=0)

    def test_permutation_invariance(self):
        rows = [
            ("1", "apple banana apple", "x", None),
            ("2", "banana cherry", "y", None),
            ("3", "cherry cherry apple", "x", None),
        ]
        options = PreprocessOptions(stopwords=frozenset())
        forward = build_vocabulary(make_corpus(rows), cap=3, options=options)
        backward = build_vocabulary(make_corpus(rows[::-1]), cap=3, options=options)
        assert forward.tokens == backward.tokens

    def test_counts_across_all_domains(self):
        rows = [("1", "a a", "x", None), ("2", "b b b", "y", None)]
        options = PreprocessOptions(stopwords=frozenset())
        vocab = build_vocabulary(make_corpus(rows), cap=1, options=options)
        assert vocab.tokens == ("b",)


class TestTermCounts:
    @pytest.fixture
    def vocab(self):
        return Vocabulary.from_frequencies({"movie": 5, "best": 3}, cap=2)

    def test_basic_counting(self, vocab):
        counts = counts_matrix([["movie", "movie", "best"]], vocab)
        assert counts.indices.tolist() == [0, 1]
        assert counts.data.tolist() == [2, 1]

    def test_all_oov(self, vocab):
        counts = counts_matrix([["alien", "words"]], vocab)
        assert counts.shape == (1, 2)
        assert counts.nnz == 0

    def test_empty(self, vocab):
        counts = counts_matrix([[]], vocab)
        assert counts.shape == (1, 2)
        assert counts.nnz == 0

    def test_in_vocab_total_never_exceeds_total(self, vocab):
        rng = np.random.default_rng(0)
        universe = ["movie", "best", "oov1", "oov2"]
        token_lists = [list(rng.choice(universe, size=rng.integers(0, 12))) for _ in range(50)]
        in_vocab = counts_matrix(token_lists, vocab).sum(axis=1).A1
        for tokens, total in zip(token_lists, in_vocab):
            oov = sum(1 for t in tokens if t not in vocab.index)
            assert total == len(tokens) - oov


def tfidf_rows(texts, ngram_max):
    """Fit tf-idf on the texts (no stopwords) and return their rows and the model."""
    token_lists = [preprocess(t, PreprocessOptions(stopwords=frozenset())) for t in texts]
    model = TfidfModel.fit(token_lists, ngram_max=ngram_max)
    return model.transform(token_lists), model


class TestTfidf:
    def test_single_document_idf_one_and_unit_norm(self):
        matrix, model = tfidf_rows(["alpha beta alpha"], ngram_max=1)
        assert np.allclose(model.idf, 1.0)
        assert math.isclose(np.linalg.norm(matrix.toarray()), 1.0, abs_tol=1e-12)

    def test_identical_documents_identical_rows(self):
        matrix, _ = tfidf_rows(["same words here", "same words here"], ngram_max=2)
        dense = matrix.toarray()
        assert np.array_equal(dense[0], dense[1])

    def test_hand_computed_three_doc_corpus(self):
        # Oracle: tf * (ln((1+N)/(1+df)) + 1), then L2 normalization, computed
        # from first principles on a fixed corpus of unigram token lists.
        docs = {
            "A": ["cat", "cat", "dog"],
            "B": ["dog", "bird"],
            "C": ["cat", "bird", "bird", "fish"],
        }
        df = {"cat": 2, "dog": 2, "bird": 2, "fish": 1}
        idf = {t: math.log(4 / (1 + n)) + 1 for t, n in df.items()}
        expected = {}
        for name, tokens in docs.items():
            tf = {t: tokens.count(t) for t in set(tokens)}
            weights = {t: tf[t] * idf[t] for t in tf}
            norm = math.sqrt(sum(w * w for w in weights.values()))
            expected[name] = {t: w / norm for t, w in weights.items()}

        matrix, model = tfidf_rows([" ".join(tokens) for tokens in docs.values()], ngram_max=1)
        dense = matrix.toarray()
        for row, name in enumerate(["A", "B", "C"]):
            for token, value in expected[name].items():
                assert dense[row, model.feature_index[token]] == pytest.approx(
                    value, abs=1e-9
                )
        # frozen spot checks from the same hand computation
        assert dense[0, model.feature_index["cat"]] == pytest.approx(
            2 / math.sqrt(5), abs=1e-12
        )
        assert dense[0, model.feature_index["dog"]] == pytest.approx(
            1 / math.sqrt(5), abs=1e-12
        )

    def test_bigram_features_present(self):
        _, model = tfidf_rows(["not good", "very good"], ngram_max=2)
        assert "not good" in model.feature_index
        assert "very good" in model.feature_index

    def test_unseen_ngrams_dropped_at_transform(self):
        _, model = tfidf_rows(["alpha beta"], ngram_max=1)
        out = model.transform([["alpha", "zeta"]])
        assert out.shape[1] == model.n_features
        assert out[0, model.feature_index["alpha"]] > 0
        assert out.nnz == 1

    def test_empty_doc_list_is_error(self):
        with pytest.raises(DataError):
            TfidfModel.fit([], ngram_max=1)

    def test_empty_document_maps_to_zero_vector(self):
        matrix, _ = tfidf_rows(["alpha", ""], ngram_max=1)
        assert matrix[1].nnz == 0

    def test_l2_norm_is_one_for_nonempty_rows(self):
        rng = np.random.default_rng(3)
        tokens = ["a", "b", "c", "d", "e"]
        lists = [
            list(rng.choice(tokens, size=rng.integers(1, 8))) for _ in range(20)
        ]
        model = TfidfModel.fit(lists, ngram_max=2)
        matrix = model.transform(lists)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        assert np.allclose(norms, 1.0, atol=1e-12)


class TestDocument:
    def test_empty_domain_rejected(self):
        with pytest.raises(DataError):
            Document(id="x", text="t", domain="", label=None)

    def test_label_validation(self):
        with pytest.raises(DataError):
            Document(id="x", text="t", domain="d", label="great")
