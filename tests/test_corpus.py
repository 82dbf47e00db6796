import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataselect import corpus as corpus_module
from dataselect.corpus import (
    Corpus,
    Document,
    TfidfModel,
    build_vocabulary,
    default_stopwords,
    load_corpus,
    preprocess,
    term_counts,
    tokenize_corpus,
)
from dataselect.errors import DataError, ParseError

from conftest import gram_strings, make_corpus, vocabulary, write_jsonl

NO_STOP = frozenset()


def encode(texts, options=NO_STOP):
    """The encoded corpus of documents ``d0, d1, ...`` with the given texts."""
    return tokenize_corpus(
        make_corpus((f"d{i}", text, "x", None) for i, text in enumerate(texts)), options
    )


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

    @pytest.mark.parametrize("doc_id", ["", "a\nb", "a\rb", "a\u2028b"])
    def test_id_must_be_one_nonempty_line(self, tmp_path, doc_id):
        # ids are written one per line, as selection_ids.txt
        with pytest.raises(DataError, match="one non-empty line"):
            Document(id=doc_id, text="t", domain="d")
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "ok", "text": "x", "domain": "a"}, {"id": doc_id, "text": "x", "domain": "a"}],
        )
        with pytest.raises(ParseError, match="line 2.*one non-empty line"):
            load_corpus(path)

    @pytest.mark.parametrize("domain", ["tar\tget", "a\nb", "a\rb", "a\u2028b"])
    def test_domain_must_be_one_line_without_a_tab(self, tmp_path, domain):
        # a domain is a results.tsv field, where a tab or line break adds a field or a row
        with pytest.raises(DataError, match="not a tab-free line"):
            Document(id="x", text="t", domain=domain)
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "ok", "text": "x", "domain": "a"}, {"id": "b", "text": "x", "domain": domain}],
        )
        with pytest.raises(ParseError, match="line 2.*not a tab-free line"):
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


def unguarded_preprocess(text, stopwords=None):
    """``preprocess`` as it was before its substitutions were guarded: every
    pattern runs over every text."""
    text = re.sub(r"(?:https?://|www\.)\S+", " <url> ", text)
    text = re.sub(r"(?<!\w)@\w+", " <user> ", text)
    text = re.sub(r"(?<!\w)#\w+", " <hashtag> ", text)
    stop = default_stopwords() if stopwords is None else stopwords
    return [t for t in re.findall(r"<url>|<user>|<hashtag>|\w+", text.lower()) if t not in stop]


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

    def test_stopword_override(self):
        assert preprocess("the movie was great", frozenset({"movie"})) == ["the", "was", "great"]

    def test_punctuation_separates(self):
        assert preprocess("good,bad!plot?") == ["good", "bad", "plot"]

    def test_stopwords_removed_after_substitution(self):
        # "was" inside a hashtag disappears with the tag, not as a stopword
        assert preprocess("#was movie") == ["<hashtag>", "movie"]

    # single characters around every trigger and the pattern prefixes, so
    # that texts with and without each trigger are both common
    @given(st.lists(st.one_of(
        st.text(alphabet="@#:/.whtpsW _1éßǅ日", max_size=3),
        st.sampled_from(["://", "http://", "https://", "www.", "WWW.", "HTTP://"]),
    ), max_size=12).map("".join))
    def test_guarded_substitutions_match_unguarded(self, text):
        """The trigger checks skip only substitutions that could not match."""
        assert preprocess(text) == unguarded_preprocess(text)
        assert preprocess(text, frozenset()) == unguarded_preprocess(text, frozenset())


class TestVocabulary:
    """The cap binds through ``VOCAB_CAP``, patched to a small value."""

    def test_frequency_ranking(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "VOCAB_CAP", 2)
        vocab = build_vocabulary(encode(["a a a b b c"]))
        assert vocab == ("a", "b")

    def test_lexicographic_tie_break(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "VOCAB_CAP", 1)
        vocab = build_vocabulary(encode(["b a b a"]))
        assert vocab == ("a",)

    def test_cap_bounds_size(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "VOCAB_CAP", 10)
        vocab = build_vocabulary(encode([" ".join(f"tok{i}" for i in range(50))]))
        assert len(vocab) == 10

    def test_default_cap_keeps_ten_thousand(self):
        vocab = build_vocabulary(encode([" ".join(f"tok{i}" for i in range(10_050))]))
        assert len(vocab) == corpus_module.VOCAB_CAP == 10_000

    def test_empty_corpus_is_valid(self):
        vocab = build_vocabulary(tokenize_corpus(Corpus([])))
        assert len(vocab) == 0

    def test_permutation_invariance(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "VOCAB_CAP", 3)
        rows = [
            ("1", "apple banana apple", "x", None),
            ("2", "banana cherry", "y", None),
            ("3", "cherry cherry apple", "x", None),
        ]
        forward = build_vocabulary(tokenize_corpus(make_corpus(rows), NO_STOP))
        backward = build_vocabulary(tokenize_corpus(make_corpus(rows[::-1]), NO_STOP))
        assert forward == backward

    def test_counts_across_all_domains(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "VOCAB_CAP", 1)
        rows = [("1", "a a", "x", None), ("2", "b b b", "y", None)]
        vocab = build_vocabulary(tokenize_corpus(make_corpus(rows), NO_STOP))
        assert vocab == ("b",)


class TestTermCounts:
    @pytest.fixture
    def vocab(self):
        return vocabulary(["movie", "best"])

    def test_basic_counting(self, vocab):
        counts = term_counts(encode(["movie movie best"]), vocab)
        assert counts.indices.tolist() == [0, 1]
        assert counts.data.tolist() == [2, 1]

    def test_all_oov(self, vocab):
        counts = term_counts(encode(["alien words"]), vocab)
        assert counts.shape == (1, 2)
        assert counts.nnz == 0

    def test_empty(self, vocab):
        counts = term_counts(encode([""]), vocab)
        assert counts.shape == (1, 2)
        assert counts.nnz == 0

    def test_in_vocab_total_never_exceeds_total(self, vocab):
        rng = np.random.default_rng(0)
        universe = ["movie", "best", "oov1", "oov2"]
        token_lists = [list(rng.choice(universe, size=rng.integers(0, 12))) for _ in range(50)]
        in_vocab = term_counts(encode(map(" ".join, token_lists)), vocab).sum(axis=1).A1
        for tokens, total in zip(token_lists, in_vocab):
            oov = sum(1 for t in tokens if t not in vocab)
            assert total == len(tokens) - oov


def tfidf_rows(texts):
    """Fit uni/bigram tf-idf on the texts (no stopwords); their rows, the model
    and each feature's gram string."""
    encoded = encode(texts)
    model = TfidfModel.fit(encoded.counts)
    grams = gram_strings(encoded)
    features = {grams[c]: j for j, c in enumerate(model.columns.tolist())}
    return model.transform(encoded.counts), model, features


class TestTfidf:
    def test_single_document_idf_one_and_unit_norm(self):
        matrix, model, _ = tfidf_rows(["alpha beta alpha"])
        assert np.allclose(model.idf, 1.0)
        assert math.isclose(np.linalg.norm(matrix.toarray()), 1.0, abs_tol=1e-12)

    def test_identical_documents_identical_rows(self):
        matrix, _, _ = tfidf_rows(["same words here", "same words here"])
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

        # unigram features, as for the autoencoder's fixed vocabulary
        encoded = encode(" ".join(tokens) for tokens in docs.values())
        features = ["cat", "dog", "bird", "fish"]
        model = TfidfModel.fit(encoded.counts, columns=encoded.columns(features))
        dense = model.transform(encoded.counts).toarray()
        for row, name in enumerate(["A", "B", "C"]):
            for token, value in expected[name].items():
                assert dense[row, features.index(token)] == pytest.approx(value, abs=1e-9)
        # frozen spot checks from the same hand computation
        assert dense[0, 0] == pytest.approx(2 / math.sqrt(5), abs=1e-12)
        assert dense[0, 1] == pytest.approx(1 / math.sqrt(5), abs=1e-12)

    def test_bigram_features_present(self):
        _, _, features = tfidf_rows(["not good", "very good"])
        assert "not good" in features
        assert "very good" in features

    def test_unseen_ngrams_dropped_at_transform(self):
        encoded = encode(["alpha beta", "alpha zeta"])
        model = TfidfModel.fit(encoded.counts[:1])
        out = model.transform(encoded.counts[1:])
        assert out.shape[1] == len(model.columns) == 3  # alpha, "alpha beta", beta
        assert out[0, 0] > 0
        assert out.nnz == 1

    def test_empty_doc_list_is_error(self):
        with pytest.raises(DataError):
            TfidfModel.fit(encode(["alpha"]).counts[:0])

    def test_empty_document_maps_to_zero_vector(self):
        matrix, _, _ = tfidf_rows(["alpha", ""])
        assert matrix[1].nnz == 0

    def test_l2_norm_is_one_for_nonempty_rows(self):
        rng = np.random.default_rng(3)
        tokens = ["a", "b", "c", "d", "e"]
        lists = [
            list(rng.choice(tokens, size=rng.integers(1, 8))) for _ in range(20)
        ]
        encoded = encode(map(" ".join, lists))
        matrix = TfidfModel.fit(encoded.counts).transform(encoded.counts)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        assert np.allclose(norms, 1.0, atol=1e-12)


class TestDomainRows:
    def test_rows_of_each_domain_ascend(self, tiny_corpus):
        assert tiny_corpus.domain_rows("dvd").tolist() == [2, 3]

    def test_unknown_domain_is_rejected(self, tiny_corpus):
        with pytest.raises(DataError, match="^unknown domain 'music'$"):
            tiny_corpus.domain_rows("music")


class TestDocument:
    def test_empty_domain_rejected(self):
        with pytest.raises(DataError):
            Document(id="x", text="t", domain="", label=None)

    def test_label_validation(self):
        with pytest.raises(DataError):
            Document(id="x", text="t", domain="d", label="great")
