"""The encoded corpus against the token-list code it replaced.

The ``ref_*`` functions below are a copy of the ``Counter``-based
vocabulary, term-count and tf-idf code that walked every document's token
strings once per use. Everything built from the encoded corpus must equal
their matrices exactly: the same ``data``, ``indices`` and ``indptr``.
"""

import math
from collections import Counter

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from dataselect.corpus import (
    TfidfModel,
    build_vocabulary,
    preprocess,
    term_counts,
    tokenize_corpus,
)
from dataselect.representations import ae_input_features

from conftest import gram_strings, make_corpus, vocabulary

# Prefixes ("a", "ab", "a_b"), digits, non-ASCII word characters, case
# pairs and every placeholder source; few enough that tokens repeat and
# frequencies tie.
WORDS = ("a", "ab", "a_b", "b", "B", "b2", "é", "éa", "ß", "ǅ", "日本", "١٢", "Z9",
         "<url>", "http://x.co/p", "@bob", "#tag", "<user>")
TOKEN = st.one_of(st.sampled_from(WORDS), st.from_regex(r"\w{1,3}", fullmatch=True))
SEPARATOR = st.sampled_from([" ", "  ", ", ", "!", " - "])


@st.composite
def texts(draw):
    """Up to 10 documents of up to 10 tokens each; some are empty."""
    docs = draw(st.lists(st.lists(st.tuples(TOKEN, SEPARATOR), max_size=10), min_size=1,
                         max_size=10))
    return ["".join(token + sep for token, sep in doc) for doc in docs]


def encode(texts):
    corpus = make_corpus((f"d{i}", text, "x", None) for i, text in enumerate(texts))
    return tokenize_corpus(corpus, frozenset()), [preprocess(t, frozenset()) for t in texts]


# --- the token-list code, kept as the reference -----------------------------

def ref_ngrams(tokens, ngram_max):
    yield from tokens
    if ngram_max >= 2:
        for i in range(len(tokens) - 1):
            yield tokens[i] + " " + tokens[i + 1]


def ref_vocabulary(token_lists, cap):
    freq = Counter()
    for tokens in token_lists:
        freq.update(tokens)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(tok for tok, _ in ranked[:cap])


def ref_counts(token_lists, index):
    indptr, indices, data = [0], [], []
    for tokens in token_lists:
        raw = Counter(index[t] for t in tokens if t in index)
        for i in sorted(raw):
            indices.append(i)
            data.append(raw[i])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(len(token_lists), len(index)),
    )


def ref_tfidf_fit(token_lists, ngram_max, vocab_index=None):
    if vocab_index is not None:
        feature_index = dict(vocab_index)
    else:
        seen = set()
        for tokens in token_lists:
            seen.update(ref_ngrams(tokens, ngram_max))
        feature_index = {g: i for i, g in enumerate(sorted(seen))}
    df = np.zeros(len(feature_index), dtype=np.int64)
    for tokens in token_lists:
        for g in set(ref_ngrams(tokens, ngram_max)):
            j = feature_index.get(g)
            if j is not None:
                df[j] += 1
    idf = np.log((1.0 + len(token_lists)) / (1.0 + df)) + 1.0
    return feature_index, idf


def ref_tfidf_transform(token_lists, ngram_max, feature_index, idf):
    indptr, indices, data = [0], [], []
    for tokens in token_lists:
        tf = Counter()
        for g in ref_ngrams(tokens, ngram_max):
            j = feature_index.get(g)
            if j is not None:
                tf[j] += 1
        row_idx = sorted(tf)
        row = np.array([tf[j] * idf[j] for j in row_idx], dtype=np.float64)
        norm = math.sqrt(float(np.dot(row, row)))
        if norm > 0.0:
            row /= norm
        indices.extend(row_idx)
        data.extend(row.tolist())
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(len(token_lists), len(feature_index)),
    )


def assert_same(new, old):
    assert new.shape == old.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name


# --- properties ---------------------------------------------------------------

@given(texts())
def test_gram_columns_are_in_sorted_string_order(texts):
    encoded, token_lists = encode(texts)
    grams = {g for tokens in token_lists for g in ref_ngrams(tokens, 2)}
    assert gram_strings(encoded) == sorted(grams)
    assert list(encoded.unigrams) == sorted({t for tokens in token_lists for t in tokens})


@given(texts(), st.data())
def test_vocabulary_counts_and_ae_tfidf_match_token_lists(texts, data):
    encoded, token_lists = encode(texts)
    distinct = len({t for tokens in token_lists for t in tokens})
    cap = data.draw(st.integers(1, max(1, distinct)), label="cap")  # binds below distinct
    vocab = build_vocabulary(encoded, cap)
    assert vocab == ref_vocabulary(token_lists, cap)
    index = {t: j for j, t in enumerate(vocab)}

    assert_same(term_counts(encoded, vocab), ref_counts(token_lists, index))

    features = ae_input_features(encoded, vocab)
    feature_index, idf = ref_tfidf_fit(token_lists, 1, index)
    assert_same(features, ref_tfidf_transform(token_lists, 1, feature_index, idf))


@given(texts(), st.data())
def test_classifier_tfidf_matches_token_lists(texts, data):
    encoded, token_lists = encode(texts)
    n = len(texts)
    train = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n), label="train")
    target = [i for i in range(n) if i not in train]  # may hold unseen n-grams

    model = TfidfModel.fit(encoded.counts[train])
    feature_index, idf = ref_tfidf_fit([token_lists[i] for i in train], 2)
    for rows in (train, target):
        assert_same(
            model.transform(encoded.counts[rows]),
            ref_tfidf_transform([token_lists[i] for i in rows], 2, feature_index, idf),
        )


def test_fixed_vocabulary_tokens_outside_the_corpus_stay_zero():
    encoded, token_lists = encode(["b a b", "", "c a"])
    vocab = vocabulary(["zz", "b", "a", "yy"])
    index = {t: j for j, t in enumerate(vocab)}
    assert_same(term_counts(encoded, vocab), ref_counts(token_lists, index))
    features = ae_input_features(encoded, vocab)
    feature_index, idf = ref_tfidf_fit(token_lists, 1, index)
    assert_same(features, ref_tfidf_transform(token_lists, 1, feature_index, idf))
