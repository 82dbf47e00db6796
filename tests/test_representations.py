import math
from collections import Counter

import numpy as np
import pytest

from dataselect.autoencoder import AEModel, AETrainConfig, encode, train
from dataselect.corpus import PreprocessOptions, Vocabulary, build_vocabulary, tokenize_corpus
from dataselect.embeddings import EmbeddingTable
from dataselect.errors import ConfigError, DataError
from dataselect.representations import (
    RepresentationSpace,
    ae_input_features,
    build_representation_space,
)
from dataselect.synthetic import DomainSpec, generate

from conftest import make_corpus

NO_STOP = PreprocessOptions(stopwords=frozenset())


def term_space(texts, tokens):
    """Term-distribution space over docs ``d0, d1, ...`` of one domain; the
    vocabulary is ``tokens`` in the given order."""
    corpus = make_corpus((f"d{i}", text, "x", None) for i, text in enumerate(texts))
    vocab = Vocabulary.from_frequencies(
        {t: len(tokens) - i for i, t in enumerate(tokens)}, cap=len(tokens)
    )
    return build_representation_space(corpus, "term_dist", vocab, options=NO_STOP)


def dense_space(vecs):
    ids = [f"d{i}" for i in range(len(vecs))]
    return RepresentationSpace(
        kind="embedding", doc_ids=ids, index={d: i for i, d in enumerate(ids)},
        matrix=np.asarray(vecs, dtype=np.float64),
    )


def sif_space(rows, table, a=1e-5, vocab=None):
    """Embedding space over ``rows`` of (id, text, domain)."""
    corpus = make_corpus((i, text, domain, None) for i, text, domain in rows)
    if vocab is None:
        vocab = build_vocabulary(corpus, cap=1000, options=NO_STOP)
    return build_representation_space(
        corpus, "embedding", vocab, options=NO_STOP, embedding_table=table, sif_a=a
    )


def sif_per_document(corpus, token_lists, vocab, table, a):
    """Reference SIF: a per-document loop over tokens, in token order.

    p is the token's share of the in-vocabulary tokens of the document's own
    domain; tokens outside the vocabulary or the table contribute nothing.
    """
    out = np.zeros((len(corpus), table.dim))
    for i, doc in enumerate(corpus):
        domain_tokens = [
            t for d in corpus.domain_documents(doc.domain) for t in token_lists[d.id] if t in vocab
        ]
        freq, total = Counter(domain_tokens), len(domain_tokens)
        acc = np.zeros(table.dim)
        n_in = 0
        for token in token_lists[doc.id]:
            vec = table.entries.get(token)
            if vec is None or token not in vocab:
                continue
            acc += np.sqrt(a / (freq[token] / total)) * vec
            n_in += 1
        if n_in:
            acc /= n_in
        out[i] = acc
    return out


class TestTermDistribution:
    def test_single_instance(self):
        dist = term_space(["a a b b"], ["a", "b", "c", "d"]).aggregate(["d0"])
        assert np.allclose(dist.probs, [0.5, 0.5, 0.0, 0.0])
        assert not dist.empty

    def test_aggregate_sums_before_normalizing(self):
        dist = term_space(["a", "b b b"], ["a", "b"]).aggregate(["d0", "d1"])
        assert np.allclose(dist.probs, [0.25, 0.75])

    def test_all_oov_flags_empty(self):
        dist = term_space(["x y z z z"], ["a", "b", "c"]).aggregate(["d0"])
        assert dist.empty
        assert np.all(dist.probs == 0)

    def test_sums_to_one_and_order_invariant(self):
        rng = np.random.default_rng(7)
        tokens = [f"t{j:02d}" for j in range(20)]
        texts = []
        for _ in range(12):
            k = int(rng.integers(1, 6))
            picked = rng.choice(20, size=k, replace=False)
            texts.append(" ".join(tokens[j] for j in picked for _ in range(rng.integers(1, 9))))
        space = term_space(texts, tokens)
        ids = [f"d{i}" for i in range(12)]
        forward = space.aggregate(ids)
        backward = space.aggregate(ids[::-1])
        assert abs(forward.probs.sum() - 1.0) <= 1e-9
        assert np.allclose(forward.probs, backward.probs, atol=1e-12)


class TestSifEmbedding:
    @pytest.fixture
    def table(self):
        return EmbeddingTable(
            {"hot": np.array([1.0, 0.0]), "cold": np.array([0.0, 1.0])}, dim=2
        )

    def test_single_token(self, table):
        # domain frequencies: p(hot) = 10 / 100
        space = sif_space(
            [("q", "hot", "x"), ("r", " ".join(["hot"] * 9 + ["filler"] * 90), "x")], table
        )
        expected = math.sqrt(1e-5 / 0.1) * np.array([1.0, 0.0])
        assert np.allclose(space.rows(["q"])[0], expected, atol=1e-12)

    def test_two_tokens_hand_computed(self, table):
        # weighted sum over occurrences divided by the in-table count;
        # domain frequencies: p(hot) = 4 / 20, p(cold) = 1 / 20
        a = 1e-5
        space = sif_space(
            [("q", "hot cold", "x"), ("r", " ".join(["hot"] * 3 + ["filler"] * 15), "x")],
            table, a=a,
        )
        w_hot = math.sqrt(a / 0.2)
        w_cold = math.sqrt(a / 0.05)
        expected = (
            w_hot * np.array([1.0, 0.0]) + w_cold * np.array([0.0, 1.0])
        ) / 2
        assert np.allclose(space.rows(["q"])[0], expected, atol=1e-9)

    def test_oov_tokens_skipped(self, table):
        space = sif_space([("q", "hot unknowable", "x"), ("r", "hot", "x")], table)
        with_oov, only = space.rows(["q", "r"])
        assert np.allclose(with_oov, only)

    def test_no_table_tokens_gives_zero_vector(self, table):
        space = sif_space([("q", "nothing matches", "x"), ("r", "hot", "x")], table)
        assert np.all(space.rows(["q"])[0] == 0)

    def test_table_tokens_outside_vocabulary_ignored(self, table):
        # "cold" has a vector but is not in the vocabulary: p(hot) = 2 / 2
        vocab = Vocabulary.from_frequencies({"hot": 2}, cap=1)
        space = sif_space([("q", "hot cold", "x"), ("r", "hot", "x")], table, vocab=vocab)
        expected = math.sqrt(1e-5) * np.array([1.0, 0.0])
        assert np.allclose(space.rows(["q"])[0], expected, atol=1e-12)

    def test_nonpositive_smoothing_rejected(self, table):
        with pytest.raises(ConfigError):
            sif_space([("q", "hot", "x")], table, a=0.0)

    def test_token_order_invariance(self, table):
        space = sif_space([("q", "hot cold hot", "x"), ("r", "cold hot hot", "x")], table)
        ab, ba = space.rows(["q", "r"])
        assert np.allclose(ab, ba, atol=1e-12)

    def test_scaling_embeddings_scales_output(self, table):
        rows = [("q", "hot cold", "x"), ("r", "hot hot hot cold filler", "x")]
        scaled = EmbeddingTable({k: 3.0 * v for k, v in table.entries.items()}, dim=2)
        base = sif_space(rows, table).rows(["q"])[0]
        big = sif_space(rows, scaled).rows(["q"])[0]
        assert np.allclose(big, 3.0 * base, atol=1e-12)


class TestDomainRepresentation:
    def test_mean(self):
        space = dense_space([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(space.aggregate(["d0", "d1"]), [0.5, 0.5])

    def test_singleton_identity(self):
        space = dense_space([[0.2, -0.4]])
        assert np.allclose(space.aggregate(["d0"]), [0.2, -0.4])

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(100, 6))
        acc = np.zeros(6)
        for v in vecs:
            acc = acc + v
        space = dense_space(vecs)
        assert np.allclose(space.aggregate(space.doc_ids), acc / 100, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(12)
        space = dense_space(rng.normal(size=(9, 4)))
        a = space.aggregate(space.doc_ids)
        b = space.aggregate(space.doc_ids[::-1])
        assert np.allclose(a, b, atol=1e-12)

    def test_empty_list_error(self):
        with pytest.raises(DataError):
            dense_space([[1.0, 0.0]]).aggregate([])

    def test_mixed_dims_error(self):
        # one matrix has one width; the table is where mixed widths could enter
        with pytest.raises(DataError):
            EmbeddingTable({"hot": np.zeros(2), "cold": np.zeros(3)}, dim=2)


class TestAERepresentation:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(5)
        d, h = 6, 3
        return AEModel(
            W=rng.normal(scale=0.5, size=(h, d)),
            b=rng.normal(scale=0.2, size=h),
            W_out=rng.normal(scale=0.5, size=(d, h)),
            b_out=np.zeros(d),
        )

    @staticmethod
    def codes(model, features):
        corpus = make_corpus((f"d{i}", "x", "x", None) for i in range(len(features)))
        vocab = Vocabulary.from_frequencies({"x": 1}, cap=1)
        space = build_representation_space(
            corpus, "autoencoder", vocab, options=NO_STOP,
            ae_model=model, ae_features=np.asarray(features, dtype=np.float64),
        )
        return space.rows(space.doc_ids)

    def test_zero_input_gives_sigmoid_bias(self, model):
        code = self.codes(model, np.zeros((1, 6)))[0]
        assert np.allclose(code, 1.0 / (1.0 + np.exp(-model.b)), atol=1e-12)

    def test_deterministic(self, model):
        x = np.linspace(0, 1, 6)[None, :]
        assert np.array_equal(self.codes(model, x), self.codes(model, x))

    def test_matches_matrix_multiply_oracle(self, model):
        X = np.random.default_rng(9).random((10, 6))
        codes = self.codes(model, X)
        for x, code in zip(X, codes):
            z = model.W @ x + model.b  # independent forward pass
            assert np.allclose(code, 1.0 / (1.0 + np.exp(-z)), atol=1e-9)

    def test_dim_mismatch(self, model):
        with pytest.raises(DataError):
            self.codes(model, np.zeros((1, 5)))


class TestRepresentationSpace:
    @pytest.fixture
    def corpus(self):
        return make_corpus(
            [
                ("a1", "hot hot cold", "alpha", "positive"),
                ("a2", "cold cold", "alpha", "negative"),
                ("b1", "hot warm", "beta", "positive"),
            ]
        )

    @pytest.fixture
    def vocab(self):
        return Vocabulary.from_frequencies({"hot": 3, "cold": 3, "warm": 1}, cap=3)

    def test_term_dist_space(self, corpus, vocab):
        space = build_representation_space(corpus, "term_dist", vocab, options=NO_STOP)
        dist = space.aggregate(["a1", "a2"])
        # pooled counts: hot 2 + cold 3 over 5
        expected = np.zeros(3)
        expected[vocab.index["hot"]] = 0.4
        expected[vocab.index["cold"]] = 0.6
        assert np.allclose(dist.probs, expected, atol=1e-12)

    def test_embedding_space_uses_own_domain_frequencies(self, corpus, vocab):
        # bit-identical to the per-document loop, here and on a generated corpus
        # whose table also holds tokens outside the vocabulary
        table = EmbeddingTable(
            {"hot": np.array([1.0, 0.0]), "cold": np.array([0.0, 1.0]),
             "warm": np.array([1.0, 1.0])},
            dim=2,
        )
        space = build_representation_space(
            corpus, "embedding", vocab, options=NO_STOP, embedding_table=table
        )
        token_lists = tokenize_corpus(corpus, NO_STOP)
        oracle = sif_per_document(corpus, token_lists, vocab, table, 1e-5)
        assert np.array_equal(space.matrix, oracle)

        shape = dict(docs_per_label=20, lexicon_size=12, shared_vocab_size=30,
                     private_vocab_size=10, doc_length=(3, 15))
        big = generate(
            [DomainSpec(name="near", overlap=0.7, seed=1, **shape),
             DomainSpec(name="far", overlap=0.2, seed=2, **shape)],
            DomainSpec(name="tgt", seed=3, **shape),
        )
        token_lists = tokenize_corpus(big, NO_STOP)
        big_vocab = build_vocabulary(big, cap=60, token_lists=token_lists)
        rng = np.random.default_rng(4)
        all_tokens = sorted({t for tokens in token_lists.values() for t in tokens})
        table = EmbeddingTable(
            {t: rng.normal(size=7) for t in all_tokens if rng.random() < 0.7}, dim=7
        )
        space = build_representation_space(
            big, "embedding", big_vocab, token_lists=token_lists,
            embedding_table=table, sif_a=1e-3,
        )
        oracle = sif_per_document(big, token_lists, big_vocab, table, 1e-3)
        assert np.array_equal(space.matrix, oracle)

    def test_autoencoder_space_matches_direct_encode(self, corpus, vocab):
        features, _ = ae_input_features(corpus, vocab, options=NO_STOP)
        model, _ = train(
            features,
            AETrainConfig(epochs=2, masking_prob=0.5, hidden_dim=4, batch_size=2, seed=1),
        )
        space = build_representation_space(
            corpus, "autoencoder", vocab, options=NO_STOP,
            ae_model=model, ae_features=features,
        )
        direct = encode(model, features[0])
        assert np.allclose(space.rows(["a1"])[0], direct, atol=1e-12)

    def test_missing_embedding_table_is_config_error(self, corpus, vocab):
        with pytest.raises(ConfigError):
            build_representation_space(corpus, "embedding", vocab, options=NO_STOP)

    def test_empty_aggregate_flagged(self, corpus, vocab):
        space = build_representation_space(corpus, "term_dist", vocab, options=NO_STOP)
        empty_corpus = make_corpus([("z1", "zzz yyy", "gamma", None)])
        gamma = build_representation_space(empty_corpus, "term_dist", vocab, options=NO_STOP)
        assert gamma.aggregate(["z1"]).empty
        assert not space.aggregate(["a1"]).empty
