import math
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dataselect import corpus as corpus_module
from dataselect import representations
from dataselect.autoencoder import AEModel, AETrainConfig, encode, train
from dataselect.corpus import (
    build_vocabulary,
    preprocess,
    term_counts,
    tokenize_corpus,
)
from dataselect.embeddings import EmbeddingTable
from dataselect.errors import ConfigError, DataError
from dataselect.evaluation import prepare_context
from dataselect.representations import (
    RepresentationSpace,
    TermDistribution,
    ae_input_features,
    build_representation_space,
    pool_groups,
)
from dataselect.synthetic import DomainSpec, generate

from conftest import make_corpus, vocabulary

NO_STOP = frozenset()


def build(corpus, kind, vocab, **kwargs):
    """``build_representation_space`` on the corpus encoded without stopwords."""
    return build_representation_space(
        corpus, tokenize_corpus(corpus, NO_STOP), kind, vocab, **kwargs
    )


def term_space(texts, tokens):
    """Term-distribution space over docs ``d0, d1, ...`` of one domain; the
    vocabulary is ``tokens`` in the given order."""
    corpus = make_corpus((f"d{i}", text, "x", None) for i, text in enumerate(texts))
    return build(corpus, "term_dist", vocabulary(tokens))


def dense_space(vecs):
    return RepresentationSpace(
        kind="embedding", doc_ids=[f"d{i}" for i in range(len(vecs))],
        matrix=np.asarray(vecs, dtype=np.float64),
    )


def sif_space(rows, table, vocab=None):
    """Embedding space over ``rows`` of (id, text, domain)."""
    corpus = make_corpus((i, text, domain, None) for i, text, domain in rows)
    if vocab is None:
        vocab = build_vocabulary(tokenize_corpus(corpus, NO_STOP))
    return build(corpus, "embedding", vocab, embedding_table=table)


def sif_per_document(corpus, vocab, table, a):
    """Reference SIF: a per-document loop over tokens, in token order.

    p is the token's share of the in-vocabulary tokens of the document's own
    domain; tokens outside the vocabulary or the table contribute nothing.
    """
    token_lists = {doc.id: preprocess(doc.text, NO_STOP) for doc in corpus}
    out = np.zeros((len(corpus), table.dim))
    for i, doc in enumerate(corpus):
        domain_tokens = [
            t for d in corpus if d.domain == doc.domain for t in token_lists[d.id] if t in vocab
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

    @pytest.mark.parametrize(
        "probs", [[np.nan, 1.0], [np.inf, 1.0], [np.nan, 0.0]], ids=["nan", "inf", "nan-alone"]
    )
    def test_non_finite_entries_are_rejected(self, probs):
        """A NaN entry passes the sum and sign checks; JS would then score the
        rows [[1, 0], [0, 2]] against [nan, 1] as [nan, 0.0]."""
        with pytest.raises(DataError, match="non-finite"):
            TermDistribution(probs=np.array(probs))

    def test_emptiness_is_read_from_the_probabilities(self):
        """A zero vector is the empty distribution, and no flag can contradict
        the probabilities: ``empty=True`` on a vector with mass made JS NaN."""
        assert TermDistribution(probs=np.zeros(3)).empty
        assert not TermDistribution(probs=np.array([0.5, 0.5])).empty
        with pytest.raises(TypeError):
            TermDistribution(probs=np.array([0.5, 0.5]), empty=True)
        with pytest.raises(DataError, match="sums to"):
            TermDistribution(probs=np.array([0.5, 0.25]))

    def test_aggregate_of_an_unknown_id_names_it(self):
        space = term_space(["a b"], ["a", "b"])
        with pytest.raises(DataError, match="unknown document id 'nope'"):
            space.aggregate(["d0", "nope"])

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
        assert np.allclose(space.matrix[0], expected, atol=1e-12)

    def test_two_tokens_hand_computed(self, table, monkeypatch):
        # weighted sum over occurrences divided by the in-table count;
        # domain frequencies: p(hot) = 4 / 20, p(cold) = 1 / 20; the weights
        # read SIF_A, patched away from its 1e-5
        a = 1e-3
        monkeypatch.setattr(representations, "SIF_A", a)
        space = sif_space(
            [("q", "hot cold", "x"), ("r", " ".join(["hot"] * 3 + ["filler"] * 15), "x")],
            table,
        )
        w_hot = math.sqrt(a / 0.2)
        w_cold = math.sqrt(a / 0.05)
        expected = (
            w_hot * np.array([1.0, 0.0]) + w_cold * np.array([0.0, 1.0])
        ) / 2
        assert np.allclose(space.matrix[0], expected, atol=1e-9)

    def test_oov_tokens_skipped(self, table):
        space = sif_space([("q", "hot unknowable", "x"), ("r", "hot", "x")], table)
        with_oov, only = space.matrix
        assert np.allclose(with_oov, only)

    def test_no_table_tokens_gives_zero_vector(self, table):
        space = sif_space([("q", "nothing matches", "x"), ("r", "hot", "x")], table)
        assert np.all(space.matrix[0] == 0)

    def test_table_tokens_outside_vocabulary_ignored(self, table):
        # "cold" has a vector but is not in the vocabulary: p(hot) = 2 / 2
        vocab = vocabulary(["hot"])
        space = sif_space([("q", "hot cold", "x"), ("r", "hot", "x")], table, vocab=vocab)
        expected = math.sqrt(1e-5) * np.array([1.0, 0.0])
        assert np.allclose(space.matrix[0], expected, atol=1e-12)

    def test_token_order_invariance(self, table):
        space = sif_space([("q", "hot cold hot", "x"), ("r", "cold hot hot", "x")], table)
        ab, ba = space.matrix
        assert np.allclose(ab, ba, atol=1e-12)

    def test_scaling_embeddings_scales_output(self, table):
        rows = [("q", "hot cold", "x"), ("r", "hot hot hot cold filler", "x")]
        scaled = EmbeddingTable({k: 3.0 * v for k, v in table.entries.items()}, dim=2)
        base = sif_space(rows, table).matrix[0]
        big = sif_space(rows, scaled).matrix[0]
        assert np.allclose(big, 3.0 * base, atol=1e-12)


def positionwise_sif_rows(corpus, encoded, vocab, table, a):
    """SIF as computed before both sums were pooled by ``pool_groups``, kept as
    the oracle: per-domain counts through a hand-built membership matrix, and
    rows accumulated one token position at a time across all documents."""
    domain_code = {domain: i for i, domain in enumerate(sorted(corpus.domains))}
    domains = np.array([domain_code[doc.domain] for doc in corpus], dtype=np.int64)
    n = len(domains)
    membership = sp.csr_matrix(
        (np.ones(n), (domains, np.arange(n))), shape=(int(domains.max(initial=0)) + 1, n)
    )
    domain_counts = (membership @ term_counts(encoded, vocab)).toarray()
    probs = domain_counts / np.maximum(domain_counts.sum(axis=1, keepdims=True), 1.0)

    in_table = np.array([token in table for token in vocab], dtype=bool)
    vectors = np.zeros((len(vocab), table.dim), dtype=np.float64)
    for j in np.flatnonzero(in_table).tolist():
        vectors[j] = table.entries[vocab[j]]
    ids = encoded.ids(vocab)
    keep = in_table & (ids >= 0)
    position = np.full(len(encoded.unigrams), -1, dtype=np.int64)
    position[ids[keep]] = np.flatnonzero(keep)
    occurrences = position[encoded.token_ids]
    weighted = occurrences >= 0
    docs = np.repeat(np.arange(n), np.diff(encoded.offsets))[weighted]
    tokens = occurrences[weighted]
    lengths = np.bincount(docs, minlength=n)
    weights = np.sqrt(a / probs[domains[docs], tokens])
    positions = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    by_position = np.argsort(positions, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(positions))))

    out = np.zeros((n, table.dim), dtype=np.float64)
    for start, end in zip(bounds[:-1], bounds[1:]):
        at = by_position[start:end]  # at most one token per document
        out[docs[at]] += weights[at, None] * vectors[tokens[at]]
    nonempty = lengths > 0
    out[nonempty] /= lengths[nonempty, None]
    return out


SIF_WORDS = [f"w{i}" for i in range(6)]


@st.composite
def sif_cases(draw):
    """Corpora with empty documents, documents without an in-table token,
    repeated tokens and one-document domains, or no documents at all; the
    vocabulary may miss corpus tokens and hold unseen ones, and the table
    holds tokens outside it."""
    rows = [
        (f"d{i}", " ".join(draw(st.lists(st.sampled_from(SIF_WORDS), max_size=9))),
         draw(st.sampled_from(["a", "b", "c"])), None)
        for i in range(draw(st.integers(0, 8)))
    ]
    vocab = vocabulary(draw(st.lists(st.sampled_from(SIF_WORDS + ["unseen"]), min_size=1,
                                     unique=True)))
    dim = draw(st.integers(1, 4))
    component = st.sampled_from([0.1, -0.3, 1 / 3, 2.5, -7.1, 1e-3, 0.0])
    entries = draw(st.dictionaries(
        st.sampled_from(SIF_WORDS + ["x0", "x1"]),
        arrays(np.float64, dim, elements=component),
    ))
    a = draw(st.sampled_from([1e-5, 1e-3]))
    return make_corpus(rows), vocab, EmbeddingTable(entries, dim=dim), a


class TestSifRows:
    @given(sif_cases())
    def test_bytes_equal_positionwise_sums(self, case):
        corpus, vocab, table, a = case
        encoded = tokenize_corpus(corpus, NO_STOP)
        with patch.object(representations, "SIF_A", a):
            space = build_representation_space(
                corpus, encoded, "embedding", vocab, embedding_table=table
            )
        oracle = positionwise_sif_rows(corpus, encoded, vocab, table, a)
        assert space.matrix.dtype == oracle.dtype and space.matrix.shape == oracle.shape
        assert space.matrix.tobytes() == oracle.tobytes()


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

    @given(st.data())
    def test_equals_mean_of_copied_rows(self, data):
        n, d = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
        value = st.floats(-1e6, 1e6, allow_nan=False) | st.just(0.0)
        # every element is drawn (no fill value), so the rows differ
        full = arrays(np.float64, (n, d), elements=value, fill=st.nothing())
        matrix = data.draw(full, label="matrix")
        zero = data.draw(arrays(bool, n), label="empty rows")
        matrix[zero] = 0.0
        order = data.draw(st.permutations(range(n)), label="order")
        picked = order[: data.draw(st.integers(1, n), label="group size")]
        pooled = dense_space(matrix).aggregate([f"d{i}" for i in picked])
        # the members added in order, then divided once; numpy's mean adds a
        # one-column matrix pairwise, which rounds differently from 8 rows on
        total = np.zeros(d)
        for i in picked:
            total += matrix[i]
        assert np.array_equal(pooled, total / len(picked))
        if d > 1:
            assert np.array_equal(pooled, matrix[picked].mean(axis=0))

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
        """The autoencoder view of one document per row of ``features``."""
        corpus = make_corpus((f"d{i}", "x", "x", None) for i in range(len(features)))
        codes = encode(model.W, model.b, np.asarray(features, dtype=np.float64))
        return build(corpus, "autoencoder", vocabulary(["x"]), ae_codes=codes).matrix

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
        return vocabulary(["cold", "hot", "warm"])

    def test_term_dist_space(self, corpus, vocab):
        space = build(corpus, "term_dist", vocab)
        dist = space.aggregate(["a1", "a2"])
        # pooled counts: hot 2 + cold 3 over 5
        expected = np.zeros(3)
        expected[vocab.index("hot")] = 0.4
        expected[vocab.index("cold")] = 0.6
        assert np.allclose(dist.probs, expected, atol=1e-12)

    def test_embedding_space_uses_own_domain_frequencies(self, corpus, vocab, monkeypatch):
        # bit-identical to the per-document loop, here and on a generated corpus
        # whose table also holds tokens outside the vocabulary
        table = EmbeddingTable(
            {"hot": np.array([1.0, 0.0]), "cold": np.array([0.0, 1.0]),
             "warm": np.array([1.0, 1.0])},
            dim=2,
        )
        space = build(corpus, "embedding", vocab, embedding_table=table)
        oracle = sif_per_document(corpus, vocab, table, 1e-5)
        assert np.array_equal(space.matrix, oracle)

        shape = dict(docs_per_label=20, lexicon_size=12, shared_vocab_size=30,
                     private_vocab_size=10, doc_length=(3, 15))
        big = generate(
            [DomainSpec(name="near", overlap=0.7, seed=1, **shape),
             DomainSpec(name="far", overlap=0.2, seed=2, **shape)],
            DomainSpec(name="tgt", seed=3, **shape),
        )
        encoded = tokenize_corpus(big, NO_STOP)
        monkeypatch.setattr(corpus_module, "VOCAB_CAP", 60)
        monkeypatch.setattr(representations, "SIF_A", 1e-3)
        big_vocab = build_vocabulary(encoded)
        rng = np.random.default_rng(4)
        table = EmbeddingTable(
            {t: rng.normal(size=7) for t in encoded.unigrams if rng.random() < 0.7}, dim=7
        )
        space = build_representation_space(
            big, encoded, "embedding", big_vocab, embedding_table=table
        )
        oracle = sif_per_document(big, big_vocab, table, 1e-3)
        assert np.array_equal(space.matrix, oracle)

    def test_autoencoder_space_matches_direct_encode(self, corpus, vocab):
        """``prepare_context``'s autoencoder view is the trained encoder's
        codes of the ``ae_input_features`` rows."""
        encoded = tokenize_corpus(corpus, NO_STOP)
        config = AETrainConfig(epochs=2, hidden_dim=4, seed=1)
        context = prepare_context(corpus, encoded, vocab, "beta", "autoencoder", ae_config=config)
        features = ae_input_features(encoded, vocab)
        model, _ = train(features, config)
        assert np.array_equal(context.space.matrix, encode(model.W, model.b, features))

    def test_missing_embedding_table_is_config_error(self, corpus, vocab):
        with pytest.raises(ConfigError):
            build(corpus, "embedding", vocab)

    def test_unknown_kind_is_config_error(self, corpus, vocab):
        with pytest.raises(ConfigError, match="^unknown representation kind 'words'$"):
            build(corpus, "words", vocab)

    def test_autoencoder_needs_its_codes(self, corpus, vocab):
        with pytest.raises(ConfigError, match="autoencoder representation requires its codes"):
            build(corpus, "autoencoder", vocab)

    def test_empty_aggregate_flagged(self, corpus, vocab):
        space = build(corpus, "term_dist", vocab)
        empty_corpus = make_corpus([("z1", "zzz yyy", "gamma", None)])
        gamma = build(empty_corpus, "term_dist", vocab)
        assert gamma.aggregate(["z1"]).empty
        assert not space.aggregate(["a1"]).empty


def picker_pool(matrix, members, indptr):
    """The ``picker @ matrix`` code ``pool_groups`` replaced, kept as its oracle."""
    picker = sp.csr_matrix(
        (np.ones(len(members)), members, indptr), shape=(len(indptr) - 1, matrix.shape[0])
    )
    pooled = picker @ matrix
    if not sp.issparse(matrix):
        sizes = np.diff(indptr)
        pooled /= sizes[0] if (sizes == sizes[0]).all() else sizes[:, None]
    return pooled


def as_format(values, fmt):
    """``values`` as the representation matrix format ``fmt``."""
    if fmt == "dense":
        return values
    if fmt == "dense32":
        return values.astype(np.float32)
    if fmt == "csr64":
        matrix = sp.csr_matrix(values)
        matrix.indices = matrix.indices.astype(np.int64)
        matrix.indptr = matrix.indptr.astype(np.int64)
        return matrix
    return {"csr": sp.csr_matrix, "csc": sp.csc_matrix, "coo": sp.coo_matrix}[fmt](values)


@st.composite
def pooling_cases(draw):
    """A matrix with frequent empty rows (and entries that can cancel to zero)
    and groups of its rows: single-member groups, rows shared by several groups
    and repeated members all occur, with equal or unequal group sizes."""
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 8))
    values = draw(
        arrays(np.float64, (n, d), elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, 3.0, 0.1, -0.1]))
    )
    n_groups = draw(st.integers(1, 8))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 6))] * n_groups
    else:
        sizes = draw(st.lists(st.integers(1, 6), min_size=n_groups, max_size=n_groups))
    members = np.array(draw(st.lists(st.integers(0, n - 1), min_size=sum(sizes),
                                     max_size=sum(sizes))))
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    fmt = draw(st.sampled_from(["csr", "csc", "coo", "csr64", "dense", "dense32"]))
    return as_format(values, fmt), members, indptr


class TestPoolGroups:
    @given(pooling_cases())
    def test_equals_picker_product(self, case):
        """Cases of every length in turn, so the kept ones buffer is pooled
        from both grown and sliced."""
        matrix, members, indptr = case
        pooled, oracle = pool_groups(matrix, members, indptr), picker_pool(*case)
        assert type(pooled) is type(oracle) and pooled.shape == oracle.shape
        if sp.issparse(oracle):
            # bit for bit, the column order within each row included
            assert np.array_equal(pooled.indptr, oracle.indptr)
            assert np.array_equal(pooled.indices, oracle.indices)
            assert np.array_equal(pooled.data, oracle.data)
            assert pooled.data.dtype == oracle.data.dtype
        else:
            assert pooled.dtype == oracle.dtype
            assert pooled.tobytes() == oracle.tobytes()

    def test_columns_keep_reverse_first_appearance(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 5.0, 0.0]]))
        pooled = pool_groups(matrix, np.array([0, 1]), np.array([0, 2]))
        assert pooled.indices.tolist() == [1, 2, 0]
        assert pooled.data.tolist() == [5.0, 2.0, 1.0]

    def test_dense_pooling_copies_no_member_array(self):
        """Dense pooling of a subset-search round, 20,000 groups of 20 intp
        members, traces less than its output plus one byte per member: the
        kernel reads the caller's members and indptr, and an int32 copy of the
        members alone would take four bytes each."""
        rows = np.random.default_rng(31).standard_normal((500, 4))
        members = np.random.default_rng(32).integers(0, 500, 400_000).astype(np.intp)
        indptr = np.arange(0, len(members) + 1, 20)
        first = pool_groups(rows, members, indptr)  # grows the kept ones buffer
        tracemalloc.start()
        try:
            second = pool_groups(rows, members, indptr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second.tobytes() == first.tobytes() == picker_pool(rows, members, indptr).tobytes()
        assert peak < second.nbytes + len(members)
