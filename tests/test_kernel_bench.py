"""Kernel microbenchmarks: one draw of a subset-search round's candidates,
one round of candidate scoring, one bounded round that scores only the
candidates that may win (JS, dense cosine and sparse cosine), one autoencoder
minibatch (forward/backward and one Adam update), one encode of a whole pool,
one sentiment-classifier fit, one tf-idf fit with its transforms, one SIF
space build and one proxy-A discriminator fit.

Marked ``bench`` and deselected by default; run them with

    python -m pytest -m bench

The pools are the size of the ``graded`` catalog scenario's source pool
(about 7,000 documents over a 1,260-token vocabulary, about 15 distinct
tokens per document) and of a 100-d dense embedding pool. One round draws
and scores 20,000 random 20-document candidates, the default ``m`` and ``s``
(the draw takes the rejection path, as every round of such a pool does
while at least 400 documents remain). The bounded rounds are the first round
of the seed-0 ``graded`` and ``blended`` term-distribution searches
(``blended`` is where the support-aware JS bound cuts the most scoring: its
whole seed-0 search scores the first 256-candidate block of each round, 1.3%
of its candidates, against 18% with the bound's tangents at P0 and 89% under
the tangent plane alone), of the seed-0 ``blended`` search over SIF rows of a
random 100-d table over every vocabulary token, and of the seed-0 ``graded``
term-distribution search under cosine, whose bound pools projections of the
sparse count rows. Those two cosine rounds score 1,343 (6.7%) and 7,192 (36%)
of their candidates with 24 directions from the second moment of a
20-document candidate's mean, against 4,775 (24%) and 8,452 (42%) with 16
from the rows' own scatter.
The autoencoder cases use that vocabulary with the default hidden size
(1,000) and batch size (64); the encode case encodes the whole sparse pool.
The classifier case fits the default 10-epoch SGD on a binary training set
of the ``blended`` scenario's shape: n=1,600 documents over about 15,000 tf-idf
uni/bigram features, about 22 L2-normalized nonzeros per row. The tf-idf
case fits on 1,600 random labeled source documents of the seed-0 ``blended``
scenario and transforms them and the scenario's labeled target documents.
The SIF case builds the embedding space of the seed-0 ``blended`` scenario
(7,400 documents) from a 100-d table over every vocabulary token. The
proxy-A case fits one discriminator on that scenario's term-distribution
rows (the labeled source pool, balanced against the target domain's rows)
and scores the pool, as one ``blended-proxy`` run does. The exhaustive
singleton case runs a whole s = 1 search (n = 1,600, so 1,600 rounds, with M
above the pool size, so every round is exhaustive) on the seed-0 ``graded``
term-distribution pool. The vector-file case loads a file shaped as
perfbench's ``blended-embedding`` input, restricted to the vocabulary as
the CLI restricts it: a 100-d vector for every seed-0 ``blended``
vocabulary token and for 50,000 filler tokens, in shuffled order, once
space-separated (as perfbench writes it) and once tab-separated.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from dataselect import autoencoder, evaluation, selection, synthetic
from dataselect.corpus import TfidfModel, build_vocabulary, tokenize_corpus
from dataselect.embeddings import EmbeddingTable, load_embeddings
from dataselect.representations import TermDistribution, build_representation_space

pytestmark = pytest.mark.bench

POOL, VOCAB, DIM = 7000, 1260, 100
M, S = 20000, 20
HIDDEN, BATCH = 1000, 64


def round_candidates(rng):
    return selection._draw_subsets(rng, POOL, S, M)


def test_draw_round(benchmark):
    rng = np.random.default_rng(0)
    candidates = benchmark.pedantic(round_candidates, args=(rng,), rounds=5, iterations=1)
    assert candidates.shape == (M, S)


def test_sparse_js_round(benchmark):
    rng = np.random.default_rng(0)
    rows = sp.random(
        POOL, VOCAB, density=15 / VOCAB, format="csr", random_state=1,
        data_rvs=lambda k: rng.integers(1, 4, size=k).astype(float),
    )
    raw = rng.random(VOCAB)
    target = TermDistribution(probs=raw / raw.sum())
    candidates = round_candidates(rng)
    # an s = 1 search's round function bounds nothing: it scores every candidate
    score = selection._round_scorer(rows, np.arange(POOL), None, target, "jensen_shannon", 1)
    scores = benchmark.pedantic(score, args=(candidates,), rounds=5, iterations=1)
    assert scores.shape == (M,)


def test_dense_cosine_round(benchmark):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((POOL, DIM))
    target = rng.standard_normal(DIM)
    candidates = round_candidates(rng)
    score = selection._round_scorer(rows, np.arange(POOL), None, target, "cosine", 1)
    scores = benchmark.pedantic(score, args=(candidates,), rounds=5, iterations=1)
    assert scores.shape == (M,)


def first_round(scenario, representation):
    """The first subset-search round of a seed-0 catalog scenario's pool: every
    pool document available, M candidates of S."""
    scenario = synthetic.benchmark_suite(0)[scenario]
    encoded = tokenize_corpus(scenario.corpus)
    vocab = build_vocabulary(encoded)
    table = None
    if representation == "embedding":
        rng = np.random.default_rng(0)
        table = EmbeddingTable({t: rng.standard_normal(DIM) for t in vocab}, dim=DIM)
    context = evaluation.prepare_context(
        scenario.corpus, encoded, vocab, scenario.target_domain, representation,
        embedding_table=table,
    )
    candidates = selection._draw_subsets(np.random.default_rng(0), len(context.pool_index), S, M)
    return context, candidates


def pruned_round(context, metric):
    """The round function of an S-document search over the context's pool,
    its bound built: it bounds a round's candidates and scores those that may
    win."""
    return selection._round_scorer(
        context.space.matrix, context.pool_index, None, context.target_repr, metric, S
    )


@pytest.mark.parametrize("scenario", ["graded", "blended"])
def test_pruned_js_round(benchmark, scenario):
    context, candidates = first_round(scenario, "term_dist")
    scores = benchmark.pedantic(
        pruned_round(context, "jensen_shannon"), args=(candidates,), rounds=5, iterations=1
    )
    assert 0 < np.count_nonzero(~np.isnan(scores)) < M


def test_pruned_cosine_round(benchmark):
    context, candidates = first_round("blended", "embedding")
    scores = benchmark.pedantic(
        pruned_round(context, "cosine"), args=(candidates,), rounds=5, iterations=1
    )
    assert 0 < np.count_nonzero(~np.isnan(scores)) < M


def test_pruned_sparse_cosine_round(benchmark):
    context, candidates = first_round("graded", "term_dist")
    scores = benchmark.pedantic(
        pruned_round(context, "cosine"), args=(candidates,), rounds=5, iterations=1
    )
    assert 0 < np.count_nonzero(~np.isnan(scores)) < M


def test_exhaustive_singleton_search(benchmark):
    context, _ = first_round("graded", "term_dist")
    scores = context.item_scores("jensen_shannon", 0)
    ids = [context.space.doc_ids[row] for row in context.pool_index.tolist()]
    result = benchmark.pedantic(
        selection.subset_select,
        args=(1, 1600, M, ids, context.target_repr, context.space.matrix,
              context.pool_index, scores, "jensen_shannon", 0),
        rounds=3,
        iterations=1,
    )
    instance = selection.select_instance_level(ids, scores, "jensen_shannon", 1600)
    assert result.chosen == instance.chosen


def test_adam_step(benchmark):
    rng = np.random.default_rng(0)
    config = autoencoder.AETrainConfig()
    p = rng.uniform(-0.05, 0.05, size=(HIDDEN, VOCAB))
    m, v = np.zeros_like(p), np.zeros_like(p)
    g = rng.normal(scale=1e-3, size=p.shape)
    block = min(autoencoder._ADAM_BLOCK, p.size)
    buf1, buf2 = np.empty(block), np.empty(block)
    benchmark.pedantic(
        autoencoder._adam_step,
        args=(p, m, v, g, 1, config, buf1, buf2),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert np.isfinite(p).all()


def test_ae_loss_and_gradients_batch(benchmark):
    rng = np.random.default_rng(0)
    lim = np.sqrt(6.0 / (VOCAB + HIDDEN))
    model = autoencoder.AEModel(
        W=rng.uniform(-lim, lim, size=(HIDDEN, VOCAB)),
        b=np.zeros(HIDDEN),
        W_out=rng.uniform(-lim, lim, size=(VOCAB, HIDDEN)),
        b_out=np.zeros(VOCAB),
    )
    batch = sp.random(
        BATCH, VOCAB, density=15 / VOCAB, format="csr", random_state=1
    ).toarray()
    corrupted = autoencoder.corrupt(batch, rng)
    loss, grads = benchmark.pedantic(
        autoencoder.loss_and_gradients,
        args=(model, corrupted, batch),
        rounds=5,
        iterations=1,
        # the first few calls in a process run about 5x slower than the
        # steady state that training reaches
        warmup_rounds=3,
    )
    assert np.isfinite(loss) and grads["W"].shape == (HIDDEN, VOCAB)


def test_ae_encode_pool(benchmark):
    rng = np.random.default_rng(0)
    lim = np.sqrt(6.0 / (VOCAB + HIDDEN))
    W, b = rng.uniform(-lim, lim, size=(HIDDEN, VOCAB)), np.zeros(HIDDEN)
    pool = sp.random(POOL, VOCAB, density=15 / VOCAB, format="csr", random_state=1)
    codes = benchmark.pedantic(
        autoencoder.encode, args=(W, b, pool), rounds=5, iterations=1, warmup_rounds=1
    )
    assert codes.shape == (POOL, HIDDEN)


def test_train_classifier_binary(benchmark):
    n, features = 1600, 15000
    rng = np.random.default_rng(0)
    rows = sp.random(n, features, density=22 / features, format="csr", random_state=1)
    norms = np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1))).ravel()
    rows = sp.csr_matrix(sp.diags(1.0 / np.where(norms > 0, norms, 1.0)) @ rows)
    labels = list(rng.choice(["negative", "positive"], size=n))
    model = benchmark.pedantic(
        evaluation.train_classifier, args=(rows, labels), rounds=5, iterations=1
    )
    assert model.weights.shape == (2, features)


def test_tfidf_fit_transform(benchmark):
    scenario = synthetic.benchmark_suite(0)["blended"]
    docs = list(scenario.corpus)
    counts = tokenize_corpus(scenario.corpus).counts
    labeled = [i for i, d in enumerate(docs) if d.label is not None]
    source = [i for i in labeled if docs[i].domain != scenario.target_domain]
    train = counts[np.random.default_rng(0).choice(source, size=1600, replace=False)]
    target = counts[[i for i in labeled if docs[i].domain == scenario.target_domain]]

    def fit_transform():
        model = TfidfModel.fit(train)
        return model.transform(train), model.transform(target)

    train_rows, target_rows = benchmark.pedantic(fit_transform, rounds=5, iterations=1)
    assert train_rows.shape[0] == 1600 and target_rows.shape[1] == train_rows.shape[1]


def test_sif_rows(benchmark):
    corpus = synthetic.benchmark_suite(0)["blended"].corpus
    encoded = tokenize_corpus(corpus)
    vocab = build_vocabulary(encoded)
    rng = np.random.default_rng(0)
    table = EmbeddingTable({t: rng.standard_normal(DIM) for t in vocab}, dim=DIM)
    space = benchmark.pedantic(
        build_representation_space,
        args=(corpus, encoded, "embedding", vocab),
        kwargs={"embedding_table": table},
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert space.matrix.shape == (len(corpus), DIM)


def test_proxy_a_fit(benchmark):
    scenario = synthetic.benchmark_suite(0)["blended"]
    encoded = tokenize_corpus(scenario.corpus)
    vocab = build_vocabulary(encoded)
    context = evaluation.prepare_context(
        scenario.corpus, encoded, vocab, scenario.target_domain, "term_dist"
    )
    matrix = context.space.matrix
    pool = matrix[context.pool_index]
    target = matrix[scenario.corpus.domain_rows(scenario.target_domain)]
    scores = benchmark.pedantic(
        selection.proxy_a_scores, args=(pool, target), rounds=3, iterations=1
    )
    assert scores.shape == (len(context.pool_index),)


@pytest.mark.parametrize("sep", [" ", "\t"], ids=["space", "tab"])
def test_load_embeddings_file(benchmark, tmp_path, sep):
    vocab = build_vocabulary(tokenize_corpus(synthetic.benchmark_suite(0)["blended"].corpus))
    names = list(vocab) + [f"zzfill{i:06d}" for i in range(50_000)]
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((len(names), DIM))
    row_format = sep.join(["%.5f"] * DIM)
    path = tmp_path / "vectors.txt"
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(names[j] + sep + row_format % tuple(vectors[j]) + "\n"
                      for j in rng.permutation(len(names)))
    table = benchmark.pedantic(
        load_embeddings, args=(path,), kwargs={"restrict_to": vocab}, rounds=5, iterations=1
    )
    assert len(table) == len(vocab) and table.dim == DIM
