"""Kernel microbenchmarks: one subset-search round of candidate scoring, one
autoencoder minibatch (forward/backward and one Adam update), one encode
of a whole pool, one sentiment-classifier fit and one tf-idf fit with its
transforms.

Marked ``bench`` and deselected by default; run them with

    python -m pytest -m bench

The pools are the size of the ``graded`` catalog scenario's source pool
(about 7,000 documents over a 1,260-token vocabulary, about 15 distinct
tokens per document) and of a 100-d dense embedding pool. One round scores
20,000 random 20-document candidates, the default ``m`` and ``s``. The
autoencoder cases use that vocabulary with the default hidden size (1,000)
and batch size (64); the encode case encodes the whole sparse pool. The
classifier case fits the default 10-epoch SGD on a binary training set of the
``blended`` scenario's shape: n=1,600 documents over about 15,000 tf-idf
uni/bigram features, about 22 L2-normalized nonzeros per row. The tf-idf
case fits on 1,600 random labeled source documents of the seed-0 ``blended``
scenario and transforms them and the scenario's labeled target documents.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from dataselect import autoencoder, evaluation, selection, synthetic
from dataselect.corpus import TfidfModel, tokenize_corpus
from dataselect.representations import TermDistribution

pytestmark = pytest.mark.bench

POOL, VOCAB, DIM = 7000, 1260, 100
M, S = 20000, 20
HIDDEN, BATCH = 1000, 64


def round_candidates(rng):
    return selection._draw_subsets(rng, POOL, S, M)


def test_sparse_js_round(benchmark):
    rng = np.random.default_rng(0)
    rows = sp.random(
        POOL, VOCAB, density=15 / VOCAB, format="csr", random_state=1,
        data_rvs=lambda k: rng.integers(1, 4, size=k).astype(float),
    )
    raw = rng.random(VOCAB)
    target = TermDistribution(probs=raw / raw.sum())
    candidates = round_candidates(rng)
    scores = benchmark.pedantic(
        selection._candidate_scores,
        args=(rows, np.arange(POOL), None, candidates, target, "jensen_shannon"),
        rounds=5,
        iterations=1,
    )
    assert scores.shape == (M,)


def test_dense_cosine_round(benchmark):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((POOL, DIM))
    target = rng.standard_normal(DIM)
    candidates = round_candidates(rng)
    scores = benchmark.pedantic(
        selection._candidate_scores,
        args=(rows, np.arange(POOL), None, candidates, target, "cosine"),
        rounds=5,
        iterations=1,
    )
    assert scores.shape == (M,)


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
    corrupted = autoencoder.corrupt(batch, 0.8, rng)
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
    model = autoencoder.AEModel(
        W=rng.uniform(-lim, lim, size=(HIDDEN, VOCAB)),
        b=np.zeros(HIDDEN),
        W_out=np.zeros((VOCAB, HIDDEN)),
        b_out=np.zeros(VOCAB),
    )
    pool = sp.random(POOL, VOCAB, density=15 / VOCAB, format="csr", random_state=1)
    codes = benchmark.pedantic(
        autoencoder.encode, args=(model, pool), rounds=5, iterations=1, warmup_rounds=1
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
