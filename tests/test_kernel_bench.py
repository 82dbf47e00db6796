"""Kernel microbenchmarks: one subset-search round of candidate scoring.

Marked ``bench`` and deselected by default; run them with

    python -m pytest -m bench

The pools are the size of the ``graded`` catalog scenario's source pool
(about 7,000 documents over a 1,260-token vocabulary, about 15 distinct
tokens per document) and of a 100-d dense embedding pool. One round scores
20,000 random 20-document candidates, the default ``m`` and ``s``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from dataselect import selection
from dataselect.representations import TermDistribution

pytestmark = pytest.mark.bench

POOL, VOCAB, DIM = 7000, 1260, 100
M, S = 20000, 20


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
        args=(rows, candidates, target, "jensen_shannon"),
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
        args=(rows, candidates, target, "cosine"),
        rounds=5,
        iterations=1,
    )
    assert scores.shape == (M,)
