"""Document, subset, and domain representations.

Three interchangeable views back the similarity metrics. Each view is one
matrix with a row per document: in-vocabulary term counts (sparse) for term
distributions, frequency-weighted means of pre-trained word embeddings, and
hidden-layer codes of a denoising autoencoder. Subsets and domains are
pooled from those rows by ``RepresentationSpace.aggregate`` alone: counts are
summed before normalizing, dense rows are averaged. Groups with no usable
tokens are flagged empty so callers can exclude them instead of propagating
NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import autoencoder as ae
from .corpus import (
    DEFAULT_OPTIONS,
    Corpus,
    PreprocessOptions,
    TfidfModel,
    Vocabulary,
    counts_matrix,
    tokenize_corpus,
)
from .embeddings import EmbeddingTable
from .errors import ConfigError, DataError

TERM_DIST = "term_dist"
EMBEDDING = "embedding"
AUTOENCODER = "autoencoder"
REPRESENTATION_KINDS = (TERM_DIST, EMBEDDING, AUTOENCODER)


@dataclass(frozen=True)
class TermDistribution:
    """Probability vector over the shared vocabulary.

    ``empty`` marks distributions built from zero in-vocabulary tokens; their
    ``probs`` are all zero and they are excluded from divergence-based
    rankings.
    """

    probs: np.ndarray
    empty: bool = False

    def __post_init__(self):
        if not self.empty:
            total = float(self.probs.sum())
            if abs(total - 1.0) > 1e-9:
                raise DataError(f"term distribution sums to {total}, expected 1")
        if (self.probs < 0).any():
            raise DataError("term distribution has negative entries")


# ---------------------------------------------------------------------------
# Whole-corpus representation spaces
# ---------------------------------------------------------------------------

def ae_input_features(
    corpus: Corpus,
    vocab: Vocabulary,
    options: PreprocessOptions = DEFAULT_OPTIONS,
    token_lists: dict[str, list[str]] | None = None,
) -> tuple[sp.csr_matrix, TfidfModel]:
    """Shared-vocabulary unigram tf-idf rows for every document, in corpus order.

    This fixed-width feature space is the autoencoder's input; idf statistics
    come from all domains.
    """
    if token_lists is None:
        token_lists = tokenize_corpus(corpus, options)
    ordered = [token_lists[doc.id] for doc in corpus]
    model = TfidfModel.fit(ordered, ngram_max=1, vocabulary=vocab)
    return model.transform(ordered), model


@dataclass
class RepresentationSpace:
    """Per-document representations for a whole corpus under one view.

    ``matrix`` holds one row per document, aligned with ``doc_ids``: a CSR
    matrix of in-vocabulary counts for the term-distribution view, a dense
    array for the embedding and autoencoder views.
    """

    kind: str
    doc_ids: list[str]
    index: dict[str, int]
    matrix: sp.csr_matrix | np.ndarray

    def rows(self, ids: Sequence[str]) -> sp.csr_matrix | np.ndarray:
        return self.matrix[[self.index[i] for i in ids]]

    def aggregate(self, ids: Sequence[str]) -> TermDistribution | np.ndarray:
        """Group representation: pooled-count distribution or mean vector."""
        if not ids:
            raise DataError("cannot aggregate an empty id list")
        rows = self.rows(ids)
        if self.kind == TERM_DIST:
            pooled = np.asarray(rows.sum(axis=0)).ravel()
            total = pooled.sum()
            if total == 0:
                return TermDistribution(probs=pooled, empty=True)
            return TermDistribution(probs=pooled / total)
        return np.asarray(rows).mean(axis=0)


def build_representation_space(
    corpus: Corpus,
    kind: str,
    vocab: Vocabulary,
    options: PreprocessOptions = DEFAULT_OPTIONS,
    token_lists: dict[str, list[str]] | None = None,
    embedding_table: EmbeddingTable | None = None,
    ae_model: ae.AEModel | None = None,
    ae_features: sp.csr_matrix | None = None,
    sif_a: float = 1e-5,
) -> RepresentationSpace:
    """Compute one representation row per document of the corpus.

    The embedding view is the smoothed inverse-frequency (SIF) mean of word
    vectors: every token that is in the vocabulary and in the table adds
    ``sqrt(sif_a / p)`` times its vector, where ``p`` is the token's share of
    the in-vocabulary tokens of the document's own domain, and the sum is
    divided by the number of such tokens (documents without any map to the
    zero vector). Only vocabulary tokens count, so table rows outside the
    vocabulary never contribute; the CLI loads the table restricted to the
    vocabulary. The autoencoder view encodes shared-vocabulary tf-idf rows
    (pass ``ae_features`` to reuse the matrix the model was trained on).
    """
    if kind not in REPRESENTATION_KINDS:
        raise ConfigError(f"unknown representation kind {kind!r}")
    if token_lists is None:
        token_lists = tokenize_corpus(corpus, options)
    doc_ids = [doc.id for doc in corpus]
    index = {doc_id: i for i, doc_id in enumerate(doc_ids)}

    if kind == TERM_DIST:
        matrix = counts_matrix([token_lists[i] for i in doc_ids], vocab)
    elif kind == EMBEDDING:
        if embedding_table is None:
            raise ConfigError("embedding representation requires an embedding table")
        if sif_a <= 0:
            raise ConfigError(f"smoothing factor a must be positive, got {sif_a}")
        domain_code = {domain: i for i, domain in enumerate(sorted(corpus.domains))}
        domains = np.array([domain_code[doc.domain] for doc in corpus], dtype=np.int64)
        matrix = _sif_rows(
            [token_lists[i] for i in doc_ids], domains, vocab, embedding_table, sif_a
        )
    else:
        if ae_model is None:
            raise ConfigError("autoencoder representation requires a trained model")
        if ae_features is None:
            ae_features, _ = ae_input_features(corpus, vocab, options, token_lists)
        if ae_features.shape[1] != ae_model.input_dim:
            raise DataError(
                f"feature space of width {ae_features.shape[1]} does not match "
                f"autoencoder input dim {ae_model.input_dim}"
            )
        matrix = ae.encode(ae_model, ae_features)
    return RepresentationSpace(kind=kind, doc_ids=doc_ids, index=index, matrix=matrix)


def _sif_rows(
    token_lists: list[list[str]],
    domains: np.ndarray,
    vocab: Vocabulary,
    table: EmbeddingTable,
    a: float,
) -> np.ndarray:
    """SIF rows for documents whose domain codes are ``domains``.

    Per-domain probabilities are column sums of the count matrix over the
    domain's documents, divided by the domain's in-vocabulary token total.
    A document's tokens all occur in its own domain, so ``p > 0`` for every
    weighted token. Rows are accumulated one token position at a time across
    all documents, which sums each document in token order, exactly as a
    per-document loop would.
    """
    n = len(token_lists)
    membership = sp.csr_matrix(
        (np.ones(n), (domains, np.arange(n))), shape=(int(domains.max(initial=0)) + 1, n)
    )
    domain_counts = (membership @ counts_matrix(token_lists, vocab)).toarray()
    probs = domain_counts / np.maximum(domain_counts.sum(axis=1, keepdims=True), 1.0)

    in_table = {token: j for token, j in vocab.index.items() if token in table}
    vectors = np.zeros((len(vocab), table.dim), dtype=np.float64)
    for token, j in in_table.items():
        vectors[j] = table.entries[token]
    sequences = [[in_table[t] for t in tokens if t in in_table] for tokens in token_lists]
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    tokens = np.array([j for seq in sequences for j in seq], dtype=np.int64)
    docs = np.repeat(np.arange(n), lengths)
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
