"""Document, subset, and domain representations.

Three interchangeable views back the similarity metrics. Each view is one
matrix with a row per document: in-vocabulary term counts (sparse) for term
distributions, frequency-weighted means of pre-trained word embeddings, and
hidden-layer codes of a denoising autoencoder. Every group of rows -- a
candidate subset, a source domain, the target domain, and inside SIF a
domain's term counts and a document's weighted word vectors -- is pooled by
one primitive, ``pool_groups``: the product of a 0/1 ``picker`` matrix with
one row per group and the matrix whose rows it pools. That sums term counts
(normalized only afterwards) and, divided by the group size, averages dense
rows; each group's members are added in member order and divided once, which
is ``rows.mean(axis=0)`` bit for bit when rows have two or more columns
(numpy adds a single column pairwise). ``RepresentationSpace.aggregate`` wraps
it for one group; a term distribution with no usable tokens has no mass and
is empty, so callers can exclude it instead of propagating NaNs.

``pool_groups`` runs the product with scipy's own sparse kernels, called
directly on the picker's arrays (``csr_matmat`` for sparse rows,
``csr_matvecs`` for dense ones). The sum of the members' nonzeros bounds a
pooled sparse row, so the output buffers are sized without scipy's symbolic
pass, and no sparse object is built for the picker. The subset search pools
80 rounds of 20,000 candidates, and that work around the kernel was about a
fifth of its time. The kernels are private to scipy, so they are called in
this one function only, and a property test pins its output, column order
included, to the ``picker @ matrix`` product it replaces. A scipy without
them, or whose kernels refuse these arguments with a ``TypeError`` (a changed
signature), pools through that public product: slower, with the same output.

Every view reads the ``EncodedCorpus`` and never the token strings: term
counts are the vocabulary's columns of its count matrix, the autoencoder
input is a unigram tf-idf of those columns, and SIF reads its flat token ids.
SIF weights each distinct (domain, token) pair once and pools every
document's pairs in token order, so its rows equal a per-document loop over
the tokens bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

try:
    from scipy.sparse import _sparsetools
except ImportError:  # pooled through the public ``picker @ matrix``
    _sparsetools = None

from .corpus import Corpus, EncodedCorpus, TfidfModel, term_counts
from .embeddings import EmbeddingTable
from .errors import ConfigError, DataError

TERM_DIST = "term_dist"
EMBEDDING = "embedding"
AUTOENCODER = "autoencoder"
REPRESENTATION_KINDS = (TERM_DIST, EMBEDDING, AUTOENCODER)

# The SIF smoothing factor a of Arora, Liang & Ma (ICLR 2017), fixed: a token
# whose share of its domain's in-vocabulary tokens is p weighs sqrt(a / p).
SIF_A = 1e-5

_INT32_MAX = int(np.iinfo(np.int32).max)

# ``pool_groups``' picker values, read-only once grown
_ONES = np.ones(0)


@dataclass(frozen=True)
class TermDistribution:
    """Probability vector over the shared vocabulary. It is empty when it has
    no mass (all zero, from zero in-vocabulary tokens); empty distributions
    are excluded from divergence-based rankings."""

    probs: np.ndarray

    def __post_init__(self):
        # NaN is mass to ``empty`` and passes both checks below, and JS would
        # then score NaN or 0.0
        if not np.isfinite(self.probs).all():
            raise DataError("term distribution has non-finite entries")
        if not self.empty:
            total = float(self.probs.sum())
            if abs(total - 1.0) > 1e-9:
                raise DataError(f"term distribution sums to {total}, expected 1")
        if (self.probs < 0).any():
            raise DataError("term distribution has negative entries")

    @property
    def empty(self) -> bool:
        return not self.probs.any()


# ---------------------------------------------------------------------------
# Whole-corpus representation spaces
# ---------------------------------------------------------------------------

def ae_input_features(encoded: EncodedCorpus, vocab: tuple[str, ...]) -> sp.csr_matrix:
    """Shared-vocabulary unigram tf-idf rows for every document, in corpus order.

    This fixed-width feature space is the autoencoder's input; idf statistics
    come from all domains.
    """
    model = TfidfModel.fit(encoded.counts, columns=encoded.columns(vocab))
    return model.transform(encoded.counts)


@dataclass
class RepresentationSpace:
    """Per-document representations for a whole corpus under one view.

    ``matrix`` holds one row per document, aligned with ``doc_ids``: a CSR
    matrix of in-vocabulary counts for the term-distribution view, a dense
    array for the embedding and autoencoder views; ``aggregate`` reads the
    view from which of the two it is.
    """

    doc_ids: list[str]
    matrix: sp.csr_matrix | np.ndarray

    @cached_property
    def index(self) -> dict[str, int]:
        """Each document id's row."""
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    def aggregate(self, ids: Sequence[str]) -> TermDistribution | np.ndarray:
        """Group representation: the pooled-count distribution of sparse
        rows, or the mean vector of dense ones."""
        if not ids:
            raise DataError("cannot aggregate an empty id list")
        try:
            members = np.array([self.index[i] for i in ids])
        except KeyError as err:
            raise DataError(f"unknown document id {err.args[0]!r}") from None
        pooled = pool_groups(self.matrix, members, np.array([0, len(members)]))
        if sp.issparse(pooled):
            pooled = pooled.toarray().ravel()
            total = pooled.sum()
            return TermDistribution(probs=pooled / total if total else pooled)
        return pooled[0]


def pool_groups(
    matrix: sp.csr_matrix | np.ndarray, members: np.ndarray, indptr: np.ndarray
) -> sp.csr_matrix | np.ndarray:
    """Pool the rows ``members[indptr[k]:indptr[k + 1]]`` of ``matrix`` into row k.

    The result is ``picker @ matrix`` for a 0/1 ``picker`` CSR holding one row
    per group, which adds each group's members in member order: sparse count
    rows come back summed (CSR), dense rows summed and then divided by the
    group size once.

    The product runs the kernels scipy's ``@`` runs (``_matmul_sparse`` and
    ``_matmul_multivector`` of scipy 1.17) on the picker's arrays:
    ``csr_matmat`` for sparse input, into buffers sized by the members' summed
    nonzeros (an upper bound, so no symbolic pass), and ``csr_matvecs`` into
    one zeroed ``(groups, d)`` array for dense input. The output is ``@``'s
    bit for bit: the same indptr, each row's columns in reverse order of first
    appearance, explicit zeros dropped, and the same sums.

    ``members`` and ``indptr`` are read as ``intp``, as every caller holds
    them, and the dense kernel takes them as they are, so the 400,000 bound
    members of a subset search's round are not copied (an int32 copy takes
    1.6 MB). Only the sparse product picks an index width: its kernel runs in
    int32 unless a size or the matrix's own index arrays need int64, and its
    output is a ``csr_matrix`` of the values written, which holds int32
    indices whenever they and the shape fit, int64-indexed input included.
    ``@``'s output has that width too, except on int64-indexed input with a
    pooled entry that sums to zero: ``@`` sized its buffers before dropping
    it, and their unwritten tail then picks the width. Where the kernels are
    missing or refuse their arguments, the product is the public
    ``picker @ matrix`` itself.

    The picker's values, ``len(members)`` float64 ones, are a prefix of one
    read-only buffer grown to the longest grouping pooled so far, so threads
    that pool at once share it. The subset search pools every round, and a
    fresh 400,000-entry array and indptr took a round of its JS bound from
    2.4-2.5 ms to 3.8-5.1 ms.
    """
    global _ONES
    members, indptr = np.asarray(members, dtype=np.intp), np.asarray(indptr, dtype=np.intp)
    n_groups = len(indptr) - 1
    ones = _ONES[:len(members)]
    if len(ones) < len(members):  # a thread that grows it pools from its own
        ones = _ONES = np.ones(len(members))
        ones.flags.writeable = False
    if sp.issparse(matrix):
        matrix = matrix.tocsr()  # as ``@`` converts its right operand
    else:
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    pooled = _kernel_product(matrix, members, indptr, ones)
    if pooled is None:
        picker = sp.csr_matrix((ones, members, indptr), shape=(n_groups, matrix.shape[0]))
        pooled = picker @ matrix
    if sp.issparse(pooled):
        return pooled
    sizes = np.diff(indptr)
    # equal sizes (a batch of subset candidates) divide as one scalar, which
    # costs about half of dividing by a column of sizes
    if n_groups:
        pooled /= sizes[0] if (sizes == sizes[0]).all() else sizes[:, None]
    return pooled


def _kernel_product(
    matrix: sp.csr_matrix | np.ndarray, members: np.ndarray, indptr: np.ndarray, ones: np.ndarray
) -> sp.csr_matrix | np.ndarray | None:
    """``picker @ matrix`` for a CSR or float64 C-contiguous ``matrix``, run
    by scipy's private kernels as ``pool_groups`` describes; None when this
    scipy has no such kernels or they raise ``TypeError`` on these arguments."""
    if _sparsetools is None:
        return None
    n_groups, n_cols = len(indptr) - 1, matrix.shape[1]
    if sp.issparse(matrix):
        bound = int(np.diff(matrix.indptr)[members].sum())
        # int32 indices unless a size or the matrix's own index arrays need
        # int64, as scipy picks them; all index arrays share the one dtype
        wide = max(bound, n_groups, *matrix.shape) > _INT32_MAX or not all(
            np.can_cast(a.dtype, np.int32) for a in (matrix.indptr, matrix.indices)
        )
        idx = np.int64 if wide else np.int32
        out_indptr = np.empty(n_groups + 1, dtype=idx)
        out_indices = np.empty(bound, dtype=idx)
        out_data = np.empty(bound)
        try:
            _sparsetools.csr_matmat(
                n_groups, n_cols,
                indptr.astype(idx, copy=False), members.astype(idx, copy=False), ones,
                matrix.indptr.astype(idx, copy=False), matrix.indices.astype(idx, copy=False),
                np.asarray(matrix.data, dtype=np.float64),
                out_indptr, out_indices, out_data,
            )
        except TypeError:
            return None
        # only the filled prefix: ``csr_matrix`` picks the index width from
        # the values it is given, and the buffers' tail was never written
        nnz = int(out_indptr[-1])
        return sp.csr_matrix(
            (out_data[:nnz], out_indices[:nnz], out_indptr), shape=(n_groups, n_cols)
        )
    pooled = np.zeros((n_groups, n_cols))
    try:
        _sparsetools.csr_matvecs(
            n_groups, matrix.shape[0], n_cols, indptr, members, ones,
            matrix.ravel(), pooled.ravel(),
        )
    except TypeError:
        return None
    return pooled


def build_representation_space(
    corpus: Corpus,
    encoded: EncodedCorpus,
    kind: str,
    vocab: tuple[str, ...],
    embedding_table: EmbeddingTable | None = None,
    ae_codes: np.ndarray | None = None,
) -> RepresentationSpace:
    """Compute one representation row per document of the corpus.

    ``encoded`` is ``tokenize_corpus(corpus)``. The embedding view is the
    smoothed inverse-frequency (SIF) mean of word vectors: every token that
    is in the vocabulary and in the table adds ``sqrt(SIF_A / p)`` times its
    vector, where ``p`` is the token's share of the in-vocabulary tokens of
    the document's own domain, and the sum is divided by the number of such
    tokens (documents without any map to the zero vector). Only vocabulary
    tokens count, so table rows outside the vocabulary never contribute; the
    CLI loads the table restricted to the vocabulary. The autoencoder view's
    rows are ``ae_codes``, one per document: the trained encoder's codes of
    the ``ae_input_features`` rows, which ``evaluation.prepare_context``
    computes.
    """
    if kind not in REPRESENTATION_KINDS:
        raise ConfigError(f"unknown representation kind {kind!r}")
    if kind == TERM_DIST:
        matrix = term_counts(encoded, vocab)
    elif kind == EMBEDDING:
        if embedding_table is None:
            raise ConfigError("embedding representation requires an embedding table")
        matrix = _sif_rows(corpus, encoded, vocab, embedding_table)
    else:
        if ae_codes is None:
            raise ConfigError("autoencoder representation requires its codes")
        matrix = ae_codes
    return RepresentationSpace(doc_ids=[doc.id for doc in corpus], matrix=matrix)


def _sif_rows(
    corpus: Corpus,
    encoded: EncodedCorpus,
    vocab: tuple[str, ...],
    table: EmbeddingTable,
) -> np.ndarray:
    """SIF rows of the corpus's documents, both sums pooled by ``pool_groups``.

    Per-domain probabilities are the domain's pooled term counts divided by
    its in-vocabulary token total; a document's tokens all occur in its own
    domain, so ``p > 0`` for every weighted token. Each distinct (domain,
    token) pair is weighted once, and a document's row pools the pairs of its
    weighted tokens in token order, which adds them as a per-document loop
    would. Documents without one stay the zero vector.
    """
    n, width = len(corpus), len(vocab)
    domains = sorted(corpus.domains)
    groups = [corpus.domain_rows(domain) for domain in domains]
    sizes = [len(group) for group in groups]
    # the empty array keeps an empty corpus (no groups) working
    members = np.concatenate([np.empty(0, dtype=np.intp), *groups])
    domain_counts = pool_groups(
        term_counts(encoded, vocab), members, np.cumsum([0] + sizes)
    ).toarray()
    probs = domain_counts / np.maximum(domain_counts.sum(axis=1, keepdims=True), 1.0)
    domain_of = np.empty(n, dtype=np.int64)
    domain_of[members] = np.repeat(np.arange(len(domains)), sizes)

    in_table = np.array([token in table for token in vocab], dtype=bool)
    vectors = np.zeros((width, table.dim), dtype=np.float64)
    for j in np.flatnonzero(in_table).tolist():
        vectors[j] = table.entries[vocab[j]]
    # vocabulary position of each unigram id whose token has a vector, else -1
    ids = encoded.ids(vocab)
    keep = in_table & (ids >= 0)
    position = np.full(len(encoded.unigrams), -1, dtype=np.int64)
    position[ids[keep]] = np.flatnonzero(keep)
    occurrences = position[encoded.token_ids]
    weighted = occurrences >= 0
    docs = np.repeat(np.arange(n), np.diff(encoded.offsets))[weighted]
    pairs, pair_rows = np.unique(
        domain_of[docs] * width + occurrences[weighted], return_inverse=True
    )
    pair_domains, pair_tokens = np.divmod(pairs, width)
    weights = np.sqrt(SIF_A / probs[pair_domains, pair_tokens])
    pair_vectors = weights[:, None] * vectors[pair_tokens]

    lengths = np.bincount(docs, minlength=n)
    nonempty = lengths > 0
    out = np.zeros((n, table.dim), dtype=np.float64)
    indptr = np.concatenate(([0], np.cumsum(lengths[nonempty])))
    out[nonempty] = pool_groups(pair_vectors, pair_rows, indptr)
    return out
