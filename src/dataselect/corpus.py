"""Multi-domain corpus ingestion, preprocessing, and the encoded corpus.

The canonical corpus format is JSONL with one object per line:
``{"id": str, "text": str, "domain": str, "label": str|null}`` where the
label, when present, is one of ``negative`` / ``neutral`` / ``positive``.

Every document is tokenized once, by ``tokenize_corpus``, into an
``EncodedCorpus``: the sorted table of distinct tokens, each document's
token ids (one flat array plus offsets) and one documents x n-gram count
matrix over every unigram and bigram. The vocabulary, in-vocabulary term
counts and every tf-idf matrix are column gathers of that matrix.

Gram order: a token is a ``\\w+`` run or a ``<...>`` placeholder, and every
such character sorts above the space that joins a bigram. So the bigram
"a b" sorts like the pair (rank(a), rank(b)) and the unigram u like
(rank(u), -1), rank being the position in the sorted token table, and the
integer keys of those pairs order the count-matrix columns exactly as
Python's ``sorted`` orders the gram strings. The grams of any set of
documents are therefore already in sorted string order.
"""

from __future__ import annotations

import functools
import json
import math
import re
from array import array
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParseError

LABELS = ("negative", "neutral", "positive")

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_USER_RE = re.compile(r"(?<!\w)@\w+")
_HASHTAG_RE = re.compile(r"(?<!\w)#\w+")
_TOKEN_RE = re.compile(r"<url>|<user>|<hashtag>|\w+")

# Tokens in the shared vocabulary, the most frequent ones; they are the columns
# of term distributions and of the autoencoder's input. No run varies it.
VOCAB_CAP = 10_000


@dataclass(frozen=True)
class Document:
    """One labeled (or unlabeled) text unit belonging to a named domain."""

    id: str
    text: str
    domain: str
    label: str | None = None

    def __post_init__(self):
        # ids are written one per line and domains as a results.tsv field,
        # so each must be one non-empty line, and a domain without a tab
        if self.id.splitlines() != [self.id]:
            raise DataError(f"document id {self.id!r} is not one non-empty line")
        if self.domain.splitlines() != [self.domain] or "\t" in self.domain:
            raise DataError(f"document {self.id!r}: domain {self.domain!r} is not a tab-free line")
        if self.label is not None and self.label not in LABELS:
            raise DataError(
                f"document {self.id!r} has label {self.label!r}; "
                f"expected one of {LABELS} or null"
            )


class Corpus:
    """An ordered collection of documents grouped by domain.

    Document order is preserved exactly as constructed, so reloading the
    same file yields an identical corpus. A document's position is its corpus
    row: its row in every per-document matrix built from the corpus.
    """

    def __init__(self, documents: Iterable[Document]):
        """Take the documents in order, checking each id as it is consumed, so
        a caller that passes a generator knows which document was refused."""
        self.documents: list[Document] = []
        self._by_domain: dict[str, list[int]] = {}
        seen: set[str] = set()
        for row, doc in enumerate(documents):
            if doc.id in seen:
                raise DataError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            self.documents.append(doc)
            self._by_domain.setdefault(doc.domain, []).append(row)

    @property
    def domains(self) -> set[str]:
        return set(self._by_domain)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def domain_rows(self, domain: str) -> np.ndarray:
        """Corpus rows of the domain's documents, ascending."""
        try:
            return np.array(self._by_domain[domain], dtype=np.intp)
        except KeyError:
            raise DataError(f"unknown domain {domain!r}") from None


def _text_lines(path: Path, what: str, error: type[Exception] = DataError) -> Iterator[str]:
    """The lines of the UTF-8 text file ``path``, read as they are consumed,
    without a leading byte-order mark; ``error``, naming the file as ``what``,
    when it is not a regular file (a missing path or a directory, say) or not
    UTF-8."""
    if not path.is_file():
        raise error(f"{what} not found or not a regular file: {path}")
    try:
        with path.open(encoding="utf-8-sig") as fh:
            yield from fh
    except UnicodeDecodeError:
        raise error(f"{what} is not UTF-8 text: {path}") from None


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus from the canonical JSONL format, preserving file order.

    A line that is not a valid document, or that repeats an earlier line's
    id, is a ``ParseError`` naming the file and the line. The lines are read
    as the documents are consumed.
    """
    path = Path(path)
    current = 0  # the line whose document is being parsed or added; 0 while reading

    def documents() -> Iterator[Document]:
        nonlocal current
        for lineno, line in enumerate(_text_lines(path, "corpus file"), start=1):
            if line.strip():
                current = lineno
                yield _parse_document(line)
                current = 0

    try:
        return Corpus(documents())
    except DataError as exc:
        if not current:  # the file itself: missing, a directory or not UTF-8
            raise
        raise ParseError(str(exc), path, current) from None


def _parse_document(line: str) -> Document:
    """One corpus line as a Document; a DataError says what is wrong with it."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    for key in ("id", "text", "domain"):
        if not isinstance(obj.get(key), str):
            raise DataError(f"missing or non-string field {key!r}")
    return Document(obj["id"], obj["text"], obj["domain"], obj.get("label"))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the canonical JSONL format (UTF-8, one doc per line)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(
                json.dumps(
                    {"id": doc.id, "text": doc.text, "domain": doc.domain, "label": doc.label},
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

@functools.cache
def default_stopwords() -> frozenset[str]:
    text = resources.files("dataselect.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list, one token per line (UTF-8), lowercased as the
    text it filters is."""
    return frozenset(
        line.strip().lower() for line in _text_lines(Path(path), "stopword file") if line.strip()
    )


def preprocess(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Tokenize one text: placeholder substitution, lowercasing (always),
    word splitting, then removal of ``stopwords``.

    ``stopwords=None`` selects the shipped English list; pass an explicit
    (possibly empty) set to override it. Splitting keeps placeholder tokens
    and maximal ``\\w+`` runs; punctuation acts purely as a separator.

    Each substitution runs only when the text, as it stands before it, holds
    the literal its pattern cannot match without (``://`` or ``www.``, ``@``,
    ``#``), so the tokens are the same and text without them skips the scans.
    """
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" <url> ", text)
    if "@" in text:
        text = _USER_RE.sub(" <user> ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" <hashtag> ", text)
    stop = default_stopwords() if stopwords is None else stopwords
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in stop]


def tokenize_corpus(corpus: Corpus, stopwords: frozenset[str] | None = None) -> EncodedCorpus:
    """Preprocess every document once and encode the corpus, rows in corpus order.

    Text is always lowercased, and ``stopwords`` are removed as ``preprocess``
    removes them (None: the shipped list). This is the only pass over the
    token strings; everything downstream reads the integer arrays of the
    result.
    """
    seen: dict[str, int] = {}  # token -> id in first-seen order
    first_ids = array("q")
    lengths = []
    for doc in corpus:
        tokens = preprocess(doc.text, stopwords)
        first_ids.extend([seen.setdefault(t, len(seen)) for t in tokens])
        lengths.append(len(tokens))
    unigrams = {token: i for i, token in enumerate(sorted(seen))}
    # seen iterates in first-seen order, so this maps first-seen ids to ids
    rank = np.fromiter(map(unigrams.__getitem__, seen), dtype=np.int64, count=len(seen))
    token_ids = rank[np.frombuffer(first_ids, dtype=np.int64)]
    lengths = np.array(lengths, dtype=np.int64)
    docs = np.repeat(np.arange(len(lengths)), lengths)
    pairs = docs[1:] == docs[:-1]  # adjacent positions within one document
    stride = len(unigrams) + 1
    keys = np.concatenate(
        (token_ids * stride, (token_ids[:-1] * stride + token_ids[1:] + 1)[pairs])
    )
    grams, columns = np.unique(keys, return_inverse=True)
    counts = sp.csr_matrix(
        (np.ones(len(keys)), (np.concatenate((docs, docs[1:][pairs])), columns)),
        shape=(len(lengths), len(grams)),
    )
    counts.sum_duplicates()
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return EncodedCorpus(unigrams, token_ids, offsets, grams, counts)


# ---------------------------------------------------------------------------
# The encoded corpus, the vocabulary and column gathers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodedCorpus:
    """A tokenized corpus as integer arrays, one row per document in corpus order.

    ``unigrams`` maps every distinct token to its id, which is its rank in
    sorted order (the dict iterates in that order). Document i's tokens are
    ``token_ids[offsets[i]:offsets[i + 1]]``. ``counts`` is the documents x
    n-gram count matrix: column j counts the gram whose key is ``grams[j]``,
    ``a * (V + 1)`` for the unigram a and ``a * (V + 1) + b + 1`` for the
    bigram "a b" (V unigrams). Keys sort like the gram strings (see the
    module docstring), so the columns are in sorted string order.
    """

    unigrams: dict[str, int]
    token_ids: np.ndarray
    offsets: np.ndarray
    grams: np.ndarray
    counts: sp.csr_matrix

    def ids(self, tokens: Iterable[str]) -> np.ndarray:
        """Unigram id of each token; -1 for a token no document holds."""
        return np.array([self.unigrams.get(t, -1) for t in tokens], dtype=np.int64)

    def columns(self, tokens: Iterable[str]) -> np.ndarray:
        """Count-matrix column of each token's unigram; -1 for a token no document holds."""
        ids = self.ids(tokens)
        stride = len(self.unigrams) + 1
        return np.where(ids >= 0, np.searchsorted(self.grams, ids * stride), -1)


def _gather_columns(counts: sp.csr_matrix, columns: np.ndarray) -> sp.csr_matrix:
    """``counts[:, columns]`` with sorted indices; a column of -1 stays all zero."""
    present = np.flatnonzero(columns >= 0)
    picked = counts[:, columns[present]]
    out = sp.csr_matrix(
        (picked.data, present[picked.indices], picked.indptr),
        shape=(counts.shape[0], len(columns)),
    )
    out.sort_indices()
    return out


def build_vocabulary(encoded: EncodedCorpus) -> tuple[str, ...]:
    """The ``VOCAB_CAP`` most frequent tokens across all domains, by descending
    frequency with ties in token order, so document order does not matter."""
    frequency = np.bincount(encoded.token_ids, minlength=len(encoded.unigrams))
    # ids are in token order, so a stable sort by -frequency breaks ties by token
    top = np.argsort(-frequency, kind="stable")[:VOCAB_CAP]
    table = list(encoded.unigrams)
    return tuple(table[i] for i in top.tolist())


def term_counts(encoded: EncodedCorpus, vocab: tuple[str, ...]) -> sp.csr_matrix:
    """In-vocabulary term counts, documents x |V| in vocabulary order."""
    return _gather_columns(encoded.counts, encoded.columns(vocab))


# ---------------------------------------------------------------------------
# tf-idf features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TfidfModel:
    """tf-idf over columns of an encoded corpus's count matrix.

    idf uses the smoothed form ``ln((1 + N) / (1 + df)) + 1`` and every
    document vector is L2-normalized. Feature j is count-matrix column
    ``columns[j]``; transforming documents drops every other column.

    Each row is divided by ``math.sqrt(np.dot(row, row))`` of that row alone.
    A vectorized norm (a segmented sum of squares) adds the squares in
    another order, can differ in the last bit and so change the classifier
    trained on the rows.
    """

    columns: np.ndarray
    idf: np.ndarray

    @classmethod
    def fit(cls, counts: sp.csr_matrix, columns: np.ndarray | None = None) -> "TfidfModel":
        """Fit idf weights on the documents whose count rows are ``counts``.

        The features are ``columns`` in the given order (a fixed-width input
        such as the autoencoder's vocabulary; -1 marks a token no document
        holds) or else every column that some given document holds, which is
        their sorted gram order.
        """
        n_docs = counts.shape[0]
        if n_docs == 0:
            raise DataError("cannot fit tf-idf on an empty document list")
        # a canonical CSR row holds each column once: this is document frequency
        df = np.bincount(counts.indices, minlength=counts.shape[1])
        if columns is None:
            columns = np.flatnonzero(df)
        # column -1 reads the appended 0
        idf = np.log((1.0 + n_docs) / (1.0 + np.append(df, 0)[columns])) + 1.0
        return cls(columns, idf)

    def transform(self, counts: sp.csr_matrix) -> sp.csr_matrix:
        """Map count rows to L2-normalized tf-idf rows; other columns are dropped."""
        rows = _gather_columns(counts, self.columns)
        data = rows.data * self.idf[rows.indices]
        indptr = rows.indptr.tolist()
        for start, end in zip(indptr[:-1], indptr[1:]):
            row = data[start:end]
            row /= math.sqrt(float(np.dot(row, row)))  # an empty row stays empty
        return sp.csr_matrix((data, rows.indices, rows.indptr), shape=rows.shape)
