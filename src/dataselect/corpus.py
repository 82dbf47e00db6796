"""Multi-domain corpus ingestion, preprocessing, and sparse text features.

The canonical corpus format is JSONL with one object per line:
``{"id": str, "text": str, "domain": str, "label": str|null}`` where the
label, when present, is one of ``negative`` / ``neutral`` / ``positive``.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, ParseError

LABELS = ("negative", "neutral", "positive")

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_USER_RE = re.compile(r"(?<!\w)@\w+")
_HASHTAG_RE = re.compile(r"(?<!\w)#\w+")
_TOKEN_RE = re.compile(r"<url>|<user>|<hashtag>|\w+")


@dataclass(frozen=True)
class Document:
    """One labeled (or unlabeled) text unit belonging to a named domain."""

    id: str
    text: str
    domain: str
    label: str | None = None

    def __post_init__(self):
        if not self.domain:
            raise DataError(f"document {self.id!r} has an empty domain")
        if self.label is not None and self.label not in LABELS:
            raise DataError(
                f"document {self.id!r} has label {self.label!r}; "
                f"expected one of {LABELS} or null"
            )


class Corpus:
    """An ordered collection of documents grouped by domain.

    Document order is preserved exactly as constructed, so reloading the
    same file yields an identical corpus.
    """

    def __init__(self, documents: Iterable[Document]):
        self.documents: list[Document] = list(documents)
        self._by_id: dict[str, Document] = {}
        self._by_domain: dict[str, list[Document]] = {}
        for doc in self.documents:
            if doc.id in self._by_id:
                raise DataError(f"duplicate document id {doc.id!r}")
            self._by_id[doc.id] = doc
            self._by_domain.setdefault(doc.domain, []).append(doc)

    @property
    def domains(self) -> set[str]:
        return set(self._by_domain)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def get(self, doc_id: str) -> Document:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise DataError(f"unknown document id {doc_id!r}") from None

    def domain_documents(self, domain: str) -> list[Document]:
        try:
            return list(self._by_domain[domain])
        except KeyError:
            raise DataError(f"unknown domain {domain!r}") from None


def load_corpus(path: str | Path, format: str = "jsonl") -> Corpus:
    """Load a corpus from the canonical JSONL format, preserving file order."""
    if format != "jsonl":
        raise ConfigError(f"unsupported corpus format {format!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"corpus file not found: {path}")
    documents = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from None
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", line=lineno)
            fields = {key: _require_str(obj, key, lineno) for key in ("id", "text", "domain")}
            try:
                doc = Document(label=obj.get("label"), **fields)
            except ParseError:
                raise
            except DataError as exc:
                raise ParseError(str(exc), line=lineno) from None
            documents.append(doc)
    return Corpus(documents)


def _require_str(obj: dict, key: str, lineno: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ParseError(f"missing or non-string field {key!r}", line=lineno)
    return value


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

def _load_default_stopwords() -> frozenset[str]:
    text = resources.files("dataselect.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


_DEFAULT_STOPWORDS: frozenset[str] | None = None


def default_stopwords() -> frozenset[str]:
    global _DEFAULT_STOPWORDS
    if _DEFAULT_STOPWORDS is None:
        _DEFAULT_STOPWORDS = _load_default_stopwords()
    return _DEFAULT_STOPWORDS


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list, one token per line (UTF-8)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"stopword file not found: {path}")
    return frozenset(
        line.strip() for line in path.read_text("utf-8").splitlines() if line.strip()
    )


@dataclass(frozen=True)
class PreprocessOptions:
    """Flags controlling tokenization.

    ``stopwords=None`` selects the shipped English list; pass an explicit
    (possibly empty) set to override it.
    """

    lowercase: bool = True
    replace_urls: bool = True
    replace_users: bool = True
    replace_hashtags: bool = True
    stopwords: frozenset[str] | None = None

    def stopword_set(self) -> frozenset[str]:
        return default_stopwords() if self.stopwords is None else self.stopwords


DEFAULT_OPTIONS = PreprocessOptions()


def preprocess(text: str, options: PreprocessOptions = DEFAULT_OPTIONS) -> list[str]:
    """Tokenize one text: placeholder substitution, lowercasing, word splitting,
    then stopword removal.

    Splitting keeps placeholder tokens and maximal ``\\w+`` runs; punctuation
    acts purely as a separator.
    """
    if options.replace_urls:
        text = _URL_RE.sub(" <url> ", text)
    if options.replace_users:
        text = _USER_RE.sub(" <user> ", text)
    if options.replace_hashtags:
        text = _HASHTAG_RE.sub(" <hashtag> ", text)
    if options.lowercase:
        text = text.lower()
    tokens = _TOKEN_RE.findall(text)
    stop = options.stopword_set()
    return [t for t in tokens if t not in stop]


def tokenize_corpus(
    corpus: Corpus, options: PreprocessOptions = DEFAULT_OPTIONS
) -> dict[str, list[str]]:
    """Preprocess every document once; returns id -> token list."""
    return {doc.id: preprocess(doc.text, options) for doc in corpus}


# ---------------------------------------------------------------------------
# Vocabulary and counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vocabulary:
    """Most frequent tokens across all domains, capped at ``cap`` entries.

    Tokens are ordered by descending corpus frequency with lexicographic
    tie-breaking, which makes construction order-independent.
    """

    tokens: tuple[str, ...]
    index: dict[str, int]
    cap: int

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @classmethod
    def from_frequencies(cls, frequencies: Counter, cap: int) -> "Vocabulary":
        if cap < 1:
            raise ConfigError(f"vocabulary cap must be >= 1, got {cap}")
        ranked = sorted(frequencies.items(), key=lambda kv: (-kv[1], kv[0]))
        tokens = tuple(tok for tok, _ in ranked[:cap])
        return cls(tokens=tokens, index={t: i for i, t in enumerate(tokens)}, cap=cap)


def build_vocabulary(
    corpus: Corpus,
    cap: int,
    options: PreprocessOptions = DEFAULT_OPTIONS,
    token_lists: dict[str, list[str]] | None = None,
) -> Vocabulary:
    """Build the shared vocabulary of the ``cap`` most frequent tokens.

    Pass ``token_lists`` (from :func:`tokenize_corpus`) to avoid retokenizing.
    """
    freq: Counter = Counter()
    for doc in corpus:
        tokens = token_lists[doc.id] if token_lists is not None else preprocess(doc.text, options)
        freq.update(tokens)
    return Vocabulary.from_frequencies(freq, cap)


def counts_matrix(
    token_lists: Sequence[Sequence[str]], vocab: Vocabulary
) -> sp.csr_matrix:
    """Stack per-document in-vocabulary counts into a CSR matrix (docs x |V|)."""
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    index = vocab.index
    for tokens in token_lists:
        raw = Counter(index[t] for t in tokens if t in index)
        for i in sorted(raw):
            indices.append(i)
            data.append(raw[i])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(len(token_lists), len(vocab)),
    )


# ---------------------------------------------------------------------------
# tf-idf features
# ---------------------------------------------------------------------------

def _ngrams(tokens: Sequence[str], ngram_max: int) -> Iterator[str]:
    yield from tokens
    if ngram_max >= 2:
        for i in range(len(tokens) - 1):
            yield tokens[i] + " " + tokens[i + 1]


class TfidfModel:
    """tf-idf vectorizer over uni/bigram features.

    idf uses the smoothed form ``ln((1 + N) / (1 + df)) + 1`` and every
    document vector is L2-normalized. The feature space is whatever the model
    was fitted on; transforming new documents drops unseen n-grams.
    """

    def __init__(self, feature_index: dict[str, int], idf: np.ndarray, ngram_max: int):
        self.feature_index = feature_index
        self.idf = idf
        self.ngram_max = ngram_max

    @property
    def n_features(self) -> int:
        return len(self.feature_index)

    @classmethod
    def fit(
        cls,
        token_lists: Sequence[Sequence[str]],
        ngram_max: int = 2,
        vocabulary: Vocabulary | None = None,
    ) -> "TfidfModel":
        """Fit the feature space and idf weights on the given documents.

        With ``vocabulary`` given, the feature space is exactly the vocabulary's
        unigrams in vocabulary order (used for fixed-width inputs such as
        autoencoder features); otherwise it is the sorted set of n-grams
        observed in the fitted documents.
        """
        if ngram_max not in (1, 2):
            raise ConfigError(f"ngram_max must be 1 or 2, got {ngram_max}")
        if not token_lists:
            raise DataError("cannot fit tf-idf on an empty document list")
        if vocabulary is not None:
            if ngram_max != 1:
                raise ConfigError("a fixed vocabulary implies unigram features")
            feature_index = dict(vocabulary.index)
        else:
            seen: set[str] = set()
            for tokens in token_lists:
                seen.update(_ngrams(tokens, ngram_max))
            feature_index = {g: i for i, g in enumerate(sorted(seen))}
        df = np.zeros(len(feature_index), dtype=np.int64)
        for tokens in token_lists:
            for g in set(_ngrams(tokens, ngram_max)):
                j = feature_index.get(g)
                if j is not None:
                    df[j] += 1
        n_docs = len(token_lists)
        idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        return cls(feature_index, idf, ngram_max)

    def transform(self, token_lists: Sequence[Sequence[str]]) -> sp.csr_matrix:
        """Map documents to L2-normalized tf-idf rows; unknown n-grams are dropped."""
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for tokens in token_lists:
            tf: Counter = Counter()
            for g in _ngrams(tokens, self.ngram_max):
                j = self.feature_index.get(g)
                if j is not None:
                    tf[j] += 1
            row_idx = sorted(tf)
            row = np.array([tf[j] * self.idf[j] for j in row_idx], dtype=np.float64)
            norm = math.sqrt(float(np.dot(row, row)))
            if norm > 0.0:
                row /= norm
            indices.extend(row_idx)
            data.extend(row.tolist())
            indptr.append(len(indices))
        return sp.csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
            shape=(len(token_lists), self.n_features),
        )

