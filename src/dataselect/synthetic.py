"""Controlled multi-domain corpus generation.

Documents mix topical tokens (a shared pool plus domain-private tokens) with
sentiment tokens drawn from a per-domain, per-label lexicon. A domain's
lexicon agrees with the target domain's on a prefix whose length is set by
the ``overlap`` knob; the rest comes from a pool of ambiguous sentiment
tokens that never appear in target documents. Transfer from a domain to the
target therefore improves monotonically with overlap, and term-distribution
divergence from the target decreases with it, which makes selection behavior
testable without any external dataset.

Labels are recoverable: every document contains at least one sentiment
token, all of its sentiment tokens come from one label's lexicon, and the
assigned label differs from that implied label exactly at the configured
noise rate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document
from .errors import ConfigError, DataError

_SENTIMENT_PREFIX = {"negative": "badtok", "positive": "goodtok", "neutral": "neutok"}

# The probability that a token after a document's first is a sentiment token.
SENTIMENT_FRACTION = 0.4


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class DomainSpec:
    """Recipe for one generated domain.

    ``overlap`` is the fraction of the target's sentiment lexicon this
    domain shares (with identical polarity); overlapping subsets are nested,
    so a 0.6-overlap domain agrees with the target wherever a 0.2-overlap
    domain does. ``overlap`` is also the probability that a topical token
    comes from the pool shared with the target rather than from this
    domain's private vocabulary, so topically close domains also share
    sentiment vocabulary.
    """

    name: str
    overlap: float = 1.0
    shared_vocab_size: int = 120
    private_vocab_size: int = 60
    docs_per_label: int = 500
    doc_length: tuple[int, int] = (10, 20)
    label_noise: float = 0.05
    seed: int = 0
    labels: tuple[str, ...] = ("negative", "positive")
    lexicon_size: int = 120

    def __post_init__(self):
        for name in ("shared_vocab_size", "private_vocab_size", "docs_per_label",
                     "lexicon_size", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (isinstance(self.doc_length, tuple) and len(self.doc_length) == 2
                and all(map(_is_int, self.doc_length))):
            raise ConfigError(f"doc_length must be two integers, got {self.doc_length!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if (not isinstance(self.name, str) or not self.name
                or not self.name.replace("_", "").isalnum()):
            raise ConfigError(f"domain name must be alphanumeric, got {self.name!r}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError(f"overlap must be in [0, 1], got {self.overlap}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError(f"label_noise must be in [0, 0.5), got {self.label_noise}")
        if min(self.shared_vocab_size, self.docs_per_label, self.lexicon_size) < 1:
            raise ConfigError("vocab, lexicon, and docs-per-label sizes must be >= 1")
        if self.private_vocab_size < 0:
            raise ConfigError("private_vocab_size must be >= 0")
        lo, hi = self.doc_length
        if not 1 <= lo <= hi:
            raise ConfigError(f"doc_length must satisfy 1 <= min <= max, got {self.doc_length}")
        for label in self.labels:
            if label not in _SENTIMENT_PREFIX:
                raise ConfigError(f"unsupported label {label!r}")
        # label noise draws a different label, so each domain needs two
        if len(set(self.labels)) != len(self.labels) or len(self.labels) < 2:
            raise ConfigError(f"labels must be two or more distinct labels, got {self.labels}")


def lexicon_catalog(
    specs: list[DomainSpec], target: DomainSpec
) -> dict[str, dict[str, tuple[str, ...]]]:
    """Per-domain, per-label sentiment lexicons (pure function of the specs).

    The target's lexicon is a fixed prefix of the global sentiment pools; a
    source domain keeps the first ``round(overlap * L)`` target tokens per
    label and fills the rest with domain-specific picks from the ambiguous
    pool.
    """
    size = target.lexicon_size
    target_lex = {
        label: tuple(f"{_SENTIMENT_PREFIX[label]}{i:03d}" for i in range(size))
        for label in target.labels
    }
    ambiguous = [f"amb{i:04d}" for i in range(4 * size * len(target.labels))]
    catalog = {target.name: target_lex}
    for spec in specs:
        if spec.labels != target.labels:
            raise ConfigError(
                f"domain {spec.name!r} has labels {spec.labels}, target has {target.labels}"
            )
        keep = round(spec.overlap * size)
        fill = size - keep
        rng = np.random.default_rng([spec.seed, 1])
        picks = rng.choice(len(ambiguous), size=fill * len(spec.labels), replace=False)
        lex = {}
        for j, label in enumerate(spec.labels):
            own = tuple(ambiguous[k] for k in picks[j * fill : (j + 1) * fill])
            lex[label] = target_lex[label][:keep] + own
        catalog[spec.name] = lex
    return catalog


def _generate_domain(
    spec: DomainSpec, lexicons: dict[str, tuple[str, ...]]
) -> list[Document]:
    rng = np.random.default_rng([spec.seed, 2])
    shared = [f"topic{i:03d}" for i in range(spec.shared_vocab_size)]
    # Zipf-like weights: a few topical tokens carry most of the mass, as in
    # natural text, so topical coverage varies little between documents.
    weights = 1.0 / (1.0 + np.arange(spec.shared_vocab_size))
    shared_cum = np.cumsum(weights / weights.sum())
    private = [f"{spec.name}_w{i:03d}" for i in range(spec.private_vocab_size)]
    p_shared = spec.overlap if spec.private_vocab_size else 1.0
    lo, hi = spec.doc_length
    docs = []
    serial = 0
    for label in spec.labels:
        lexicon = lexicons[label]
        others = [l for l in spec.labels if l != label]
        for _ in range(spec.docs_per_label):
            length = int(rng.integers(lo, hi + 1))
            tokens = [lexicon[rng.integers(len(lexicon))]]  # guarantees recoverability
            for _ in range(length - 1):
                if rng.random() < SENTIMENT_FRACTION:
                    tokens.append(lexicon[rng.integers(len(lexicon))])
                elif rng.random() < p_shared:
                    tokens.append(shared[int(np.searchsorted(shared_cum, rng.random()))])
                else:
                    tokens.append(private[rng.integers(len(private))])
            assigned = label
            if rng.random() < spec.label_noise:
                assigned = others[rng.integers(len(others))]
            docs.append(
                Document(
                    id=f"{spec.name}-{serial:06d}",
                    text=" ".join(tokens),
                    domain=spec.name,
                    label=assigned,
                )
            )
            serial += 1
    return docs


def generate(specs: list[DomainSpec], target: DomainSpec) -> Corpus:
    """Generate source domains plus the target domain as one corpus.

    Deterministic for fixed specs; source domains appear in the given order
    with target documents last.
    """
    names = [s.name for s in specs] + [target.name]
    if len(set(names)) != len(names):
        raise DataError(f"domain name collision in {names}")
    catalog = lexicon_catalog(specs, target)
    documents: list[Document] = []
    for spec in specs:
        documents.extend(_generate_domain(spec, catalog[spec.name]))
    documents.extend(_generate_domain(target, catalog[target.name]))
    return Corpus(documents)


@dataclass(frozen=True)
class Scenario:
    corpus: Corpus
    target_domain: str


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# The fixed desk-scale catalog, one row per scenario: the settings its
# domains share, its sources in generation order as (name, overlap), the
# ``_child_seed`` index of its first source (the others follow in turn) and of
# its target, and the target's own settings. graded has five topically
# distinct sources at graded lexicon overlaps; blended has eight heavily
# blended ones, with mostly shared topical vocabulary, short documents and a
# spread of overlaps.
_CATALOG = {
    "graded": (
        dict(shared_vocab_size=100, private_vocab_size=80, docs_per_label=700,
             doc_length=(10, 22), label_noise=0.05),
        [("alpha", 0.9), ("bravo", 0.6), ("carol", 0.4), ("delta", 0.2), ("echo", 0.0)],
        1, 0, {},
    ),
    "blended": (
        dict(shared_vocab_size=220, private_vocab_size=10, docs_per_label=400,
             doc_length=(8, 16), label_noise=0.08),
        [(f"mix{i}", overlap)
         for i, overlap in enumerate([0.85, 0.7, 0.55, 0.45, 0.35, 0.25, 0.15, 0.05])],
        100, 99, {"docs_per_label": 500},
    ),
}


def benchmark_suite(seed: int = 0) -> dict[str, Scenario]:
    """The fixed desk-scale catalog, one scenario per ``_CATALOG`` row."""
    suite = {}
    for name, (shared, sources, first, target_index, own) in _CATALOG.items():
        specs = [
            DomainSpec(name=source, overlap=overlap, seed=_child_seed(seed, first + i), **shared)
            for i, (source, overlap) in enumerate(sources)
        ]
        target = DomainSpec(name="target", seed=_child_seed(seed, target_index),
                            **{**shared, **own})
        suite[name] = Scenario(corpus=generate(specs, target), target_domain=target.name)
    return suite
