"""Classifier training, the multi-run evaluation protocol, and significance.

The sentiment classifier is a linear SVM trained by averaged SGD on
L2-regularized hinge loss, one-vs-rest for the ternary task, with tf-idf
uni/bigram features fitted per run on the selected training set only.
Accuracy is measured on every labeled document of the target domain, and
experiments report the mean and standard deviation over independently
reseeded selection runs plus a pooled-variance two-sample Student t test
against baselines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import betainc

from . import selection as sel
from .autoencoder import AEModel, AETrainConfig, train as ae_train
from .corpus import (
    DEFAULT_OPTIONS,
    Corpus,
    Document,
    PreprocessOptions,
    TfidfModel,
    Vocabulary,
    build_vocabulary,
    tokenize_corpus,
)
from .embeddings import EmbeddingTable
from .errors import ConfigError, DataError, DataSelectError
from .representations import (
    AUTOENCODER,
    EMBEDDING,
    RepresentationSpace,
    ae_input_features,
    build_representation_space,
)
from .similarity import PROXY_A


@dataclass(frozen=True)
class ClassifierConfig:
    epochs: int = 10
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 0


class LinearModel:
    """One-vs-rest linear classifier: per-class weights over a feature space."""

    def __init__(self, weights: np.ndarray, biases: np.ndarray, classes: list[str]):
        if not np.isfinite(weights).all() or not np.isfinite(biases).all():
            raise DataError("classifier parameters must be finite")
        self.weights = weights
        self.biases = biases
        self.classes = classes

    def margins(self, features: sp.spmatrix | np.ndarray) -> np.ndarray:
        return np.asarray(features @ self.weights.T) + self.biases

    def predict(self, features) -> list[str]:
        # argmax takes the first maximum, so ties resolve in class-list order
        best = np.argmax(self.margins(features), axis=1)
        return [self.classes[i] for i in best]


def train_classifier(
    features: sp.spmatrix | np.ndarray,
    labels: list[str],
    config: ClassifierConfig = ClassifierConfig(),
) -> LinearModel:
    """Averaged SGD on hinge loss with 1/t learning-rate decay.

    The returned weights are the average of all SGD iterates, which is far
    more stable than the final iterate. Training is deterministic for a
    fixed seed, data, and config.
    """
    X = features.tocsr() if sp.issparse(features) else sp.csr_matrix(np.atleast_2d(features))
    n, n_features = X.shape
    if n == 0 or len(labels) != n:
        raise DataError(f"{len(labels)} labels for {n} feature rows")
    if any(label is None for label in labels):
        raise DataError("every training document must be labeled")
    classes = sorted(set(labels))
    if len(classes) == 1:
        warnings.warn(f"training set has a single class {classes[0]!r}; constant predictor")
        return LinearModel(np.zeros((1, n_features)), np.zeros(1), classes)
    n_classes = len(classes)
    class_index = {c: i for i, c in enumerate(classes)}
    Y = -np.ones((n, n_classes))
    for i, label in enumerate(labels):
        Y[i, class_index[label]] = 1.0

    lr0, l2 = config.learning_rate, config.l2
    rng = np.random.default_rng(config.seed)

    # w is kept as scale * V so the per-step L2 decay and iterate averaging
    # stay O(nnz): sum_t w_t = csum * V - V_lag  (see the per-step updates).
    V = np.zeros((n_classes, n_features))
    V_lag = np.zeros((n_classes, n_features))
    scale = 1.0
    csum = 0.0
    bias = np.zeros(n_classes)
    bias_sum = np.zeros(n_classes)
    t = 0
    for _ in range(config.epochs):
        for i in rng.permutation(n):
            t += 1
            lr = lr0 / (1.0 + lr0 * l2 * t)
            start, end = X.indptr[i], X.indptr[i + 1]
            cols = X.indices[start:end]
            vals = X.data[start:end]
            z = scale * (V[:, cols] @ vals) + bias
            violated = Y[i] * z < 1.0
            scale *= 1.0 - lr * l2
            if violated.any():
                rows = np.flatnonzero(violated)
                delta = (lr * Y[i, rows] / scale)[:, None] * vals[None, :]
                V[np.ix_(rows, cols)] += delta
                V_lag[np.ix_(rows, cols)] += csum * delta
                bias[rows] += lr * Y[i, rows]
            csum += scale
            bias_sum += bias
    weights = (csum * V - V_lag) / t
    return LinearModel(weights, bias_sum / t, classes)


def evaluate(model: LinearModel, features, labels: list[str]) -> float:
    """Fraction of argmax-correct predictions."""
    if len(labels) == 0:
        raise DataError("evaluation set is empty")
    if features.shape[0] != len(labels):
        raise DataError(f"{len(labels)} labels for {features.shape[0]} feature rows")
    predictions = model.predict(features)
    return float(np.mean([p == y for p, y in zip(predictions, labels)]))


# ---------------------------------------------------------------------------
# Significance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignificanceResult:
    t: float
    df: int
    p: float
    significant: bool  # two-sided p < 0.05


def t_test(runs_a: list[float], runs_b: list[float]) -> SignificanceResult:
    """Two-sample pooled-variance Student t test, two-sided.

    The p-value comes from the regularized incomplete beta function. Zero
    pooled variance with equal means gives (t=0, p=1); with unequal means it
    degenerates to p=0 with a warning.
    """
    a = np.asarray(runs_a, dtype=np.float64)
    b = np.asarray(runs_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise DataError("t test needs at least 2 observations per sample")
    n1, n2 = len(a), len(b)
    df = n1 + n2 - 2
    diff = float(a.mean() - b.mean())
    pooled = ((n1 - 1) * a.var(ddof=1) + (n2 - 1) * b.var(ddof=1)) / df
    if pooled == 0.0:
        if diff == 0.0:
            return SignificanceResult(t=0.0, df=df, p=1.0, significant=False)
        warnings.warn("zero pooled variance with unequal means; p collapses to 0")
        return SignificanceResult(
            t=float("inf") if diff > 0 else float("-inf"), df=df, p=0.0, significant=True
        )
    t = diff / np.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return SignificanceResult(t=float(t), df=df, p=p, significant=p < 0.05)


# ---------------------------------------------------------------------------
# Experiment protocol
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResources:
    """Shared inputs for experiments: preprocessing, feature, and model knobs.

    ``ae_model`` may be supplied directly; otherwise an autoencoder is
    trained on all domains (target included, as unlabeled text) the first
    time the autoencoder representation is requested.
    """

    options: PreprocessOptions = DEFAULT_OPTIONS
    vocab_cap: int = 10000
    ngram_max: int = 2
    sif_a: float = 1e-5
    embedding_table: EmbeddingTable | None = None
    ae_model: AEModel | None = None
    ae_config: AETrainConfig = field(default_factory=AETrainConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)


@dataclass
class ExperimentContext:
    """Everything reusable across runs and strategies for one target domain."""

    corpus: Corpus
    target_domain: str
    vocab: Vocabulary
    token_lists: dict[str, list[str]]
    space: RepresentationSpace
    pool_docs: list[Document]
    pool_rows: object
    target_repr: object
    target_rows: object
    resources: ExperimentResources
    _instance_scores: dict = field(default_factory=dict)

    def instance_scores(self, metric: str) -> np.ndarray:
        """Per-pool-document scores against the target, cached per metric.

        Only the seed-free metrics are cacheable; the proxy metric depends on
        the run seed and is recomputed by the caller.
        """
        if metric == PROXY_A:
            raise ConfigError("proxy scores are seed-dependent and not cached")
        if metric not in self._instance_scores:
            self._instance_scores[metric] = sel._score_rows(
                self.pool_rows, self.target_repr, metric
            )
        return self._instance_scores[metric]


def prepare_context(
    corpus: Corpus,
    target_domain: str,
    representation: str,
    resources: ExperimentResources | None = None,
    token_lists: dict[str, list[str]] | None = None,
    vocab: Vocabulary | None = None,
    labeled_pool_only: bool = True,
) -> ExperimentContext:
    """Tokenize, build the vocabulary and representation space, and split the pool.

    The selection pool is every labeled non-target document (pass
    ``labeled_pool_only=False`` to keep unlabeled candidates, e.g. when
    selecting data for annotation). Domain and target representations
    aggregate all documents of the domain, labeled or not, so unlabeled text
    still informs similarity.
    """
    resources = resources or ExperimentResources()
    if target_domain not in corpus.domains:
        raise ConfigError(f"unknown target domain {target_domain!r}")
    if not (corpus.domains - {target_domain}):
        raise DataError("no source domains besides the target")
    if token_lists is None:
        token_lists = tokenize_corpus(corpus, resources.options)
    if vocab is None:
        vocab = build_vocabulary(corpus, resources.vocab_cap, token_lists=token_lists)
    if representation == EMBEDDING and resources.embedding_table is None:
        raise ConfigError("embedding representation requires an embeddings file")
    ae_model = resources.ae_model
    ae_features = None
    if representation == AUTOENCODER:
        ae_features, _ = ae_input_features(corpus, vocab, token_lists=token_lists)
        if ae_model is None:
            ae_model, _ = ae_train(ae_features, resources.ae_config)
            resources.ae_model = ae_model
    space = build_representation_space(
        corpus,
        representation,
        vocab,
        token_lists=token_lists,
        embedding_table=resources.embedding_table,
        ae_model=ae_model,
        ae_features=ae_features,
        sif_a=resources.sif_a,
    )
    pool_docs = [
        doc
        for doc in corpus
        if doc.domain != target_domain and (doc.label is not None or not labeled_pool_only)
    ]
    if not pool_docs:
        raise DataError("selection pool is empty (no labeled source documents)")
    target_ids = [d.id for d in corpus.domain_documents(target_domain)]
    return ExperimentContext(
        corpus=corpus,
        target_domain=target_domain,
        vocab=vocab,
        token_lists=token_lists,
        space=space,
        pool_docs=pool_docs,
        pool_rows=space.rows([d.id for d in pool_docs]),
        target_repr=space.aggregate(target_ids),
        target_rows=space.rows(target_ids),
        resources=resources,
    )


def run_selection(
    context: ExperimentContext, config: sel.SelectionConfig, seed: int
) -> sel.SelectionResult:
    """Dispatch one selection strategy inside a prepared context."""
    pool = context.pool_docs
    if config.strategy == "random":
        return sel.select_random(pool, config.n, seed)
    if config.strategy == "balanced":
        return sel.select_balanced(pool, config.n, seed)
    metric = config.resolved_metric
    if config.strategy == "domain":
        source_domains = sorted(context.corpus.domains - {context.target_domain})
        per_domain = {
            d: context.space.aggregate(
                [doc.id for doc in context.corpus.domain_documents(d)]
            )
            for d in source_domains
        }
        return sel.select_domain_level(
            pool, context.target_repr, per_domain, metric, config.n, seed
        )
    rows = context.pool_rows
    target_rows = context.target_rows if metric == PROXY_A else None
    if config.strategy == "instance":
        scores = None if metric == PROXY_A else context.instance_scores(metric)
        return sel.select_instance_level(
            pool,
            context.target_repr,
            rows,
            metric,
            config.n,
            seed=seed,
            target_instance_reprs=target_rows,
            scores=scores,
        )
    return sel.subset_select(
        config.s,
        config.n,
        config.m,
        pool,
        context.target_repr,
        rows,
        metric,
        seed,
        allow_proxy_a=config.allow_proxy_a_subsets,
        target_instance_reprs=target_rows,
    )


@dataclass
class ExperimentResult:
    target_domain: str
    strategy: str
    representation: str
    metric: str
    accuracies: list[float]
    mean: float
    std: float
    seeds: list[int]
    config: dict

    def to_dict(self) -> dict:
        return {
            "target_domain": self.target_domain,
            "strategy": self.strategy,
            "representation": self.representation,
            "metric": self.metric,
            "accuracies": self.accuracies,
            "mean": self.mean,
            "std": self.std,
            "seeds": self.seeds,
            "config": self.config,
        }


def run_experiment(
    context: ExperimentContext,
    selection_config: sel.SelectionConfig,
    runs: int = 10,
    base_seed: int = 0,
) -> ExperimentResult:
    """Select, train, and score ``runs`` times inside a prepared context; run i
    reseeds the selection with ``base_seed + i``.

    Classifier training uses a fixed seed, so strategies whose selection is
    deterministic (for example instance ranking) produce identical
    accuracies in every run. tf-idf features are fitted per run on the
    selected documents only; target-domain n-grams unseen there are dropped.
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    target_domain = context.target_domain
    eval_docs = [
        d for d in context.corpus.domain_documents(target_domain) if d.label is not None
    ]
    if not eval_docs:
        raise DataError(f"target domain {target_domain!r} has no labeled documents")
    eval_tokens = [context.token_lists[d.id] for d in eval_docs]
    eval_labels = [d.label for d in eval_docs]
    ngram_max = context.resources.ngram_max
    clf_config = context.resources.classifier

    accuracies: list[float] = []
    seeds: list[int] = []
    for run in range(runs):
        seed = base_seed + run
        try:
            result = run_selection(context, selection_config, seed)
            train_docs = [context.corpus.get(i) for i in result.chosen]
            train_tokens = [context.token_lists[d.id] for d in train_docs]
            train_labels = [d.label for d in train_docs]
            tfidf = TfidfModel.fit(train_tokens, ngram_max=ngram_max)
            model = train_classifier(
                tfidf.transform(train_tokens), train_labels, clf_config
            )
            accuracy = evaluate(model, tfidf.transform(eval_tokens), eval_labels)
        except DataSelectError as exc:
            exc.args = (f"run {run}: {exc}",)
            raise
        accuracies.append(accuracy)
        seeds.append(seed)
    return ExperimentResult(
        target_domain=target_domain,
        strategy=selection_config.strategy,
        representation=selection_config.representation,
        metric=selection_config.resolved_metric,
        accuracies=accuracies,
        mean=float(np.mean(accuracies)),
        std=float(np.std(accuracies, ddof=1)) if runs > 1 else 0.0,
        seeds=seeds,
        config=selection_config.echo(),
    )
