"""Classifier training, the multi-run evaluation protocol, and significance.

The sentiment classifier is a linear SVM trained by averaged SGD on
L2-regularized hinge loss, one-vs-rest for the ternary task, with tf-idf
uni/bigram features fitted per run on the selected training set only. Its
only setting is its seed; the epochs, learning rate and L2 weight are
constants of ``ClassifierConfig``. Accuracy is measured on every labeled
document of the target domain, and experiments report the mean and
standard deviation over independently reseeded selection runs plus a
pooled-variance two-sample Student t test against baselines.

One-vs-rest training is one independent binary SGD run per class. Each
class's weights, bias and hinge test depend only on that class, while the
visiting order and the step schedule (learning rate, decay scale and its
running sum) depend only on the step, so every class shares one order and
one schedule computed before the loop. The binary task trains its first
class only and negates it for the second. Both are exact: per class, every
floating-point operation is the one a joint multi-class loop would do, in
the same order, and negation commutes with IEEE rounding.

Features come from the corpus encoded once by ``corpus.tokenize_corpus``:
a run's training rows and the target's labeled rows are row slices of its
documents x n-gram count matrix (the target's taken once per experiment),
the run's tf-idf features are the columns its training rows hold, and
transforming is a column gather, an idf scale and a per-row L2
normalization. The norm stays one ``np.dot`` per row, because a vectorized
norm sums the squares in another order and would change the last bits.

Selection runs inside an ``ExperimentContext``, which computes the scores
the strategies rank: one per pool document (cached for JS and cosine, which
``selection.row_scorer`` scores; fitted per run seed by
``selection.proxy_a_scores`` for proxy-A, the only metric that also reads the
target's own rows) and one per source domain (cached), the domains pooled by
``representations.pool_groups`` like the subset search's candidates.
``run_selection`` hands each strategy its scores and the pool's ids and
domains. Every setting is an argument of the function that uses it: the
representation's (embedding table, autoencoder training) of
``prepare_context`` and the classifier's seed of ``run_experiment``. SIF's
smoothing factor is no setting but the constant ``representations.SIF_A``.

A document has one address, its corpus row: its row of the representation
matrix, of the encoded count matrix and of the corpus's documents. The
context keeps the pool's rows as an int array and copies no representation
row or document. JS and cosine score each row of the matrix on its own, so
the pool's scores are the matrix's scores gathered at the pool rows, bit for
bit; proxy-A gathers the rows it fits on. ``run_selection`` reads the pool's
ids and domains at those rows, once per call, and the strategies return ids,
which ``run_experiment`` maps back to rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
from scipy.special import betainc

from . import autoencoder, selection as sel
from .autoencoder import AETrainConfig, train as ae_train
from .corpus import Corpus, EncodedCorpus, TfidfModel
from .embeddings import EmbeddingTable
from .errors import ConfigError, DataError, DataSelectError
from .representations import (
    AUTOENCODER,
    RepresentationSpace,
    ae_input_features,
    build_representation_space,
    pool_groups,
)
from .similarity import PROXY_A


@dataclass(frozen=True)
class ClassifierConfig:
    """The classifier's one setting, its seed. The SGD schedule is fixed:
    ``epochs`` passes at rate ``learning_rate`` with L2 weight ``l2``."""

    epochs: ClassVar[int] = 10
    learning_rate: ClassVar[float] = 0.1
    # lr_t <= learning_rate and learning_rate * l2 < 1, so every per-step
    # decay 1 - lr_t*l2 stays positive
    l2: ClassVar[float] = 1e-4
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

    Each class is trained by its own loop over one shared visiting order
    (``epochs`` permutations from the seed) and one shared step schedule:
    ``lr_t = lr / (1 + (lr*l2)*t)``, the decay scale as a sequential product
    of ``1 - lr_t*l2`` and its running sum, all computed before the loop. A
    loop that updated every class at each step would do the same operations
    per class in the same order, so the weights are bit-identical to it. (Its
    one matrix-vector product per step is one dot product per class here;
    with the OpenBLAS that numpy ships the two round alike, which the tests
    check against a copy of such a loop.) With two classes the targets of the
    second are the negated targets of the first; negation is exact under
    rounding, so the second class's iterates are the exact negations of the
    first's and only the first is trained.
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

    lr0, l2 = config.learning_rate, config.l2
    rng = np.random.default_rng(config.seed)
    order = np.concatenate([rng.permutation(n) for _ in range(config.epochs)])

    # The step schedule depends only on t, so it is shared by every class.
    # ufunc.accumulate runs sequentially, which reproduces the scalar
    # recurrences scale_t = scale_{t-1} * (1 - lr_t*l2) from scale_0 = 1 and
    # csum_t = csum_{t-1} + scale_t from csum_0 = 0 bit for bit.
    lr = lr0 / (1.0 + (lr0 * l2) * np.arange(1.0, len(order) + 1.0))
    scale = np.multiply.accumulate(np.concatenate(([1.0], 1.0 - lr * l2)))
    csum = np.add.accumulate(np.concatenate(([0.0], scale[1:])))
    schedule = (order, lr, scale, csum)
    rows = [
        (X.indices[start:end], X.data[start:end])
        for start, end in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist())
    ]
    targets = [[1.0 if label == c else -1.0 for label in labels] for c in classes]

    if len(classes) == 2:
        w, b = _train_binary(rows, targets[0], schedule, n_features)
        # 0.0 - x rather than -x: it negates every nonzero x but keeps a zero
        # +0.0, as training the second class would leave it
        return LinearModel(np.vstack([w, 0.0 - w]), np.array([b, 0.0 - b]), classes)
    fits = [_train_binary(rows, y, schedule, n_features) for y in targets]
    return LinearModel(
        np.vstack([w for w, _ in fits]), np.array([b for _, b in fits]), classes
    )


def _train_binary(rows, y, schedule, n_features):
    """Averaged hinge-loss SGD for one class against the rest.

    ``rows`` holds each training row's ``(indices, data)`` and ``y`` the +1/-1
    targets. ``schedule`` holds, per step t = 1..T, the row visited
    (``order[t-1]``) and the learning rate (``lr[t-1]``), and for t = 0..T
    the decay scale and its running sum (``scale[t]``, ``csum[t]``).

    w is kept as scale * V so the per-step L2 decay and iterate averaging stay
    O(nnz): sum_t w_t = csum * V - V_lag.
    """
    order, lr, scale, csum = schedule
    n, steps = len(rows), len(order)
    V = np.zeros(n_features)
    V_lag = np.zeros(n_features)
    bias = 0.0
    bias_sum = 0.0
    # The loop reads Python floats fastest; converting one epoch at a time
    # keeps those lists O(n) rather than O(epochs * n).
    for a in range(0, steps, n):
        b = a + n
        for i, lr_t, s_before, s_after, c_before in zip(
            order[a:b].tolist(),
            lr[a:b].tolist(),
            scale[a:b].tolist(),
            scale[a + 1 : b + 1].tolist(),
            csum[a:b].tolist(),
        ):
            cols, vals = rows[i]
            y_i = y[i]
            v = V.take(cols)
            if y_i * (s_before * float(v.dot(vals)) + bias) < 1.0:
                delta = (lr_t * y_i / s_after) * vals
                V.put(cols, v + delta)
                V_lag.put(cols, V_lag.take(cols) + c_before * delta)
                bias += lr_t * y_i
            bias_sum += bias
    return (csum[-1] * V - V_lag) / steps, bias_sum / steps


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

    @property
    def significant(self) -> bool:
        """Two-sided p below 0.05."""
        return self.p < 0.05


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
            return SignificanceResult(t=0.0, df=df, p=1.0)
        warnings.warn("zero pooled variance with unequal means; p collapses to 0")
        return SignificanceResult(t=float("inf") if diff > 0 else float("-inf"), df=df, p=0.0)
    t = diff / np.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return SignificanceResult(t=float(t), df=df, p=p)


# ---------------------------------------------------------------------------
# Experiment protocol
# ---------------------------------------------------------------------------

@dataclass
class ExperimentContext:
    """Everything reusable across runs and strategies for one target domain.

    The context computes every score the strategies rank: pool item scores
    and source-domain scores, through ``selection.row_scorer``, except the
    proxy-A item scores, which ``selection.proxy_a_scores`` fits. It holds no
    settings; ``prepare_context`` consumed them. ``pool_index`` holds each
    pool document's corpus row.
    """

    corpus: Corpus
    target_domain: str
    encoded: EncodedCorpus
    space: RepresentationSpace
    pool_index: np.ndarray
    target_repr: object
    _item_scores: dict = field(default_factory=dict)
    _domain_scores: dict = field(default_factory=dict)

    def item_scores(self, metric: str, seed: int) -> np.ndarray:
        """Per-pool-document scores against the target.

        JS and cosine score every row of the matrix, each on its own, and are
        cached per metric. Proxy-A scores depend on the run ``seed`` (the
        discriminator's balancing subsample) and on the target's own rows;
        they are cached per ``(metric, seed)``, so each seed is fitted once
        however many selections rank its scores.
        """
        key = (metric, seed) if metric == PROXY_A else metric
        if key in self._item_scores:
            return self._item_scores[key]
        if metric == PROXY_A:
            target_rows = self.space.matrix[self.corpus.domain_rows(self.target_domain)]
            scores = sel.proxy_a_scores(self.space.matrix[self.pool_index], target_rows, seed=seed)
        else:
            scores = sel.row_scorer(self.target_repr, metric)(self.space.matrix)[self.pool_index]
        self._item_scores[key] = scores
        return scores

    def domain_scores(self, metric: str) -> dict[str, float]:
        """Score of each source domain's pooled documents, cached per metric.

        Every domain is pooled by one ``pool_groups`` call and all are scored
        by one ``row_scorer``, pooled term counts by the CSR JS kernel
        that scores pool rows and subset candidates; it agrees with the scalar
        ``js_divergence`` of a domain's ``aggregate`` to 1e-12. An empty
        domain scores NaN.
        """
        if metric not in self._domain_scores:
            domains = sorted(self.corpus.domains - {self.target_domain})
            groups = [self.corpus.domain_rows(d) for d in domains]
            indptr = np.cumsum([0] + [len(g) for g in groups])
            pooled = pool_groups(self.space.matrix, np.concatenate(groups), indptr)
            scores = sel.row_scorer(self.target_repr, metric)(pooled)
            self._domain_scores[metric] = dict(zip(domains, scores.tolist()))
        return self._domain_scores[metric]


def prepare_context(
    corpus: Corpus,
    encoded: EncodedCorpus,
    vocab: tuple[str, ...],
    target_domain: str,
    representation: str,
    labeled_pool_only: bool = True,
    *,
    embedding_table: EmbeddingTable | None = None,
    ae_config: AETrainConfig = AETrainConfig(),
) -> ExperimentContext:
    """Build the representation space and split the pool.

    ``encoded`` is ``tokenize_corpus(corpus)`` and ``vocab`` the vocabulary
    built from it. The selection pool is every labeled non-target document
    (pass ``labeled_pool_only=False`` to keep unlabeled candidates, e.g. when
    selecting data for annotation). Domain and target representations
    aggregate all documents of the domain, labeled or not, so unlabeled text
    still informs similarity. The autoencoder representation trains its
    model with ``ae_config`` (by default ``AETrainConfig()``) on all domains,
    the target's text included, and keeps only its encoder's ``W`` and
    ``b``: the model, decoder included, is freed before ``autoencoder.encode``
    writes the codes, which ``build_representation_space`` takes as the
    view's rows. The embedding representation weights
    ``embedding_table``'s vectors with the SIF smoothing
    ``representations.SIF_A``.
    """
    if target_domain not in corpus.domains:
        raise ConfigError(f"unknown target domain {target_domain!r}")
    if not (corpus.domains - {target_domain}):
        raise DataError("no source domains besides the target")
    ae_codes = None
    if representation == AUTOENCODER:
        features = ae_input_features(encoded, vocab)
        model, _ = ae_train(features, ae_config)
        W, b = model.W, model.b
        del model  # the decoder, which encoding never reads, is freed before the codes exist
        ae_codes = autoencoder.encode(W, b, features)
    space = build_representation_space(
        corpus,
        encoded,
        representation,
        vocab,
        embedding_table=embedding_table,
        ae_codes=ae_codes,
    )
    pool_index = np.flatnonzero(
        [
            doc.domain != target_domain and (doc.label is not None or not labeled_pool_only)
            for doc in corpus
        ]
    )
    if not len(pool_index):
        raise DataError("selection pool is empty (no labeled source documents)")
    return ExperimentContext(
        corpus=corpus,
        target_domain=target_domain,
        encoded=encoded,
        space=space,
        pool_index=pool_index,
        target_repr=space.aggregate(
            [space.doc_ids[row] for row in corpus.domain_rows(target_domain).tolist()]
        ),
    )


def run_selection(
    context: ExperimentContext, config: sel.SelectionConfig, seed: int
) -> sel.SelectionResult:
    """Dispatch one selection strategy inside a prepared context.

    The pool's ids (``space.doc_ids``) and domains are read at its corpus
    rows once per call, in ``pool_index`` order, the order of its scores.
    """
    documents, doc_ids = context.corpus.documents, context.space.doc_ids
    ids = [doc_ids[row] for row in context.pool_index.tolist()]
    domains = [documents[row].domain for row in context.pool_index.tolist()]
    if config.strategy == "random":
        return sel.select_random(ids, config.n, seed)
    if config.strategy == "balanced":
        return sel.select_balanced(ids, domains, config.n, seed)
    metric = config.resolved_metric
    if config.strategy == "domain":
        return sel.select_domain_level(
            ids, domains, context.domain_scores(metric), metric, config.n, seed
        )
    scores = context.item_scores(metric, seed)
    if config.strategy == "instance":
        return sel.select_instance_level(ids, scores, metric, config.n)
    return sel.subset_select(
        config.s,
        config.n,
        config.m,
        ids,
        context.target_repr,
        context.space.matrix,
        context.pool_index,
        scores,
        metric,
        seed,
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


def check_runs(runs: int) -> None:
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")


def run_experiment(
    context: ExperimentContext,
    selection_config: sel.SelectionConfig,
    runs: int,
    base_seed: int = 0,
    classifier: ClassifierConfig = ClassifierConfig(),
) -> ExperimentResult:
    """Select, train, and score ``runs`` times inside a prepared context; run i
    reseeds the selection with ``base_seed + i``.

    Classifier training uses a fixed seed, so strategies whose selection is
    deterministic (for example instance ranking) produce identical
    accuracies in every run. tf-idf features are fitted per run on the
    selected documents only; target-domain n-grams unseen there are dropped.
    """
    check_runs(runs)
    target_domain = context.target_domain
    docs, counts = context.corpus.documents, context.encoded.counts
    eval_index = [
        row for row in context.corpus.domain_rows(target_domain).tolist()
        if docs[row].label is not None
    ]
    if not eval_index:
        raise DataError(f"target domain {target_domain!r} has no labeled documents")
    eval_rows = counts[eval_index]
    eval_labels = [docs[row].label for row in eval_index]

    accuracies: list[float] = []
    seeds = list(range(base_seed, base_seed + runs))
    for run, seed in enumerate(seeds):
        try:
            result = run_selection(context, selection_config, seed)
            train_index = [context.space.index[i] for i in result.chosen]
            train_labels = [docs[row].label for row in train_index]
            train_rows = counts[train_index]
            tfidf = TfidfModel.fit(train_rows)
            model = train_classifier(tfidf.transform(train_rows), train_labels, classifier)
            accuracy = evaluate(model, tfidf.transform(eval_rows), eval_labels)
        except DataSelectError as exc:
            exc.args = (f"run {run}: {exc}",)
            raise
        accuracies.append(accuracy)
    return ExperimentResult(
        target_domain=target_domain,
        strategy=selection_config.strategy,
        representation=selection_config.representation,
        metric=selection_config.resolved_metric,
        accuracies=accuracies,
        mean=float(np.mean(accuracies)),
        std=float(np.std(accuracies, ddof=1)) if runs > 1 else 0.0,
        seeds=seeds,
    )
