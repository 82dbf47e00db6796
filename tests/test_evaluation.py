import math

import numpy as np
import pytest
import scipy.sparse as sp

from dataselect.errors import ConfigError, DataError
from dataselect.evaluation import (
    ClassifierConfig,
    ExperimentResources,
    evaluate,
    prepare_context,
    run_experiment,
    t_test,
    train_classifier,
)
from dataselect.corpus import PreprocessOptions
from dataselect.selection import SelectionConfig
from dataselect.synthetic import DomainSpec, generate


def naive_averaged_sgd(X, labels, config):
    """Straightforward reference implementation of averaged hinge-loss SGD."""
    X = X.tocsr()
    n, n_features = X.shape
    classes = sorted(set(labels))
    index = {c: i for i, c in enumerate(classes)}
    Y = -np.ones((n, len(classes)))
    for i, label in enumerate(labels):
        Y[i, index[label]] = 1.0
    W = np.zeros((len(classes), n_features))
    b = np.zeros(len(classes))
    W_sum = np.zeros_like(W)
    b_sum = np.zeros_like(b)
    rng = np.random.default_rng(config.seed)
    t = 0
    for _ in range(config.epochs):
        for i in rng.permutation(n):
            t += 1
            lr = config.learning_rate / (1.0 + config.learning_rate * config.l2 * t)
            x = X[i].toarray().ravel()
            z = W @ x + b
            violated = Y[i] * z < 1.0
            W *= 1.0 - lr * config.l2
            W[violated] += lr * Y[i, violated][:, None] * x
            b[violated] += lr * Y[i, violated]
            W_sum += W
            b_sum += b
    return W_sum / t, b_sum / t, classes


def sparse(rows):
    return sp.csr_matrix(np.asarray(rows, dtype=np.float64))


class TestTrainClassifier:
    def test_separable_data_reaches_full_training_accuracy(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(loc=+2.0, size=(40, 5))
        neg = rng.normal(loc=-2.0, size=(40, 5))
        X = sparse(np.vstack([pos, neg]))
        labels = ["positive"] * 40 + ["negative"] * 40
        model = train_classifier(X, labels, ClassifierConfig(seed=1))
        assert evaluate(model, X, labels) == 1.0

    def test_single_class_constant_predictor(self):
        X = sparse(np.random.default_rng(1).random((10, 4)))
        with pytest.warns(UserWarning, match="single class"):
            model = train_classifier(X, ["neutral"] * 10)
        assert model.predict(X) == ["neutral"] * 10

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(2)
        X = sparse(rng.random((30, 8)))
        labels = list(rng.choice(["negative", "positive"], size=30))
        a = train_classifier(X, labels, ClassifierConfig(seed=3))
        b = train_classifier(X, labels, ClassifierConfig(seed=3))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(4)
        X = sparse((rng.random((25, 6)) < 0.4) * rng.random((25, 6)))
        labels = list(rng.choice(["negative", "neutral", "positive"], size=25))
        config = ClassifierConfig(epochs=3, seed=5)
        model = train_classifier(X, labels, config)
        W_ref, b_ref, classes_ref = naive_averaged_sgd(X, labels, config)
        assert model.classes == classes_ref
        assert np.allclose(model.weights, W_ref, atol=1e-10)
        assert np.allclose(model.biases, b_ref, atol=1e-10)

    def test_ternary_one_vs_rest(self):
        rng = np.random.default_rng(6)
        centers = {"negative": (-3, 0), "neutral": (0, 3), "positive": (3, 0)}
        rows, labels = [], []
        for label, center in centers.items():
            rows.append(rng.normal(loc=center, scale=0.4, size=(30, 2)))
            labels += [label] * 30
        X = sparse(np.vstack(rows))
        model = train_classifier(X, labels, ClassifierConfig(seed=0))
        assert evaluate(model, X, labels) > 0.95

    def test_label_count_mismatch(self):
        with pytest.raises(DataError):
            train_classifier(sparse(np.zeros((3, 2))), ["positive"])


class TestEvaluate:
    def test_perfect_predictions(self):
        X = sparse([[1, 0], [0, 1]])
        model = train_classifier(X, ["negative", "positive"], ClassifierConfig(seed=0))
        assert evaluate(model, X, ["negative", "positive"]) == 1.0

    def test_constant_predictor_on_random_ternary_labels(self):
        rng = np.random.default_rng(7)
        X = sparse(rng.random((3000, 3)))
        with pytest.warns(UserWarning):
            model = train_classifier(sparse(np.ones((5, 3))), ["neutral"] * 5)
        labels = list(rng.choice(["negative", "neutral", "positive"], size=3000))
        accuracy = evaluate(model, X, labels)
        assert abs(accuracy - 1 / 3) < 0.03

    def test_matches_confusion_matrix_recount(self):
        rng = np.random.default_rng(8)
        X = sparse(rng.normal(size=(200, 4)))
        labels = list(rng.choice(["negative", "positive"], size=200))
        model = train_classifier(X, labels, ClassifierConfig(seed=9))
        accuracy = evaluate(model, X, labels)
        # independent recount via an explicit confusion matrix
        predictions = model.predict(X)
        classes = model.classes
        confusion = np.zeros((len(classes), len(classes)), dtype=int)
        for truth, pred in zip(labels, predictions):
            confusion[classes.index(truth), classes.index(pred)] += 1
        assert accuracy == pytest.approx(np.trace(confusion) / confusion.sum(), abs=1e-12)

    def test_shuffled_evaluation_order_preserves_accuracy(self):
        rng = np.random.default_rng(10)
        X = np.asarray(rng.normal(size=(60, 4)))
        labels = list(rng.choice(["negative", "positive"], size=60))
        model = train_classifier(sparse(X), labels, ClassifierConfig(seed=2))
        base = evaluate(model, sparse(X), labels)
        perm = rng.permutation(60)
        assert evaluate(model, sparse(X[perm]), [labels[i] for i in perm]) == base

    def test_empty_evaluation_set(self):
        model = train_classifier(
            sparse([[1.0, 0.0], [0.0, 1.0]]), ["negative", "positive"],
        )
        with pytest.raises(DataError):
            evaluate(model, sparse(np.zeros((0, 2))), [])


class TestTTest:
    def test_identical_lists(self):
        result = t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert result.t == 0.0 and result.p == 1.0 and not result.significant

    def test_clearly_shifted_samples_significant(self):
        result = t_test([0.50, 0.52, 0.51, 0.49, 0.53], [0.55, 0.57, 0.56, 0.54, 0.58])
        assert result.p < 0.05
        assert result.significant

    def test_hand_derived_t_statistic(self):
        # Exact rational arithmetic on this pair gives t = -5 and df = 8:
        # both samples have SS = 0.001, pooled variance 0.00025, standard
        # error sqrt(0.00025 * 2/5) = 0.01, mean difference -0.05.
        result = t_test([0.50, 0.52, 0.51, 0.49, 0.53], [0.55, 0.57, 0.56, 0.54, 0.58])
        assert result.t == pytest.approx(-5.0, abs=1e-3)
        assert result.df == 8
        # t-table brackets for df=8: one-sided tail is 0.001 at t=4.501 and
        # 0.0005 at t=5.041, so the two-sided p at |t|=5 lies in (0.001, 0.002)
        assert 0.001 < result.p < 0.002

    def test_antisymmetric_t_symmetric_p(self):
        a = [0.71, 0.69, 0.72, 0.68]
        b = [0.66, 0.64, 0.65, 0.67]
        fwd = t_test(a, b)
        rev = t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)

    def test_zero_variance_unequal_means(self):
        with pytest.warns(UserWarning, match="zero pooled variance"):
            result = t_test([0.5, 0.5], [0.6, 0.6])
        assert result.p == 0.0 and math.isinf(result.t)

    def test_needs_two_observations(self):
        with pytest.raises(DataError):
            t_test([0.5], [0.6, 0.7])


@pytest.fixture(scope="module")
def corpus():
    specs = [
        DomainSpec(name="near", overlap=0.8, docs_per_label=60, seed=1,
                   lexicon_size=30, shared_vocab_size=25, private_vocab_size=15,
                   doc_length=(6, 12)),
        DomainSpec(name="far", overlap=0.0, docs_per_label=60, seed=2,
                   lexicon_size=30, shared_vocab_size=25, private_vocab_size=15,
                   doc_length=(6, 12)),
    ]
    target = DomainSpec(name="tgt", overlap=1.0, docs_per_label=60, seed=3,
                        lexicon_size=30, shared_vocab_size=25, private_vocab_size=15,
                        doc_length=(6, 12))
    return generate(specs, target)


@pytest.fixture(scope="module")
def resources():
    return ExperimentResources(options=PreprocessOptions(stopwords=frozenset()),
                               vocab_cap=2000)


class TestRunExperiment:

    def test_deterministic_strategy_gives_identical_runs(self, corpus, resources):
        context = prepare_context(corpus, "tgt", "term_dist", resources)
        config = SelectionConfig(n=40, strategy="instance")
        result = run_experiment(context, config, runs=4, base_seed=0)
        assert len(set(result.accuracies)) == 1

    def test_mean_matches_recomputation(self, corpus, resources):
        context = prepare_context(corpus, "tgt", "term_dist", resources)
        config = SelectionConfig(n=40, strategy="random")
        result = run_experiment(context, config, runs=5, base_seed=3)
        assert result.mean == pytest.approx(sum(result.accuracies) / 5, abs=1e-12)
        assert result.seeds == [3, 4, 5, 6, 7]

    def test_unknown_target_domain(self, corpus, resources):
        with pytest.raises(ConfigError, match="unknown target domain"):
            prepare_context(corpus, "nope", "term_dist", resources)

    def test_context_reuse_matches_fresh(self, corpus, resources):
        config = SelectionConfig(n=30, strategy="subset", s=5, m=20)
        fresh = run_experiment(
            prepare_context(corpus, "tgt", "term_dist", resources), config, runs=2, base_seed=1
        )
        context = prepare_context(corpus, "tgt", "term_dist", resources)
        run_experiment(context, SelectionConfig(n=30, strategy="instance"), runs=1)
        reused = run_experiment(context, config, runs=2, base_seed=1)
        assert fresh.accuracies == reused.accuracies

    def test_selection_never_includes_target_documents(self, corpus, resources):
        context = prepare_context(corpus, "tgt", "term_dist", resources)
        assert all(doc.domain != "tgt" for doc in context.pool_docs)
