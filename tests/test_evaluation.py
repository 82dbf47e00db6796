import dataclasses
import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dataselect import autoencoder, evaluation, selection
from dataselect.autoencoder import AEModel, AETrainConfig
from dataselect.corpus import Corpus, Document
from dataselect.embeddings import EmbeddingTable
from dataselect.errors import ConfigError, DataError
from dataselect.evaluation import (
    ClassifierConfig,
    LinearModel,
    SignificanceResult,
    evaluate,
    prepare_context,
    run_experiment,
    run_selection,
    t_test,
    train_classifier,
)
from dataselect.corpus import build_vocabulary, tokenize_corpus
from dataselect.representations import RepresentationSpace, TermDistribution, pool_groups
from dataselect.selection import SelectionConfig, select_domain_level
from dataselect.similarity import METRIC_ORIENTATION, _as_vector, cosine, js_divergence
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


def joint_averaged_sgd(X, labels, config):
    """Copy of the one-loop trainer that updates every class at each step.

    It keeps w as scale * V with the scalar scale and scale-sum recurrences
    inside the loop; train_classifier must match it bit for bit.
    """
    X = X.tocsr()
    n, n_features = X.shape
    classes = sorted(set(labels))
    index = {c: i for i, c in enumerate(classes)}
    Y = -np.ones((n, len(classes)))
    for i, label in enumerate(labels):
        Y[i, index[label]] = 1.0
    lr0, l2 = config.learning_rate, config.l2
    rng = np.random.default_rng(config.seed)
    V = np.zeros((len(classes), n_features))
    V_lag = np.zeros((len(classes), n_features))
    scale = 1.0
    csum = 0.0
    bias = np.zeros(len(classes))
    bias_sum = np.zeros(len(classes))
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
    return (csum * V - V_lag) / t, bias_sum / t


def bitwise_equal(a, b):
    # stricter than np.array_equal: the sign of a zero must match too
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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

    def test_matches_naive_reference(self, monkeypatch):
        rng = np.random.default_rng(4)
        X = sparse((rng.random((25, 6)) < 0.4) * rng.random((25, 6)))
        labels = list(rng.choice(["negative", "neutral", "positive"], size=25))
        monkeypatch.setattr(ClassifierConfig, "epochs", 3)
        config = ClassifierConfig(seed=5)
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

    @staticmethod
    def mixed_rows(rng, n, d):
        """CSR rows with empty, 1-nonzero, typical and >1,000-nonzero rows."""
        nnz = rng.choice([0, 1, 3, 22, 1200], size=n, p=[0.1, 0.15, 0.3, 0.35, 0.1])
        nnz[:4] = [0, 1, 22, 1200]
        X = sp.lil_matrix((n, d))
        for i, k in enumerate(nnz):
            cols = rng.choice(d, size=k, replace=False)
            vals = rng.random(k) + 0.01
            X[i, cols] = vals / np.linalg.norm(vals) if k else vals
        return X.tocsr()

    @pytest.mark.parametrize("names", [("negative", "positive"),
                                       ("negative", "neutral", "positive")])
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("rates", [(0.1, 1e-4), (0.37, 0.013)])
    def test_bit_identical_to_joint_loop(self, monkeypatch, names, epochs, seed, rates):
        rng = np.random.default_rng(seed)
        X = self.mixed_rows(rng, 60, 2000)
        labels = list(rng.choice(names, size=60))
        # the schedule is a set of class constants; patching them keeps the
        # other rates and epoch counts covered
        monkeypatch.setattr(ClassifierConfig, "epochs", epochs)
        monkeypatch.setattr(ClassifierConfig, "learning_rate", rates[0])
        monkeypatch.setattr(ClassifierConfig, "l2", rates[1])
        config = ClassifierConfig(seed=seed)
        model = train_classifier(X, labels, config)
        W_ref, b_ref = joint_averaged_sgd(X, labels, config)
        assert model.classes == sorted(names)
        assert bitwise_equal(model.weights, W_ref)
        assert bitwise_equal(model.biases, b_ref)
        if len(names) == 2:
            assert np.array_equal(model.weights[1], -model.weights[0])
            assert np.array_equal(model.biases[1], -model.biases[0])

    @pytest.mark.parametrize("names", [("negative", "positive"),
                                       ("negative", "neutral", "positive")])
    def test_dense_input_bit_identical_to_joint_loop(self, monkeypatch, names):
        rng = np.random.default_rng(11)
        dense = (rng.random((40, 30)) < 0.3) * rng.random((40, 30))
        dense[5] = 0.0
        labels = list(rng.choice(names, size=40))
        monkeypatch.setattr(ClassifierConfig, "epochs", 2)
        config = ClassifierConfig(seed=4)
        model = train_classifier(dense, labels, config)
        W_ref, b_ref = joint_averaged_sgd(sparse(dense), labels, config)
        assert bitwise_equal(model.weights, W_ref)
        assert bitwise_equal(model.biases, b_ref)


class TestClassifierConfig:
    @pytest.mark.parametrize("kwargs, field", [
        ({"epochs": 0}, "epochs"),
        ({"epochs": -2}, "epochs"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": -1.0}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"l2": -1e-4}, "l2"),
        ({"l2": float("nan")}, "l2"),
        ({"l2": 20.0}, r"learning_rate \* l2"),
        ({"learning_rate": 2.0, "l2": 0.5}, r"learning_rate \* l2"),
        ({"learning_rate": float("inf"), "l2": 0.0}, r"learning_rate \* l2"),
    ])
    def test_rejects_values_that_break_training(self, kwargs, field):
        # the schedule is not settable, so no value of it reaches training
        # (``field`` only labels the case)
        with pytest.raises(TypeError, match="unexpected keyword"):
            ClassifierConfig(**kwargs)

    def test_seed_is_the_only_field_and_the_schedule_is_valid(self):
        assert tuple(f.name for f in dataclasses.fields(ClassifierConfig)) == ("seed",)
        with pytest.raises(TypeError):
            ClassifierConfig(epochs=3)
        config = ClassifierConfig(seed=7)
        assert config.epochs >= 1
        assert config.learning_rate > 0.0
        assert config.l2 >= 0.0
        # lr_t <= learning_rate, so every per-step decay 1 - lr_t*l2 is positive
        assert config.learning_rate * config.l2 < 1.0


class TestLinearModel:
    @pytest.mark.parametrize("bad", ["weights", "biases"])
    def test_non_finite_parameters_are_rejected(self, bad):
        params = {"weights": np.zeros((2, 3)), "biases": np.zeros(2)}
        params[bad].flat[0] = np.nan
        with pytest.raises(DataError, match="^classifier parameters must be finite$"):
            LinearModel(params["weights"], params["biases"], ["negative", "positive"])

    def test_unlabeled_training_document_is_rejected(self):
        with pytest.raises(DataError, match="^every training document must be labeled$"):
            train_classifier(sparse([[1, 0], [0, 1]]), ["negative", None])


class TestEvaluate:
    def test_perfect_predictions(self):
        X = sparse([[1, 0], [0, 1]])
        model = train_classifier(X, ["negative", "positive"], ClassifierConfig(seed=0))
        assert evaluate(model, X, ["negative", "positive"]) == 1.0

    def test_labels_that_do_not_match_the_rows_are_rejected(self):
        model = train_classifier(sparse([[1, 0], [0, 1]]), ["negative", "positive"])
        with pytest.raises(DataError, match="^1 labels for 2 feature rows$"):
            evaluate(model, sparse([[1, 0], [0, 1]]), ["negative"])

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
    @pytest.mark.parametrize(
        "p, significant",
        [(0.05, False), (math.nextafter(0.05, 0.0), True), (0.0, True), (1.0, False)],
    )
    def test_significant_exactly_when_p_is_below_0_05(self, p, significant):
        assert [f.name for f in dataclasses.fields(SignificanceResult)] == ["t", "df", "p"]
        assert SignificanceResult(t=2.0, df=8, p=p).significant is significant

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
def prepare(corpus):
    """A fresh term-distribution context for a target domain, built without
    stopwords over the corpus's whole vocabulary (far below the cap)."""
    encoded = tokenize_corpus(corpus, frozenset())
    vocab = build_vocabulary(encoded)
    return lambda target="tgt": prepare_context(corpus, encoded, vocab, target, "term_dist")


class TestRunExperiment:

    def test_deterministic_strategy_gives_identical_runs(self, prepare):
        context = prepare()
        config = SelectionConfig(n=40, strategy="instance")
        result = run_experiment(context, config, runs=4, base_seed=0)
        assert len(set(result.accuracies)) == 1

    def test_mean_matches_recomputation(self, prepare):
        context = prepare()
        config = SelectionConfig(n=40, strategy="random")
        result = run_experiment(context, config, runs=5, base_seed=3)
        assert result.mean == pytest.approx(sum(result.accuracies) / 5, abs=1e-12)
        assert result.seeds == [3, 4, 5, 6, 7]

    def test_unknown_target_domain(self, prepare):
        with pytest.raises(ConfigError, match="unknown target domain"):
            prepare("nope")

    def test_context_reuse_matches_fresh(self, prepare):
        config = SelectionConfig(n=30, strategy="subset", s=5, m=20)
        fresh = run_experiment(prepare(), config, runs=2, base_seed=1)
        context = prepare()
        run_experiment(context, SelectionConfig(n=30, strategy="instance"), runs=1)
        reused = run_experiment(context, config, runs=2, base_seed=1)
        assert fresh.accuracies == reused.accuracies

    def test_proxy_a_is_fitted_once_per_seed(self, prepare, monkeypatch):
        fitted = []
        real = selection.proxy_a_scores

        def counting(rows, target_rows, seed=0):
            fitted.append(seed)
            return real(rows, target_rows, seed=seed)

        configs = [
            SelectionConfig(n=20, strategy="instance", metric="proxy_a"),
            SelectionConfig(n=40, strategy="instance", metric="proxy_a"),
        ]
        monkeypatch.setattr(selection, "proxy_a_scores", counting)
        context = prepare()
        shared = [run_selection(context, c, seed).chosen for c in configs for seed in range(3)]
        assert sorted(fitted) == [0, 1, 2]
        fresh = [run_selection(prepare(), c, seed).chosen for c in configs for seed in range(3)]
        assert shared == fresh

    def test_selection_never_includes_target_documents(self, prepare):
        context = prepare()
        docs = context.corpus.documents
        assert all(docs[row].domain != "tgt" for row in context.pool_index.tolist())


class TestContextMemory:
    def test_no_pool_sized_copy_is_retained(self, corpus):
        """Beyond the representation matrix, the context keeps per-document
        ids and row numbers only, far less than a copy of the pool's rows."""
        encoded = tokenize_corpus(corpus, frozenset())
        vocab = build_vocabulary(encoded)
        rng = np.random.default_rng(0)
        dim = 256
        table = EmbeddingTable({t: rng.normal(size=dim) for t in vocab}, dim=dim)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            context = prepare_context(
                corpus, encoded, vocab, "tgt", "embedding", embedding_table=table
            )
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        pool_rows_nbytes = len(context.pool_index) * dim * 8
        assert retained - context.space.matrix.nbytes < pool_rows_nbytes / 4

    def test_no_autoencoder_model_is_alive_while_codes_are_written(self, corpus, monkeypatch):
        """The autoencoder view keeps the trained encoder's W and b alone:
        when ``autoencoder.encode`` writes the codes, no ``AEModel`` holding
        that W, whose decoder encoding never reads, is alive."""
        encode, alive = autoencoder.encode, []

        def spying(W, b, x):
            alive.append(any(isinstance(o, AEModel) and o.W is W for o in gc.get_objects()))
            return encode(W, b, x)

        monkeypatch.setattr(autoencoder, "encode", spying)
        encoded = tokenize_corpus(corpus, frozenset())
        context = prepare_context(
            corpus, encoded, build_vocabulary(encoded), "tgt", "autoencoder",
            ae_config=AETrainConfig(epochs=1, hidden_dim=4, seed=0),
        )
        assert alive == [False]
        assert context.space.matrix.shape == (len(corpus), 4)


# dense entries whose squares stay above float64's underflow, as cosine
# requires of a vector with a nonzero entry
DENSE = st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: v if abs(v) >= 1e-150 else 0.0)


def scalar_domain_scores(space, corpus, target_domain, metric):
    """Target aggregate and domain scores as they were computed before the
    context scored all domains at once: each domain's rows are copied out and
    pooled, then scored by the scalar metric; an empty domain is skipped."""

    def aggregate(ids):
        rows = space.matrix[[space.index[i] for i in ids]]
        if space.kind == "term_dist":
            pooled = np.asarray(rows.sum(axis=0)).ravel()
            total = pooled.sum()
            return TermDistribution(probs=pooled / total if total else pooled)
        # summed in member order, as the pooling product sums them; np.mean's
        # pairwise sum of 8 or more rows can differ in the last bit
        return sum(np.asarray(rows)) / len(rows)

    def ids(domain):
        return [doc.id for doc in corpus if doc.domain == domain]

    target = aggregate(ids(target_domain))
    scores = {}
    for domain in sorted(corpus.domains - {target_domain}):
        metric_fn = js_divergence if metric == "jensen_shannon" else cosine
        score = metric_fn(aggregate(ids(domain)), target)
        if not score.empty:
            scores[domain] = score.value
    return target, scores


def space_over(docs, kind, matrix):
    return RepresentationSpace(kind=kind, doc_ids=[doc.id for doc in docs], matrix=matrix)


def context_over(corpus, space):
    """``prepare_context`` for target ``tgt`` over a given representation space."""
    with mock.patch.object(evaluation, "build_representation_space", return_value=space):
        return prepare_context(corpus, None, None, "tgt", "term_dist")


def copied_rows_subset_select(s, n, m, ids, target_repr, rows, item_scores, metric, seed):
    """``subset_select`` as it was when the context copied the pool's rows out
    of the representation matrix: ``rows[i]`` is the row of the document ``ids[i]``.
    NaN-scored documents are never drawn, as in ``subset_select``."""
    orientation = METRIC_ORIENTATION[metric]
    rng = np.random.default_rng(seed)
    available = np.flatnonzero(~np.isnan(item_scores))
    chosen, iteration_members, subset_scores = [], [], []
    while len(chosen) < n and len(available):
        size = min(s, len(available))
        if s == 1 and m >= len(available):
            names = [ids[i] for i in available]
            in_avail = np.array(selection._rank(item_scores[available], orientation, names))
            in_avail = in_avail[:, None]
        else:
            in_avail = selection._draw_subsets(rng, len(available), size, m)
        candidates = available[in_avail]
        if candidates.shape[1] == 1:
            scores = item_scores[candidates].mean(axis=1)
        else:
            indptr = np.arange(0, candidates.size + 1, candidates.shape[1])
            pooled = pool_groups(rows, candidates.ravel(), indptr)
            scores = selection.row_scorer(target_repr, metric)(pooled)
        best = int(np.argmin(selection._sort_key(scores, orientation)))
        members = candidates[best]
        room = n - len(chosen)
        if len(members) > room:
            names = [ids[i] for i in members]
            members = members[selection._rank(item_scores[members], orientation, names)[:room]]
        chosen.extend(int(i) for i in members)
        iteration_members.append([ids[int(i)] for i in members])
        subset_scores.append(float(scores[best]))
        available = available[~np.isin(available, members)]
    return [ids[i] for i in chosen], subset_scores, iteration_members


class TestContextScores:
    @given(st.data())
    def test_pool_rows_address_the_matrix_like_copied_rows(self, data):
        """Pool rows interleaved with target and unlabeled rows: item scores
        and subset selections read from the whole matrix equal those of the
        pool's rows copied out of it, bit for bit."""
        kind, metric = data.draw(
            st.sampled_from(
                [("term_dist", "jensen_shannon"), ("embedding", "cosine"),
                 ("term_dist", "cosine")]
            ),
            label="case",
        )
        roles = data.draw(
            st.lists(st.sampled_from(["tgt", "a", "a?", "b", "b?"]), max_size=14), label="roles"
        )
        roles = ["tgt", "a"] + roles  # a target row and a labeled pool row at least
        order = data.draw(st.permutations(range(len(roles))), label="row order")
        docs = [
            Document(
                id=f"d{i:02d}", text="x", domain=roles[j].rstrip("?"),
                label=None if roles[j].endswith("?") else "positive",
            )
            for i, j in enumerate(order)
        ]
        shape = (len(docs), data.draw(st.integers(1, 6), label="width"))
        if kind == "term_dist":
            counts = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0])
            full = arrays(np.float64, shape, elements=counts, fill=st.nothing())
            matrix = sp.csr_matrix(data.draw(full, label="counts"))
        else:
            value = DENSE
            full = arrays(np.float64, shape, elements=value, fill=st.nothing())
            matrix = data.draw(full, label="rows")
        corpus = Corpus(docs)
        space = space_over(docs, kind, matrix)
        context = context_over(corpus, space)
        assume(_as_vector(context.target_repr).any())  # an all-zero target is rejected
        pool = [doc for doc in docs if doc.domain != "tgt" and doc.label is not None]
        assert [docs[row] for row in context.pool_index.tolist()] == pool
        copied = matrix[[space.index[doc.id] for doc in pool]]

        expected = selection.row_scorer(context.target_repr, metric)(copied)
        assert bitwise_equal(context.item_scores(metric, seed=0), expected)

        s = data.draw(st.integers(1, 4), label="s")
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, len(pool) + 1), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        config = SelectionConfig(n=n, strategy="subset", representation=kind, metric=metric,
                                 s=s, m=m)
        result = run_selection(context, config, seed)
        chosen, subset_scores, members = copied_rows_subset_select(
            s, n, m, [doc.id for doc in pool], context.target_repr, copied, expected, metric, seed
        )
        assert result.chosen == chosen
        assert bitwise_equal(np.array(result.subset_scores), np.array(subset_scores))
        assert result.iteration_members == members

    @given(st.data())
    def test_domain_scores_match_scalar_loop(self, data):
        kind = data.draw(st.sampled_from(["term_dist", "embedding"]), label="kind")
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=2, max_size=4), label="sizes")
        domains = ["tgt", "a", "b", "c"][: len(sizes)]
        labels = [domain for domain, size in zip(domains, sizes) for _ in range(size)]
        order = data.draw(st.permutations(range(len(labels))), label="row order")
        docs = [
            Document(id=f"d{i:02d}", text="x", domain=labels[j], label="positive")
            for i, j in enumerate(order)
        ]
        shape = (len(docs), data.draw(st.integers(1, 8), label="width"))
        if kind == "term_dist":
            counts = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 7.0])
            full = arrays(np.float64, shape, elements=counts, fill=st.nothing())
            matrix = sp.csr_matrix(data.draw(full, label="counts"))
            metric = "jensen_shannon"
        else:
            value = DENSE
            full = arrays(np.float64, shape, elements=value, fill=st.nothing())
            matrix = data.draw(full, label="rows")
            matrix[data.draw(arrays(bool, shape[0]), label="empty rows")] = 0.0
            metric = "cosine"
        corpus = Corpus(docs)
        space = space_over(docs, kind, matrix)
        target, expected = scalar_domain_scores(space, corpus, "tgt", metric)
        assume(kind != "term_dist" or not target.empty)
        pool = [doc for doc in docs if doc.domain != "tgt"]
        ids, domains = [doc.id for doc in pool], [doc.domain for doc in pool]
        context = context_over(corpus, space)
        if not _as_vector(target).any():  # cosine has no direction to rank against
            with pytest.raises(DataError, match="target vector is all zeros"):
                context.domain_scores(metric)
            return
        if kind == "term_dist":
            assert np.array_equal(context.target_repr.probs, target.probs)
        else:
            assert np.array_equal(context.target_repr, target)

        scores = context.domain_scores(metric)
        usable = {d: v for d, v in scores.items() if not math.isnan(v)}
        assert usable.keys() == expected.keys()
        # pooled counts are scored by the CSR JS kernel, the scalar by the
        # dense one: they agree to 1e-12 (see similarity's docstring)
        tolerance = 1e-12 if metric == "jensen_shannon" else 0.0
        assert all(abs(usable[d] - v) <= tolerance for d, v in expected.items())
        if not expected:
            with pytest.raises(DataError, match="usable"):
                select_domain_level(ids, domains, scores, metric, 1, seed=0)
            return
        sign = 1.0 if metric == "jensen_shannon" else -1.0
        best = min((sign * v, d) for d, v in usable.items())[1]
        chosen = select_domain_level(ids, domains, scores, metric, 1, seed=0).chosen_domain
        assert chosen == best
