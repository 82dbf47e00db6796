import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dataselect.representations import TermDistribution
from dataselect.errors import ConfigError, DataError
from dataselect.similarity import (
    LN2,
    DomainDiscriminator,
    _js_csr_to_target,
    cosine,
    cosine_to_target,
    fit_logistic_regression,
    js_divergence,
    js_to_target,
    proxy_a_distance,
    proxy_a_scores,
    train_domain_discriminator,
)

# Frozen from a 50-digit direct-summation oracle (mpmath); see
# test_worked_values_match_high_precision_oracle which recomputes it.
JS_HALF_VS_QUARTER = 0.03382207556860523


def random_distributions(seed, n, size):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, size)) + 1e-9
    return raw / raw.sum(axis=1, keepdims=True)


class TestJS:
    def test_identity_is_zero_exactly(self):
        p = np.array([0.1, 0.2, 0.7])
        assert js_divergence(p, p).value == 0.0

    def test_disjoint_support_reaches_ln2(self):
        score = js_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert score.value == pytest.approx(LN2, abs=1e-12)

    def test_worked_value(self):
        score = js_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert score.value == pytest.approx(JS_HALF_VS_QUARTER, abs=1e-6)

    def test_worked_values_match_high_precision_oracle(self):
        from mpmath import mp, mpf, log as mplog

        mp.dps = 50
        P = [mpf("0.5"), mpf("0.5")]
        Q = [mpf("0.25"), mpf("0.75")]

        def oracle_kl(P, Q):
            return sum(p * mplog(p / q) for p, q in zip(P, Q) if p > 0)

        M = [(p + q) / 2 for p, q in zip(P, Q)]
        oracle_js = (oracle_kl(P, M) + oracle_kl(Q, M)) / 2
        assert float(oracle_js) == pytest.approx(JS_HALF_VS_QUARTER, abs=1e-15)
        assert js_divergence(
            np.array([0.5, 0.5]), np.array([0.25, 0.75])
        ).value == pytest.approx(float(oracle_js), abs=1e-6)

    def test_exactly_symmetric(self):
        P = random_distributions(2, 30, 15)
        Q = random_distributions(3, 30, 15)
        for p, q in zip(P, Q):
            assert js_divergence(p, q).value == js_divergence(q, p).value

    def test_bounded(self):
        P = random_distributions(4, 40, 8)
        Q = random_distributions(5, 40, 8)
        for p, q in zip(P, Q):
            value = js_divergence(p, q).value
            assert 0.0 <= value <= LN2 + 1e-12

    def test_positive_when_distinct(self):
        P = random_distributions(6, 20, 6)
        Q = random_distributions(7, 20, 6)
        for p, q in zip(P, Q):
            if not np.allclose(p, q, atol=1e-12):
                assert js_divergence(p, q).value > 0.0

    def test_empty_input_yields_sentinel(self):
        empty = TermDistribution(probs=np.zeros(3), empty=True)
        other = TermDistribution(probs=np.array([0.5, 0.25, 0.25]))
        score = js_divergence(empty, other)
        assert score.empty and math.isnan(score.value)

    def test_orientation(self):
        p = np.array([0.5, 0.5])
        score = js_divergence(p, p)
        assert score.metric == "jensen_shannon"
        assert score.orientation == "lower_is_more_similar"

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            js_divergence(np.array([1.0]), np.array([0.5, 0.5]))


class TestBatchedKernels:
    def test_js_rows_match_scalar_bitwise(self):
        target = TermDistribution(probs=random_distributions(8, 1, 10)[0])
        counts = np.random.default_rng(9).integers(0, 5, size=(25, 10)).astype(float)
        batched = js_to_target(counts, target)
        for i, row in enumerate(counts):
            total = row.sum()
            if total == 0:
                assert math.isnan(batched[i])
                continue
            scalar = js_divergence(row / total, target.probs).value
            assert batched[i] == scalar

    def test_cosine_rows_match_scalar(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(20, 5))
        target = rng.normal(size=5)
        batched = cosine_to_target(rows, target)
        for i, row in enumerate(rows):
            assert batched[i] == cosine(row, target).value

    def test_empty_rows_are_nan(self):
        target = TermDistribution(probs=np.array([0.5, 0.5]))
        out = js_to_target(np.array([[0.0, 0.0], [1.0, 1.0]]), target)
        assert math.isnan(out[0]) and not math.isnan(out[1])

    def test_sparse_path_agrees_with_dense(self):
        rng = np.random.default_rng(22)
        counts = (rng.random((40, 30)) < 0.2) * rng.integers(1, 5, size=(40, 30))
        counts = counts.astype(float)
        counts[3] = 0  # empty row
        target = TermDistribution(probs=random_distributions(23, 1, 30)[0])
        dense = js_to_target(counts, target)
        sparse = js_to_target(sp.csr_matrix(counts), target)
        assert math.isnan(dense[3]) and math.isnan(sparse[3])
        mask = ~np.isnan(dense)
        assert np.allclose(dense[mask], sparse[mask], atol=1e-12)

    def test_sparse_path_batch_invariant(self):
        rng = np.random.default_rng(24)
        counts = sp.csr_matrix(
            ((rng.random((50, 20)) < 0.3) * rng.integers(1, 4, size=(50, 20))).astype(float)
        )
        target = TermDistribution(probs=random_distributions(25, 1, 20)[0])
        full = js_to_target(counts, target)
        single = np.array([js_to_target(counts[i], target)[0] for i in range(50)])
        mask = ~np.isnan(full)
        assert np.array_equal(full[mask], single[mask])


    def test_trailing_empty_rows_keep_last_entry(self):
        counts = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        target = TermDistribution(probs=np.full(4, 0.25))
        dense = js_to_target(counts, target)
        sparse = js_to_target(sp.csr_matrix(counts), target)
        assert dense[0] == pytest.approx(0.2254, abs=1e-4)
        assert sparse[0] == pytest.approx(dense[0], abs=1e-12)
        assert math.isnan(dense[1]) and math.isnan(sparse[1])


COUNT = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 7.0])


@st.composite
def count_rows(draw):
    """Count rows with frequent empty rows and an all-empty tail of any length,
    plus a target distribution that may have zero entries."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    counts = draw(arrays(np.float64, (n, d), elements=COUNT))
    counts[n - draw(st.integers(0, n)):] = 0.0
    q = draw(arrays(np.float64, d, elements=COUNT).filter(lambda v: v.sum() > 0))
    return counts, TermDistribution(probs=q / q.sum())


@st.composite
def dense_rows(draw):
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    value = st.floats(-10, 10, allow_subnormal=False) | st.just(0.0)
    rows = draw(arrays(np.float64, (n, d), elements=value))
    rows[n - draw(st.integers(0, n)):] = 0.0
    return rows, draw(arrays(np.float64, d, elements=value))


def batch_invariant(kernel, rows, target, split, perm):
    """The kernel scores each row the same in any chunking and row order."""
    full = kernel(rows, target)
    chunked = np.concatenate([kernel(rows[:split], target), kernel(rows[split:], target)])
    np.testing.assert_array_equal(chunked, full)
    np.testing.assert_array_equal(kernel(rows[perm], target), full[perm])


class TestKernelProperties:
    @given(count_rows(), st.data())
    def test_js_sparse_dense_scalar_agree(self, case, data):
        counts, target = case
        dense = js_to_target(counts, target)
        sparse = js_to_target(sp.csr_matrix(counts), target)
        for i, row in enumerate(counts):
            if row.sum() == 0:
                assert math.isnan(dense[i]) and math.isnan(sparse[i])
                continue
            assert dense[i] == js_divergence(row / row.sum(), target).value
            assert abs(sparse[i] - dense[i]) <= 1e-12
        n = counts.shape[0]
        split = data.draw(st.integers(0, n))
        perm = data.draw(st.permutations(range(n)))
        batch_invariant(js_to_target, counts, target, split, perm)
        batch_invariant(js_to_target, sp.csr_matrix(counts), target, split, perm)

    @given(dense_rows(), st.data())
    def test_cosine_sparse_dense_scalar_agree(self, case, data):
        rows, target = case
        dense = cosine_to_target(rows, target)
        sparse = cosine_to_target(sp.csr_matrix(rows), target)
        for i, row in enumerate(rows):
            assert dense[i] == cosine(row, target).value
        assert np.all(np.abs(sparse - dense) <= 1e-12)
        n = rows.shape[0]
        split = data.draw(st.integers(0, n))
        perm = data.draw(st.permutations(range(n)))
        batch_invariant(cosine_to_target, rows, target, split, perm)
        batch_invariant(cosine_to_target, sp.csr_matrix(rows), target, split, perm)


def three_log_js(rows, q):
    """The sparse JS kernel with ln q taken per nonzero under a q > 0 mask."""
    indptr, cols, data = rows.indptr, rows.indices, rows.data
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths)
    out = np.full(rows.shape[0], np.nan)
    if len(nonempty) == 0:
        return out
    starts = indptr[nonempty]
    p = data / np.repeat(np.add.reduceat(data, starts), lengths[nonempty])
    qv = q[cols]
    log_mv = np.log(0.5 * (p + qv))
    terms = p * (np.log(p) - log_mv) + np.where(
        qv > 0, qv * (np.log(np.where(qv > 0, qv, 1.0)) - log_mv), 0.0
    )
    out[nonempty] = 0.5 * (
        np.add.reduceat(terms, starts) + LN2 * (1.0 - np.add.reduceat(qv, starts))
    )
    return out


@st.composite
def counts_over_target_zeros(draw):
    """Count rows whose support covers columns where the target is zero."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(2, 8))
    counts = draw(arrays(np.float64, (n, d), elements=COUNT))
    q = draw(
        arrays(np.float64, d, elements=COUNT).filter(lambda v: v.sum() > 0 and (v == 0).any())
    )
    zero = int(np.flatnonzero(q == 0)[0])
    counts[draw(st.integers(0, n - 1)), zero] = 1.0
    return counts, q / q.sum()


class TestGatheredLogKernel:
    @given(counts_over_target_zeros())
    def test_matches_three_log_formula_bitwise(self, case):
        counts, q = case
        rows = sp.csr_matrix(counts)
        np.testing.assert_array_equal(_js_csr_to_target(rows, q), three_log_js(rows, q))

    def test_matches_three_log_formula_on_long_rows(self):
        rng = np.random.default_rng(31)
        counts = (rng.random((300, 500)) < 0.05) * rng.integers(1, 6, size=(300, 500))
        counts[::17] = 0
        raw = rng.random(500)
        raw[rng.random(500) < 0.3] = 0.0
        q = raw / raw.sum()
        rows = sp.csr_matrix(counts.astype(float))
        assert (q[rows.indices] == 0).any()
        np.testing.assert_array_equal(_js_csr_to_target(rows, q), three_log_js(rows, q))


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -0.4, 1.0])
        assert cosine(v, v).value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])).value == 0.0

    def test_hand_value(self):
        score = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert score.value == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_norm_defined_as_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])).value == 0.0

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a, b = rng.normal(size=6), rng.normal(size=6)
            assert cosine(a, b).value == pytest.approx(cosine(b, a).value, abs=1e-15)
            assert cosine(3.7 * a, b).value == pytest.approx(cosine(a, b).value, abs=1e-12)
            assert -1 - 1e-12 <= cosine(a, b).value <= 1 + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            cosine(np.zeros(2), np.zeros(3))


class TestLogisticRegression:
    def test_objective_monotone_nonincreasing(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] + 0.5 * rng.normal(size=80) > 0).astype(int)
        _, _, trace = fit_logistic_regression(X, y)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-8)

    def test_ranking_invariant_to_constant_feature(self):
        rng = np.random.default_rng(13)
        Xs = rng.normal(size=(60, 3))
        Xt = rng.normal(loc=0.8, size=(60, 3))
        plain = proxy_a_scores(Xs, Xt, seed=5)
        augmented = proxy_a_scores(
            np.hstack([Xs, np.ones((60, 1))]), np.hstack([Xt, np.ones((60, 1))]), seed=5
        )
        assert np.array_equal(np.argsort(plain), np.argsort(augmented))


class TestProxyA:
    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(14)
        scores = proxy_a_scores(rng.normal(size=(40, 3)), rng.normal(size=(30, 3)), seed=0)
        assert scores.shape == (40,)
        assert np.all(scores > 0) and np.all(scores < 1)

    def test_indistinguishable_classes_score_near_half(self):
        means = []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            Xs = rng.normal(size=(200, 4))
            Xt = rng.normal(size=(200, 4))
            means.append(float(np.mean(proxy_a_scores(Xs, Xt, seed=seed))))
        assert 0.45 <= float(np.mean(means)) <= 0.55

    def test_separable_clusters_polarize_scores(self):
        # a handful of source examples sit inside the target cluster, the rest
        # far away; examples on the target's side must score high, others low
        rng = np.random.default_rng(15)
        near = rng.normal(loc=5.0, scale=0.3, size=(10, 2))
        far = rng.normal(loc=-5.0, scale=0.3, size=(190, 2))
        source = np.vstack([near, far])
        target = rng.normal(loc=5.0, scale=0.3, size=(100, 2))
        scores = proxy_a_scores(source, target, seed=3)
        assert float(np.mean(scores[:10])) > 0.9
        assert float(np.mean(scores[10:])) < 0.1

    def test_identical_example_outranks_unrelated(self):
        rng = np.random.default_rng(16)
        target = rng.normal(loc=2.0, scale=0.5, size=(30, 3))
        unrelated = rng.normal(loc=-2.0, scale=0.5, size=(29, 3))
        source = np.vstack([target[0], unrelated])
        scores = proxy_a_scores(source, target, seed=1)
        assert scores[0] > float(np.mean(scores[1:]))

    def test_fewer_source_than_target_warns(self):
        rng = np.random.default_rng(17)
        with pytest.warns(UserWarning, match="fewer source"):
            proxy_a_scores(rng.normal(size=(5, 2)), rng.normal(size=(9, 2)), seed=0)

    def test_discriminator_metadata(self):
        rng = np.random.default_rng(18)
        disc = train_domain_discriminator(
            rng.normal(size=(20, 2)), rng.normal(size=(20, 2)), seed=7,
            representation_kind="embedding",
        )
        assert isinstance(disc, DomainDiscriminator)
        assert disc.representation_kind == "embedding"
        assert disc.seed == 7


class TestProxyADistance:
    def test_identical_matrices_give_exactly_zero(self):
        X = np.random.default_rng(19).normal(size=(12, 3))
        assert proxy_a_distance(X, X.copy(), heldout_fraction=0.25, seed=0) == 0.0

    def test_identical_distribution_near_zero(self):
        values = []
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            Xs = rng.normal(size=(200, 4))
            Xt = rng.normal(size=(200, 4))
            values.append(proxy_a_distance(Xs, Xt, heldout_fraction=0.25, seed=seed))
        assert abs(float(np.mean(values))) < 0.2

    def test_separable_clusters_near_two(self):
        rng = np.random.default_rng(20)
        Xs = rng.normal(loc=-4.0, scale=0.3, size=(100, 2))
        Xt = rng.normal(loc=4.0, scale=0.3, size=(100, 2))
        assert proxy_a_distance(Xs, Xt, heldout_fraction=0.25, seed=0) > 1.8

    def test_bounds_respected(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            value = proxy_a_distance(
                rng.normal(size=(30, 2)), rng.normal(size=(30, 2)),
                heldout_fraction=0.3, seed=seed,
            )
            assert 0.0 <= value <= 2.0

    def test_needs_two_per_class(self):
        with pytest.raises(DataError):
            proxy_a_distance(np.zeros((1, 2)), np.zeros((1, 2)), heldout_fraction=0.5, seed=0)

    def test_bad_heldout_fraction(self):
        with pytest.raises(ConfigError):
            proxy_a_distance(np.zeros((4, 2)), np.zeros((4, 2)), heldout_fraction=0.0, seed=0)
