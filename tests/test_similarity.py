import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dataselect import autoencoder, similarity
from dataselect.representations import TermDistribution
from dataselect.errors import DataError
from dataselect.selection import _rank
from dataselect.similarity import (
    HIGHER,
    LN2,
    SimilarityScore,
    _js_csr_to_target,
    _js_rows_from_probs,
    cosine,
    cosine_to_target,
    fit_logistic_regression,
    js_divergence,
    js_to_target,
    proxy_a_scores,
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
        empty = TermDistribution(probs=np.zeros(3))
        other = TermDistribution(probs=np.array([0.5, 0.25, 0.25]))
        score = js_divergence(empty, other)
        assert math.isnan(score.value)

    @pytest.mark.parametrize(
        "value, empty",
        [(float("nan"), True), (0.0, False), (LN2, False), (-1.0, False), (float("inf"), False)],
    )
    def test_empty_exactly_when_the_value_is_nan(self, value, empty):
        """A NaN value is the empty score; no other member restates it."""
        assert [f.name for f in dataclasses.fields(SimilarityScore)] == ["value"]
        score = SimilarityScore(value)
        assert [n for n in dir(score) if not n.startswith("_")] == ["value"]
        assert math.isnan(score.value) is empty

    def test_length_mismatch(self):
        """Checked before emptiness: an empty side does not skip it."""
        for p, q in (([1.0], [0.5, 0.5]), ([0.0, 0.0, 0.0], [0.5, 0.5])):
            for a, b in ((p, q), (q, p)):
                with pytest.raises(DataError, match="differ in length"):
                    js_divergence(np.array(a), np.array(b))

    @pytest.mark.parametrize(
        "p, q",
        [
            ([2.0, 0.0], [0.0, 2.0]),  # mass 2: scored 2 ln 2, above the bound
            ([-0.5, 1.5], [0.5, 0.5]),  # a negative entry: scored below 0
            ([math.nan, 1.0], [0.5, 0.5]),  # scored -0.131
        ],
    )
    def test_array_that_is_not_a_distribution_is_rejected(self, p, q):
        for a, b in ((p, q), (q, p)):
            with pytest.raises(DataError):
                js_divergence(np.array(a), np.array(b))


class TestBatchedKernels:
    def test_js_rows_match_scalar(self):
        """The CSR kernel, which reads dense rows too, agrees with the scalar's
        dense kernel to 1e-12 (see the module docstring)."""
        target = TermDistribution(probs=random_distributions(8, 1, 10)[0])
        counts = np.random.default_rng(9).integers(0, 5, size=(25, 10)).astype(float)
        batched = js_to_target(counts, target)
        for i, row in enumerate(counts):
            total = row.sum()
            if total == 0:
                assert math.isnan(batched[i])
                continue
            scalar = js_divergence(row / total, target.probs).value
            assert abs(batched[i] - scalar) <= 1e-12

    def test_cosine_rows_match_scalar(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(20, 5))
        target = rng.normal(size=5)
        batched = cosine_to_target(rows, target)
        for i, row in enumerate(rows):
            assert batched[i] == cosine(row, target).value

    @pytest.mark.parametrize("sparse_rows", [False, True])
    def test_js_against_an_empty_target_is_rejected(self, sparse_rows):
        rows = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(DataError, match="^target distribution is empty$"):
            js_to_target(sp.csr_matrix(rows) if sparse_rows else rows,
                         TermDistribution(probs=np.zeros(2)))

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

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_sparse_path_batch_invariant(self, index_dtype):
        rng = np.random.default_rng(24)
        counts = sp.csr_matrix(
            ((rng.random((50, 20)) < 0.3) * rng.integers(1, 4, size=(50, 20))).astype(float)
        )
        target = TermDistribution(probs=random_distributions(25, 1, 20)[0])
        int32_scores = js_to_target(counts, target)
        counts.indices = counts.indices.astype(index_dtype)
        counts.indptr = counts.indptr.astype(index_dtype)
        full = js_to_target(counts, target)
        assert np.array_equal(full, int32_scores, equal_nan=True)
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
    # entries whose squares stay above float64's underflow, as cosine requires
    # of a vector with a nonzero entry
    value = st.floats(-10, 10).map(lambda v: v if abs(v) >= 1e-150 else 0.0)
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
        np.testing.assert_array_equal(dense, sparse)  # a dense argument is read as CSR
        for i, row in enumerate(counts):
            if row.sum() == 0:
                assert math.isnan(sparse[i])
                continue
            assert abs(sparse[i] - js_divergence(row / row.sum(), target).value) <= 1e-12
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
            np.testing.assert_array_equal(dense[i], cosine(row, target).value)
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)  # NaN where dense is
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


def whole_matrix_cosine(rows, target):
    """cosine_to_target's block expression over every row at once."""
    if sp.issparse(rows):
        rows = rows.toarray()
    dots = (rows * target).sum(axis=1)
    denom = np.sqrt((rows * rows).sum(axis=1)) * np.sqrt(float((target * target).sum()))
    return np.divide(dots, denom, out=np.full_like(dots, np.nan), where=denom > 0)


def whole_matrix_js(counts, target):
    """The dense JS kernel over every row at once."""
    sums = counts.sum(axis=1, keepdims=True)
    P = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
    return _js_rows_from_probs(P, target.probs)


class TestRowBlocks:
    """The batched paths give every row the score of one whole-matrix pass,
    whatever ``autoencoder._BLOCK_ROWS`` is: cosine bit for bit, over dense,
    CSR and COO rows; JS, which reads dense rows as CSR, to 1e-12 of the
    dense kernel's."""

    @staticmethod
    def sizes(block):
        return sorted({1, 2, block - 1, block, block + 1, 2 * block + 1} - {0})

    @pytest.mark.parametrize("block", [2, 3, 7, 256])
    def test_cosine_matches_whole_matrix(self, monkeypatch, block):
        monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(block)
        rows = rng.normal(size=(2 * block + 1, 37)) * (rng.random((2 * block + 1, 37)) < 0.4)
        rows[::5] = 0.0  # zero rows score NaN
        target = rng.normal(size=37)
        for n in self.sizes(block):
            part = rows[:n]
            want = whole_matrix_cosine(part, target)
            for x in (part, sp.csr_matrix(part), sp.coo_matrix(part)):
                np.testing.assert_array_equal(cosine_to_target(x, target), want)

    @pytest.mark.parametrize("block", [2, 3, 7, 256])
    def test_dense_js_matches_whole_matrix(self, monkeypatch, block):
        monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(block)
        counts = rng.integers(0, 4, size=(2 * block + 1, 29)) * (
            rng.random((2 * block + 1, 29)) < 0.3
        )
        counts = counts.astype(float)
        counts[::6] = 0.0  # empty rows score NaN
        target = TermDistribution(probs=random_distributions(block, 1, 29)[0])
        for n in self.sizes(block):
            part = counts[:n]
            got = js_to_target(part, target)
            np.testing.assert_array_equal(got, js_to_target(sp.csr_matrix(part), target))
            np.testing.assert_allclose(got, whole_matrix_js(part, target), rtol=0, atol=1e-12)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -0.4, 1.0])
        assert cosine(v, v).value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])).value == 0.0

    def test_hand_value(self):
        score = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert score.value == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_norm_is_empty(self):
        """A vector with no mass scores NaN, as an empty distribution does
        under JS, whichever side it is on."""
        v = np.array([1.0, 2.0, 3.0])
        assert math.isnan(cosine(np.zeros(3), v).value) and math.isnan(cosine(v, np.zeros(3)).value)
        assert np.isnan(cosine_to_target(np.vstack([np.zeros(3), v]), v)[0])

    @pytest.mark.parametrize("sparse_rows", [False, True])
    @pytest.mark.parametrize("underflowing", ["a row", "target vector"])
    def test_underflowing_squared_norm_is_rejected(self, underflowing, sparse_rows):
        """Components near 1e-163 square below float64's smallest subnormal,
        so the squared norm is 0 and the cosine would be 0 (or NaN) for a
        vector that has a direction; that row or target is a DataError."""
        tiny, unit = np.array([[1e-163, -2e-163, 0.0]]), np.array([[1.0, 2.0, 0.0]])
        rows, target = (tiny, unit[0]) if underflowing == "a row" else (unit, tiny[0])
        rows = np.vstack([unit, rows])
        with pytest.raises(DataError, match=f"{underflowing} has nonzero entries whose squares"):
            cosine_to_target(sp.csr_matrix(rows) if sparse_rows else rows, target)

    @pytest.mark.parametrize("sparse_rows", [False, True])
    @pytest.mark.parametrize("subnormal", ["a row", "target vector"])
    def test_subnormal_squared_norm_is_rejected(self, subnormal, sparse_rows):
        """Components near 1e-158 square to a subnormal sum, not 0, but with
        too few bits left for the cosine it divides; that is a DataError too."""
        small, unit = np.array([[1e-158, -2e-158, 0.0]]), np.array([[1.0, 2.0, 0.0]])
        assert 0 < (small * small).sum() < np.finfo(np.float64).tiny
        rows, target = (small, unit[0]) if subnormal == "a row" else (unit, small[0])
        rows = np.vstack([unit, rows])
        with pytest.raises(DataError, match=f"^{subnormal} has nonzero entries whose squares "
                                            "underflow; cosine cannot score it$"):
            cosine_to_target(sp.csr_matrix(rows) if sparse_rows else rows, target)

    @pytest.mark.parametrize("sparse_rows", [False, True])
    def test_normal_squared_norms_score_as_unscaled(self, sparse_rows):
        """Scaled by 1e-153 the squared norms are normal numbers just above
        float64's smallest one, and every cosine is the unscaled one to a few
        ulps, on either side."""
        rows = np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 0.5], [0.0, 0.0, 2.0]])
        target = np.array([2.0, 1.0, 1.0])
        assert (1e-153 * rows[0] @ (1e-153 * rows[0])) < 1e4 * np.finfo(np.float64).tiny
        unscaled = cosine_to_target(rows, target)
        for row_scale, target_scale in ((1e-153, 1.0), (1.0, 1e-153), (1e-153, 1e-153)):
            scaled = row_scale * rows
            got = cosine_to_target(sp.csr_matrix(scaled) if sparse_rows else scaled,
                                   target_scale * target)
            np.testing.assert_allclose(got, unscaled, rtol=1e-14)

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

    @pytest.mark.parametrize("bad", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
    def test_non_finite_vector_is_rejected(self, bad):
        # a NaN entry scored 0.0, as a zero vector does
        for a, b in ((bad, [1.0, 1.0]), ([1.0, 1.0], bad)):
            with pytest.raises(DataError):
                cosine(np.array(a), np.array(b))

    @pytest.mark.parametrize("sparse_rows", [False, True])
    @pytest.mark.parametrize("overflowing", ["a row", "target vector"])
    def test_overflowing_squared_norm_is_rejected(self, overflowing, sparse_rows):
        """Finite components near 1e200 square past float64's range, so the
        cosine would be NaN or 0; that row or target is a DataError, raised
        without a RuntimeWarning (the suite's filter makes one an error)."""
        big, unit = np.array([[1e200, -1e200, 0.0]]), np.array([[1.0, 2.0, 0.0]])
        rows, target = (big, unit[0]) if overflowing == "a row" else (unit, big[0])
        rows = np.vstack([unit, rows])
        with pytest.raises(DataError, match=f"{overflowing} has a squared norm that is not finite"):
            cosine_to_target(sp.csr_matrix(rows) if sparse_rows else rows, target)

    def test_large_finite_squares_keep_their_scores(self):
        """Components near 1e150 still square within range, and score as
        their scaled-down copies do."""
        rows = np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 2.0]])
        target = np.array([2.0, 1.0, 1.0])
        assert np.array_equal(
            cosine_to_target(rows * 2.0**500, target * 2.0**500), cosine_to_target(rows, target)
        )


class TestLogisticRegression:
    def test_objective_monotone_nonincreasing(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] + 0.5 * rng.normal(size=80) > 0).astype(int)
        _, _, trace = fit_logistic_regression(X, y)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-8)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_matches_fit_that_recomputes_margins(self, monkeypatch, layout):
        from dataselect.autoencoder import sigmoid

        def recomputing_fit(X, y, l2=1.0, tol=1e-8, max_iter=500):
            s = np.where(y > 0, 1.0, -1.0)
            w, b = np.zeros(X.shape[1]), 0.0

            def objective(w, b):
                margins = s * (X @ w + b)
                return float(np.sum(np.logaddexp(0.0, -margins)) + 0.5 * l2 * np.dot(w, w))

            def gradient(w, b):
                gz = -s * sigmoid(-(s * (X @ w + b)))
                return X.T @ gz + l2 * w, float(gz.sum())

            obj = objective(w, b)
            trace = [obj]
            for _ in range(max_iter):
                gw, gb = gradient(w, b)
                gnorm_sq = float(np.dot(gw, gw) + gb * gb)
                if np.sqrt(gnorm_sq) < tol:
                    break
                step = 1.0
                while True:
                    w_new, b_new = w - step * gw, b - step * gb
                    obj_new = objective(w_new, b_new)
                    if obj_new <= obj - 1e-4 * step * gnorm_sq or step < 1e-20:
                        break
                    step *= 0.5
                w, b, obj = w_new, b_new, obj_new
                trace.append(obj)
            return w, b, trace

        rng = np.random.default_rng(22)
        X = rng.normal(size=(120, 6))
        y = (X[:, 0] - X[:, 2] + rng.normal(size=120) > 0).astype(int)
        if layout == "csr":
            X = sp.csr_matrix(np.where(rng.random(X.shape) < 0.5, X, 0.0))
        for l2 in (similarity._L2, 0.1):
            monkeypatch.setattr(similarity, "_L2", l2)
            for max_iter in (3, 60):
                w, b, trace = fit_logistic_regression(X, y, max_iter=max_iter)
                w_o, b_o, trace_o = recomputing_fit(X, y, l2=l2, max_iter=max_iter)
                assert np.array_equal(w, w_o) and b == b_o and trace == trace_o

    def test_l2_is_not_a_parameter(self):
        assert list(inspect.signature(fit_logistic_regression).parameters) == [
            "X", "y", "max_iter"
        ]
        X = np.random.default_rng(3).normal(size=(10, 2))
        with pytest.raises(TypeError):
            fit_logistic_regression(X, X[:, 0] > 0, l2=0.1)

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

    @pytest.mark.parametrize("n_source", [1, 5])
    def test_needs_two_per_class(self, n_source):
        # five source rows are balanced down to the one target row
        rng = np.random.default_rng(18)
        with pytest.raises(DataError, match="at least 2 examples per class"):
            proxy_a_scores(rng.normal(size=(n_source, 2)), rng.normal(size=(1, 2)), seed=0)

    def test_sparse_scores_match_dense_discriminator(self):
        # The CSR products sum in another order than the dense ones, so the
        # two fits agree to the solver's tolerance, not bit for bit (here the
        # CSR fit meets tol=1e-8 early, the dense one runs all 500 iterations).
        Xs = sp.random(50, 8, density=0.4, format="csr", random_state=3)
        Xt = sp.random(30, 8, density=0.4, format="csr", random_state=4)
        sparse = proxy_a_scores(Xs, Xt, seed=2)
        dense = proxy_a_scores(Xs.toarray(), Xt.toarray(), seed=2)
        names = [f"s{i:02d}" for i in range(50)]
        assert _rank(sparse, HIGHER, names) == _rank(dense, HIGHER, names)
        assert np.max(np.abs(sparse - dense)) <= 1e-7
        assert not np.array_equal(sparse, proxy_a_scores(Xs, Xt, seed=3))

    @pytest.mark.parametrize("score", [proxy_a_scores])
    def test_non_finite_sparse_values_rejected(self, score):
        Xs = sp.random(20, 6, density=0.5, format="csr", random_state=5)
        Xt = sp.random(20, 6, density=0.5, format="csr", random_state=6)
        Xs.data[3] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            score(Xs, Xt, seed=0)

    def test_memory_grows_with_nonzeros(self):
        # Dense, this pool is 2,000 x 20,000 float64 = 320 MB; as CSR it is
        # under 1 MB, and nothing in the fit or the scoring may densify it.
        cols = 20_000
        source = sp.random(2000, cols, density=40 / cols, format="csr", random_state=7)
        target = sp.random(200, cols, density=40 / cols, format="csr", random_state=8)
        csr_bytes = sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in (source, target)
        )
        tracemalloc.start()
        try:
            scores = proxy_a_scores(source, target, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (2000,) and np.isfinite(scores).all()
        assert peak < 2 * csr_bytes
