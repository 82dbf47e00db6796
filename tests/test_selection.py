import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dataselect import autoencoder, evaluation, representations, selection, synthetic
from dataselect.cli import substream_seed
from dataselect.corpus import Document, build_vocabulary, tokenize_corpus
from dataselect.errors import ConfigError, DataError
from dataselect.representations import TermDistribution, pool_groups
from dataselect.selection import (
    SelectionConfig,
    select_balanced,
    select_domain_level,
    select_instance_level,
    select_random,
    subset_select,
)
from dataselect.similarity import cosine_to_target, js_divergence, js_to_target


def make_pool(n, domains=("src",), prefix="p"):
    return [
        Document(id=f"{prefix}{i:04d}", text="x", domain=domains[i % len(domains)], label=None)
        for i in range(n)
    ]


def ids_domains(docs):
    """The pool-aligned ``(ids, domains)`` that the strategies read, of ``docs``."""
    return [doc.id for doc in docs], [doc.domain for doc in docs]


def pool_ids(n):
    """The ids of ``make_pool(n)``."""
    return ids_domains(make_pool(n))[0]


def random_counts(n, size, seed, zero_rows=()):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 4, size=(n, size)).astype(float)
    rows[rng.random((n, size)) < 0.5] = 0
    for i in range(n):  # every non-designated row keeps at least one token
        if i not in zero_rows and rows[i].sum() == 0:
            rows[i, rng.integers(size)] = 1
    for i in zero_rows:
        rows[i] = 0
    return rows


def target_dist(size, seed=99):
    rng = np.random.default_rng(seed)
    raw = rng.random(size) + 0.05
    return TermDistribution(probs=raw / raw.sum())


def every_row(rows):
    """Pool rows of a matrix that holds the pool alone, in pool order."""
    return np.arange(rows.shape[0])


def scored(rows, target, metric):
    """Item scores of ``rows``, as the experiment context computes them."""
    return selection.row_scorer(target, metric)(rows)


def score_every(rows, pool_index, candidates, target, metric, item_scores=None):
    """Every candidate's score: the round function of an s = 1 search, which
    builds no bound and scores every candidate of any width."""
    return selection._round_scorer(rows, pool_index, item_scores, target, metric, 1)(candidates)


def rescoring_truncation(members, rows, ids, target, metric, room):
    """Final-round truncation as it was before item scores were passed in:
    the winner's rows are scored again, NaN ranks last, ties break on id."""
    picked = rows[members]
    if metric == "jensen_shannon":
        scores = js_to_target(picked, target)
        key = scores
    else:
        scores = cosine_to_target(picked, target)
        key = -scores
    key = np.where(np.isnan(key), np.inf, key)
    ranked = sorted(range(len(members)), key=lambda j: (key[j], ids[int(members[j])]))
    return members[ranked[:room]]


def js_scores(reprs, target):
    return {d: js_divergence(rep, target).value for d, rep in reprs.items()}


EMPTY_TARGET = TermDistribution(probs=np.zeros(4))


class TestScoreRows:
    @pytest.mark.parametrize("sparse_rows", [False, True])
    @pytest.mark.parametrize(
        "metric, target, message",
        [
            ("jensen_shannon", EMPTY_TARGET, "target distribution is empty"),
            ("cosine", EMPTY_TARGET, "target vector is all zeros"),
            ("cosine", np.zeros(4), "target vector is all zeros"),
        ],
        ids=["js", "cosine-term_dist", "cosine-vector"],
    )
    def test_target_without_mass_is_rejected(self, metric, target, message, sparse_rows):
        rows = sp.csr_matrix(np.eye(4)) if sparse_rows else np.eye(4)
        with pytest.raises(DataError, match=message):
            selection.row_scorer(target, metric)(rows)

    @pytest.mark.parametrize("sparse_rows", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cosine_target_is_rejected(self, bad, sparse_rows):
        """Cosine against a NaN target would score every row 0.0."""
        rows = sp.csr_matrix(np.eye(4)) if sparse_rows else np.eye(4)
        with pytest.raises(DataError, match="not finite"):
            selection.row_scorer(np.array([bad, 1.0, 0.0, 0.0]), "cosine")(rows)

    def test_metric_without_a_target_aggregate_is_unknown(self):
        """Proxy-A reads the target's rows, so it has no row scorer."""
        with pytest.raises(ConfigError, match="^unknown metric 'proxy_a'$"):
            selection.row_scorer(target_dist(4), "proxy_a")

    def test_cosine_target_with_overflowing_squares_is_rejected(self):
        """Finite components near 1e200 square past float64's range, which
        would score every row NaN or 0; the RuntimeWarning filter turns a
        warning on the way into an error."""
        with pytest.raises(DataError, match="target vector has a squared norm that is not finite"):
            selection.row_scorer(np.array([1e200, 0.0, -1e200, 0.0]), "cosine")


class TestCheckPool:
    def test_empty_pool_is_rejected(self):
        with pytest.raises(DataError, match="^selection pool is empty$"):
            selection._check_pool([])

    def test_misaligned_sequence_is_named(self):
        with pytest.raises(DataError, match="^2 scores for 3 pool documents$"):
            selection._check_pool(pool_ids(3), domains=["a"] * 3, scores=np.zeros(2))


class TestSelectRandom:
    def test_exhausts_small_pool(self):
        ids = pool_ids(5)
        result = select_random(ids, 5, seed=0)
        assert sorted(result.chosen) == sorted(ids)
        assert len(result.chosen) == 5

    def test_deterministic(self):
        ids = pool_ids(50)
        a = select_random(ids, 10, seed=7)
        b = select_random(ids, 10, seed=7)
        assert a.chosen == b.chosen

    def test_shortfall_recorded(self):
        result = select_random(pool_ids(3), 10, seed=0)
        assert len(result.chosen) == 3

    def test_overlap_matches_hypergeometric_expectation(self):
        ids = pool_ids(10_000)
        a = set(select_random(ids, 2000, seed=1).chosen)
        b = set(select_random(ids, 2000, seed=2).chosen)
        overlap = len(a & b) / 2000
        assert abs(overlap - 0.2) < 0.03

    def test_no_duplicates(self):
        result = select_random(pool_ids(100), 40, seed=3)
        assert len(set(result.chosen)) == 40


class TestSelectBalanced:
    def test_even_split(self):
        ids, domains = ids_domains(make_pool(400, domains=("a", "b", "c", "d")))
        result = select_balanced(ids, domains, 40, seed=0)
        by_domain = {}
        domain_of = dict(zip(ids, domains))
        for doc_id in result.chosen:
            by_domain[domain_of[doc_id]] = by_domain.get(domain_of[doc_id], 0) + 1
        assert by_domain == {"a": 10, "b": 10, "c": 10, "d": 10}

    def test_remainder_goes_to_lexicographically_first(self):
        ids, domains = ids_domains(make_pool(300, domains=("c", "a", "b")))
        result = select_balanced(ids, domains, 10, seed=0)
        domain_of = dict(zip(ids, domains))
        counts = {}
        for doc_id in result.chosen:
            counts[domain_of[doc_id]] = counts.get(domain_of[doc_id], 0) + 1
        assert counts == {"a": 4, "b": 3, "c": 3}

    def test_shortfall_redistribution(self):
        ids, domains = ids_domains(
            make_pool(3, domains=("aa",), prefix="a") + make_pool(50, domains=("bb",), prefix="b")
        )
        result = select_balanced(ids, domains, 10, seed=0)
        domain_of = dict(zip(ids, domains))
        counts = {}
        for doc_id in result.chosen:
            counts[domain_of[doc_id]] = counts.get(domain_of[doc_id], 0) + 1
        assert counts == {"aa": 3, "bb": 7}

    def test_deterministic(self):
        pool = ids_domains(make_pool(60, domains=("a", "b")))
        first = select_balanced(*pool, 11, seed=5)
        assert first.chosen == select_balanced(*pool, 11, seed=5).chosen


class TestQuotaAllocation:
    @given(
        st.dictionaries(
            st.text("abcdef", min_size=1, max_size=3), st.integers(1, 40), min_size=1, max_size=8
        ),
        st.integers(1, 200),
    )
    def test_balanced_quotas(self, available, n):
        alloc = selection._quota_allocation(available, n)
        assert sorted(alloc) == sorted(available)
        assert sum(alloc.values()) == min(n, sum(available.values()))
        assert all(alloc[d] <= available[d] for d in available)
        uncapped = [alloc[d] for d in sorted(available) if alloc[d] < available[d]]
        if uncapped:
            assert max(uncapped) - min(uncapped) <= 1
            assert uncapped == sorted(uncapped, reverse=True)  # extras go first


class TestSelectDomainLevel:
    def test_zero_divergence_domain_wins(self):
        size = 8
        target = target_dist(size)
        ids, domains = ids_domains(make_pool(20, domains=("near", "off")))
        far = TermDistribution(probs=np.ones(size) / size)
        reprs = {"near": TermDistribution(probs=target.probs.copy()), "off": far}
        result = select_domain_level(
            ids, domains, js_scores(reprs, target), "jensen_shannon", 5, seed=0
        )
        assert result.chosen_domain == "near"
        assert all(doc_id.startswith("p") for doc_id in result.chosen)
        domain_of = dict(zip(ids, domains))
        assert {domain_of[i] for i in result.chosen} == {"near"}

    def test_equal_scores_break_lexicographically(self):
        size = 4
        target = target_dist(size)
        same = TermDistribution(probs=target.probs.copy())
        pool = ids_domains(make_pool(10, domains=("zeta", "beta")))
        result = select_domain_level(
            *pool, js_scores({"zeta": same, "beta": same}, target), "jensen_shannon", 3, seed=1
        )
        assert result.chosen_domain == "beta"

    def test_graded_distances_pick_nearest(self):
        size = 16
        rng = np.random.default_rng(5)
        base = rng.random(size) + 0.2
        target = TermDistribution(probs=base / base.sum())

        def perturbed(eps, seed):
            noise = np.random.default_rng(seed).random(size) * eps + 1e-9
            mixed = target.probs + noise
            return TermDistribution(probs=mixed / mixed.sum())

        reprs = {"far": perturbed(3.0, 1), "mid": perturbed(0.8, 2), "close": perturbed(0.1, 3)}
        ordered = sorted(reprs, key=lambda d: js_divergence(reprs[d], target).value)
        assert ordered[0] == "close"  # generator-controlled distances
        pool = ids_domains(make_pool(30, domains=("far", "mid", "close")))
        result = select_domain_level(
            *pool, js_scores(reprs, target), "jensen_shannon", 5, seed=0
        )
        assert result.chosen_domain == "close"

    def test_no_spill_into_runner_up(self):
        size = 4
        target = target_dist(size)
        near, far = make_pool(1, ("near",), prefix="n"), make_pool(10, ("far",), prefix="f")
        pool = ids_domains(near + far)
        reprs = {
            "near": TermDistribution(probs=target.probs.copy()),
            "far": TermDistribution(probs=np.ones(size) / size),
        }
        result = select_domain_level(
            *pool, js_scores(reprs, target), "jensen_shannon", 5, seed=0
        )
        assert result.chosen == ["n0000"]

    def test_domain_without_pool_documents_skipped(self):
        pool = ids_domains(make_pool(10, domains=("far",)))
        scores = {"near": 0.1, "far": 0.4}
        result = select_domain_level(*pool, scores, "jensen_shannon", 3, seed=0)
        assert result.chosen_domain == "far"
        assert result.domain_scores == scores

    def test_proxy_a_is_rejected(self):
        with pytest.raises(ConfigError, match="proxy_a"):
            SelectionConfig(n=2, strategy="domain", metric="proxy_a")

    def test_empty_domains_skipped(self):
        pool = ids_domains(make_pool(10, domains=("empty", "full")))
        scores = {"empty": float("nan"), "full": 0.4}
        result = select_domain_level(*pool, scores, "jensen_shannon", 3, seed=0)
        assert result.chosen_domain == "full"
        assert result.domain_scores == {"full": 0.4}
        with pytest.raises(DataError, match="usable"):
            select_domain_level(*pool, {"empty": float("nan")}, "jensen_shannon", 3, seed=0)


class TestSelectInstanceLevel:
    def test_exact_copy_ranks_first_under_cosine(self):
        rng = np.random.default_rng(8)
        rows = rng.random((20, 6))
        target_vec = rng.random(6)
        rows[13] = 2.0 * target_vec  # scaled copy: cosine similarity exactly 1
        ids = pool_ids(20)
        result = select_instance_level(ids, scored(rows, target_vec, "cosine"), "cosine", 5)
        assert result.chosen[0] == ids[13]
        assert result.item_scores[ids[13]] == pytest.approx(1.0, abs=1e-12)

    def test_n_at_least_pool_returns_everything_sorted(self):
        size = 10
        rows = random_counts(12, size, seed=3)
        target = target_dist(size)
        ids = pool_ids(12)
        result = select_instance_level(
            ids, scored(rows, target, "jensen_shannon"), "jensen_shannon", 50
        )
        assert len(result.chosen) == 12
        scores = js_to_target(rows, target)
        by_id = {ids[i]: scores[i] for i in range(12)}
        values = [by_id[doc_id] for doc_id in result.chosen]
        assert values == sorted(values)

    def test_matches_exhaustive_score_then_sort_oracle(self):
        size = 12
        rows = random_counts(50, size, seed=4, zero_rows=(7, 31))
        target = target_dist(size)
        ids = pool_ids(50)
        result = select_instance_level(
            ids, scored(rows, target, "jensen_shannon"), "jensen_shannon", 20
        )

        oracle = []
        for i in range(50):
            total = rows[i].sum()
            if total == 0:
                continue  # empty instances are excluded from the ranking
            score = js_divergence(rows[i] / total, target.probs).value
            oracle.append((score, ids[i]))
        oracle.sort()
        assert result.chosen == [doc_id for _, doc_id in oracle[:20]]

    def test_empty_instances_excluded(self):
        size = 6
        rows = random_counts(5, size, seed=5, zero_rows=(0, 1, 2))
        result = select_instance_level(
            pool_ids(5), scored(rows, target_dist(size), "jensen_shannon"), "jensen_shannon", 5
        )
        assert len(result.chosen) == 2


class TestSubsetSelect:
    def test_single_round_is_best_of_m(self):
        size = 10
        rows = random_counts(60, size, seed=6)
        target = target_dist(size)
        ids = pool_ids(60)
        s = n = 10
        m = 5
        seed = 42
        result = subset_select(
            s, n, m, ids, target, rows, every_row(rows),
            scored(rows, target, "jensen_shannon"), "jensen_shannon", seed,
        )
        assert len(result.iteration_members) == 1

        # replay the documented draw order and score the candidates directly
        from dataselect.selection import _draw_subsets

        rng = np.random.default_rng(seed)
        candidates = _draw_subsets(rng, 60, s, m)
        best_score = None
        best_ids = None
        for cand in candidates:
            pooled = rows[cand].sum(axis=0)
            score = js_divergence(pooled / pooled.sum(), target.probs).value
            if best_score is None or score < best_score:
                best_score = score
                best_ids = sorted(ids[i] for i in cand)
        assert sorted(result.chosen) == best_ids
        assert result.subset_scores[0] == pytest.approx(best_score, abs=1e-12)

    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    @pytest.mark.parametrize("sparse_rows", [False, True])
    def test_singleton_exhaustive_equals_instance_level(self, metric, sparse_rows):
        import scipy.sparse as sp

        size = 14
        for seed in range(3):
            rows = random_counts(80, size, seed=seed, zero_rows=(4, 5))
            if sparse_rows:
                rows = sp.csr_matrix(rows)
            target = target_dist(size)
            ids = pool_ids(80)
            scores = scored(rows, target, metric)
            instance = select_instance_level(ids, scores, metric, 30)
            subset = subset_select(
                1, 30, 200, ids, target, rows, every_row(rows), scores, metric, seed=seed,
            )
            assert set(subset.chosen) == set(instance.chosen)

    @given(st.data())
    def test_singleton_exhaustive_equals_instance_ranking_property(self, data):
        metric = data.draw(st.sampled_from(["jensen_shannon", "cosine"]), label="metric")
        n_pool, d = data.draw(st.integers(1, 14)), data.draw(st.integers(1, 6))
        # few distinct values, so rows tie often and ids must break the ties
        value = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0])
        if metric == "cosine":
            value = value | st.sampled_from([-1.0, -2.5, 0.5])
        rows = data.draw(arrays(np.float64, (n_pool, d), elements=value), label="rows")
        if metric == "jensen_shannon":
            raw = data.draw(
                arrays(np.float64, d, elements=value).filter(lambda v: v.sum() > 0),
                label="target",
            )
            target = TermDistribution(probs=raw / raw.sum())
        else:
            target = data.draw(
                arrays(np.float64, d, elements=value).filter(lambda v: v.any()), label="target"
            )
        if data.draw(st.booleans(), label="sparse"):
            rows = sp.csr_matrix(rows)
        ids = [f"p{i:02d}" for i in data.draw(st.permutations(range(n_pool)), label="ids")]
        n = data.draw(st.integers(1, n_pool + 2), label="n")
        m = data.draw(st.integers(n_pool, n_pool + 3), label="m")
        scores = scored(rows, target, metric)
        instance = select_instance_level(ids, scores, metric, n)
        subset = subset_select(
            1, n, m, ids, target, rows, every_row(rows), scores, metric, seed=0,
        )
        assert subset.chosen == instance.chosen
        assert len(subset.chosen) == len(instance.chosen)
        assert subset.subset_scores == [instance.item_scores[i] for i in instance.chosen]

    def test_singleton_tie_breaks_like_instance_ranking(self):
        # Mirror-image rows against a symmetric target tie exactly; JS summed
        # over the aggregate's reversed columns broke the tie toward p1.
        rows = sp.csr_matrix([[6.0, 2.0, 1.0, 7.0, 1.0], [1.0, 7.0, 1.0, 2.0, 6.0]])
        target = TermDistribution(probs=np.array([0.3, 0.1, 0.2, 0.1, 0.3]))
        ids = pool_ids(2)
        scores = scored(rows, target, "jensen_shannon")
        instance = select_instance_level(ids, scores, "jensen_shannon", 1)
        subset = subset_select(
            1, 1, 2, ids, target, rows, every_row(rows), scores, "jensen_shannon", seed=0,
        )
        assert instance.chosen == ["p0000"]
        assert subset.chosen == instance.chosen
        assert subset.subset_scores == [instance.item_scores["p0000"]]

    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    @pytest.mark.parametrize("m", [30, 60], ids=["after-ten-draws", "from-the-first-round"])
    def test_exhaustive_singleton_rounds_rank_the_pool_once(self, monkeypatch, metric, m):
        """Each exhaustive s=1 round takes the best-ranked document left, so
        the pool left is ranked once, not once per round. The two empty
        documents score NaN under either metric and are never drawn: the
        search takes the other 38, and at m = 30 turns exhaustive after eight
        draws, not ten."""
        rows = random_counts(40, 8, seed=5, zero_rows=(3, 17))
        target = target_dist(8) if metric == "jensen_shannon" else target_dist(8).probs
        args = (1, 40, m, pool_ids(40), target, rows, every_row(rows),
                scored(rows, target, metric), metric, 2)
        want = exhaustive_subset_select(*args)
        calls = []
        rank = selection._rank
        monkeypatch.setattr(selection, "_rank", lambda *a: calls.append(a) or rank(*a))
        got = subset_select(*args)
        assert len(calls) == 1
        assert (got.chosen, got.subset_scores, got.iteration_members) == want
        assert len(got.chosen) == 38

    def test_iterations_are_pairwise_disjoint(self):
        size = 12
        rows = random_counts(100, size, seed=7)
        target = target_dist(size)
        scores = scored(rows, target, "jensen_shannon")
        result = subset_select(
            7, 20, 30, pool_ids(100), target, rows, every_row(rows), scores, "jensen_shannon",
            seed=3,
        )
        seen = set()
        for members in result.iteration_members:
            assert not (set(members) & seen)
            seen.update(members)

    def test_exact_n_with_truncated_final_round(self):
        size = 12
        rows = random_counts(100, size, seed=8)
        target = target_dist(size)
        scores = scored(rows, target, "jensen_shannon")
        result = subset_select(
            7, 20, 30, pool_ids(100), target, rows, every_row(rows), scores, "jensen_shannon",
            seed=4,
        )
        assert len(result.chosen) == 20
        assert len(set(result.chosen)) == 20
        assert [len(m) for m in result.iteration_members] == [7, 7, 6]

    def test_deterministic(self):
        size = 9
        rows = random_counts(50, size, seed=9)
        target = target_dist(size)
        ids = pool_ids(50)
        scores = scored(rows, target, "jensen_shannon")
        a = subset_select(
            5, 15, 20, ids, target, rows, every_row(rows), scores, "jensen_shannon", seed=11,
        )
        b = subset_select(
            5, 15, 20, ids, target, rows, every_row(rows), scores, "jensen_shannon", seed=11,
        )
        assert a.chosen == b.chosen
        assert a.subset_scores == b.subset_scores

    def test_proxy_a_needs_explicit_flag(self):
        # proxy_a scores examples, not subsets, and no flag turns a proxy-A
        # subset search back on
        with pytest.raises(ConfigError, match="proxy_a is only defined per example"):
            SelectionConfig(n=4, strategy="subset", metric="proxy_a")
        with pytest.raises(TypeError, match="allow_proxy_a_subsets"):
            SelectionConfig(n=4, strategy="subset", metric="proxy_a", allow_proxy_a_subsets=True)

    @pytest.mark.parametrize("s", [1, 20])
    def test_proxy_a_search_is_rejected_at_every_size(self, monkeypatch, s):
        # SelectionConfig's error at every s, the singleton s=1 search
        # included, raised before the helper thread starts
        def no_helper(*args, **kwargs):
            raise AssertionError("the search started its helper thread")

        monkeypatch.setattr(selection, "ThreadPoolExecutor", no_helper)
        rows = random_counts(10, 6, seed=3)
        with pytest.raises(ConfigError, match="proxy_a is only defined per example"):
            subset_select(s, 4, 20, pool_ids(10), target_dist(6), rows, every_row(rows),
                          np.linspace(0.0, 1.0, 10), "proxy_a", seed=0)
        with pytest.raises(ConfigError, match="s >= 1"):
            subset_select(0, 4, 20, pool_ids(10), target_dist(6), rows, every_row(rows),
                          np.linspace(0.0, 1.0, 10), "jensen_shannon", seed=0)

    @given(st.data())
    def test_truncation_matches_rescoring_copy(self, data):
        """One round (m=1) whose winner holds more members than ``n``: it is
        truncated by the given item scores exactly as the old code did by
        re-scoring the winner's rows. Under either metric the round draws from
        the non-empty documents alone, as their item scores are not NaN."""
        metric = data.draw(st.sampled_from(["jensen_shannon", "cosine"]), label="metric")
        n_pool, d = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 5))
        # zero rows are empty members; few distinct values make ties
        value = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        rows = data.draw(arrays(np.float64, (n_pool, d), elements=value), label="rows")
        raw = data.draw(
            arrays(np.float64, d, elements=value).filter(lambda v: v.sum() > 0), label="target"
        )
        target = TermDistribution(probs=raw / raw.sum())
        if metric == "cosine":
            target = raw
        if data.draw(st.booleans(), label="sparse"):
            rows = sp.csr_matrix(rows)
        ids = [f"p{i:02d}" for i in data.draw(st.permutations(range(n_pool)), label="ids")]
        s = data.draw(st.integers(2, n_pool), label="s")
        room = data.draw(st.integers(1, s - 1), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")

        item_scores = scored(rows, target, metric)
        result = subset_select(
            s, room, 1, ids, target, rows, every_row(rows), item_scores, metric, seed,
        )
        available = np.flatnonzero(~np.isnan(item_scores))
        assert len(available) == np.count_nonzero(rows.sum(axis=1))  # zero rows are NaN
        size = min(s, len(available))
        if not size:  # every document is empty
            assert result.chosen == []
            return
        (drawn,) = selection._draw_subsets(np.random.default_rng(seed), len(available), size, 1)
        members = available[drawn]
        if size > room:
            members = rescoring_truncation(members, rows, ids, target, metric, room)
        assert result.chosen == [ids[i] for i in members]

    @given(st.data())
    def test_nan_scored_documents_are_never_chosen(self, data):
        """Under either metric, empty documents score NaN. A search over a
        pool of them and others picks none of them and stops short of ``n``
        only when the others are spent, whatever the share of empty
        documents, s and m."""
        metric = data.draw(st.sampled_from(["jensen_shannon", "cosine"]), label="metric")
        n_pool = data.draw(st.integers(1, 40), label="n_pool")
        empty = data.draw(st.sets(st.integers(0, n_pool - 1)), label="empty")
        rows = random_counts(n_pool, 6, seed=data.draw(st.integers(0, 99)), zero_rows=empty)
        if data.draw(st.booleans(), label="sparse"):
            rows = sp.csr_matrix(rows)
        s, m = data.draw(st.integers(1, 8), label="s"), data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, n_pool + 2), label="n")
        ids = pool_ids(n_pool)
        target = target_dist(6) if metric == "jensen_shannon" else target_dist(6).probs
        item_scores = scored(rows, target, metric)
        result = subset_select(s, n, m, ids, target, rows, every_row(rows), item_scores,
                               metric, data.draw(st.integers(0, 2**16), label="seed"))
        chosen = [ids.index(doc_id) for doc_id in result.chosen]
        assert not np.isnan(item_scores[chosen]).any()
        assert len(chosen) == min(n, n_pool - len(empty))
        assert np.isfinite(result.subset_scores).all()

    def test_pool_smaller_than_n(self):
        size = 6
        rows = random_counts(8, size, seed=10)
        target = target_dist(size)
        result = subset_select(
            3, 20, 10, pool_ids(8), target, rows, every_row(rows),
            scored(rows, target, "jensen_shannon"), "jensen_shannon", 0,
        )
        assert len(result.chosen) == 8

    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    def test_drained_pool_scores_its_one_candidate_once(self, monkeypatch, metric):
        """The round that takes the whole remaining pool scores that one
        candidate once and ends as the search did when it scored m copies.
        The empty document 4 scores NaN and is never drawn, so that round
        holds 4."""
        rows = random_counts(45, 8, seed=21, zero_rows=(4,))
        target = target_dist(8) if metric == "jensen_shannon" else target_dist(8).probs
        args = (20, 60, 300, pool_ids(45), target, rows, every_row(rows),
                scored(rows, target, metric), metric, 5)
        draw = selection._draw_subsets

        def tiled_draw(rng, n_avail, size, m):  # m copies of the whole pool
            if size >= n_avail:
                return np.tile(np.arange(n_avail), (m, 1))
            return draw(rng, n_avail, size, m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_draw_subsets", tiled_draw)
            want = exhaustive_subset_select(*args)
        shapes = []
        round_scores = selection._round_scores

        def recording_round_scores(*round_args):
            shapes.append(round_args[0].shape)
            return round_scores(*round_args)

        monkeypatch.setattr(selection, "_round_scores", recording_round_scores)
        got = subset_select(*args)
        assert (got.chosen, got.subset_scores, got.iteration_members) == want
        assert shapes == [(300, 20), (300, 20), (1, 4)]
        assert len(got.chosen) == 44


def candidate_case(sparse_rows):
    """90 pool rows, the first 10 empty; 600 candidates of 5 drawn from the whole
    pool, then 9 drawn from the empty rows only."""
    rows = random_counts(90, 16, seed=12, zero_rows=range(10))
    rng = np.random.default_rng(13)
    candidates = np.vstack(
        [rng.permuted(np.tile(np.arange(90), (600, 1)), axis=1)[:, :5],
         rng.permuted(np.tile(np.arange(10), (9, 1)), axis=1)[:, :5]]
    )
    return (sp.csr_matrix(rows) if sparse_rows else rows), candidates, target_dist(16)


class TestCandidateScores:
    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    @pytest.mark.parametrize("sparse_rows", [False, True])
    def test_batch_size_changes_no_score(self, monkeypatch, metric, sparse_rows):
        """The block size changes no bit of any score."""
        rows, candidates, target = candidate_case(sparse_rows)
        results = []
        for block in (2, 3, 7, 256):
            monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", block)
            results.append(score_every(rows, every_row(rows), candidates, target, metric))
        indptr = np.arange(0, candidates.size + 1, candidates.shape[1])
        whole = selection.row_scorer(target, metric)(
            pool_groups(rows, candidates.ravel(), indptr)
        )
        assert np.isnan(whole[-9:]).all()  # aggregates of empty rows only
        for scores in results:
            assert np.array_equal(scores, whole, equal_nan=True)

    def test_dense_aggregate_is_member_mean(self, monkeypatch):
        rows, candidates, target = candidate_case(sparse_rows=False)
        rows = rows + np.random.default_rng(14).random(rows.shape) / 3  # inexact sums
        kernel = selection.cosine_to_target
        aggregates = []

        def record(agg, target):
            aggregates.append(agg)
            return kernel(agg, target)

        monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(selection, "cosine_to_target", record)
        scores = score_every(rows, every_row(rows), candidates, target.probs, "cosine")
        oracle = rows[candidates].mean(axis=1)
        assert np.array_equal(np.vstack(aggregates), oracle)
        assert np.array_equal(scores, cosine_to_target(oracle, target.probs))


def thread_search_args(metric):
    """An s=20 search on sparse count rows, bounded under either metric, with
    rounds that score more than one 7-row block."""
    # at 16 columns the cosine bound's 16 directions span all of them, and the
    # exact bound leaves one block a round to score
    rows = sp.csr_matrix(random_counts(300, 64, seed=15, zero_rows=range(5)))
    target = target_dist(64)
    target_repr = target if metric == "jensen_shannon" else target.probs
    return (20, 60, 200, pool_ids(300), target_repr, rows, every_row(rows),
            scored(rows, target_repr, metric), metric, 0)


def record_submissions(monkeypatch):
    """Patch the search's executor to record the function and arguments of
    every call submitted to it, whether or not the call gets to run."""
    submitted = []

    class RecordingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append((fn, args))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(selection, "ThreadPoolExecutor", RecordingExecutor)
    return submitted


class TestDrawPrefetch:
    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    def test_only_the_draw_leaves_the_calling_thread(self, monkeypatch, metric):
        """Every scoring call runs on the calling thread, as perfbench's span
        recorder, which keeps one span stack, needs; the helper runs
        ``_draw_subsets`` alone and has ended when the search returns."""
        args = thread_search_args(metric)
        want = exhaustive_subset_select(*args)
        threads = {}

        def recorded(name):
            inner = getattr(selection, name)

            def call(*call_args):
                threads.setdefault(name, set()).add(threading.get_ident())
                return inner(*call_args)

            monkeypatch.setattr(selection, name, call)
            return call

        for name in ("_pooled", "js_to_target", "cosine_to_target"):
            recorded(name)
        draw = recorded("_draw_subsets")
        round_scores, scored_per_round = selection._round_scores, []

        def counting_round_scores(*round_args):
            scores = round_scores(*round_args)
            scored_per_round.append(np.count_nonzero(~np.isnan(scores)))
            return scores

        monkeypatch.setattr(selection, "_round_scores", counting_round_scores)
        submitted = record_submissions(monkeypatch)
        monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", 7)
        before = threading.active_count()
        got = subset_select(*args)
        assert threading.active_count() == before
        assert (got.chosen, got.subset_scores, got.iteration_members) == want
        caller = threading.get_ident()
        scorer = "js_to_target" if metric == "jensen_shannon" else "cosine_to_target"
        assert threads["_pooled"] == threads[scorer] == {caller}
        assert caller not in threads["_draw_subsets"]
        assert [fn for fn, _ in submitted] == [draw] * len(got.iteration_members)
        # the bound leaves candidates unscored, and some round still scores
        # more than one block
        assert min(scored_per_round) < 200 and max(scored_per_round) > 7

    @pytest.mark.parametrize("failing_call", [1, 3])
    def test_helper_error_propagates_and_its_thread_ends(self, monkeypatch, failing_call):
        args = thread_search_args("jensen_shannon")
        draw = selection._draw_subsets
        calls = []

        def failing_draw(*draw_args):
            calls.append(threading.get_ident())
            if len(calls) == failing_call:
                raise RuntimeError("draw failed")
            return draw(*draw_args)

        monkeypatch.setattr(selection, "_draw_subsets", failing_draw)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            subset_select(*args)
        assert threading.active_count() == before
        assert len(calls) == failing_call and threading.get_ident() not in calls

    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    @pytest.mark.parametrize(
        "s, n, m, n_pool",
        [
            (20, 50, 200, 300),  # the third round is truncated to 10 members
            (20, 60, 300, 45),  # the pool drains after rounds of 20, 20 and 5
            (7, 40, 30, 40),  # the pool drains on a truncated round
            (1, 35, 30, 40),  # s=1 draws ten rounds, then ranks the last 30
            (1, 12, 50, 40),  # s=1 exhaustive from the first round
        ],
    )
    def test_prefetched_search_equals_serial_loop(self, s, n, m, n_pool, metric):
        rows = random_counts(n_pool, 8, seed=n_pool + s, zero_rows=(4,))
        target = target_dist(8) if metric == "jensen_shannon" else target_dist(8).probs
        args = (s, n, m, pool_ids(n_pool), target, rows, every_row(rows),
                scored(rows, target, metric), metric, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch between the two threads often
        try:
            got = subset_select(*args)
        finally:
            sys.setswitchinterval(interval)
        assert (got.chosen, got.subset_scores, got.iteration_members) == (
            exhaustive_subset_select(*args)
        )

    def test_concurrent_searches_equal_their_serial_results(self, monkeypatch):
        """A JS search (s=20) and a dense cosine search (s=5) run on two
        threads at once, from an empty ones buffer that both grow and pool
        from, and each equals its serial result."""
        js_args = thread_search_args("jensen_shannon")
        rows = np.random.default_rng(29).standard_normal((400, 12)) + 0.5
        target = rows[:40].mean(axis=0)
        cosine_args = (5, 60, 500, pool_ids(400), target, rows, every_row(rows),
                       scored(rows, target, "cosine"), "cosine", 1)

        def search(args):
            got = subset_select(*args)
            return got.chosen, got.subset_scores, got.iteration_members

        serial = [search(js_args), search(cosine_args)]
        monkeypatch.setattr(representations, "_ONES", representations._ONES[:0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch between the threads often
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                concurrent = list(pool.map(search, [js_args, cosine_args], timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial

    def test_search_running_out_of_scorable_documents_returns_all_of_them(
        self, monkeypatch
    ):
        """A JS search over 10 documents with tokens and 50 empty ones draws
        from the 10 alone: two rounds of 5 take all of them, no draw is left
        pending, and no helper thread outlives the call."""
        rows = random_counts(60, 8, seed=16, zero_rows=range(10, 60))
        target = target_dist(8)
        args = (5, 60, 40, pool_ids(60), target, rows, every_row(rows),
                scored(rows, target, "jensen_shannon"), "jensen_shannon", 4)
        want = exhaustive_subset_select(*args)
        submitted = record_submissions(monkeypatch)
        before = threading.active_count()
        got = subset_select(*args)
        assert threading.active_count() == before
        assert (got.chosen, got.subset_scores, got.iteration_members) == want
        assert sorted(got.chosen) == pool_ids(10)
        assert [call[1:] for _, call in submitted] == [(10, 5, 40), (5, 5, 40)]


def exhaustive_subset_select(s, n, m, ids, target_repr, matrix, pool_index, item_scores,
                             metric, seed):
    """The subset search with every candidate of every round scored: the loop
    of ``subset_select`` before rounds were bounded. Returns the chosen ids,
    the round scores and each round's members."""
    orientation = selection.METRIC_ORIENTATION[metric]
    rng = np.random.default_rng(seed)
    available = np.flatnonzero(~np.isnan(item_scores))  # NaN items are never drawn
    chosen, iteration_members, subset_scores = [], [], []
    if len(available):
        score = selection._round_scorer(matrix, pool_index, item_scores, target_repr, metric, 1)
    while len(chosen) < n and len(available):
        if s == 1 and m >= len(available):
            names = [ids[i] for i in available]
            in_avail = np.array(selection._rank(item_scores[available], orientation, names))
            in_avail = in_avail[:, None]
        else:
            in_avail = selection._draw_subsets(rng, len(available), min(s, len(available)), m)
        candidates = available[in_avail]
        scores = score(candidates)
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


def bound_case(data, metric, s=2):
    """Pool rows with empty rows, duplicate documents and columns only non-pool
    rows use; a target with zeros; at least ``s`` available pool positions.
    The pool holds ``s`` to ``3 s + 6`` documents, over up to 40 columns at
    ``s`` = 20, so candidates cover some columns and miss others; its rows are
    drawn densely or mostly zero, and as an array or CSR. As a search's pool
    does, it holds a document with mass, and the target is one that
    ``row_scorer`` accepts."""
    n_pool = data.draw(st.integers(s, 3 * s + 6), label="n_pool")
    d = data.draw(st.integers(1, 40 if s >= 20 else 6), label="d")
    if metric == "jensen_shannon":
        value = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0])
    else:
        value = st.sampled_from([0.0, 0.0, 1.0, 2.0, -1.0, 0.5, -2.5])
    fill = st.just(0.0) if data.draw(st.booleans(), label="mostly zero") else None
    distinct = data.draw(
        arrays(np.float64, (data.draw(st.integers(1, n_pool)), d), elements=value, fill=fill),
        label="distinct rows",
    )
    copies = data.draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=n_pool, max_size=n_pool),
        label="row of each document",
    )
    rows = distinct[copies]
    if not rows.any():
        rows[0, 0] = 1.0
    if metric == "cosine" and data.draw(st.booleans(), label="anti-aligned"):
        rows = np.abs(rows)
        target = -np.abs(data.draw(arrays(np.float64, d, elements=value), label="target"))
    else:
        extra = data.draw(st.integers(0, 3), label="columns the pool lacks")
        outside = data.draw(arrays(np.float64, (2, d + extra), elements=value), label="outside")
        rows = np.vstack([np.hstack([rows, np.zeros((n_pool, extra))]), outside])
        target = data.draw(arrays(np.float64, d + extra, elements=value), label="target")
    if not target.any():
        target[0] = -1.0
    if metric == "jensen_shannon":
        raw = np.abs(target)
        target = TermDistribution(probs=raw / raw.sum())
    if data.draw(st.booleans(), label="sparse"):
        rows = sp.csr_matrix(rows)
    available = np.array(sorted(data.draw(
        st.lists(st.integers(0, n_pool - 1), min_size=max(s, 2), unique=True), label="available"
    )))
    return rows, np.arange(n_pool), target, available


def tangent_plane_bounds(rows, pool_index, candidates, target):
    """The tangent plane of JS(., q) at P0, the pooled distribution of the
    whole pool, evaluated at each candidate's pooled distribution: the JS
    bound of the subset search before it used the candidates' support."""
    dense = rows.toarray() if sp.issparse(rows) else rows
    pool_rows = dense[pool_index]
    p0 = pool_rows.sum(axis=0)
    p0 = p0 / p0.sum()
    q = target.probs
    g = np.zeros_like(p0)
    g[p0 > 0] = 0.5 * np.log(2 * p0[p0 > 0] / (p0[p0 > 0] + q[p0 > 0]))
    along = (pool_rows @ g)[candidates].sum(axis=1)
    totals = pool_rows.sum(axis=1)[candidates].sum(axis=1)
    with np.errstate(invalid="ignore"):
        return js_divergence(p0, q).value - g @ p0 + along / totals


def p0_support_aware_bounds(rows, pool_index, candidates, target, s):
    """The larger of that plane and the plane with the exact JS term at each
    rare column (pool document frequency times ``s`` below the pool size) a
    candidate misses: the JS bound of the subset search before it took its
    tangents at a point other than P0 on the rare columns."""
    dense = rows.toarray() if sp.issparse(rows) else rows
    pool_rows = dense[pool_index]
    p0 = pool_rows.sum(axis=0)
    p0 = p0 / p0.sum()
    q = target.probs
    d = np.zeros_like(p0)
    d[q > 0] = -0.5 * q[q > 0] * np.log1p(p0[q > 0] / q[q > 0])
    rare = (pool_rows != 0).sum(axis=0) * s < len(pool_index)
    held_rare = ((pool_rows[:, rare] != 0) @ d[rare])[candidates].sum(axis=1)
    plane = tangent_plane_bounds(rows, pool_index, candidates, target)
    return np.maximum(plane, plane - d[rare].sum() + held_rare)


class TestRoundBounds:
    @given(st.data())
    def test_js_lower_bound_never_exceeds_the_score(self, data):
        """The support-aware bound, built from the whole pool, lies below the
        score of every candidate drawn from the documents still available, with
        R the pool's rare columns for s and candidates of s or of any other
        size; it is NaN exactly where the score is, for candidates of empty
        documents only."""
        s = data.draw(st.sampled_from([2, 3, 20]), label="s")
        rows, pool_index, target, available = bound_case(data, "jensen_shannon", s)
        size = data.draw(st.just(s) | st.integers(2, len(available)), label="size")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        candidates = available[selection._draw_subsets(rng, len(available), size, 30)]
        bounds = selection._js_bound(rows, pool_index, s, target)(candidates)
        scores = score_every(rows, pool_index, candidates, target, "jensen_shannon")
        assert np.array_equal(np.isnan(bounds), np.isnan(scores))
        usable = ~np.isnan(scores)
        assert (bounds[usable] <= scores[usable] + 1e-12).all()

    @given(st.data())
    def test_cosine_upper_bound_never_falls_below_the_score(self, data):
        """The bound, built for subsets of ``s`` (at most, equal to or above
        the pool left, as in a search's last rounds), lies above the cosine of
        candidates of ``min(s, pool left)`` or of any other size, on rows
        shifted by a shared offset of up to 10 times their spread, with up to
        d directions. An empty candidate's score is NaN, which any bound holds."""
        rows, pool_index, target, available = bound_case(data, "cosine")
        dense = rows.toarray() if sp.issparse(rows) else rows
        direction = data.draw(
            arrays(np.float64, dense.shape[1], elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0])),
            label="offset direction",
        )
        # no offset, or one whose entries' squares stay above float64's
        # underflow, as cosine requires of the rows a search scores
        scale = data.draw(st.just(0.0) | st.floats(1e-3, 10.0), label="offset over spread")
        dense = dense + scale * (dense.std() or 1.0) * direction
        rows = sp.csr_matrix(dense) if sp.issparse(rows) else dense
        s = data.draw(st.integers(2, len(available) + 3), label="s")
        size = data.draw(
            st.just(min(s, len(available))) | st.integers(2, len(available)), label="size"
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        candidates = available[selection._draw_subsets(rng, len(available), size, 30)]
        directions = data.draw(st.integers(1, max(1, dense.shape[1])), label="directions")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_COSINE_DIRECTIONS", directions)
            bound = selection._cosine_bound(rows, pool_index, s, target)
        scores = score_every(rows, pool_index, candidates, target, "cosine")
        upper = -bound(candidates)  # the bound is on the key, minus the cosine
        usable = ~np.isnan(scores)
        assert (upper[usable] >= scores[usable] - 1e-12).all()

    @given(st.data())
    def test_pruned_search_equals_exhaustive_loop(self, data):
        """Winners, recorded scores and members of the bounded search
        equal the exhaustive loop's, with duplicate documents (exact ties) and
        a truncated final round, for blocks small enough that rounds prune."""
        metric = data.draw(st.sampled_from(["jensen_shannon", "cosine"]), label="metric")
        s = data.draw(st.sampled_from([2, 3, 20]), label="s")
        n_pool, d = data.draw(st.integers(s + 1, 3 * s + 6), label="n_pool"), data.draw(
            st.integers(2, 8), label="d"
        )
        value = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0])
        if metric == "cosine":
            value = value | st.sampled_from([-1.0, 0.5, 1.25])
        distinct = data.draw(
            arrays(np.float64, (data.draw(st.integers(1, n_pool)), d), elements=value),
            label="distinct rows",
        )
        copies = data.draw(
            st.lists(st.integers(0, len(distinct) - 1), min_size=n_pool, max_size=n_pool),
            label="row of each document",
        )
        rows = distinct[copies]
        raw = data.draw(arrays(np.float64, d, elements=value), label="target")
        if not raw.any():  # both metrics reject an all-zero target (see TestScoreRows)
            raw[0] = 1.0
        if metric == "jensen_shannon":
            raw = np.abs(raw)
            target = TermDistribution(probs=raw / raw.sum())
        else:
            target = raw
        if data.draw(st.booleans(), label="sparse"):
            rows = sp.csr_matrix(rows)
        n = data.draw(st.integers(1, n_pool + 3), label="n")
        m = data.draw(st.integers(1, 40), label="m")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        item_scores = scored(rows, target, metric)
        args = (s, n, m, pool_ids(n_pool), target, rows, every_row(rows), item_scores, metric, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(autoencoder, "_BLOCK_ROWS", data.draw(st.integers(1, 4), label="block"))
            got = subset_select(*args)
        want = exhaustive_subset_select(*args)
        assert (got.chosen, got.subset_scores, got.iteration_members) == want

    @pytest.mark.parametrize(
        "metric, dense_rows",
        [("jensen_shannon", False), ("cosine", True), ("cosine", False)],
        ids=["jensen_shannon", "cosine", "cosine-sparse_rows"],
    )
    def test_search_builds_its_bound_once_and_it_holds_every_round(
        self, monkeypatch, metric, dense_rows
    ):
        """A search of several s=20 rounds, on sparse count rows under either
        metric and dense rows under cosine, builds its bound once, and in every
        round each candidate's bound lies below its key."""
        rng = np.random.default_rng(24)
        rows = sp.csr_matrix(
            (np.ones(600 * 6), (np.repeat(np.arange(600), 6), rng.integers(0, 300, 600 * 6))),
            shape=(600, 300),
        )
        target = target_dist(300)
        if dense_rows:
            rows, target = rng.standard_normal((600, 40)), rng.standard_normal(40)
        builder_name = "_js_bound" if metric == "jensen_shannon" else "_cosine_bound"
        builder, builds, rounds = getattr(selection, builder_name), [], []

        def recording_builder(*args):
            builds.append(args)
            bound = builder(*args)

            def recording_bound(candidates):
                rounds.append((candidates, bound(candidates)))
                return rounds[-1][1]

            return recording_bound

        monkeypatch.setattr(selection, builder_name, recording_builder)
        subset_select(20, 100, 1000, pool_ids(600), target, rows, every_row(rows),
                      scored(rows, target, metric), metric, 3)
        assert len(builds) == 1
        assert len(rounds) == 5
        orientation = selection.METRIC_ORIENTATION[metric]
        for candidates, bounds in rounds:
            scores = score_every(rows, every_row(rows), candidates, target, metric)
            key = selection._sort_key(scores, orientation)
            usable = np.isfinite(key)
            assert usable.any()
            assert (bounds[usable] <= key[usable] + 1e-12).all()

    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    def test_round_leaves_candidates_unscored(self, metric):
        rows = random_counts(400, 12, seed=16, zero_rows=range(3))
        target = target_dist(12) if metric == "jensen_shannon" else target_dist(12).probs
        candidates = selection._draw_subsets(np.random.default_rng(17), 400, 5, 4000)
        scores = selection._round_scorer(rows, every_row(rows), None, target, metric, 5)(candidates)
        every = score_every(rows, every_row(rows), candidates, target, metric)
        scored_rows = ~np.isnan(scores)
        assert scored_rows.sum() < len(candidates) // 2
        assert np.array_equal(scores[scored_rows], every[scored_rows])
        orientation = selection.METRIC_ORIENTATION[metric]
        assert np.argmin(selection._sort_key(scores, orientation)) == np.argmin(
            selection._sort_key(every, orientation)
        )

    def test_support_aware_js_round_scores_fewer_than_the_plane(self):
        """On sparse rows over many columns, where a 20-document candidate misses
        most of them, the support-aware bound leaves more candidates unscored
        than the tangent plane at P0 alone, its tangents at points above P0 on
        the rare columns leave more than its tangents at P0 with that plane as
        a floor, and the round keeps the exhaustive one's scores and winner."""
        rng = np.random.default_rng(21)
        zipf = 1.0 / np.arange(1, 601)
        target = TermDistribution(probs=zipf / zipf.sum())
        # 8 tokens per document, drawn from the target's profile in odd
        # documents and from a shuffled one in even documents
        near = rng.choice(600, size=(2000, 8), p=target.probs)
        far = rng.choice(600, size=(2000, 8), p=rng.permutation(target.probs))
        cols = np.where(np.arange(2000)[:, None] % 2 == 1, near, far).ravel()
        rows = sp.csr_matrix(
            (np.ones(cols.size), (np.repeat(np.arange(2000), 8), cols)), shape=(2000, 600)
        )
        candidates = selection._draw_subsets(np.random.default_rng(23), 2000, 20, 4000)
        score = selection._round_scorer(rows, every_row(rows), None, target, "jensen_shannon", 1)

        def round_scores(bound):
            return selection._round_scores(candidates, score, bound, "lower_is_more_similar")

        scores = round_scores(selection._js_bound(rows, every_row(rows), 20, target))
        plane_scores = round_scores(
            lambda batch: tangent_plane_bounds(rows, every_row(rows), batch, target)
        )
        p0_scores = round_scores(
            lambda batch: p0_support_aware_bounds(rows, every_row(rows), batch, target, 20)
        )
        every = score(candidates)
        scored_rows = ~np.isnan(scores)
        assert scored_rows.sum() < (~np.isnan(p0_scores)).sum()
        assert (~np.isnan(p0_scores)).sum() < (~np.isnan(plane_scores)).sum()
        assert np.array_equal(scores[scored_rows], every[scored_rows])
        assert np.nanargmin(scores) == np.argmin(every)

    def test_js_bound_allocates_no_picker_after_its_first_round(self):
        """A round's bound pools m x s members. From the second round of one
        shape on, it allocates no picker of that size (``pool_groups``' ones
        alone would be 8 m s bytes)."""
        m, s = 4000, 20
        rows = sp.csr_matrix(random_counts(500, 40, seed=25))
        bound = selection._js_bound(rows, every_row(rows), s, target_dist(40))
        candidates = selection._draw_subsets(np.random.default_rng(26), 500, s, m)
        first = bound(candidates)
        tracemalloc.start()
        try:
            second = bound(candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, second)
        assert peak < 8 * m * s

    def test_cosine_bound_and_scoring_allocate_no_picker_after_their_first_round(self):
        """As the JS bound, the cosine bound and the candidate scoring of an
        m x s round trace less than ``pool_groups``' ones alone would take
        (8 m s bytes) from their second call on; the bound's 2,048-row slices
        trace about 1 MB."""
        m, s = 20000, 20
        counts = sp.csr_matrix(random_counts(500, 40, seed=25))
        dense = np.random.default_rng(30).standard_normal((500, 40)) + 0.2
        candidates = selection._draw_subsets(np.random.default_rng(26), 500, s, m)
        calls = {
            "cosine bound": selection._cosine_bound(dense, every_row(dense), s, dense[0]),
            "JS scores": selection._round_scorer(
                counts, every_row(counts), None, target_dist(40), "jensen_shannon", 1
            ),
            "cosine scores": selection._round_scorer(
                dense, every_row(dense), None, dense[0], "cosine", 1
            ),
        }
        for name, call in calls.items():
            first = call(candidates)
            tracemalloc.start()
            try:
                second = call(candidates)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(first, second), name
            assert peak < 8 * m * s, (name, peak)

    def test_cosine_directions_capture_the_top_of_the_scatter(self):
        """For subsets of s, the directions capture nearly all of the top of
        ``R^T R + N (s - 1) mu mu^T``, R the rows with their target component
        removed and mu R's mean. The mean lies off the rows' widest axes and
        is too small for the top of ``R^T R``, whose directions capture 96%."""
        rng = np.random.default_rng(19)
        spread = np.geomspace(10.0, 0.1, 60)
        rows = rng.standard_normal((500, 60)) * spread + 0.25 * (spread < 1.0)
        target = rng.standard_normal(60)
        s = 20
        projections = selection._cosine_projections(rows, every_row(rows), target, s)
        unit = target / np.linalg.norm(target)
        flat = rows - np.outer(rows @ unit, unit)
        mu = flat.mean(axis=0)
        weight = len(rows) * (s - 1)
        moment = flat.T @ flat + weight * np.outer(mu, mu)
        top = np.linalg.eigvalsh(moment)[::-1][: selection._COSINE_DIRECTIONS].sum()
        directions = projections[:, 1:]
        captured = (directions**2).sum() + weight * (directions.mean(axis=0) ** 2).sum()
        assert np.allclose(projections[:, 0], rows @ unit)
        assert captured >= 0.99 * top

    def test_cosine_round_scores_fewer_than_the_row_scatter(self):
        """On rows with a large common mean off their widest axes, the
        directions of a candidate mean's second moment leave fewer candidates
        of a round to score than the exact top eigenvectors of the rows' own
        scatter, and the round keeps the exhaustive one's scores and winner."""
        rng = np.random.default_rng(27)
        d, k, s = 12, 4, 20
        # spread 3 on six axes, more than the k directions hold; a mean of 2,
        # below that spread, on axis 11; and the target on axis 10
        rows = rng.standard_normal((2000, d)) * np.where(np.arange(d) < 6, 3.0, 0.1)
        rows[:, 11] += 2.0
        rows[:, 10] += 3.0
        target = np.eye(d)[10]
        candidates = selection._draw_subsets(np.random.default_rng(28), 2000, s, 4000)
        flat = rows - np.outer(rows[:, 10], target)
        scatter_top = np.linalg.eigh(flat.T @ flat)[1][:, ::-1][:, :k]
        projections = rows @ np.column_stack([target, scatter_top])

        def scatter_bounds(batch):
            means = projections[batch].mean(axis=1)
            along = means[:, 0]
            norm = np.sqrt(along * along + (means[:, 1:] ** 2).sum(axis=1))
            return -np.where(along > 0, along / norm, 0.0)

        score = selection._round_scorer(rows, every_row(rows), None, target, "cosine", 1)

        def round_scores(bound):
            return selection._round_scores(candidates, score, bound, "higher_is_more_similar")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_COSINE_DIRECTIONS", k)
            scores = round_scores(selection._cosine_bound(rows, every_row(rows), s, target))
        scatter_scores = round_scores(scatter_bounds)
        every = score(candidates)
        scored_rows = ~np.isnan(scores)
        assert scored_rows.sum() < (~np.isnan(scatter_scores)).sum()
        assert np.array_equal(scores[scored_rows], every[scored_rows])
        assert np.nanargmax(scores) == np.argmax(every)

    def test_graded_js_search_scores_each_rounds_first_block_alone(self, monkeypatch):
        """On the graded pool of ``generate --catalog --seed 0``, the default
        JS search (s=20, m=20,000, n=1,600, run seed 7) bounds every other
        candidate of a round out: it scores one ``autoencoder._BLOCK_ROWS``
        block a round, the fewest ``_round_scores`` can."""
        scenario = synthetic.benchmark_suite(substream_seed(0, "generator"))["graded"]
        encoded = tokenize_corpus(scenario.corpus)
        context = evaluation.prepare_context(
            scenario.corpus, encoded, build_vocabulary(encoded), scenario.target_domain,
            "term_dist",
        )
        context.item_scores("jensen_shannon", 7)  # scored before the count starts
        kernel, scored_rows = selection.js_to_target, []
        monkeypatch.setattr(selection, "js_to_target",
                            lambda rows, target: scored_rows.append(rows.shape[0])
                            or kernel(rows, target))
        result = evaluation.run_selection(context, SelectionConfig(n=1600, strategy="subset"), 7)
        assert len(result.subset_scores) == 80
        assert sum(scored_rows) == len(result.subset_scores) * autoencoder._BLOCK_ROWS

    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    def test_search_checks_its_target_once(self, monkeypatch, metric):
        """A search of several rounds, each scoring more than one 7-candidate
        block, checks the target once, when it builds its round function."""
        args = thread_search_args(metric)
        check, calls = selection.row_scorer, []
        monkeypatch.setattr(
            selection, "row_scorer", lambda *a: calls.append(a) or check(*a)
        )
        monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", 7)
        got = subset_select(*args)
        assert len(got.iteration_members) > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("metric", ["jensen_shannon", "cosine"])
    def test_pool_without_a_scorable_document_builds_nothing(self, monkeypatch, metric):
        """Every pool document is empty, so every item score is NaN under
        either metric: the search returns an empty result without checking
        the target, building a bound or starting a draw."""
        rows = np.zeros((30, 6))
        target = target_dist(6) if metric == "jensen_shannon" else target_dist(6).probs
        item_scores = scored(rows, target, metric)
        built = []
        for name in ("row_scorer", "_js_bound", "_cosine_bound"):
            monkeypatch.setattr(selection, name, lambda *a, name=name: built.append(name))
        submitted = record_submissions(monkeypatch)
        got = subset_select(5, 10, 40, pool_ids(30), target, rows, every_row(rows),
                            item_scores, metric, 0)
        assert (got.chosen, got.subset_scores, got.iteration_members) == ([], [], [])
        assert built == [] and submitted == []

    def test_cosine_search_on_rows_whose_scatter_overflows(self):
        """Rows scaled by 2^506 to 2^509 have finite squared norms, so cosine
        scores them, but their scatter overflows: the bound keeps the unit
        target alone, the search equals the exhaustive loop, and no
        RuntimeWarning is emitted on the way."""
        rng = np.random.default_rng(31)
        rows = (rng.standard_normal((400, 12)) + 0.5) * 2.0 ** rng.integers(506, 510, (400, 1))
        target = rows[:40].mean(axis=0)
        args = (5, 60, 500, pool_ids(400), target, rows, every_row(rows),
                scored(rows, target, "cosine"), "cosine", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            projections = selection._cosine_projections(rows, every_row(rows), target, 5)
            got = subset_select(*args)
        assert projections.shape == (400, 1)
        assert (got.chosen, got.subset_scores, got.iteration_members) == (
            exhaustive_subset_select(*args)
        )

    def test_cosine_directions_form_no_d_by_d_array(self):
        d = 3000
        rows = np.random.default_rng(20).standard_normal((40, d))
        tracemalloc.start()
        try:
            projections = selection._cosine_projections(rows, every_row(rows), rows[0], s=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert projections.shape == (40, selection._COSINE_DIRECTIONS + 1)
        assert peak < d * d * 8 / 10


class TestDrawSubsets:
    @pytest.mark.parametrize("block", [2, 3, 7, 256])
    def test_random_key_blocks_match_one_shot_draw(self, monkeypatch, block):
        monkeypatch.setattr(autoencoder, "_BLOCK_ROWS", block)
        n_avail, size, m = 399, 20, 1000
        assert size * size > n_avail  # the random-key branch
        rng = np.random.default_rng(17)
        drawn = selection._draw_subsets(rng, n_avail, size, m)
        oracle_rng = np.random.default_rng(17)
        oracle = np.argsort(oracle_rng.random((m, n_avail)), axis=1)[:, :size]
        assert np.array_equal(drawn, oracle)
        assert rng.random() == oracle_rng.random()  # same generator state after

    @pytest.mark.parametrize("n_avail", [6800, 5500, 1000, 401])
    def test_rejection_rechecks_match_whole_array_loop(self, n_avail):
        size, m = 20, 5000
        assert size * size <= n_avail  # the rejection branch

        def whole_array_draw(rng):
            cand = rng.integers(0, n_avail, size=(m, size))
            while True:
                srt = np.sort(cand, axis=1)
                bad = (np.diff(srt, axis=1) == 0).any(axis=1)
                if not bad.any():
                    return cand
                cand[bad] = rng.integers(0, n_avail, size=(int(bad.sum()), size))

        rng = np.random.default_rng(n_avail)
        drawn = selection._draw_subsets(rng, n_avail, size, m)
        oracle_rng = np.random.default_rng(n_avail)
        assert np.array_equal(drawn, whole_array_draw(oracle_rng))
        assert rng.random() == oracle_rng.random()  # same generator state after

    @given(st.data())
    def test_blocked_draw_equals_whole_array_draw(self, data):
        """Draws of either branch, of size 1 and of m that is not a multiple of
        the block, equal those of the draw that checked each pass's redrawn
        rows as one array, and leave the generator in the same state."""

        def whole_array_draw(rng, n_avail, size, m):
            if size >= n_avail:
                return np.arange(n_avail)[None, :]
            if size * size > n_avail:
                return np.argsort(rng.random((m, n_avail)), axis=1)[:, :size]
            cand = rng.integers(0, n_avail, size=(m, size))
            redo = np.arange(m)
            while True:
                srt = cand[redo]
                srt.sort(axis=1)
                redo = redo[(np.diff(srt, axis=1) == 0).any(axis=1)]
                if redo.size == 0:
                    return cand
                cand[redo] = rng.integers(0, n_avail, size=(redo.size, size))

        n_avail = data.draw(st.integers(1, 500), label="n_avail")
        size = data.draw(st.integers(1, min(n_avail, 30)) | st.just(1), label="size")
        m = data.draw(st.integers(1, 700), label="m")
        block = data.draw(st.sampled_from([2, 3, 7, 256]), label="block")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(autoencoder, "_BLOCK_ROWS", block)
            drawn = selection._draw_subsets(rng, n_avail, size, m)
        assert np.array_equal(drawn, whole_array_draw(oracle_rng, n_avail, size, m))
        assert rng.random() == oracle_rng.random()


class TestSelectionConfig:
    def test_defaults(self):
        config = SelectionConfig(n=2000, strategy="subset")
        assert config.s == 20 and config.m == 20000
        assert config.resolved_metric == "jensen_shannon"

    def test_metric_pairing(self):
        assert SelectionConfig(n=1, strategy="instance",
                               representation="embedding").resolved_metric == "cosine"
        assert SelectionConfig(n=1, strategy="instance",
                               representation="autoencoder").resolved_metric == "cosine"

    def test_validation(self):
        with pytest.raises(ConfigError):
            SelectionConfig(n=0, strategy="random")
        with pytest.raises(ConfigError):
            SelectionConfig(n=1, strategy="best")
        with pytest.raises(ConfigError):
            SelectionConfig(n=1, strategy="subset", s=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"representation": "words"}, "unknown representation 'words'"),
         ({"metric": "euclid"}, "unknown metric 'euclid'")],
    )
    def test_unknown_representation_or_metric_is_named(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SelectionConfig(n=1, strategy="instance", **kwargs)

    @pytest.mark.parametrize("representation", ["embedding", "autoencoder"])
    @pytest.mark.parametrize("strategy", ["random", "domain", "instance"])
    def test_jensen_shannon_needs_term_distributions(self, representation, strategy):
        with pytest.raises(ConfigError, match="jensen_shannon"):
            SelectionConfig(
                n=1, strategy=strategy, representation=representation, metric="jensen_shannon"
            )


class TestMonotonicityHarness:
    def test_subset_selection_tracks_target_closer_than_random(self):
        from dataselect.synthetic import DomainSpec, generate
        from dataselect.corpus import build_vocabulary, tokenize_corpus
        from dataselect.representations import build_representation_space

        specs = [
            DomainSpec(name="near", overlap=0.8, docs_per_label=80, seed=1,
                       lexicon_size=40, shared_vocab_size=30, private_vocab_size=20),
            DomainSpec(name="far", overlap=0.0, docs_per_label=80, seed=2,
                       lexicon_size=40, shared_vocab_size=30, private_vocab_size=20),
        ]
        target_spec = DomainSpec(name="tgt", overlap=1.0, docs_per_label=80, seed=3,
                                 lexicon_size=40, shared_vocab_size=30,
                                 private_vocab_size=20)
        corpus = generate(specs, target_spec)
        encoded = tokenize_corpus(corpus, frozenset())
        vocab = build_vocabulary(encoded)
        space = build_representation_space(corpus, encoded, "term_dist", vocab)
        ids = [d.id for d in corpus if d.domain != "tgt"]
        target = space.aggregate([d.id for d in corpus if d.domain == "tgt"])
        pool_index = np.array([space.index[i] for i in ids])
        item_scores = scored(space.matrix, target, "jensen_shannon")[pool_index]

        def selected_js(result):
            agg = space.aggregate(result.chosen)
            return js_divergence(agg, target).value

        random_js = []
        subset_js = []
        for seed in range(10):
            random_js.append(selected_js(select_random(ids, 60, seed)))
            subset_js.append(
                selected_js(
                    subset_select(
                        10, 60, 50, ids, target, space.matrix, pool_index, item_scores,
                        "jensen_shannon", seed,
                    )
                )
            )
        assert float(np.mean(subset_js)) <= float(np.mean(random_js))
