import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from dataselect import selection
from dataselect.corpus import Document
from dataselect.errors import ConfigError, DataError
from dataselect.representations import TermDistribution
from dataselect.selection import (
    SelectionConfig,
    select_balanced,
    select_domain_level,
    select_instance_level,
    select_random,
    subset_select,
)
from dataselect.similarity import cosine, cosine_to_target, js_divergence, js_to_target


def make_pool(n, domains=("src",), prefix="p"):
    return [
        Document(id=f"{prefix}{i:04d}", text="x", domain=domains[i % len(domains)], label=None)
        for i in range(n)
    ]


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


class TestSelectRandom:
    def test_exhausts_small_pool(self):
        pool = make_pool(5)
        result = select_random(pool, 5, seed=0)
        assert sorted(result.chosen) == sorted(d.id for d in pool)
        assert result.shortfall == 0

    def test_deterministic(self):
        pool = make_pool(50)
        a = select_random(pool, 10, seed=7)
        b = select_random(pool, 10, seed=7)
        assert a.chosen == b.chosen

    def test_shortfall_recorded(self):
        result = select_random(make_pool(3), 10, seed=0)
        assert len(result.chosen) == 3
        assert result.shortfall == 7

    def test_overlap_matches_hypergeometric_expectation(self):
        pool = make_pool(10_000)
        a = set(select_random(pool, 2000, seed=1).chosen)
        b = set(select_random(pool, 2000, seed=2).chosen)
        overlap = len(a & b) / 2000
        assert abs(overlap - 0.2) < 0.03

    def test_no_duplicates(self):
        result = select_random(make_pool(100), 40, seed=3)
        assert len(set(result.chosen)) == 40


class TestSelectBalanced:
    def test_even_split(self):
        pool = make_pool(400, domains=("a", "b", "c", "d"))
        result = select_balanced(pool, 40, seed=0)
        by_domain = {}
        domain_of = {d.id: d.domain for d in pool}
        for doc_id in result.chosen:
            by_domain[domain_of[doc_id]] = by_domain.get(domain_of[doc_id], 0) + 1
        assert by_domain == {"a": 10, "b": 10, "c": 10, "d": 10}

    def test_remainder_goes_to_lexicographically_first(self):
        pool = make_pool(300, domains=("c", "a", "b"))
        result = select_balanced(pool, 10, seed=0)
        domain_of = {d.id: d.domain for d in pool}
        counts = {}
        for doc_id in result.chosen:
            counts[domain_of[doc_id]] = counts.get(domain_of[doc_id], 0) + 1
        assert counts == {"a": 4, "b": 3, "c": 3}

    def test_shortfall_redistribution(self):
        pool = [Document(id=f"a{i}", text="x", domain="aa", label=None) for i in range(3)]
        pool += [Document(id=f"b{i}", text="x", domain="bb", label=None) for i in range(50)]
        result = select_balanced(pool, 10, seed=0)
        domain_of = {d.id: d.domain for d in pool}
        counts = {}
        for doc_id in result.chosen:
            counts[domain_of[doc_id]] = counts.get(domain_of[doc_id], 0) + 1
        assert counts == {"aa": 3, "bb": 7}

    def test_deterministic(self):
        pool = make_pool(60, domains=("a", "b"))
        assert select_balanced(pool, 11, seed=5).chosen == select_balanced(pool, 11, seed=5).chosen


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
        pool = make_pool(20, domains=("near", "off"))
        far = TermDistribution(probs=np.ones(size) / size)
        result = select_domain_level(
            pool, target, {"near": TermDistribution(probs=target.probs.copy()), "off": far},
            "jensen_shannon", 5, seed=0,
        )
        assert result.config["chosen_domain"] == "near"
        assert all(doc_id.startswith("p") for doc_id in result.chosen)
        domains = {d.id: d.domain for d in pool}
        assert {domains[i] for i in result.chosen} == {"near"}

    def test_equal_scores_break_lexicographically(self):
        size = 4
        target = target_dist(size)
        same = TermDistribution(probs=target.probs.copy())
        pool = make_pool(10, domains=("zeta", "beta"))
        result = select_domain_level(
            pool, target, {"zeta": same, "beta": same}, "jensen_shannon", 3, seed=1
        )
        assert result.config["chosen_domain"] == "beta"

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
        pool = make_pool(30, domains=("far", "mid", "close"))
        result = select_domain_level(pool, target, reprs, "jensen_shannon", 5, seed=0)
        assert result.config["chosen_domain"] == "close"

    def test_no_spill_into_runner_up(self):
        size = 4
        target = target_dist(size)
        pool = [Document(id="n1", text="x", domain="near", label=None)]
        pool += [Document(id=f"f{i}", text="x", domain="far", label=None) for i in range(10)]
        reprs = {
            "near": TermDistribution(probs=target.probs.copy()),
            "far": TermDistribution(probs=np.ones(size) / size),
        }
        result = select_domain_level(pool, target, reprs, "jensen_shannon", 5, seed=0)
        assert result.chosen == ["n1"]
        assert result.shortfall == 4

    def test_proxy_a_is_rejected(self):
        with pytest.raises(ConfigError):
            select_domain_level(make_pool(4), target_dist(4), {}, "proxy_a", 2, seed=0)


class TestSelectInstanceLevel:
    def test_exact_copy_ranks_first_under_cosine(self):
        rng = np.random.default_rng(8)
        rows = rng.random((20, 6))
        target_vec = rng.random(6)
        rows[13] = 2.0 * target_vec  # scaled copy: cosine similarity exactly 1
        pool = make_pool(20)
        result = select_instance_level(pool, target_vec, rows, "cosine", 5)
        assert result.chosen[0] == pool[13].id
        assert result.item_scores[pool[13].id] == pytest.approx(1.0, abs=1e-12)

    def test_n_at_least_pool_returns_everything_sorted(self):
        size = 10
        rows = random_counts(12, size, seed=3)
        target = target_dist(size)
        pool = make_pool(12)
        result = select_instance_level(pool, target, rows, "jensen_shannon", 50)
        assert len(result.chosen) == 12
        scores = js_to_target(rows, target)
        by_id = {pool[i].id: scores[i] for i in range(12)}
        values = [by_id[doc_id] for doc_id in result.chosen]
        assert values == sorted(values)

    def test_matches_exhaustive_score_then_sort_oracle(self):
        size = 12
        rows = random_counts(50, size, seed=4, zero_rows=(7, 31))
        target = target_dist(size)
        pool = make_pool(50)
        result = select_instance_level(pool, target, rows, "jensen_shannon", 20)

        oracle = []
        for i in range(50):
            total = rows[i].sum()
            if total == 0:
                continue  # empty instances are excluded from the ranking
            score = js_divergence(rows[i] / total, target.probs).value
            oracle.append((score, pool[i].id))
        oracle.sort()
        assert result.chosen == [doc_id for _, doc_id in oracle[:20]]

    def test_empty_instances_excluded(self):
        size = 6
        rows = random_counts(5, size, seed=5, zero_rows=(0, 1, 2))
        pool = make_pool(5)
        result = select_instance_level(pool, target_dist(size), rows, "jensen_shannon", 5)
        assert len(result.chosen) == 2
        assert result.shortfall == 3


class TestSubsetSelect:
    def test_single_round_is_best_of_m(self):
        size = 10
        rows = random_counts(60, size, seed=6)
        target = target_dist(size)
        pool = make_pool(60)
        s = n = 10
        m = 5
        seed = 42
        result = subset_select(s, n, m, pool, target, rows, "jensen_shannon", seed)
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
                best_ids = sorted(pool[i].id for i in cand)
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
            pool = make_pool(80)
            instance = select_instance_level(pool, target, rows, metric, 30)
            subset = subset_select(1, 30, 200, pool, target, rows, metric, seed=seed)
            assert set(subset.chosen) == set(instance.chosen)

    def test_iterations_are_pairwise_disjoint(self):
        size = 12
        rows = random_counts(100, size, seed=7)
        target = target_dist(size)
        pool = make_pool(100)
        result = subset_select(7, 20, 30, pool, target, rows, "jensen_shannon", seed=3)
        seen = set()
        for members in result.iteration_members:
            assert not (set(members) & seen)
            seen.update(members)

    def test_exact_n_with_truncated_final_round(self):
        size = 12
        rows = random_counts(100, size, seed=8)
        target = target_dist(size)
        pool = make_pool(100)
        result = subset_select(7, 20, 30, pool, target, rows, "jensen_shannon", seed=4)
        assert len(result.chosen) == 20
        assert len(set(result.chosen)) == 20
        assert [len(m) for m in result.iteration_members] == [7, 7, 6]

    def test_deterministic(self):
        size = 9
        rows = random_counts(50, size, seed=9)
        target = target_dist(size)
        pool = make_pool(50)
        a = subset_select(5, 15, 20, pool, target, rows, "jensen_shannon", seed=11)
        b = subset_select(5, 15, 20, pool, target, rows, "jensen_shannon", seed=11)
        assert a.chosen == b.chosen
        assert a.subset_scores == b.subset_scores

    def test_proxy_a_needs_explicit_flag(self):
        rows = np.random.default_rng(0).random((10, 3))
        with pytest.raises(ConfigError, match="proxy_a"):
            subset_select(2, 4, 5, make_pool(10), rows.mean(axis=0), rows, "proxy_a", 0)

    def test_proxy_a_with_flag(self):
        rng = np.random.default_rng(1)
        rows = rng.random((30, 3))
        target_rows = rng.random((15, 3)) + 1.0
        result = subset_select(
            3, 9, 10, make_pool(30), None, rows, "proxy_a", 0,
            allow_proxy_a=True, target_instance_reprs=target_rows,
        )
        assert len(result.chosen) == 9

    def test_pool_smaller_than_n(self):
        size = 6
        rows = random_counts(8, size, seed=10)
        result = subset_select(
            3, 20, 10, make_pool(8), target_dist(size), rows, "jensen_shannon", 0
        )
        assert len(result.chosen) == 8
        assert result.shortfall == 12


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
        rows, candidates, target = candidate_case(sparse_rows)
        results = []
        for chunk in (1, 7, 256, 4096):
            monkeypatch.setattr(selection, "_SCORE_CHUNK", chunk)
            results.append(selection._candidate_scores(rows, candidates, target, metric))
        if metric == "jensen_shannon":
            assert np.isnan(results[0][-9:]).all()  # aggregates of empty rows only
        for scores in results[1:]:
            assert np.array_equal(scores, results[0], equal_nan=True)

    def test_dense_aggregate_is_member_mean(self, monkeypatch):
        rows, candidates, target = candidate_case(sparse_rows=False)
        rows = rows + np.random.default_rng(14).random(rows.shape) / 3  # inexact sums
        score_rows = selection._score_rows
        aggregates = []

        def record(agg, *args, **kwargs):
            aggregates.append(agg)
            return score_rows(agg, *args, **kwargs)

        monkeypatch.setattr(selection, "_SCORE_CHUNK", 7)
        monkeypatch.setattr(selection, "_score_rows", record)
        scores = selection._candidate_scores(rows, candidates, target.probs, "cosine")
        oracle = rows[candidates].mean(axis=1)
        assert np.array_equal(np.vstack(aggregates), oracle)
        assert np.array_equal(scores, cosine_to_target(oracle, target.probs))


class TestDrawSubsets:
    @pytest.mark.parametrize("chunk", [7, 256])
    def test_random_key_blocks_match_one_shot_draw(self, monkeypatch, chunk):
        monkeypatch.setattr(selection, "_SCORE_CHUNK", chunk)
        n_avail, size, m = 399, 20, 1000
        assert size * size > n_avail  # the random-key branch
        rng = np.random.default_rng(17)
        drawn = selection._draw_subsets(rng, n_avail, size, m)
        oracle_rng = np.random.default_rng(17)
        oracle = np.argsort(oracle_rng.random((m, n_avail)), axis=1)[:, :size]
        assert np.array_equal(drawn, oracle)
        assert rng.random() == oracle_rng.random()  # same generator state after


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


class TestMonotonicityHarness:
    def test_subset_selection_tracks_target_closer_than_random(self):
        from dataselect.synthetic import DomainSpec, generate
        from dataselect.corpus import PreprocessOptions, build_vocabulary, tokenize_corpus
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
        options = PreprocessOptions(stopwords=frozenset())
        token_lists = tokenize_corpus(corpus, options)
        vocab = build_vocabulary(corpus, 5000, token_lists=token_lists)
        space = build_representation_space(corpus, "term_dist", vocab,
                                           token_lists=token_lists)
        pool = [d for d in corpus if d.domain != "tgt"]
        target = space.aggregate([d.id for d in corpus.domain_documents("tgt")])
        rows = space.rows([d.id for d in pool])

        def selected_js(result):
            agg = space.aggregate(result.chosen)
            return js_divergence(agg, target).value

        random_js = []
        subset_js = []
        for seed in range(10):
            random_js.append(selected_js(select_random(pool, 60, seed)))
            subset_js.append(
                selected_js(
                    subset_select(10, 60, 50, pool, target, rows, "jensen_shannon", seed)
                )
            )
        assert float(np.mean(subset_js)) <= float(np.mean(random_js))
