import numpy as np
import pytest

from dataselect.corpus import build_vocabulary, tokenize_corpus
from dataselect.errors import ConfigError, DataError
from dataselect.evaluation import ClassifierConfig, evaluate, train_classifier
from dataselect.corpus import TfidfModel
from dataselect.representations import build_representation_space
from dataselect.similarity import js_divergence
from dataselect.synthetic import DomainSpec, benchmark_suite, generate, lexicon_catalog

NO_STOP = frozenset()


def spec(name, overlap, seed, **kw):
    base = dict(docs_per_label=150, lexicon_size=40, shared_vocab_size=30,
                private_vocab_size=20, doc_length=(8, 14))
    base.update(kw)
    return DomainSpec(name=name, overlap=overlap, seed=seed, **base)


def implied_label(doc, lexicons):
    hits = {
        label: sum(1 for t in doc.text.split() if t in set(tokens))
        for label, tokens in lexicons.items()
    }
    best = max(hits.values())
    winners = [label for label, count in hits.items() if count == best]
    assert len(winners) == 1, "sentiment tokens must identify one label"
    return winners[0]


class TestGenerate:
    def test_deterministic(self):
        specs = [spec("aaa", 0.5, seed=4)]
        target = spec("tgt", 1.0, seed=5)
        first = generate(specs, target)
        second = generate(specs, target)
        assert [(d.id, d.text, d.domain, d.label) for d in first] == [
            (d.id, d.text, d.domain, d.label) for d in second
        ]

    def test_name_collision(self):
        with pytest.raises(DataError, match="collision"):
            generate([spec("same", 0.5, seed=1)], spec("same", 1.0, seed=2))

    def test_labels_are_recoverable(self):
        specs = [spec("aaa", 0.4, seed=6)]
        target = spec("tgt", 1.0, seed=7)
        corpus = generate(specs, target)
        catalog = lexicon_catalog(specs, target)
        for doc in corpus:
            implied_label(doc, catalog[doc.domain])  # asserts uniqueness inside

    def test_noise_rate_matches_configuration(self):
        noise = 0.1
        specs = [spec("aaa", 0.5, seed=8, label_noise=noise, docs_per_label=2000)]
        target = spec("tgt", 1.0, seed=9, label_noise=noise, docs_per_label=2000)
        corpus = generate(specs, target)
        catalog = lexicon_catalog(specs, target)
        flips = [
            doc.label != implied_label(doc, catalog[doc.domain]) for doc in corpus
        ]
        assert abs(float(np.mean(flips)) - noise) < 0.02

    def test_full_overlap_duplicate_is_closer_than_disjoint(self):
        specs = [spec("dup", 1.0, seed=10), spec("none", 0.0, seed=11)]
        target = spec("tgt", 1.0, seed=12)
        corpus = generate(specs, target)
        encoded = tokenize_corpus(corpus, NO_STOP)
        vocab = build_vocabulary(encoded)
        space = build_representation_space(corpus, encoded, "term_dist", vocab)
        target_dist = space.aggregate([d.id for d in corpus if d.domain == "tgt"])
        js = {
            name: js_divergence(
                space.aggregate([d.id for d in corpus if d.domain == name]),
                target_dist,
            ).value
            for name in ("dup", "none")
        }
        assert js["dup"] < js["none"]

    def test_zero_overlap_domain_transfers_at_chance(self):
        accuracies = []
        for seed in range(10):
            source = spec("zero", 0.0, seed=100 + seed, docs_per_label=200)
            target = spec("tgt", 1.0, seed=200 + seed, docs_per_label=200)
            corpus = generate([source], target)
            encoded = tokenize_corpus(corpus, NO_STOP)
            docs = list(corpus)
            train = [i for i, d in enumerate(docs) if d.domain == "zero"]
            held_out = [i for i, d in enumerate(docs) if d.domain == "tgt"]
            tfidf = TfidfModel.fit(encoded.counts[train])
            model = train_classifier(
                tfidf.transform(encoded.counts[train]),
                [docs[i].label for i in train],
                ClassifierConfig(seed=seed),
            )
            accuracies.append(
                evaluate(
                    model,
                    tfidf.transform(encoded.counts[held_out]),
                    [docs[i].label for i in held_out],
                )
            )
        assert abs(float(np.mean(accuracies)) - 0.5) < 0.05


class TestLexiconCatalog:
    def test_overlap_is_nested_prefix(self):
        specs = [spec("lo", 0.2, seed=13), spec("hi", 0.8, seed=14)]
        target = spec("tgt", 1.0, seed=15)
        catalog = lexicon_catalog(specs, target)
        for label in target.labels:
            lo = set(catalog["lo"][label]) & set(catalog["tgt"][label])
            hi = set(catalog["hi"][label]) & set(catalog["tgt"][label])
            assert lo <= hi
            assert len(lo) == round(0.2 * 40)
            assert len(hi) == round(0.8 * 40)

    def test_labels_disjoint_within_domain(self):
        specs = [spec("aaa", 0.3, seed=16)]
        target = spec("tgt", 1.0, seed=17)
        catalog = lexicon_catalog(specs, target)
        for lexicons in catalog.values():
            assert not (set(lexicons["negative"]) & set(lexicons["positive"]))

    def test_mismatched_labels_rejected(self):
        bad = DomainSpec(name="aaa", overlap=0.5, seed=1,
                         labels=("negative", "neutral", "positive"))
        with pytest.raises(ConfigError):
            lexicon_catalog([bad], spec("tgt", 1.0, seed=2))


class TestSpecValidation:
    def test_overlap_bounds(self):
        with pytest.raises(ConfigError):
            DomainSpec(name="x", overlap=1.5)

    def test_noise_bounds(self):
        with pytest.raises(ConfigError):
            DomainSpec(name="x", label_noise=0.5)

    def test_doc_length_order(self):
        with pytest.raises(ConfigError):
            DomainSpec(name="x", doc_length=(5, 3))

    def test_name_must_be_wordlike(self):
        with pytest.raises(ConfigError):
            DomainSpec(name="bad name!")

    @pytest.mark.parametrize(
        "bad",
        [{"docs_per_label": 1.5}, {"docs_per_label": True}, {"seed": 2.0}, {"seed": -1},
         {"doc_length": 5}, {"doc_length": (5,)}, {"doc_length": (5, 9.0)},
         {"doc_length": (False, 9)}, {"name": 5}, {"labels": ()}, {"labels": ("negative",)},
         {"labels": ("negative", "negative")}],
    )
    def test_bad_field_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            DomainSpec(**{"name": "x", **bad})

    def test_numpy_ints_are_ints(self):
        spec = DomainSpec(name="x", docs_per_label=np.int64(3), doc_length=(np.int32(2), 4))
        assert len(generate([], spec)) == 6


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite(seed=0)


class TestBenchmarkSuite:

    def test_graded_scenario_shape(self, suite):
        scenario = suite["graded"]
        sources = scenario.corpus.domains - {scenario.target_domain}
        assert len(sources) == 5
        assert scenario.target_domain in scenario.corpus.domains

    def test_blended_scenario_shape(self, suite):
        scenario = suite["blended"]
        assert len(scenario.corpus.domains - {scenario.target_domain}) == 8

    def test_domain_sizes_capped(self, suite):
        for scenario in suite.values():
            for domain in scenario.corpus.domains:
                assert len(scenario.corpus.domain_rows(domain)) <= 3000

    def test_regeneration_identical(self, suite):
        again = benchmark_suite(seed=0)
        for name, scenario in suite.items():
            docs_a = [(d.id, d.text, d.domain, d.label) for d in scenario.corpus]
            docs_b = [(d.id, d.text, d.domain, d.label) for d in again[name].corpus]
            assert docs_a == docs_b

    def test_graded_js_monotone_in_overlap(self, suite):
        scenario = suite["graded"]
        corpus = scenario.corpus
        encoded = tokenize_corpus(corpus, NO_STOP)
        vocab = build_vocabulary(encoded)
        space = build_representation_space(corpus, encoded, "term_dist", vocab)
        target_dist = space.aggregate(
            [d.id for d in corpus if d.domain == scenario.target_domain]
        )
        overlaps = {"alpha": 0.9, "bravo": 0.6, "carol": 0.4, "delta": 0.2, "echo": 0.0}
        js = {
            name: js_divergence(
                space.aggregate([d.id for d in corpus if d.domain == name]),
                target_dist,
            ).value
            for name in overlaps
        }
        ranked = sorted(overlaps, key=lambda d: -overlaps[d])  # descending overlap
        values = [js[name] for name in ranked]
        assert values == sorted(values), f"JS not monotone: {js}"
