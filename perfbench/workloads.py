"""Benchmark workloads and the seeded inputs they run on.

Every workload is one ``dataselect evaluate --task binary`` call with n=1600
and s, m, the vocabulary cap and the classifier at their defaults. Inputs
come from ``synthetic.benchmark_suite(seed)`` and, for the embedding
workload, a word-vector file generated here; both are written to a cache
directory before anything is timed, and the program only sees those files.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

N = 1600
EMBEDDING_DIM = 100
EMBEDDING_FILLER = 50_000

# Spans every workload fires: loading, preprocessing, the representation
# build, the two baselines, instance ranking, and per-run classification.
COMMON_SPANS = frozenset(
    {
        "corpus.load",
        "corpus.tokenize",
        "corpus.vocab",
        "corpus.tfidf_fit",
        "corpus.tfidf_transform",
        "evaluation.prepare_context",
        "evaluation.run_selection",
        "evaluation.train_classifier",
        "evaluation.evaluate",
        "representations.build",
        "selection.baseline",
        "selection.instance",
    }
)


@dataclass(frozen=True)
class Workload:
    """One evaluate call: the scenario it reads and the flags it passes."""

    name: str
    why: str
    corpus: Callable[[int], object]  # seed -> dataselect Corpus
    flags: tuple[str, ...]
    spans: frozenset[str]  # spans beyond COMMON_SPANS the traced run must see
    embeddings: bool = False
    n: int = N
    embedding_filler: int = EMBEDDING_FILLER

    @property
    def strategies(self) -> tuple[str, ...]:
        """Strategies in the order evaluate runs them (baselines first)."""
        listed = self.flags[self.flags.index("--strategies") + 1].split(",")
        return ("random", "balanced") + tuple(s for s in listed if s not in ("random", "balanced"))

    @property
    def runs(self) -> int:
        return int(self.flags[self.flags.index("--runs") + 1])

    @property
    def expected_spans(self) -> frozenset[str]:
        return COMMON_SPANS | self.spans


def catalog_corpus(scenario: str) -> Callable[[int], object]:
    def make(seed: int):
        from dataselect.synthetic import benchmark_suite

        return benchmark_suite(seed)[scenario].corpus

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="graded-subset",
            why="the paper's default subset search (80 rounds x 20,000 candidates) on sparse "
            "term distributions under JS; where JS scoring and subset aggregation dominate",
            corpus=catalog_corpus("graded"),
            flags=(
                "--representation", "term_dist",
                "--strategies", "domain,instance,subset",
                "--runs", "1",
            ),
            spans=frozenset({"selection.domain", "selection.subset", "similarity.js"}),
        ),
        Workload(
            name="blended-embedding",
            why="the same subset search on dense SIF embeddings under cosine, reading a "
            "shuffled 100-d vector file with 50,000 out-of-vocabulary lines; JS is absent",
            corpus=catalog_corpus("blended"),
            flags=(
                "--representation", "embedding",
                "--strategies", "domain,instance,subset",
                "--runs", "1",
            ),
            spans=frozenset(
                {"embeddings.load", "selection.domain", "selection.subset", "similarity.cosine"}
            ),
            embeddings=True,
        ),
        Workload(
            name="graded-autoencoder",
            why="one epoch of denoising-autoencoder training (h=1000) dominates set-up time and "
            "peak memory; no subset search runs",
            corpus=catalog_corpus("graded"),
            flags=(
                "--representation", "autoencoder",
                "--strategies", "domain,instance",
                "--ae-epochs", "1",
                "--runs", "1",
            ),
            spans=frozenset(
                {
                    "representations.ae_features",
                    "autoencoder.train",
                    "autoencoder.encode",
                    "selection.domain",
                    "similarity.cosine",
                }
            ),
        ),
        Workload(
            name="blended-proxy",
            why="proxy-A instance selection: three discriminator fits plus nine classifier fits, "
            "the largest classification share; no subset search or autoencoder",
            corpus=catalog_corpus("blended"),
            flags=(
                "--representation", "term_dist",
                "--metric", "proxy_a",
                "--strategies", "instance",
                "--runs", "3",
            ),
            spans=frozenset({"similarity.proxy_a", "similarity.logreg_fit"}),
        ),
    )
}


def prepare_inputs(workload: Workload, seed: int, cache: Path) -> dict[str, Path]:
    """Write the workload's input files for ``seed`` under ``cache``.

    Files are reused when a complete set for this seed is already there;
    inputs of other seeds are removed so the cache holds one seed at a time.
    """
    seed_dir = cache / f"seed-{seed}"
    corpus_path = seed_dir / f"{workload.name}.jsonl"
    vectors_path = seed_dir / f"{workload.name}.vectors.txt"
    done = seed_dir / f"{workload.name}.done"
    if cache.is_dir():
        for other in cache.glob("seed-*"):
            if other != seed_dir:
                shutil.rmtree(other)
    if not done.exists():
        from dataselect.corpus import save_corpus

        seed_dir.mkdir(parents=True, exist_ok=True)
        corpus = workload.corpus(seed)
        save_corpus(corpus, corpus_path)
        if workload.embeddings:
            write_vectors(corpus, vectors_path, seed, workload.embedding_filler)
        done.write_text("")
    paths = {"corpus": corpus_path}
    if workload.embeddings:
        paths["embeddings"] = vectors_path
    return paths


def write_vectors(corpus, path: Path, seed: int, filler: int) -> None:
    """A shuffled vector file: every corpus token plus ``filler`` unknown words."""
    from dataselect.corpus import preprocess

    tokens: set[str] = set()
    for doc in corpus:
        tokens.update(preprocess(doc.text))
    names = sorted(tokens) + [f"zzfill{i:06d}" for i in range(filler)]
    rng = np.random.default_rng([seed, 7])
    vectors = rng.standard_normal((len(names), EMBEDDING_DIM))
    row_format = " ".join(["%.5f"] * EMBEDDING_DIM)
    with path.open("w", encoding="utf-8") as fh:
        for j in rng.permutation(len(names)):
            fh.write(names[j] + " " + row_format % tuple(vectors[j]) + "\n")


def evaluate_argv(workload: Workload, inputs: dict[str, Path], out: Path) -> list[str]:
    argv = [
        "evaluate",
        "--task", "binary",
        "--n", str(workload.n),
        "--corpus", str(inputs["corpus"]),
        "--target", "target",
        "--out", str(out),
        *workload.flags,
    ]
    if "embeddings" in inputs:
        argv += ["--embeddings", str(inputs["embeddings"])]
    return argv
