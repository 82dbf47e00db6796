"""Span recording around the program's public functions, from outside ``src/``.

Tracing rebinds module and class attributes to wrappers for the lifetime of
a ``traced`` block. A wrapper records a span (name, parent, start, end) at
the place the program calls the function, plus counts read from the
call's arguments and result once the span has ended. Spans stay in memory
and are turned into per-layer metrics after the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


@dataclass
class Span:
    name: str
    parent: int  # index into Recorder.spans, -1 at top level
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(bound_args, result)`` adds counts."""
        signature = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = note(bound.arguments, result)
            return result

        return wrapper


# --- counts read at span boundaries ---------------------------------------

def _rows(matrix) -> int:
    return int(matrix.shape[0])


def _js_counts(a, result):
    rows = a["rows"]
    if sp.issparse(rows):
        nnz = int(rows.nnz)
        read = rows.data.nbytes + rows.indices.nbytes + rows.indptr.nbytes
    else:
        nnz = int(np.count_nonzero(rows))
        read = np.asarray(rows).nbytes
    written = np.asarray(result).nbytes
    return {"rows": _rows(rows), "nnz": nnz, "bytes": read + a["target"].probs.nbytes + written}


def _ae_train_counts(a, result):
    model, losses = result
    n = _rows(a["data"])
    return {
        "params": int(sum(p.size for p in model.parameters().values())),
        "epochs": len(losses),
        "batches": len(losses) * math.ceil(n / a["config"].batch_size),
        "final_loss": float(losses[-1]),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _logreg_counts(a, result):
    iters = len(result[2]) - 1
    return {"iters": iters, "converged": int(iters < a["max_iter"])}


def span_table():
    """(owner, attribute, span name, note) for every traced call site."""
    from dataselect import autoencoder, cli, evaluation, selection, similarity
    from dataselect.corpus import TfidfModel

    return [
        (cli, "load_corpus", "corpus.load", lambda a, r: {"docs": len(r)}),
        (cli, "tokenize_corpus", "corpus.tokenize", None),
        (cli, "build_vocabulary", "corpus.vocab", lambda a, r: {"vocab_size": len(r)}),
        (
            cli, "load_embeddings", "embeddings.load",
            lambda a, r: {"rows_kept": len(r), "path": str(a["path"])},
        ),
        (cli, "prepare_context", "evaluation.prepare_context", None),
        (evaluation, "ae_input_features", "representations.ae_features", None),
        (evaluation, "ae_train", "autoencoder.train", _ae_train_counts),
        (
            evaluation, "build_representation_space", "representations.build",
            lambda a, r: {"rows": len(r.doc_ids)},
        ),
        (evaluation, "run_selection", "evaluation.run_selection", None),
        (
            evaluation, "train_classifier", "evaluation.train_classifier",
            lambda a, r: {"sgd_steps": a["config"].epochs * _rows(a["features"])},
        ),
        (evaluation, "evaluate", "evaluation.evaluate", None),
        (
            selection, "subset_select", "selection.subset",
            lambda a, r: {"rounds": len(r.subset_scores)},
        ),
        (selection, "select_instance_level", "selection.instance", None),
        (selection, "select_domain_level", "selection.domain", None),
        (selection, "select_random", "selection.baseline", None),
        (selection, "select_balanced", "selection.baseline", None),
        (selection, "js_to_target", "similarity.js", _js_counts),
        (
            selection, "cosine_to_target", "similarity.cosine",
            lambda a, r: {"rows": _rows(a["rows"])},
        ),
        (selection, "proxy_a_scores", "similarity.proxy_a", None),
        (similarity, "fit_logistic_regression", "similarity.logreg_fit", _logreg_counts),
        (autoencoder, "encode", "autoencoder.encode", None),
        (TfidfModel, "fit", "corpus.tfidf_fit", None),
        (TfidfModel, "transform", "corpus.tfidf_transform", lambda a, r: {"nnz": int(r.nnz)}),
    ]


def declared_spans() -> frozenset[str]:
    return frozenset(name for _, _, name, _ in span_table())


@contextmanager
def traced(recorder: Recorder):
    """Route every call site in ``span_table`` through ``recorder``, then restore."""
    saved = []
    try:
        for owner, attr, name, note in span_table():
            original = inspect.getattr_static(owner, attr)
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(recorder.wrap(name, original.__func__, note)))
            else:
                setattr(owner, attr, recorder.wrap(name, original, note))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = Recorder().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - start - plain) / calls)


# --- per-layer metrics ------------------------------------------------------

# name -> unit; every traced run reports all of them (0 where a layer is idle).
LAYER_METRICS = {
    "corpus.load_s": "s",
    "corpus.tokenize_s": "s",
    "corpus.vocab_s": "s",
    "corpus.tfidf_fit_s": "s",
    "corpus.tfidf_transform_s": "s",
    "corpus.tfidf_nnz": "count",
    "corpus.docs": "count",
    "corpus.vocab_size": "count",
    "embeddings.load_s": "s",
    "embeddings.lines_parsed": "count",
    "embeddings.rows_kept": "count",
    "embeddings.keep_ratio": "ratio",
    "representations.build_s": "s",
    "representations.ae_features_s": "s",
    "representations.rows": "count",
    "autoencoder.train_s": "s",
    "autoencoder.epoch_s": "s",
    "autoencoder.batches": "count",
    "autoencoder.params": "count",
    "autoencoder.final_loss": "nats",
    "autoencoder.encode_s": "s",
    "autoencoder.train_rss_mb": "MB",
    "similarity.js_s": "s",
    "similarity.js_calls": "count",
    "similarity.js_rows": "count",
    "similarity.js_nnz": "count",
    "similarity.js_nnz_per_s": "1/s",
    "similarity.js_bytes_computed": "B",
    "similarity.cosine_s": "s",
    "similarity.cosine_rows": "count",
    "similarity.proxy_a_s": "s",
    "similarity.logreg_fit_s": "s",
    "similarity.logreg_iters": "count",
    "similarity.logreg_converged_ratio": "ratio",
    "selection.subset_s": "s",
    "selection.subset_self_s": "s",
    "selection.subset_rounds": "count",
    "selection.subset_round_s": "s",
    "selection.candidates_scored": "count",
    "selection.candidates_per_s": "1/s",
    "selection.instance_s": "s",
    "selection.domain_s": "s",
    "selection.baseline_s": "s",
    "evaluation.select_s": "s",
    "evaluation.classify_s": "s",
    "evaluation.prepare_context_self_s": "s",
    "evaluation.train_classifier_s": "s",
    "evaluation.sgd_steps": "count",
    "evaluation.evaluate_s": "s",
    "host.calib_s": "s",
    "host.nproc": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from one run's spans.

    The worker adds the timer-based ``evaluation.select_s`` and
    ``evaluation.classify_s`` and ``trace.overhead_s``; the runner adds ``host.*``.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict] = {}
    children_s = [0.0] * len(spans)
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        bucket = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                bucket[key] = bucket.get(key, 0) + value
        if span.parent >= 0:
            children_s[span.parent] += span.seconds

    def self_s(name: str) -> float:
        return float(sum(s.seconds - children_s[i] for i, s in enumerate(spans) if s.name == name))

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def c(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    last = {s.name: s.counts for s in spans if s.counts}
    lines = sum(
        _count_lines(s.counts["path"]) for s in spans if s.name == "embeddings.load"
    )
    subset_spans = {i for i, s in enumerate(spans) if s.name == "selection.subset"}
    scored = sum(
        s.counts.get("rows", 0)
        for s in spans
        if s.parent in subset_spans and s.name in ("similarity.js", "similarity.cosine")
    )
    ae_epochs = c("autoencoder.train", "epochs")
    fits = calls.get("similarity.logreg_fit", 0)
    rounds = c("selection.subset", "rounds")
    return {
        "corpus.load_s": t("corpus.load"),
        "corpus.tokenize_s": t("corpus.tokenize"),
        "corpus.vocab_s": t("corpus.vocab"),
        "corpus.tfidf_fit_s": t("corpus.tfidf_fit"),
        "corpus.tfidf_transform_s": t("corpus.tfidf_transform"),
        "corpus.tfidf_nnz": c("corpus.tfidf_transform", "nnz"),
        "corpus.docs": c("corpus.load", "docs"),
        "corpus.vocab_size": c("corpus.vocab", "vocab_size"),
        "embeddings.load_s": t("embeddings.load"),
        "embeddings.lines_parsed": lines,
        "embeddings.rows_kept": c("embeddings.load", "rows_kept"),
        "embeddings.keep_ratio": _ratio(c("embeddings.load", "rows_kept"), lines),
        "representations.build_s": t("representations.build"),
        "representations.ae_features_s": t("representations.ae_features"),
        "representations.rows": c("representations.build", "rows"),
        "autoencoder.train_s": t("autoencoder.train"),
        "autoencoder.epoch_s": _ratio(t("autoencoder.train"), ae_epochs),
        "autoencoder.batches": c("autoencoder.train", "batches"),
        "autoencoder.params": c("autoencoder.train", "params"),
        "autoencoder.final_loss": last.get("autoencoder.train", {}).get("final_loss", 0.0),
        "autoencoder.encode_s": t("autoencoder.encode"),
        "autoencoder.train_rss_mb": last.get("autoencoder.train", {}).get("rss_mb", 0.0),
        "similarity.js_s": t("similarity.js"),
        "similarity.js_calls": calls.get("similarity.js", 0),
        "similarity.js_rows": c("similarity.js", "rows"),
        "similarity.js_nnz": c("similarity.js", "nnz"),
        "similarity.js_nnz_per_s": _ratio(c("similarity.js", "nnz"), t("similarity.js")),
        "similarity.js_bytes_computed": c("similarity.js", "bytes"),
        "similarity.cosine_s": t("similarity.cosine"),
        "similarity.cosine_rows": c("similarity.cosine", "rows"),
        "similarity.proxy_a_s": t("similarity.proxy_a"),
        "similarity.logreg_fit_s": t("similarity.logreg_fit"),
        "similarity.logreg_iters": c("similarity.logreg_fit", "iters"),
        "similarity.logreg_converged_ratio": _ratio(
            c("similarity.logreg_fit", "converged"), fits
        ),
        "selection.subset_s": t("selection.subset"),
        "selection.subset_self_s": self_s("selection.subset"),
        "selection.subset_rounds": rounds,
        "selection.subset_round_s": _ratio(t("selection.subset"), rounds),
        "selection.candidates_scored": scored,
        "selection.candidates_per_s": _ratio(scored, t("selection.subset")),
        "selection.instance_s": t("selection.instance"),
        "selection.domain_s": t("selection.domain"),
        "selection.baseline_s": t("selection.baseline"),
        "evaluation.prepare_context_self_s": self_s("evaluation.prepare_context"),
        "evaluation.train_classifier_s": t("evaluation.train_classifier"),
        "evaluation.sgd_steps": c("evaluation.train_classifier", "sgd_steps"),
        "evaluation.evaluate_s": t("evaluation.evaluate"),
    }


def _count_lines(path: str) -> int:
    with Path(path).open("rb") as fh:
        return sum(1 for line in fh if line.strip())
