"""Run one ``dataselect evaluate`` call in a fresh process and record it.

Usage: ``python3 perfbench/worker.py SPEC.json`` where the spec holds the
evaluate argv, whether to trace, and where to write the record. Untraced,
the only instrumentation is one timer around ``cli.prepare_context`` (end of
set-up) and one around each ``evaluation.run_selection`` call. Traced, every
call site in ``spans.span_table`` records a span. Either way the selections
are checked after ``cli.main`` has returned, outside every timer.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

SCORE_TOLERANCE = 1e-12


class SetupDone(BaseException):
    """Ends a set-up-only call once ``prepare_context`` has returned.

    A BaseException, so neither ``cli.main`` nor the crash handler below
    mistakes it for a failure.
    """


def ids_sha256(ids) -> str:
    return hashlib.sha256("".join(i + "\n" for i in ids).encode()).hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_selection(result, config, pool_ids: set[str], context) -> list[str]:
    """Invariant and scalar-recomputation problems of one selection."""
    from dataselect.similarity import COSINE, JENSEN_SHANNON, cosine, js_divergence

    problems = []
    chosen = result.chosen
    if len(set(chosen)) != len(chosen):
        problems.append("duplicate ids")
    outside = [i for i in chosen if i not in pool_ids]
    if outside:
        problems.append(f"{len(outside)} ids outside the labelled non-target pool")
    if len(chosen) > config.n:
        problems.append(f"{len(chosen)} ids for n={config.n}")
    metric = config.resolved_metric
    if result.subset_scores and metric in (JENSEN_SHANNON, COSINE):
        # A truncated final winner no longer matches its recorded score.
        for k, (members, score) in enumerate(
            zip(result.iteration_members, result.subset_scores)
        ):
            if len(members) != config.s:
                continue
            pooled = context.space.aggregate(members)
            scalar = js_divergence if metric == JENSEN_SHANNON else cosine
            value = scalar(pooled, context.target_repr).value
            if not abs(value - score) <= SCORE_TOLERANCE:
                problems.append(f"round {k}: subset score {score!r}, scalar path {value!r}")
                break
    return problems


def measure(argv: list[str], trace: bool, setup_only: bool = False) -> dict:
    """Call ``cli.main(argv)`` once in this process and describe what happened.

    With ``setup_only`` the call stops as soon as set-up has finished and
    only ``setup_s`` is recorded.
    """
    from dataselect import cli, evaluation

    selections = []
    marks = {"setup_end": None, "select_s": 0.0, "context": None}
    recorder = spans.Recorder()
    prepare_context = cli.prepare_context
    run_selection = evaluation.run_selection

    def timed_prepare_context(*args, **kwargs):
        context = prepare_context(*args, **kwargs)
        marks["setup_end"] = time.perf_counter()
        marks["context"] = context
        if setup_only:
            raise SetupDone
        return context

    def timed_run_selection(context, config, seed):
        start = time.perf_counter()
        result = run_selection(context, config, seed)
        marks["select_s"] += time.perf_counter() - start
        selections.append((config, seed, result))
        return result

    code, error = None, None
    cli.prepare_context = timed_prepare_context
    evaluation.run_selection = timed_run_selection
    try:
        with spans.traced(recorder) if trace else contextlib.nullcontext():
            start = time.perf_counter()
            code = cli.main(argv)
            wall_s = time.perf_counter() - start
    except SetupDone:
        return {"code": 0, "timings": {"setup_s": marks["setup_end"] - start}}
    except Exception:  # a crash is a failed run, reported with its traceback
        error = traceback.format_exc()
        wall_s = None
    finally:
        cli.prepare_context = prepare_context
        evaluation.run_selection = run_selection
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"code": code, "error": error, "operations": []}
    if code != 0 or marks["setup_end"] is None:
        return record
    setup_s = marks["setup_end"] - start
    record["timings"] = {
        "setup_s": setup_s,
        "select_s": marks["select_s"],
        "classify_s": wall_s - setup_s - marks["select_s"],
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    context = marks["context"]
    pool_ids = {
        d.id
        for d in context.corpus
        if d.domain != context.target_domain and d.label is not None
    }
    runs_seen: dict[str, int] = {}
    for config, seed, result in selections:
        run = runs_seen.get(config.strategy, 0)
        runs_seen[config.strategy] = run + 1
        record["operations"].append(
            {
                "key": f"{config.strategy}/{run}",
                "ids_sha256": ids_sha256(result.chosen),
                "problems": check_selection(result, config, pool_ids, context),
            }
        )
    out = Path(argv[argv.index("--out") + 1])
    record["results_tsv_sha256"] = file_sha256(out / "results.tsv")
    results = json.loads((out / "results.json").read_text("utf-8"))["results"]
    record["accuracy"] = {r["strategy"]: r["mean"] for r in results}
    if trace:
        record["layers"] = spans.layer_metrics(recorder.spans)
        record["layers"]["evaluation.select_s"] = record["timings"]["select_s"]
        record["layers"]["evaluation.classify_s"] = record["timings"]["classify_s"]
        record["fired"] = sorted({s.name for s in recorder.spans})
        record["layers"]["trace.overhead_s"] = len(recorder.spans) * spans.span_cost_s()
    return record


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    record = measure(spec["argv"], spec["trace"], spec["setup_only"])
    Path(spec["record"]).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
