"""Smoke tests of the benchmark on tiny generated corpora.

They run the real worker in fresh processes, as the benchmark does, on
miniature versions of the four workloads, and check the result schema, the
failure accounting and that every declared span fires.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tiny_corpus(seed: int):
    from dataselect.synthetic import DomainSpec, generate

    size = dict(docs_per_label=30, shared_vocab_size=20, private_vocab_size=8, lexicon_size=12)
    sources = [
        DomainSpec(name=f"src{i}", overlap=overlap, seed=seed * 10 + i, **size)
        for i, overlap in enumerate((0.9, 0.5, 0.1))
    ]
    return generate(sources, DomainSpec(name="target", seed=seed * 10 + 9, **size))


def tiny(workload):
    return dataclasses.replace(
        workload,
        corpus=tiny_corpus,
        n=40,
        flags=workload.flags + ("--m", "30", "--ae-hidden", "6"),
        embedding_filler=25,
    )


TINY = {name: tiny(w) for name, w in WORKLOADS.items()}


def run_tiny(workload, tmp_path, trace):
    deadline = time.monotonic() + 120
    records, setups = bench.run_workload(workload, 3, 0, trace, tmp_path / "cache", deadline)
    host = {"calib_s": 0.5, "nproc": 2}
    return records, bench.summarize(workload, records, setups, trace, host, None)


def test_traced_runs_fire_every_declared_span(tmp_path):
    fired = set()
    for name, workload in TINY.items():
        records, result = run_tiny(workload, tmp_path, trace=True)
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
        assert set(result["metrics"]) == set(spans.LAYER_METRICS)
        assert workload.expected_spans <= set(records[0]["fired"])
        for span in workload.expected_spans:
            metric = f"{span}_s"
            if metric in spans.LAYER_METRICS:
                assert result["metrics"][metric]["value"] > 0, (name, metric)
        fired |= set(records[0]["fired"])
    assert fired == spans.declared_spans()


def test_untraced_schema_and_failure_accounting(tmp_path):
    workload = TINY["graded-subset"]
    records, result = run_tiny(workload, tmp_path, trace=False)
    assert result["correct"], result["problems"]
    assert result["attempted"] == len(workload.strategies) == 5
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    assert json.loads(json.dumps(line)) == line

    reference = dict(result["hashes"])
    assert reference["ids"].keys() == {f"{s}/0" for s in workload.strategies}
    reference["ids"] = dict(reference["ids"], **{"subset/0": "0" * 64})
    host = {"calib_s": 0.5, "nproc": 2}
    checked = bench.summarize(workload, records, [0.1], False, host, reference)
    assert checked["failed"] == 1 and not checked["correct"]

    reference = dict(result["hashes"], results_tsv="0" * 64)
    checked = bench.summarize(workload, records, [0.1], False, host, reference)
    assert checked["failed"] == 0 and not checked["correct"]


def test_failed_evaluate_fails_every_operation(tmp_path):
    broken = dataclasses.replace(TINY["blended-proxy"], flags=TINY["blended-embedding"].flags)
    _, result = run_tiny(broken, tmp_path, trace=False)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 5
    assert result["metrics"] == {}


def test_selection_invariants():
    config = SimpleNamespace(n=3, s=2, resolved_metric="cosine")
    result = SimpleNamespace(chosen=["a", "a", "x", "b"], subset_scores=None)
    problems = worker.check_selection(result, config, {"a", "b"}, context=None)
    assert problems == ["duplicate ids", "1 ids outside the labelled non-target pool", "4 ids for n=3"]
    result = SimpleNamespace(chosen=["a", "b"], subset_scores=None)
    assert worker.check_selection(result, config, {"a", "b"}, context=None) == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graded-subset",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_seeded(tmp_path, name):
    from workloads import prepare_inputs

    workload = TINY[name]
    first = {k: p.read_bytes() for k, p in prepare_inputs(workload, 5, tmp_path / "a").items()}
    again = {k: p.read_bytes() for k, p in prepare_inputs(workload, 5, tmp_path / "b").items()}
    other = {k: p.read_bytes() for k, p in prepare_inputs(workload, 6, tmp_path / "c").items()}
    assert first == again
    assert first["corpus"] != other["corpus"]
