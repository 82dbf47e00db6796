"""Benchmark for ``dataselect evaluate``.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs are generated from the seed into ``perfbench/_cache`` before any
timing. Each evaluate call then runs in a fresh Python process; calls repeat
until ``--seconds`` have passed (at least one) and every metric is the
median over them. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``. The line before
it lists the id and ``results.tsv`` hashes, and the one before that the host.
Add ``--record`` to store this run's hashes as the reference for its seed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# Every process a run starts is killed this long after the run began.
RUN_LIMIT_S = 170
MAX_SETUP_SAMPLES = 5

# Selection and classification seconds are per-layer metrics of the traced
# run: on a shared host their run-to-run spread exceeds any allowed bound
# where they are short (selection on graded-autoencoder, classification on
# every workload), while wall_s, which contains both, stays steady.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "acc.random": "fraction",
    "acc.balanced": "fraction",
    "acc.instance": "fraction",
}


def calibration_s() -> float:
    """Time a fixed pure-Python plus numpy loop, to tell host drift from regressions."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    a = np.arange(1_000_000, dtype=np.float64)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def blas_threads() -> int | None:
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record() -> dict:
    import numpy as np
    import scipy

    return {
        "calib_s": calibration_s(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def run_child(
    argv: list[str], trace: bool, scratch: Path, deadline: float, setup_only: bool = False
) -> dict:
    """One evaluate call in a fresh interpreter; returns the worker's record.

    The child is killed at ``deadline`` (a ``time.monotonic`` value).
    """
    spec_path = scratch / "spec.json"
    record_path = scratch / "record.json"
    record_path.unlink(missing_ok=True)
    spec_path.write_text(
        json.dumps(
            {"argv": argv, "trace": trace, "setup_only": setup_only, "record": str(record_path)}
        ),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
    except subprocess.TimeoutExpired:
        return {"code": None, "error": "killed at the run's time limit", "operations": []}
    if proc.returncode != 0 or not record_path.exists():
        return {"code": None, "error": proc.stderr[-4000:], "operations": []}
    return json.loads(record_path.read_text("utf-8"))


def run_workload(
    workload, seed: int, seconds: float, trace: bool, cache: Path, deadline: float
) -> tuple[list[dict], list[float]]:
    """Evaluate calls until ``seconds`` have passed (at least one), then set-up samples.

    Untraced, set-up-only calls follow until the summed set-up time of all
    calls reaches ``seconds`` or there are MAX_SETUP_SAMPLES samples; they
    steady ``setup_s`` where one set-up is short. Returns the evaluate
    records and every set-up time measured.
    """
    from workloads import evaluate_argv, prepare_inputs

    inputs = prepare_inputs(workload, seed, cache)
    scratch = cache / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "out"
    argv = evaluate_argv(workload, inputs, out)
    records = []
    try:
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            shutil.rmtree(out, ignore_errors=True)
            records.append(run_child(argv, trace, scratch, deadline))
            if records[-1]["code"] != 0:
                return records, []
        setups = [r["timings"]["setup_s"] for r in records]
        while not trace and sum(setups) < seconds and len(setups) < MAX_SETUP_SAMPLES:
            probe = run_child(argv, False, scratch, deadline, setup_only=True)
            if probe["code"] != 0:
                records.append(probe)
                break
            setups.append(probe["timings"]["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return records, setups


def summarize(
    workload, records: list[dict], setups: list[float], trace: bool, host: dict, reference
) -> dict:
    """Fold the records of one run into the benchmark's result line.

    ``reference`` maps operation keys and ``results.tsv`` to the hashes
    stored for this seed, or is None when no reference exists for it.
    """
    import spans

    planned = [f"{s}/{r}" for s in workload.strategies for r in range(workload.runs)]
    attempted = len(planned) * len(records)
    failed = 0
    problems = []
    for record in records:
        if record["code"] != 0:
            failed += len(planned)
            problems.append(f"evaluate failed (code {record['code']}): {record['error']}")
            continue
        ops = {op["key"]: op for op in record["operations"]}
        for key in planned:
            op = ops.get(key)
            bad = ["did not run"] if op is None else list(op["problems"])
            if op and reference and reference["ids"].get(key) != op["ids_sha256"]:
                bad.append("ids differ from the reference")
            if bad:
                failed += 1
                problems.append(f"{key}: {'; '.join(bad)}")
        if reference and record["results_tsv_sha256"] != reference["results_tsv"]:
            problems.append("results.tsv differs from the reference")
        if trace:
            missing = workload.expected_spans - set(record["fired"])
            if missing:
                problems.append(f"spans that never fired: {sorted(missing)}")
    ok = [r for r in records if r["code"] == 0]
    metrics = {}
    if ok:
        if trace:
            values = {name: [r["layers"][name] for r in ok] for name in ok[0]["layers"]}
            values["host.calib_s"] = [host["calib_s"]]
            values["host.nproc"] = [host["nproc"]]
            units = spans.LAYER_METRICS
        else:
            values = {name: [r["timings"][name] for r in ok] for name in ok[0]["timings"]}
            values["setup_s"] = setups
            for strategy in ("random", "balanced", "instance"):
                values[f"acc.{strategy}"] = [r["accuracy"][strategy] for r in ok]
            units = END_TO_END
        metrics = {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in units.items()
        }
    return {
        "correct": not problems and bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "hashes": _hashes(records),
    }


def _hashes(records: list[dict]) -> dict:
    first = next((r for r in records if r["code"] == 0), None)
    if first is None:
        return {}
    return {
        "results_tsv": first["results_tsv_sha256"],
        "ids": {op["key"]: op["ids_sha256"] for op in first["operations"]},
        "accuracy": first["accuracy"],
    }


def load_reference(workload: str, seed: int):
    if not REFERENCE.exists():
        return None
    stored = json.loads(REFERENCE.read_text("utf-8"))
    if stored.get("seed") != seed:
        return None
    return stored["workloads"].get(workload)


def record_reference(workload: str, seed: int, hashes: dict) -> None:
    stored = json.loads(REFERENCE.read_text("utf-8")) if REFERENCE.exists() else {}
    if stored.get("seed") != seed:
        stored = {"seed": seed, "workloads": {}}
    stored["workloads"][workload] = hashes
    REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true", help="store this run's hashes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dataselect" / "cli.py").is_file():
        print(f"error: no dataselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    host = host_record()
    reference = None if args.record else load_reference(workload.name, args.seed)
    records, setups = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), HERE / "_cache", deadline
    )
    result = summarize(workload, records, setups, bool(args.trace), host, reference)
    for problem in result.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    hashes = result.pop("hashes")
    if args.record and result["correct"]:
        record_reference(workload.name, args.seed, hashes)
    print(json.dumps({"host": host}, sort_keys=True))
    print(json.dumps({"hashes": hashes, "reference_checked": reference is not None}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
