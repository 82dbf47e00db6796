"""Peak memory at scale grows with the corpus's nonzeros, not docs x |V|.

``tests/data/scale.json`` generates 27,000 documents over 9 domains with a
full 10,000-token vocabulary and about 2.1M n-gram nonzeros. Each selection
runs in a fresh process that reports its own peak RSS, which must stay under
100 MB plus 128 bytes per n-gram nonzero (about 366 MB here). One dense
27,000 x 10,000 float64 array alone is 2,160 MB, so a path that densifies
the corpus fails the bound. Run with ``python -m pytest -m scale``; it takes
about half a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dataselect import cli
from dataselect.corpus import VOCAB_CAP, build_vocabulary, load_corpus, tokenize_corpus

pytestmark = pytest.mark.scale

SPEC = Path(__file__).parent / "data" / "scale.json"
SRC = str(Path(cli.__file__).resolve().parents[1])

# Runs the CLI and prints this process's own peak RSS in KiB (Linux
# ``ru_maxrss``). ``RUSAGE_CHILDREN`` would instead report the largest of
# every earlier child of the test process.
PEAK_RSS = (
    "import resource, sys\n"
    "from dataselect.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    "sys.exit(code)\n"
)


def run(*argv, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1]) * 1024


@pytest.fixture(scope="module")
def scale(tmp_path_factory):
    root = tmp_path_factory.mktemp("scale")
    run("generate", "--spec", str(SPEC), "--out", str(root / "corpus"), cwd=root)
    corpus = load_corpus(root / "corpus" / "all.jsonl")
    encoded = tokenize_corpus(corpus)
    assert len(corpus) == 27_000 and len(build_vocabulary(encoded)) == VOCAB_CAP
    return root, encoded.counts.nnz


@pytest.mark.parametrize(
    "flags",
    [
        ["--strategy", "instance"],
        ["--strategy", "domain"],
        ["--strategy", "instance", "--metric", "cosine"],
        ["--strategy", "instance", "--metric", "proxy_a"],
    ],
    ids=["js-instance", "js-domain", "cosine-instance", "proxy_a-instance"],
)
def test_select_peak_rss_is_bounded_by_nnz(scale, flags):
    root, nnz = scale
    out = root / "-".join(flags)
    peak = run(
        "select", "--corpus", str(root / "corpus" / "all.jsonl"), "--target", "target",
        "--n", "1600", "--out", str(out), *flags, cwd=root,
    )
    assert len((out / "selection_ids.txt").read_text("utf-8").splitlines()) == 1600
    assert peak <= 100e6 + 128 * nnz, (peak, nnz)
