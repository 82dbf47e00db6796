"""Contract tests for the command-line front end.

They pin what users and scripts rely on: exit codes, the precedence of
flags over config-file values, the set of flags each subcommand accepts,
the set of config-file keys, and byte-identical output files on reruns.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dataselect import cli, evaluation, selection
from dataselect.autoencoder import AETrainConfig
from dataselect.corpus import load_corpus, preprocess
from dataselect.errors import ConfigError
from dataselect.evaluation import t_test
from dataselect.selection import STRATEGIES, SelectionConfig

COMMON_FLAGS = {
    "-h", "--help", "--config", "--corpus", "--target", "--representation", "--metric",
    "--s", "--m", "--ae-hidden", "--ae-epochs", "--seed", "--out", "--embeddings",
    "--stopwords",
}

# a subcommand has a flag for each setting it reads, and for no other: select
# runs once, and sweep takes its sizes from --n-values
SUBCOMMAND_FLAGS = {
    "select": COMMON_FLAGS | {"--strategy", "--task", "--n"},
    "evaluate": COMMON_FLAGS | {"--strategies", "--task", "--n", "--runs"},
    "sweep": COMMON_FLAGS | {"--strategies", "--runs", "--n-values"},
    "generate": {"-h", "--help", "--config", "--seed", "--out", "--catalog", "--spec"},
}

# sha256 of each ``generate --catalog`` file, by generator seed
CATALOG_SHA256 = Path(__file__).parent / "data" / "catalog_sha256.json"

# key -> (config-file text, parsed value)
CONFIG_KEYS = {
    "task": ("binary", "binary"),
    "corpus": ("c.jsonl", "c.jsonl"),
    "target": ("tgt", "tgt"),
    "strategy": ("instance", "instance"),
    "strategies": ("domain, subset,", ("domain", "subset")),
    "representation": ("embedding", "embedding"),
    "metric": ("cosine", "cosine"),
    "n": ("12", 12),
    "s": ("4", 4),
    "m": ("30", 30),
    "ae_hidden": ("8", 8),
    "ae_epochs": ("2", 2),
    "runs": ("3", 3),
    "seed": ("7", 7),
    "out": ("results", "results"),
    "embeddings": ("v.txt", "v.txt"),
    "stopwords": ("stop.txt", "stop.txt"),
}

SPEC = {
    "target": {"name": "tgt", "docs_per_label": 12, "lexicon_size": 10,
               "shared_vocab_size": 20, "private_vocab_size": 8, "doc_length": [5, 9]},
    "sources": [
        {"name": "near", "overlap": 0.8, "docs_per_label": 12, "lexicon_size": 10,
         "shared_vocab_size": 20, "private_vocab_size": 8, "doc_length": [5, 9]},
        {"name": "far", "overlap": 0.1, "docs_per_label": 12, "lexicon_size": 10,
         "shared_vocab_size": 20, "private_vocab_size": 8, "doc_length": [5, 9]},
    ],
}

# generate specs whose shape or field types are wrong
BAD_SPECS = [
    {**SPEC, "sources": 5},
    {**SPEC, "sources": [5]},
    {**SPEC, "target": {**SPEC["target"], "doc_length": 5}},
    {**SPEC, "target": {**SPEC["target"], "docs_per_label": 1.5}},
    {**SPEC, "target": "x"},
    # generator settings that are module constants, not spec keys
    {**SPEC, "target": {**SPEC["target"], "topical_affinity": 0.5}},
    {**SPEC, "sources": [{**SPEC["sources"][0], "sentiment_fraction": 0.4}]},
]

# a bad value of each run setting checked before the corpus loads, on every
# subcommand that loads one
BAD_RUN_VALUES = [
    command + bad
    for command, size in ((["select"], ["--n", "0"]), (["evaluate"], ["--runs", "0"]),
                          (["sweep", "--n-values", "4"], ["--runs", "0"]))
    for bad in (["--s", "0"], ["--m", "0"], ["--ae-epochs", "0"], size,
                ["--ae-hidden", "0"], ["--stopwords", ""],
                ["--representation", "embedding", "--embeddings", ""],
                ["--representation", "embedding"])
]


def text_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def edited_corpus(data, tmp_path, edit):
    """The module's corpus with each document passed through ``edit``, which
    returns the document to keep (changed or not) or None to drop it."""
    docs = [json.loads(line) for line in data["corpus"].read_text("utf-8").splitlines()]
    kept = (doc for doc in map(edit, docs) if doc is not None)
    return text_file(tmp_path, "corpus.jsonl", "".join(json.dumps(doc) + "\n" for doc in kept))


def corpus_args(corpus, *run):
    return ["--corpus", corpus, "--target", "tgt", *run]


# One case per error branch that only bad input reaches, by exit code: a
# builder from the module's data and a scratch directory to the argv (without
# --out) and the start of the one stderr line it prints.
ERROR_BRANCHES = {
    "config-value-outside-its-choices": (1, lambda data, tmp: (
        ["select", "--config",
         text_file(tmp, "run.conf", "# a comment\n\nrepresentation = nope\n"),
         *corpus_args(str(data["corpus"]))],
        "error: representation must be one of ('term_dist', 'embedding', 'autoencoder'), "
        "got 'nope'\n",
    )),
    "unknown-strategy": (1, lambda data, tmp: (
        ["evaluate", "--strategies", "random,bogus", *corpus_args(str(data["corpus"]))],
        "error: unknown strategy 'bogus'\n",
    )),
    "no-corpus": (1, lambda data, tmp: (
        ["select", "--target", "tgt"],
        "error: a corpus path is required (corpus = ... or --corpus)\n",
    )),
    "unknown-target": (1, lambda data, tmp: (
        ["select", "--corpus", str(data["corpus"]), "--target", "nope"],
        "error: unknown target domain 'nope'\n",
    )),
    "no-n-values": (1, lambda data, tmp: (
        ["sweep", "--n-values", ",", *corpus_args(str(data["corpus"]))],
        "error: sweep requires at least one n value\n",
    )),
    "descending-n-values": (1, lambda data, tmp: (
        ["sweep", "--n-values", "50,20", *corpus_args(str(data["corpus"]))],
        "error: n values must be strictly ascending, got [50, 20]\n",
    )),
    "generate-without-catalog-or-spec": (1, lambda data, tmp: (
        ["generate"], "error: generate needs either --catalog or a spec file\n",
    )),
    "spec-not-json": (1, lambda data, tmp: (
        ["generate", "--spec", text_file(tmp, "spec.json", "{not json")],
        f"error: {tmp / 'spec.json'}: invalid JSON (",
    )),
    "spec-source-without-name": (1, lambda data, tmp: (
        ["generate", "--spec", text_file(tmp, "spec.json", json.dumps(
            {**SPEC, "sources": [{k: v for k, v in SPEC["sources"][0].items() if k != "name"}]}
        ))],
        "error: bad domain spec: ",
    )),
    **{
        f"spec-{key}": (1, lambda data, tmp, key=key, value=value, message=message: (
            ["generate", "--spec", text_file(tmp, "spec.json", json.dumps(
                {**SPEC, "target": {**SPEC["target"], key: value}}
            ))],
            f"error: {message}\n",
        ))
        for key, value, message in [
            ("docs_per_label", 0, "vocab, lexicon, and docs-per-label sizes must be >= 1"),
            ("private_vocab_size", -1, "private_vocab_size must be >= 0"),
            ("labels", ["negative", "great"], "unsupported label 'great'"),
        ]
    },
    "target-without-labels": (2, lambda data, tmp: (
        ["evaluate", "--strategies", "instance", *corpus_args(edited_corpus(
            data, tmp, lambda doc: {**doc, "label": None} if doc["domain"] == "tgt" else doc
        ), *SMALL["evaluate"])],
        "data error: target domain 'tgt' has no labeled documents\n",
    )),
    "target-alone": (2, lambda data, tmp: (
        ["select", *corpus_args(edited_corpus(
            data, tmp, lambda doc: doc if doc["domain"] == "tgt" else None
        ), *SMALL["select"])],
        "data error: no source domains besides the target\n",
    )),
    "no-labeled-source": (2, lambda data, tmp: (
        ["evaluate", "--strategies", "instance", *corpus_args(edited_corpus(
            data, tmp, lambda doc: doc if doc["domain"] == "tgt" else {**doc, "label": None}
        ), *SMALL["evaluate"])],
        "data error: selection pool is empty (no labeled source documents)\n",
    )),
    "jsonl-array-line": (2, lambda data, tmp: (
        ["select", *corpus_args(text_file(tmp, "corpus.jsonl", "\n[]\n"))],
        f"data error: {tmp / 'corpus.jsonl'}, line 2: expected a JSON object\n",
    )),
    "vector-line-without-components": (2, lambda data, tmp: (
        ["select", "--representation", "embedding",
         "--embeddings", text_file(tmp, "vectors.txt", "\nword\nother 1 2 3 4\n"),
         *corpus_args(str(data["corpus"]))],
        f"data error: {tmp / 'vectors.txt'}, line 2: no vector components\n",
    )),
    "stopword-only-sources": (2, lambda data, tmp: (
        ["evaluate", "--strategies", "instance", *corpus_args(edited_corpus(
            data, tmp, lambda doc: doc if doc["domain"] == "tgt" else {**doc, "text": "the and of"}
        ), *SMALL["evaluate"])],
        "data error: run 0: cannot fit tf-idf on an empty document list\n",
    )),
}


# small runs, each through the flags its command has
SMALL = {
    "select": ["--n", "10", "--s", "3", "--m", "20"],
    "evaluate": ["--n", "10", "--s", "3", "--m", "20", "--runs", "2"],
    "sweep": ["--s", "3", "--m", "20", "--runs", "2"],
}


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    assert cli.main(["generate", "--spec", str(spec), "--out", str(root / "corpus")]) == 0
    corpus = root / "corpus" / "all.jsonl"
    tokens = sorted({t for d in load_corpus(corpus) for t in preprocess(d.text)})
    rng = np.random.default_rng(0)
    lines = [t + " " + " ".join(f"{v:.6f}" for v in rng.normal(size=4)) for t in tokens]
    lines.append("unseenword 1 2 3 4")
    vectors = root / "vectors.txt"
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"root": root, "spec": spec, "corpus": corpus, "vectors": vectors}


def base_args(data, out, command="select"):
    return ["--corpus", str(data["corpus"]), "--target", "tgt", "--out", str(out)] + SMALL[command]


class TestExitCodes:
    def test_success_is_zero(self, data, tmp_path):
        assert cli.main(["select"] + base_args(data, tmp_path)) == 0

    def test_usage_error_is_one(self, data, tmp_path):
        args = base_args(data, tmp_path)
        assert cli.main(["select", "--representation", "nope"] + args) == 1
        assert cli.main(["select", "--n", "many"] + args) == 1
        assert cli.main(["select", "--bogus-flag"] + args) == 1
        assert cli.main(["select", "--corpus", str(data["corpus"]), "--out", str(tmp_path)]) == 1
        assert cli.main(["select", "--ae-hidden", "0"] + args) == 1
        assert cli.main(["select", "--ae-epochs", "0"] + args) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--strategy", "domain", "--representation", "autoencoder",
             "--metric", "jensen_shannon"],
            ["evaluate", "--strategies", "instance", "--representation", "embedding",
             "--metric", "jensen_shannon"],
            ["evaluate", "--strategies", "domain", "--metric", "proxy_a"],
            ["sweep", "--n-values", "4", "--strategies", "subset", "--metric", "proxy_a"],
            ["select", "--strategy", "subset", "--metric", "proxy_a"],
            ["evaluate", "--strategies", "instance,subset", "--metric", "proxy_a"],
        ],
    )
    def test_bad_metric_pairing_is_one_before_loading(self, tmp_path, argv):
        missing = tmp_path / "missing.jsonl"  # loading it would exit 2
        out = tmp_path / "out"
        argv = argv + ["--corpus", str(missing), "--target", "tgt", "--out", str(out)]
        assert cli.main(argv) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "line, message",
        [
            ("lowercase = no", "unknown config key 'lowercase'"),
            ("allow_proxy_a_subsets = yes", "unknown config key 'allow_proxy_a_subsets'"),
            ("stopwords = ", "an empty stopwords value names no file"),
        ],
    )
    def test_bad_config_key_or_value_is_one_before_loading(self, tmp_path, capsys, line,
                                                            message):
        config = tmp_path / "run.conf"
        config.write_text(line + "\n", encoding="utf-8")
        argv = ["select", "--config", str(config), "--corpus", str(tmp_path / "missing.jsonl"),
                "--target", "tgt", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--ae-hidden", "0"],
            ["evaluate", "--ae-epochs", "-1"],
            ["sweep", "--n-values", "4", "--ae-hidden", "-2"],
            ["select", "--ae-epochs", "0"],
        ]
        + BAD_RUN_VALUES,
    )
    def test_bad_training_value_is_one_before_loading(self, tmp_path, argv):
        missing = tmp_path / "missing.jsonl"  # loading it would exit 2
        out = tmp_path / "out"
        argv = argv + ["--corpus", str(missing), "--target", "tgt", "--out", str(out)]
        assert cli.main(argv) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", BAD_RUN_VALUES)
    def test_bad_run_value_is_one_with_a_corpus(self, data, tmp_path, argv):
        argv = argv + ["--corpus", str(data["corpus"]), "--target", "tgt",
                       "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--catalog", "--spec", "missing.json"],
            ["evaluate", "--strategies", "instance,instance"],
            ["sweep", "--n-values", "4", "--strategies", "random,domain,random"],
            ["sweep", "--n-values", "4", "--strategies", ","],
        ],
    )
    def test_conflicting_or_repeated_input_is_one_before_writing(self, data, tmp_path, argv):
        if argv[0] != "generate":  # which takes no corpus flags
            argv = argv + ["--corpus", str(data["corpus"]), "--target", "tgt"]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert not any(tmp_path.iterdir())

    def test_non_integer_n_value_names_the_flag(self, tmp_path, capsys):
        argv = ["sweep", "--n-values", "1,x", "--corpus", str(tmp_path / "missing.jsonl"),
                "--target", "tgt", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: argument --n-values: expected comma-separated integers, got '1,x'\n"
        )
        assert not any(tmp_path.iterdir())

    def test_generate_rejects_run_flags(self, tmp_path, capsys):
        argv = ["generate", "--catalog", "--seed", "3", "--runs", "0", "--ae-epochs", "0",
                "--n", "5", "--corpus", str(tmp_path / "nothing.jsonl"),
                "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_generate_rejects_config_keys_it_does_not_read(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text(
            f"seed = 3\nruns = 0\nae_epochs = 0\nn = 5\ncorpus = {tmp_path / 'nothing.jsonl'}\n",
            encoding="utf-8",
        )
        argv = ["generate", "--catalog", "--config", str(config), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 1
        assert "generate does not read config key 'runs'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.conf"]

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["select"], ["--runs", "2"]),
            # a flag is matched whole: --n is not short for --n-values
            (["sweep", "--n-values", "4"], ["--n", "5"]),
            (["sweep", "--n-values", "4"], ["--task", "binary"]),
        ],
    )
    def test_flag_of_a_setting_the_command_does_not_read_is_one(self, tmp_path, capsys,
                                                                command, flag):
        argv = command + flag + ["--corpus", str(tmp_path / "missing.jsonl"), "--target", "tgt",
                                 "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for command in sorted(SUBCOMMAND_FLAGS)
            for key in CONFIG_KEYS
            if "--" + key.replace("_", "-") not in SUBCOMMAND_FLAGS[command]
        ],
    )
    def test_config_key_the_command_does_not_read_is_one(self, tmp_path, capsys, command, key):
        """A config file sets only the keys its command has flags for; any
        other is named before an input is read."""
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {CONFIG_KEYS[key][0]}\n", encoding="utf-8")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        argv += {"generate": ["--catalog"], "sweep": ["--n-values", "4"]}.get(command, [])
        if command != "generate":  # loading the missing corpus would exit 2
            argv += ["--corpus", str(tmp_path / "missing.jsonl"), "--target", "tgt"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: {command} does not read config key {key!r}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    def test_generate_reads_seed_and_out_from_config(self, tmp_path):
        out = tmp_path / "from_file"
        config = tmp_path / "gen.conf"
        config.write_text(f"seed = 3\nout = {out}\n", encoding="utf-8")
        assert cli.main(["generate", "--catalog", "--config", str(config)]) == 0
        assert (out / "graded" / "all.jsonl").is_file()

    def test_listed_baseline_is_run_once(self, data, tmp_path):
        argv = ["evaluate", "--strategies", "instance,random"]
        argv += base_args(data, tmp_path, "evaluate") + ["--runs", "1"]
        assert cli.main(argv) == 0
        rows = (tmp_path / "results.tsv").read_text("utf-8").splitlines()
        assert [r.split("\t")[1] for r in rows[1:]] == ["random", "balanced", "instance"]

    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_bad_generate_spec_is_one(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["generate", "--spec", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    @pytest.mark.parametrize("doc_id", ["", "a\nb"])
    def test_id_that_is_not_one_line_is_two(self, data, tmp_path, capsys, doc_id):
        lines = data["corpus"].read_text("utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({**first, "id": doc_id}) + "\n" + "".join(lines[1:]),
                          encoding="utf-8")
        argv = ["select", "--corpus", str(corpus), "--target", "tgt",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"data error: {corpus}, line 1: ")
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_duplicate_id_names_its_file_and_line(self, data, tmp_path, capsys):
        lines = data["corpus"].read_text("utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])["id"]
        repeat = json.dumps({**json.loads(lines[2]), "id": first}) + "\n"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines[:2]) + repeat + "".join(lines[3:]), encoding="utf-8")
        argv = ["select", "--corpus", str(corpus), "--target", "tgt",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {corpus}, line 3: duplicate document id {first!r}\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_domain_level_skips_a_source_domain_without_pool_documents(
        self, data, tmp_path, monkeypatch
    ):
        """An unlabeled source domain still informs the scores, but evaluate's
        pool holds only labeled documents, so its domain-level selection takes
        the next domain; select's pool keeps unlabeled documents and takes it."""
        docs = [json.loads(line) for line in data["corpus"].read_text("utf-8").splitlines()]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(json.dumps({**d, "label": None} if d["domain"] == "near" else d) + "\n"
                    for d in docs),
            encoding="utf-8",
        )
        chosen = []
        select_domain_level = selection.select_domain_level

        def recording(*args):
            result = select_domain_level(*args)
            chosen.append(result.chosen_domain)
            return result

        monkeypatch.setattr(selection, "select_domain_level", recording)
        args = ["--corpus", str(corpus), "--target", "tgt"]
        argv = ["select", "--strategy", "domain", "--out", str(tmp_path / "sel")]
        assert cli.main(argv + args + SMALL["select"]) == 0
        argv = ["evaluate", "--strategies", "domain", "--out", str(tmp_path / "eval")]
        assert cli.main(argv + args + SMALL["evaluate"]) == 0
        assert chosen == ["near", "far", "far"]

    @pytest.mark.parametrize("strategy", ["instance", "domain"])
    def test_cosine_against_an_all_zero_target_is_two(self, data, tmp_path, capsys, strategy):
        # no corpus token has a vector, so the target's embedding is all zeros
        vectors = tmp_path / "oov.txt"
        vectors.write_text("unseenword 1 2 3 4\n", encoding="utf-8")
        argv = ["select", "--strategy", strategy, "--representation", "embedding",
                "--embeddings", str(vectors)] + base_args(data, tmp_path / "out")
        assert cli.main(argv) == 2
        assert "target vector is all zeros" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["oov.txt"]

    @staticmethod
    def select_with_scaled_vectors(data, tmp_path, scale):
        """``select --strategy instance`` over the module's vectors times ``scale``."""
        lines = data["vectors"].read_text("utf-8").splitlines()
        vectors = tmp_path / "scaled.txt"
        vectors.write_text("".join(
            token + "".join(f" {float(v) * scale!r}" for v in values) + "\n"
            for token, *values in map(str.split, lines)
        ), encoding="utf-8")
        argv = ["select", "--strategy", "instance", "--n", "5", "--representation", "embedding",
                "--embeddings", str(vectors), "--corpus", str(data["corpus"]), "--target", "tgt",
                "--out", str(tmp_path / "out")]
        return cli.main(argv)

    def test_cosine_target_with_overflowing_squares_is_two(self, data, tmp_path, capsys):
        """Vectors scaled by 1e200 are finite, but their squares overflow, so
        every cosine would be NaN or 0 and no document could be selected."""
        assert self.select_with_scaled_vectors(data, tmp_path, 1e200) == 2
        assert "target vector has a squared norm that is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cosine_target_with_underflowing_squares_is_two(self, data, tmp_path, capsys):
        """Vectors scaled by 1e-163 have a direction, but their squares
        underflow to 0, so every cosine would be 0 and the pick would be the
        first ids by name."""
        assert self.select_with_scaled_vectors(data, tmp_path, 1e-163) == 2
        err = capsys.readouterr().err
        assert "target vector has nonzero entries whose squares underflow;" in err
        assert not (tmp_path / "out").exists()

    def test_cosine_target_with_subnormal_squares_is_two(self, data, tmp_path, capsys):
        """Scaled by 1e-158 the vectors' squared norms are subnormal: not 0,
        but with too few bits left for the cosines they divide."""
        assert self.select_with_scaled_vectors(data, tmp_path, 1e-158) == 2
        err = capsys.readouterr().err
        assert "target vector has nonzero entries whose squares underflow;" in err
        assert not (tmp_path / "out").exists()

    def test_cosine_of_vectors_with_normal_squares_is_scale_free(self, data, tmp_path):
        """Scaled by 1e-150 the squares stay normal numbers: the selection is
        the unscaled vectors', and its scores agree to a few ulps."""
        results = []
        for scale in (1.0, 1e-150):
            (tmp_path / str(scale)).mkdir()
            assert self.select_with_scaled_vectors(data, tmp_path / str(scale), scale) == 0
            out = tmp_path / str(scale) / "out"
            results.append(json.loads((out / "selection.json").read_text("utf-8"))["result"])
        assert len(results[0]["chosen"]) == 5 and results[0]["chosen"] == results[1]["chosen"]
        for doc_id, score in results[0]["item_scores"].items():
            assert results[1]["item_scores"][doc_id] == pytest.approx(score, rel=1e-12)

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_all_zero_cosine_target_fails_before_any_run(
        self, data, tmp_path, capsys, monkeypatch, command
    ):
        vectors = tmp_path / "oov.txt"
        vectors.write_text("unseenword 1 2 3 4\n", encoding="utf-8")
        trained = []
        monkeypatch.setattr(evaluation, "train_classifier", lambda *a: trained.append(a))
        sizes = ["--n-values", "4"] if command == "sweep" else []
        argv = [command, *sizes, "--strategies", "domain,instance", "--representation",
                "embedding", "--embeddings", str(vectors)]
        argv += base_args(data, tmp_path / "out", command)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: target vector is all zeros")
        assert trained == []
        assert [p.name for p in tmp_path.iterdir()] == ["oov.txt"]

    def test_empty_js_target_fails_before_any_run(self, data, tmp_path, capsys, monkeypatch):
        """Target documents of stopwords alone leave an empty target
        distribution, which JS cannot rank against: evaluate rejects it once,
        before a baseline trains, and the error names no run."""
        docs = [json.loads(line) for line in data["corpus"].read_text("utf-8").splitlines()]
        docs = [d for d in docs if d["domain"] != "tgt"] + [
            {"id": f"t{i}", "text": "the and of", "domain": "tgt", "label": "positive"}
            for i in range(10)
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        trained = []
        monkeypatch.setattr(evaluation, "train_classifier", lambda *a: trained.append(a))
        argv = ["evaluate", "--strategies", "instance", "--corpus", str(corpus), "--target",
                "tgt", "--out", str(tmp_path / "out")] + SMALL["evaluate"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "data error: target distribution is empty\n"
        assert trained == []
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--seed", "-1"],
            ["evaluate", "--seed", "-1"],
            ["sweep", "--n-values", "4", "--seed", "-1"],
            ["generate", "--catalog", "--seed", "-1"],
            ["select", "--config", "negative.conf"],
        ],
    )
    def test_negative_seed_is_one_before_reading(self, tmp_path, capsys, argv):
        (tmp_path / "negative.conf").write_text("seed = -1\n", encoding="utf-8")
        argv = [str(tmp_path / a) if a.endswith(".conf") else a for a in argv]
        if argv[0] != "generate":  # loading the missing corpus would exit 2
            argv += ["--corpus", str(tmp_path / "missing.jsonl"), "--target", "tgt"]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["negative.conf"]

    @pytest.mark.parametrize(
        "flag, kind, code",
        [
            ("--corpus", "not-utf8", 2),
            ("--corpus", "directory", 2),
            ("--embeddings", "not-utf8", 2),
            ("--embeddings", "directory", 2),
            ("--stopwords", "directory", 2),
            ("--config", "directory", 1),
            ("--config", "not-utf8", 1),
            ("--out", "file", 1),
        ],
    )
    def test_unreadable_input_is_a_one_line_error(self, data, tmp_path, capsys, flag, kind,
                                                   code):
        """An input that is a directory, not UTF-8, or an ``--out`` that is a
        file gives a typed error naming it; an untyped one would propagate
        out of ``main``."""
        bad = tmp_path / kind
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"seed = 1\n\xff\xfe = 2\n" if kind == "not-utf8" else b"taken\n")
        before = read_tree(tmp_path)
        argv = ["select", "--representation", "embedding", "--embeddings", str(data["vectors"])]
        argv += base_args(data, tmp_path / "out") + [flag, str(bad)]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("data error: " if code == 2 else "error: ")
        assert str(bad) in err and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [kind]
        assert read_tree(tmp_path) == before

    def test_byte_order_marks_are_skipped(self, data, tmp_path, monkeypatch):
        """Config, corpus, stopword and embedding files that start with a UTF-8
        byte-order mark give the selection of the same files without one."""
        stopwords = []
        tokenize = cli.tokenize_corpus
        monkeypatch.setattr(cli, "tokenize_corpus",
                            lambda corpus, stop: stopwords.append(stop) or tokenize(corpus, stop))
        selections = []
        for name, bom in (("plain", ""), ("bom", "\ufeff")):
            root = tmp_path / name
            root.mkdir()
            files = {
                "stopwords": "movie\nthe\n",
                "corpus": data["corpus"].read_text("utf-8"),
                "embeddings": data["vectors"].read_text("utf-8"),
            }
            for key, text in files.items():
                (root / key).write_text(bom + text, encoding="utf-8")
            config = root / "run.conf"
            config.write_text(
                bom + "".join(f"{key} = {root / key}\n" for key in files), encoding="utf-8"
            )
            argv = ["select", "--config", str(config), "--representation", "embedding",
                    "--target", "tgt", "--out", str(root / "out")] + SMALL["select"]
            assert cli.main(argv) == 0
            selections.append((root / "out" / "selection_ids.txt").read_bytes())
        assert stopwords == [frozenset({"movie", "the"})] * 2
        assert selections[0] == selections[1]

    def test_domain_with_a_tab_or_line_break_is_two(self, data, tmp_path, capsys):
        # a results.tsv row holds the domain as a field: a tab in it added one
        lines = data["corpus"].read_text("utf-8").splitlines(keepends=True)
        for name, domain in (("tab", "tar\tget"), ("newline", "tar\nget")):
            corpus = tmp_path / f"{name}.jsonl"
            moved = json.dumps({**json.loads(lines[1]), "domain": domain}) + "\n"
            corpus.write_text(lines[0] + moved + "".join(lines[2:]), encoding="utf-8")
            argv = ["evaluate", "--corpus", str(corpus), "--target", domain,
                    "--out", str(tmp_path / "out")] + SMALL["evaluate"]
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {corpus}, line 2: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, taken, kind",
        [
            (["select"], "selection_ids.txt", "directory"),
            (["select"], "selection.json", "directory"),
            (["evaluate", "--runs", "1"], "results.tsv", "directory"),
            (["evaluate", "--runs", "1"], "results.json", "directory"),
            (["sweep", "--n-values", "4", "--runs", "1"], "sweep.tsv", "directory"),
            (["generate", "--spec", "SPEC"], "all.jsonl", "directory"),
            (["generate", "--spec", "SPEC"], "near.jsonl", "directory"),
            (["generate", "--catalog"], "graded", "file"),
            (["generate", "--catalog"], "blended", "file"),
        ],
    )
    def test_output_path_that_is_taken_is_one(self, data, tmp_path, capsys, monkeypatch, argv,
                                              taken, kind):
        """A result file whose path is a directory, or an output directory
        whose path is a file, is a one-line error naming it, not a traceback.
        It is found before a run command loads its corpus, and before any
        command writes a file."""
        out = tmp_path / "out"
        out.mkdir()
        if kind == "directory":
            (out / taken).mkdir()
        else:
            (out / taken).write_text("taken\n", encoding="utf-8")
        before = read_tree(tmp_path)
        loaded = []
        monkeypatch.setattr(cli, "load_corpus", loaded.append)
        argv = [str(data["spec"]) if a == "SPEC" else a for a in argv]
        if argv[0] != "generate":
            argv += ["--corpus", str(data["corpus"]), "--target", "tgt",
                     "--strategies" if argv[0] != "select" else "--strategy", "instance"]
        if argv[0] in ("select", "evaluate"):
            argv += ["--n", "10"]
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / taken}: ") and err.count("\n") == 1
        assert loaded == []
        assert read_tree(tmp_path) == before

    @pytest.mark.parametrize("argv", [["--catalog"], ["--spec", "SPEC"]])
    @pytest.mark.parametrize("out", ["taken", "taken/corpus"])
    def test_generate_into_a_file_fails_before_generating(self, data, tmp_path, capsys,
                                                          monkeypatch, argv, out):
        """An ``--out`` that is a file, or lies under one, is a one-line error
        naming the file, before any corpus is generated."""
        (tmp_path / "taken").write_text("taken\n", encoding="utf-8")
        before = read_tree(tmp_path)
        generated = []
        monkeypatch.setattr(cli, "benchmark_suite", generated.append)
        monkeypatch.setattr(cli, "generate", lambda *args: generated.append(args))
        argv = [str(data["spec"]) if a == "SPEC" else a for a in argv]
        assert cli.main(["generate", *argv, "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path / 'taken'}: it is a file, not a directory\n"
        )
        assert generated == []
        assert read_tree(tmp_path) == before

    @pytest.mark.parametrize("command", [["select"], ["evaluate"], ["sweep", "--n-values", "4"]])
    def test_taken_output_is_reported_before_a_missing_corpus(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        taken = out / cli.OUTPUT_FILES[command[0]][-1]
        taken.mkdir(parents=True)
        argv = command + ["--corpus", str(tmp_path / "missing.jsonl"), "--target", "tgt",
                          "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write {taken}: it is a directory\n"
        assert read_tree(tmp_path) == {}

    def test_stopwords_with_capitals_match_lowercased_text(self, data, tmp_path, monkeypatch):
        """Text is lowercased before stopwords are removed, so a listed ``The``
        or ``MOVIE`` removes ``the`` and ``movie`` as the lowercase entries do."""
        stopwords = []
        tokenize = cli.tokenize_corpus
        monkeypatch.setattr(cli, "tokenize_corpus",
                            lambda corpus, stop: stopwords.append(stop) or tokenize(corpus, stop))
        selections = []
        for name, listed in (("upper", "The\nMOVIE\n"), ("lower", "the\nmovie\n")):
            path = tmp_path / f"{name}.txt"
            path.write_text(listed, encoding="utf-8")
            out = tmp_path / name
            assert cli.main(["select", "--stopwords", str(path)] + base_args(data, out)) == 0
            selections.append((out / "selection_ids.txt").read_bytes())
        assert stopwords == [frozenset({"the", "movie"})] * 2
        assert preprocess("The movie was great", stopwords[0]) == ["was", "great"]
        assert selections[0] == selections[1]

    @pytest.mark.parametrize("case", ERROR_BRANCHES)
    def test_bad_input_exits_with_its_code_and_one_line(self, data, tmp_path, capsys, case):
        """Each input error a command can meet fails with its exit code and a
        one-line message, and writes no output."""
        code, build = ERROR_BRANCHES[case]
        argv, message = build(data, tmp_path)
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_failed_write_is_one(self, data, tmp_path, capsys, monkeypatch):
        """An ``OSError`` while a result file is written, a full disk say, is
        a one-line error naming the file."""
        def full(path, *args, **kwargs):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_text", full)
        assert cli.main(["select"] + base_args(data, tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path / 'out' / 'selection_ids.txt'}: "
            "No space left on device\n"
        )

    def test_missing_corpus_is_two(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert cli.main(["select", "--corpus", str(missing), "--target", "tgt",
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence is the point
    def test_numerical_failure_is_three(self, data, tmp_path, monkeypatch):
        monkeypatch.setattr(AETrainConfig, "learning_rate", 1e308)
        monkeypatch.setattr(AETrainConfig, "batch_size", 8)
        args = base_args(data, tmp_path) + [
            "--representation", "autoencoder", "--ae-hidden", "4", "--ae-epochs", "2",
        ]
        assert cli.main(["select"] + args) == 3


class TestModuleEntryPoint:
    """``python -m dataselect`` runs ``cli.main`` from a source checkout."""

    def run(self, tmp_path, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "dataselect", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_generate_catalog_exits_zero(self, tmp_path):
        proc = self.run(tmp_path, "generate", "--catalog", "--out", str(tmp_path / "cat"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "cat" / "graded" / "all.jsonl").is_file()

    def test_unknown_flag_exits_one(self, tmp_path):
        proc = self.run(tmp_path, "generate", "--catalog", "--no-such-flag")
        assert proc.returncode == 1
        assert "unrecognized arguments: --no-such-flag" in proc.stderr
        assert not any(tmp_path.iterdir())


class TestConfiguration:
    def test_flags_override_config_file(self, data, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            f"corpus = {data['corpus']}\ntarget = tgt\nstrategy = random\n"
            f"n = 7  # overridden below\ntask = binary\nout = {tmp_path / 'from_file'}\n",
            encoding="utf-8",
        )
        out = tmp_path / "from_flag"
        assert cli.main(["select", "--config", str(config), "--n", "5", "--out", str(out)]) == 0
        echo = json.loads((out / "selection.json").read_text("utf-8"))["config"]
        assert echo["n"] == 5
        assert echo["strategy"] == "random"
        assert echo["out"] == str(out)
        assert len((out / "selection_ids.txt").read_text("utf-8").splitlines()) == 5
        assert not (tmp_path / "from_file").exists()

    def test_no_flags_hand_the_library_its_defaults(self, data, monkeypatch):
        # a RunConfig default written as a literal other than its owner's
        # default fails one of these comparisons
        config = cli.RunConfig()
        for strategy in STRATEGIES:
            assert cli._selection_config(config, strategy) == SelectionConfig(
                n=config.n, strategy=strategy
            )
        captured, stopwords = {}, []
        tokenize = cli.tokenize_corpus
        monkeypatch.setattr(cli, "tokenize_corpus",
                            lambda corpus, stop: stopwords.append(stop) or tokenize(corpus, stop))
        monkeypatch.setattr(cli, "prepare_context", lambda *a, **kwargs: captured.update(kwargs))
        cli._build_context(
            cli.RunConfig(corpus=str(data["corpus"]), target="tgt"), labeled_pool_only=True
        )
        assert stopwords == [None]
        assert captured["ae_config"] == AETrainConfig(seed=cli.substream_seed(0, "autoencoder"))

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    def test_echo_holds_the_settings_the_command_reads(self, data, tmp_path, command):
        """The JSON file echoes each setting the command has a flag for, and
        its result records restate none of them: a selection's result holds
        what the selection found, and each strategy fills its own fields."""
        found = {
            "instance": {"chosen", "metric", "item_scores"},
            "domain": {"chosen", "seed", "metric", "chosen_domain", "domain_scores"},
            "subset": {"chosen", "seed", "metric", "subset_scores", "iteration_members"},
        }
        strategies = found if command == "select" else ["instance"]
        for strategy in strategies:
            argv = [command, "--strategy" if command == "select" else "--strategies", strategy]
            extra = ["--runs", "1"] if command == "evaluate" else []
            out = tmp_path / strategy
            assert cli.main(argv + base_args(data, out, command) + extra) == 0
            written = json.loads((out / cli.OUTPUT_FILES[command][-1]).read_text("utf-8"))
            flags = SUBCOMMAND_FLAGS[command] - {"-h", "--help", "--config"}
            assert set(written["config"]) == {flag[2:].replace("-", "_") for flag in flags}
            assert written["config"]["n"] == 10
            if command == "select":
                result = written["result"]
                assert sorted(result) == [
                    "chosen", "chosen_domain", "domain_scores", "item_scores",
                    "iteration_members", "metric", "seed", "subset_scores",
                ]
                assert {key for key, value in result.items() if value is not None} == (
                    found[strategy]
                )
            else:
                assert [sorted(r) for r in written["results"]] == [[
                    "accuracies", "mean", "metric", "representation", "seeds", "std",
                    "strategy", "target_domain",
                ]] * 3

    @pytest.mark.parametrize(
        "strategy, shown",
        [("random", "random"), ("balanced", "balanced"), ("instance", "instance, jensen_shannon")],
    )
    def test_summary_names_the_metric_the_result_holds(
        self, data, tmp_path, capsys, strategy, shown
    ):
        """``select``'s summary line names the strategy and the metric its
        ``selection.json`` records; a baseline records none and names none."""
        assert cli.main(["select", "--strategy", strategy] + base_args(data, tmp_path)) == 0
        result = json.loads((tmp_path / "selection.json").read_text("utf-8"))["result"]
        assert result["metric"] == (None if strategy in ("random", "balanced") else "jensen_shannon")
        assert f"({shown}) -> " in capsys.readouterr().out

    def test_config_keys_are_the_run_config_fields(self):
        assert {f.name for f in fields(cli.RunConfig)} == set(CONFIG_KEYS)

    def test_every_config_key_parses(self, tmp_path):
        path = tmp_path / "all.conf"
        path.write_text(
            "".join(f"{key} = {text}\n" for key, (text, _) in CONFIG_KEYS.items()),
            encoding="utf-8",
        )
        values = cli.load_config_file(path)
        assert values == {key: parsed for key, (_, parsed) in CONFIG_KEYS.items()}
        for key, (_, parsed) in CONFIG_KEYS.items():
            assert type(values[key]) is type(parsed), key

    @pytest.mark.parametrize(
        "line",
        ["colour = blue", "n = ten", "runs = many", "no equals sign", "n = 5\nn = 7"],
    )
    def test_bad_config_lines_rejected(self, tmp_path, line):
        path = tmp_path / "bad.conf"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            cli.load_config_file(path)

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_subcommand_flags_are_frozen(self, command):
        parser = cli.make_parser()
        (subparsers,) = [a for a in parser._actions if a.dest == "command"]
        sub = subparsers.choices[command]
        flags = {opt for action in sub._actions for opt in action.option_strings}
        assert flags == SUBCOMMAND_FLAGS[command]


class TestReruns:
    def rerun_is_identical(self, argv, out):
        assert cli.main(argv) == 0
        first = read_tree(out)
        assert first
        assert cli.main(argv) == 0
        assert read_tree(out) == first

    def test_select(self, data, tmp_path):
        self.rerun_is_identical(["select"] + base_args(data, tmp_path), tmp_path)

    @pytest.mark.parametrize("representation", ["term_dist", "embedding"])
    def test_evaluate(self, data, tmp_path, representation):
        argv = ["evaluate", "--representation", representation,
                "--embeddings", str(data["vectors"]), "--strategies", "domain,instance,subset"]
        self.rerun_is_identical(argv + base_args(data, tmp_path, "evaluate"), tmp_path)
        rows = (tmp_path / "results.tsv").read_text("utf-8").splitlines()
        assert [r.split("\t")[1] for r in rows[1:]] == [
            "random", "balanced", "domain", "instance", "subset",
        ]
        json.loads((tmp_path / "results.json").read_text("utf-8"),
                   parse_constant=reject_constant)

    def test_sweep(self, data, tmp_path):
        argv = ["sweep", "--n-values", "4,8", "--strategies", "random,instance"]
        self.rerun_is_identical(argv + base_args(data, tmp_path, "sweep"), tmp_path)

    def test_generate(self, data, tmp_path):
        argv = ["generate", "--spec", str(data["spec"]), "--out", str(tmp_path)]
        self.rerun_is_identical(argv, tmp_path)
        assert sorted(read_tree(tmp_path)) == ["all.jsonl", "far.jsonl", "near.jsonl",
                                               "tgt.jsonl"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generate_catalog_matches_its_recorded_hashes(self, tmp_path, seed):
        """Every catalog file at generator seeds 0 and 1 hashes as recorded in
        ``tests/data/catalog_sha256.json``; perfbench pins seed 0's results only."""
        recorded = json.loads(CATALOG_SHA256.read_text(encoding="utf-8"))[str(seed)]
        argv = ["generate", "--catalog", "--seed", str(seed), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        hashes = {name: hashlib.sha256(text).hexdigest()
                  for name, text in read_tree(tmp_path).items()}
        assert hashes == recorded


def stopword_corpus(path):
    """400 source documents, every other one stopwords only (no in-vocabulary
    token, so an empty row), and 60 target documents."""
    words = "good bad great poor fine movie book plot story item".split()
    rng = np.random.default_rng(0)
    docs = [
        {"id": f"s{i:03d}", "domain": "src", "label": ("negative", "positive")[i // 2 % 2],
         "text": "the and of" if i % 2 else " ".join(rng.choice(words, 8))}
        for i in range(400)
    ] + [
        {"id": f"t{i:03d}", "domain": "tgt", "label": ("negative", "positive")[i % 2],
         "text": " ".join(rng.choice(words, 8))}
        for i in range(60)
    ]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    return path


class TestSubsetSearch:
    @pytest.mark.parametrize(
        "argv",
        [["--strategy", "subset", "--s", "1", "--m", "3"],
         ["--strategy", "subset", "--s", "1", "--m", "5"],
         ["--strategy", "subset", "--s", "2", "--m", "3"],
         ["--strategy", "instance"]],
        ids=["s1-m3", "s1-m5", "s2-m3", "instance"],
    )
    def test_stopword_only_documents_do_not_end_the_search(self, tmp_path, capsys, argv):
        """Every other one of 400 source documents holds stopwords only, so
        its JS score is NaN. A subset search never draws them and, like
        instance ranking, selects 100 of the 200 others."""
        corpus = stopword_corpus(tmp_path / "c.jsonl")
        out = tmp_path / "out"
        assert cli.main(["select", "--corpus", str(corpus), "--target", "tgt", "--n", "100",
                         "--out", str(out), *argv]) == 0
        assert "selected 100 of 100 requested" in capsys.readouterr().out
        chosen = (out / "selection_ids.txt").read_text(encoding="utf-8").split()
        assert len(set(chosen)) == 100 and all(int(c[1:]) % 2 == 0 for c in chosen)

    @pytest.mark.parametrize(
        "argv",
        [["--strategy", "instance"],
         ["--strategy", "subset", "--s", "1", "--m", "3"],
         ["--strategy", "subset", "--s", "2", "--m", "3"]],
        ids=["instance", "s1-m3", "s2-m3"],
    )
    def test_stopword_only_documents_are_never_chosen_under_cosine(
        self, tmp_path, capsys, argv
    ):
        """Under cosine an empty row scores NaN, as under JS, so asked for
        300 of the corpus above, every strategy selects the 200 documents
        with tokens and none of the stopword-only ones."""
        corpus = stopword_corpus(tmp_path / "c.jsonl")
        out = tmp_path / "out"
        assert cli.main(["select", "--corpus", str(corpus), "--target", "tgt", "--n", "300",
                         "--metric", "cosine", "--out", str(out), *argv]) == 0
        assert "selected 200 of 300 requested" in capsys.readouterr().out
        chosen = (out / "selection_ids.txt").read_text(encoding="utf-8").split()
        assert len(set(chosen)) == 200 and all(int(c[1:]) % 2 == 0 for c in chosen)


class TestEvaluateOutputs:
    """The significance columns of ``results.tsv``, the ``significance`` entries
    of ``results.json`` and ``sweep.tsv``'s means, recomputed from the
    accuracies the run wrote."""

    STRATEGIES = ["--strategies", "domain,instance,subset"]

    def evaluate(self, data, out, *extra):
        argv = ["evaluate"] + self.STRATEGIES + base_args(data, out, "evaluate") + list(extra)
        assert cli.main(argv) == 0
        rows = [r.split("\t") for r in (out / "results.tsv").read_text("utf-8").splitlines()]
        return rows[0], rows[1:], json.loads((out / "results.json").read_text("utf-8"))

    def test_significance_matches_t_tests_of_the_written_accuracies(self, data, tmp_path):
        header, rows, written = self.evaluate(data, tmp_path)
        assert header[6:] == ["p_vs_rand", "p_vs_all", "signif"]
        results = {r["strategy"]: r for r in written["results"]}
        assert [row[1] for row in rows] == list(results)
        assert set(written["significance"]) == {"domain", "instance", "subset"}
        for row in rows:
            strategy = row[1]
            if strategy in cli.BASELINES:
                assert row[6:] == ["", "", ""]
                continue
            result, marks = results[strategy], ""
            for column, key, baseline, mark in ((6, "rand", "random", "*"),
                                                (7, "all", "balanced", "+")):
                test = t_test(result["accuracies"], results[baseline]["accuracies"])
                better = test.significant and result["mean"] > results[baseline]["mean"]
                entry = written["significance"][strategy][key]
                assert row[column] == f"{test.p:.6g}"
                assert (entry["df"], entry["p"], entry["significantly_better"]) == (
                    test.df, test.p, better
                )
                assert entry["t"] == (test.t if math.isfinite(test.t) else None)
                marks += mark if better else ""
            assert row[8] == marks

    def test_one_run_is_insufficient_for_significance(self, data, tmp_path):
        _, rows, written = self.evaluate(data, tmp_path, "--runs", "1")
        for row in rows:
            if row[1] in cli.BASELINES:
                assert row[6:] == ["", "", ""]
            else:
                assert row[6:] == ["insufficient_runs", "insufficient_runs", ""]
                assert written["significance"][row[1]] == {
                    "rand": "insufficient_runs", "all": "insufficient_runs",
                }

    def test_sweep_at_one_n_matches_evaluate(self, data, tmp_path):
        _, rows, _ = self.evaluate(data, tmp_path / "evaluate")
        strategies = ",".join(row[1] for row in rows)
        argv = ["sweep", "--n-values", "10", "--strategies", strategies]
        assert cli.main(argv + base_args(data, tmp_path / "sweep", "sweep")) == 0
        sweep = [r.split("\t") for r in
                 (tmp_path / "sweep" / "sweep.tsv").read_text("utf-8").splitlines()]
        assert sweep[0] == ["n", "strategy", "mean_acc", "std"]
        assert sweep[1:] == [["10", row[1], row[4], row[5]] for row in rows]
