"""Contract tests for the command-line front end.

They pin what users and scripts rely on: exit codes, the precedence of
flags over config-file values, the set of flags each subcommand accepts,
the set of config-file keys, and byte-identical output files on reruns.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dataselect import cli, evaluation
from dataselect.autoencoder import AETrainConfig
from dataselect.corpus import load_corpus, preprocess
from dataselect.errors import ConfigError
from dataselect.evaluation import t_test
from dataselect.selection import STRATEGIES, SelectionConfig

COMMON_FLAGS = {
    "-h", "--help", "--config", "--corpus", "--target", "--task", "--representation",
    "--metric", "--n", "--s", "--m", "--ae-hidden", "--ae-epochs", "--runs", "--seed",
    "--out", "--embeddings", "--stopwords",
}

SUBCOMMAND_FLAGS = {
    "select": COMMON_FLAGS | {"--strategy"},
    "evaluate": COMMON_FLAGS | {"--strategies"},
    "sweep": COMMON_FLAGS | {"--strategies", "--n-values"},
    "generate": {"-h", "--help", "--config", "--seed", "--out", "--catalog", "--spec"},
}

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
]

# a bad value of each run setting checked before the corpus loads, on every
# subcommand that loads one
BAD_RUN_VALUES = [
    command + bad
    for command in (["select"], ["evaluate"], ["sweep", "--n-values", "4"])
    for bad in (["--s", "0"], ["--m", "0"], ["--ae-epochs", "0"], ["--runs", "0"],
                ["--ae-hidden", "0"], ["--stopwords", ""],
                ["--representation", "embedding", "--embeddings", ""],
                ["--representation", "embedding"])
]

SMALL = ["--task", "binary", "--n", "10", "--s", "3", "--m", "20", "--runs", "2"]


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


def base_args(data, out):
    return ["--corpus", str(data["corpus"]), "--target", "tgt", "--out", str(out)] + SMALL


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

    def test_generate_reads_seed_and_out_from_config(self, tmp_path):
        out = tmp_path / "from_file"
        config = tmp_path / "gen.conf"
        config.write_text(f"seed = 3\nout = {out}\n", encoding="utf-8")
        assert cli.main(["generate", "--catalog", "--config", str(config)]) == 0
        assert (out / "graded" / "all.jsonl").is_file()

    def test_listed_baseline_is_run_once(self, data, tmp_path):
        argv = ["evaluate", "--strategies", "instance,random"] + base_args(data, tmp_path)
        argv += ["--runs", "1"]
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
                "embedding", "--embeddings", str(vectors)] + base_args(data, tmp_path / "out")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: target vector is all zeros")
        assert trained == []
        assert [p.name for p in tmp_path.iterdir()] == ["oov.txt"]

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
                    "--target", "tgt", "--out", str(root / "out")] + SMALL
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
                    "--out", str(tmp_path / "out")] + SMALL
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
        ],
    )
    def test_output_path_that_is_taken_is_one(self, data, tmp_path, capsys, argv, taken, kind):
        """A result file whose path is a directory, or an output directory
        whose path is a file, is a one-line error naming it, not a traceback."""
        out = tmp_path / "out"
        out.mkdir()
        if kind == "directory":
            (out / taken).mkdir()
        else:
            (out / taken).write_text("taken\n", encoding="utf-8")
        argv = [str(data["spec"]) if a == "SPEC" else a for a in argv]
        if argv[0] != "generate":
            argv += ["--corpus", str(data["corpus"]), "--target", "tgt", "--n", "10",
                     "--strategies" if argv[0] != "select" else "--strategy", "instance"]
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / taken}: ") and err.count("\n") == 1

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
                n=config.resolved_n, strategy=strategy
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
        self.rerun_is_identical(argv + base_args(data, tmp_path), tmp_path)
        rows = (tmp_path / "results.tsv").read_text("utf-8").splitlines()
        assert [r.split("\t")[1] for r in rows[1:]] == [
            "random", "balanced", "domain", "instance", "subset",
        ]
        json.loads((tmp_path / "results.json").read_text("utf-8"),
                   parse_constant=reject_constant)

    def test_sweep(self, data, tmp_path):
        argv = ["sweep", "--n-values", "4,8", "--strategies", "random,instance"]
        self.rerun_is_identical(argv + base_args(data, tmp_path), tmp_path)

    def test_generate(self, data, tmp_path):
        argv = ["generate", "--spec", str(data["spec"]), "--out", str(tmp_path)]
        self.rerun_is_identical(argv, tmp_path)
        assert sorted(read_tree(tmp_path)) == ["all.jsonl", "far.jsonl", "near.jsonl",
                                               "tgt.jsonl"]


class TestEvaluateOutputs:
    """The significance columns of ``results.tsv``, the ``significance`` entries
    of ``results.json`` and ``sweep.tsv``'s means, recomputed from the
    accuracies the run wrote."""

    STRATEGIES = ["--strategies", "domain,instance,subset"]

    def evaluate(self, data, out, *extra):
        assert cli.main(["evaluate"] + self.STRATEGIES + base_args(data, out) + list(extra)) == 0
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
        assert cli.main(argv + base_args(data, tmp_path / "sweep")) == 0
        sweep = [r.split("\t") for r in
                 (tmp_path / "sweep" / "sweep.tsv").read_text("utf-8").splitlines()]
        assert sweep[0] == ["n", "strategy", "mean_acc", "std"]
        assert sweep[1:] == [["10", row[1], row[4], row[5]] for row in rows]
