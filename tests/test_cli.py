"""Contract tests for the command-line front end.

They pin what users and scripts rely on: exit codes, the precedence of
flags over config-file values, the set of flags each subcommand accepts,
the set of config-file keys, and byte-identical output files on reruns.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from dataselect import cli
from dataselect.corpus import load_corpus, preprocess
from dataselect.errors import ConfigError

COMMON_FLAGS = {
    "-h", "--help", "--config", "--corpus", "--target", "--task", "--representation",
    "--metric", "--n", "--s", "--m", "--a", "--vocab-cap", "--ae-hidden", "--ae-epochs",
    "--ae-masking", "--ae-lr", "--ae-batch", "--runs", "--seed", "--out", "--embeddings",
    "--stopwords",
}

SUBCOMMAND_FLAGS = {
    "select": COMMON_FLAGS | {"--strategy"},
    "evaluate": COMMON_FLAGS | {"--strategies"},
    "sweep": COMMON_FLAGS | {"--strategies", "--n-values"},
    "generate": COMMON_FLAGS | {"--catalog", "--spec"},
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
    "a": ("0.001", 0.001),
    "vocab_cap": ("50", 50),
    "ae_hidden": ("8", 8),
    "ae_epochs": ("2", 2),
    "ae_masking": ("0.5", 0.5),
    "ae_lr": ("0.01", 0.01),
    "ae_batch": ("16", 16),
    "runs": ("3", 3),
    "seed": ("7", 7),
    "out": ("results", "results"),
    "embeddings": ("v.txt", "v.txt"),
    "stopwords": ("stop.txt", "stop.txt"),
    "lowercase": ("no", False),
    "allow_proxy_a_subsets": ("yes", True),
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

# a value of each run setting checked before the corpus loads, on every
# subcommand that loads one
BAD_RUN_VALUES = [
    command + bad
    for command in (["select"], ["evaluate"], ["sweep", "--n-values", "4"])
    for bad in (["--a", "nan"], ["--a", "inf"], ["--a", "0"], ["--runs", "0"],
                ["--vocab-cap", "0"])
]

SMALL = ["--task", "binary", "--n", "10", "--s", "3", "--m", "20", "--runs", "2"]


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
        assert cli.main(["select", "--ae-lr", "0"] + args) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--strategy", "domain", "--representation", "autoencoder",
             "--metric", "jensen_shannon"],
            ["evaluate", "--strategies", "instance", "--representation", "embedding",
             "--metric", "jensen_shannon"],
            ["evaluate", "--strategies", "domain", "--metric", "proxy_a"],
            ["sweep", "--n-values", "4", "--strategies", "subset", "--metric", "proxy_a"],
        ],
    )
    def test_bad_metric_pairing_is_one_before_loading(self, tmp_path, argv):
        missing = tmp_path / "missing.jsonl"  # loading it would exit 2
        out = tmp_path / "out"
        argv = argv + ["--corpus", str(missing), "--target", "tgt", "--out", str(out)]
        assert cli.main(argv) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--ae-hidden", "0"],
            ["evaluate", "--ae-lr", "-1"],
            ["sweep", "--n-values", "4", "--ae-batch", "0"],
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

    def test_missing_corpus_is_two(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert cli.main(["select", "--corpus", str(missing), "--target", "tgt",
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence is the point
    def test_numerical_failure_is_three(self, data, tmp_path):
        args = base_args(data, tmp_path) + [
            "--representation", "autoencoder", "--ae-lr", "1e308", "--ae-hidden", "4",
            "--ae-epochs", "2", "--ae-batch", "8",
        ]
        assert cli.main(["select"] + args) == 3


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
        "line", ["colour = blue", "n = ten", "lowercase = maybe", "no equals sign"]
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

    def test_sweep(self, data, tmp_path):
        argv = ["sweep", "--n-values", "4,8", "--strategies", "random,instance"]
        self.rerun_is_identical(argv + base_args(data, tmp_path), tmp_path)

    def test_generate(self, data, tmp_path):
        argv = ["generate", "--spec", str(data["spec"]), "--out", str(tmp_path)]
        self.rerun_is_identical(argv, tmp_path)
        assert sorted(read_tree(tmp_path)) == ["all.jsonl", "far.jsonl", "near.jsonl",
                                               "tgt.jsonl"]
