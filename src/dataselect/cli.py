"""Command-line front end.

Subcommands: ``select`` (write a selection), ``evaluate`` (multi-run
accuracy table with baselines and significance), ``sweep`` (training-size
curve data), and ``generate`` (synthetic corpora). The command runs as
``dataselect`` or, from a source checkout, ``python -m dataselect`` with
``src`` on ``PYTHONPATH``. Configuration comes from an optional plain-text
``key = value`` file; command-line flags override file values. The subset
search's and the autoencoder's settings take the defaults of the dataclass
field that owns each; the rest are defaulted in ``RunConfig``. The SIF
smoothing, the vocabulary cap and the autoencoder's masking, learning rate
and batch size are library constants. Each ``RunConfig`` field is both a
config-file key and, on the subcommands it names, a flag ``--`` plus the
field name with ``_`` turned into ``-``; every field is a flag on some
subcommand. Text is always lowercased before tokenizing. ``generate`` reads
only ``seed`` and ``out``, and its config file may set no other key.
``task`` only sets the default ``n`` (2,000 for ternary, 1,600 for binary);
the classifier trains on whatever labels the corpus holds.

All randomness derives from one base seed through named substreams
(selection, classifier, autoencoder, generator), so every command is a pure
function of its inputs: rerunning with the same config produces
byte-identical output files.

Exit codes: 0 success, 1 usage/config error (an output path that cannot be
written included), 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import types
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .autoencoder import AETrainConfig
from .corpus import (
    Corpus,
    _text_lines,
    build_vocabulary,
    load_corpus,
    load_stopwords,
    save_corpus,
    tokenize_corpus,
)
from .embeddings import load_embeddings
from .errors import ConfigError, DataSelectError, NumericalError
from .evaluation import (
    ClassifierConfig,
    ExperimentResult,
    check_runs,
    prepare_context,
    run_experiment,
    run_selection,
    t_test,
)
from .representations import EMBEDDING, REPRESENTATION_KINDS
from .selection import STRATEGIES, SelectionConfig, check_cosine_target
from .similarity import COSINE, METRIC_ORIENTATION
from .synthetic import DomainSpec, benchmark_suite, generate

BASELINES = ("random", "balanced")


def substream_seed(base_seed: int, name: str) -> int:
    """Derive a named, stable child seed from the base seed."""
    return int(
        np.random.SeedSequence([base_seed, zlib.crc32(name.encode())]).generate_state(1)[0]
    )


RUN_COMMANDS = ("select", "evaluate", "sweep")
COMMANDS = RUN_COMMANDS + ("generate",)  # generate reads only --seed and --out


def _option(default, *, help=None, choices=None, commands=RUN_COMMANDS):
    """Declare a ``RunConfig`` field with its flag's choices and help text.

    The flag is added to every subcommand in ``commands``.
    """
    return field(
        default=default, metadata={"help": help, "choices": choices, "commands": commands}
    )


@dataclass
class RunConfig:
    """Every setting of a run; each field is declared once, with ``_option``.

    A field's type gives the parser of its config-file value and its flag.
    """

    task: str = _option(
        "ternary", choices=("binary", "ternary"), help="sets only the default --n (2000 "
        "ternary, 1600 binary); the classifier trains on whatever labels the corpus holds",
    )
    corpus: str | None = _option(None, help="corpus JSONL path")
    target: str | None = _option(None, help="target domain name")
    strategy: str = _option("subset", choices=STRATEGIES, commands=("select",))
    strategies: tuple[str, ...] = _option(
        ("domain", "instance", "subset"), commands=("evaluate", "sweep")
    )
    representation: str = _option(SelectionConfig.representation, choices=REPRESENTATION_KINDS)
    metric: str | None = _option(None, choices=tuple(METRIC_ORIENTATION))
    n: int | None = _option(None)
    s: int = _option(SelectionConfig.s)
    m: int = _option(SelectionConfig.m)
    ae_hidden: int = _option(
        AETrainConfig.hidden_dim,
        help="autoencoder hidden units; sizes other than 1000 may give codes that "
        "differ in the last bits across BLAS builds (reruns on one host are identical)",
    )
    ae_epochs: int = _option(AETrainConfig.epochs)
    runs: int = _option(10)
    seed: int = _option(0, commands=COMMANDS)
    out: str = _option("out", help="output directory", commands=COMMANDS)
    embeddings: str | None = _option(None, help="word-vector file (token + floats per line)")
    stopwords: str | None = _option(None, help="stopword list override, one token per line")

    def __post_init__(self):
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata["choices"]
            if choices and value is not None and value not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}, got {value!r}")
        for i, strategy in enumerate(self.strategies):
            if strategy not in STRATEGIES:
                raise ConfigError(f"unknown strategy {strategy!r}")
            if strategy in self.strategies[:i]:
                raise ConfigError(f"strategy {strategy!r} is listed twice")
        if self.seed < 0:  # ``np.random.SeedSequence`` takes no negative entropy
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        out = Path(self.out)
        if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
            raise ConfigError(f"out must name a directory, but {self.out} is not one")

    @property
    def resolved_n(self) -> int:
        if self.n is not None:
            return self.n
        return 2000 if self.task == "ternary" else 1600

    def echo(self) -> dict:
        effective = {f.name: getattr(self, f.name) for f in fields(self)}
        effective["n"] = self.resolved_n
        effective["strategies"] = list(self.strategies)
        return effective


def _parse_list(value: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _parse_int_list(value: str) -> list[int]:
    try:
        return [int(x) for x in value.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        ) from None


def _value_parser(hint):
    """Parser of a field's text value, from the field's type (``X | None`` as X)."""
    if get_origin(hint) in (Union, types.UnionType):
        (hint,) = [t for t in get_args(hint) if t is not type(None)]
    return _parse_list if get_origin(hint) is tuple else hint


_PARSERS = {name: _value_parser(hint) for name, hint in get_type_hints(RunConfig).items()}


def load_config_file(path: str | Path) -> dict:
    """Parse a ``key = value`` config file ('#' starts a comment)."""
    path = Path(path)
    values: dict = {}
    for lineno, raw in enumerate(_text_lines(path, "config file", ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is set twice")
        try:
            values[key] = parser(value)
        except (ValueError, TypeError):
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return values


def build_run_config(args: argparse.Namespace, command: str) -> RunConfig:
    """The file's values, overridden by the flags given. A ``generate`` config
    file may set only the keys ``generate`` reads (those it has flags for)."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    if command == "generate":
        read = {f.name for f in fields(RunConfig) if command in f.metadata["commands"]}
        for key in values:
            if key not in read:
                raise ConfigError(f"{args.config}: generate does not read config key {key!r}")
    for key in _PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# Shared experiment wiring
# ---------------------------------------------------------------------------

def _build_context(config: RunConfig, labeled_pool_only: bool):
    # bad training and run values are rejected before the corpus loads, as
    # SelectionConfig's are, so they exit 1 before any file is read
    ae_config = AETrainConfig(
        epochs=config.ae_epochs,
        hidden_dim=config.ae_hidden,
        seed=substream_seed(config.seed, "autoencoder"),
    )
    check_runs(config.runs)
    if not config.corpus:
        raise ConfigError("a corpus path is required (corpus = ... or --corpus)")
    if not config.target:
        raise ConfigError("a target domain is required (target = ... or --target)")
    if config.stopwords == "":
        raise ConfigError("an empty stopwords value names no file; omit it for the shipped list")
    if config.representation == EMBEDDING and not config.embeddings:
        raise ConfigError(
            "representation=embedding requires an embeddings file "
            "(embeddings = ... or --embeddings)"
        )
    corpus = load_corpus(config.corpus)
    if config.target not in corpus.domains:
        raise ConfigError(f"unknown target domain {config.target!r}")
    stopwords = load_stopwords(config.stopwords) if config.stopwords else None
    encoded = tokenize_corpus(corpus, stopwords)
    vocab = build_vocabulary(encoded)
    table = None
    if config.representation == EMBEDDING:
        table = load_embeddings(config.embeddings, restrict_to=vocab)
    return prepare_context(
        corpus,
        encoded,
        vocab,
        config.target,
        config.representation,
        labeled_pool_only=labeled_pool_only,
        embedding_table=table,
        ae_config=ae_config,
    )


def _run_experiments(
    config: RunConfig, sel_configs: list[SelectionConfig]
) -> list[ExperimentResult]:
    """Run every selection config ``config.runs`` times in one shared context.

    A cosine target that cannot rank is rejected once, before any run, so no
    baseline trains first and the error names no run.
    """
    context = _build_context(config, labeled_pool_only=True)
    if any(c.strategy not in BASELINES and c.resolved_metric == COSINE for c in sel_configs):
        check_cosine_target(context.target_repr)
    classifier = ClassifierConfig(seed=substream_seed(config.seed, "classifier"))
    selection_seed = substream_seed(config.seed, "selection")
    return [
        run_experiment(context, sel_config, config.runs, selection_seed, classifier)
        for sel_config in sel_configs
    ]


def _selection_config(config: RunConfig, strategy: str, n: int | None = None) -> SelectionConfig:
    return SelectionConfig(
        n=n if n is not None else config.resolved_n,
        strategy=strategy,
        representation=config.representation,
        metric=config.metric,
        s=config.s,
        m=config.m,
    )


@contextmanager
def _output(path: Path):
    """Report an ``OSError`` raised while creating or writing under ``path``
    (say, a directory where a result file goes) as a ``ConfigError``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _write_outputs(config: RunConfig, files: dict[str, str]) -> Path:
    """Create the ``out`` directory and write each named file into it."""
    out = Path(config.out)
    with _output(out):
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    return out


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_select(config: RunConfig) -> int:
    sel_config = _selection_config(config, config.strategy)
    context = _build_context(config, labeled_pool_only=False)
    result = run_selection(context, sel_config, substream_seed(config.seed, "selection"))
    out = _write_outputs(config, {
        "selection_ids.txt": "".join(doc_id + "\n" for doc_id in result.chosen),
        "selection.json": _json_text({"config": config.echo(), "result": asdict(result)}),
    })
    print(
        f"selected {len(result.chosen)} of {sel_config.n} requested "
        f"({config.strategy}, {sel_config.resolved_metric}) -> {out}/selection_ids.txt"
    )
    return 0


def _format_row(columns: list[str]) -> str:
    return "\t".join(columns) + "\n"


def cmd_evaluate(config: RunConfig) -> int:
    strategies = BASELINES + tuple(s for s in config.strategies if s not in BASELINES)
    results = _run_experiments(config, [_selection_config(config, s) for s in strategies])
    by_strategy = {r.strategy: r for r in results}
    header = [
        "target_domain", "strategy", "representation", "metric",
        "mean_acc", "std", "p_vs_rand", "p_vs_all", "signif",
    ]
    lines = [_format_row(header)]
    significance: dict = {}
    for result in results:
        p_values, marks = ["", ""], ""
        if result.strategy not in BASELINES:
            entry = significance[result.strategy] = {}
            for i, (key, baseline, mark) in enumerate(zip(("rand", "all"), BASELINES, "*+")):
                if config.runs < 2:
                    entry[key] = p_values[i] = "insufficient_runs"
                    continue
                test = t_test(result.accuracies, by_strategy[baseline].accuracies)
                better = test.significant and result.mean > by_strategy[baseline].mean
                # strict JSON has no infinity, the t of zero pooled variance
                t = test.t if math.isfinite(test.t) else None
                entry[key] = {"t": t, "df": test.df, "p": test.p, "significantly_better": better}
                p_values[i] = f"{test.p:.6g}"
                marks += mark if better else ""
        lines.append(_format_row([
            result.target_domain, result.strategy, result.representation, result.metric,
            f"{result.mean:.6f}", f"{result.std:.6f}", *p_values, marks,
        ]))
    out = _write_outputs(config, {
        "results.tsv": "".join(lines),
        "results.json": _json_text({
            "config": config.echo(),
            "results": [asdict(r) for r in results],
            "significance": significance,
        }),
    })
    print(f"wrote {out}/results.tsv and {out}/results.json ({len(results)} rows)")
    return 0


def cmd_sweep(config: RunConfig, n_values: list[int]) -> int:
    if not n_values:
        raise ConfigError("sweep requires at least one n value")
    if not config.strategies:
        raise ConfigError("sweep requires at least one strategy")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ConfigError(f"n values must be strictly ascending, got {n_values}")
    sel_configs = [
        _selection_config(config, strategy, n=n)
        for n in n_values
        for strategy in config.strategies
    ]
    results = _run_experiments(config, sel_configs)
    lines = [_format_row(["n", "strategy", "mean_acc", "std"])] + [
        _format_row([str(c.n), c.strategy, f"{r.mean:.6f}", f"{r.std:.6f}"])
        for c, r in zip(sel_configs, results)
    ]
    out = _write_outputs(config, {"sweep.tsv": "".join(lines)})
    print(f"wrote {out}/sweep.tsv ({len(lines) - 1} data rows)")
    return 0


def _domain_spec_from_dict(obj: dict, default_seed: int) -> DomainSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"a domain spec must be an object, got {obj!r}")
    allowed = {f.name for f in fields(DomainSpec)}
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown domain-spec keys: {sorted(unknown)}")
    # JSON lists become the tuples of doc_length and labels
    values = {key: tuple(v) if isinstance(v, list) else v for key, v in obj.items()}
    values.setdefault("seed", default_seed)
    try:
        return DomainSpec(**values)
    except TypeError as exc:
        raise ConfigError(f"bad domain spec: {exc}") from None


def _write_corpus_files(corpus: Corpus, out_dir: Path) -> list[Path]:
    written = []
    with _output(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        for domain in sorted(corpus.domains):
            path = out_dir / f"{domain}.jsonl"
            save_corpus(Corpus(corpus.domain_documents(domain)), path)
            written.append(path)
        all_path = out_dir / "all.jsonl"
        save_corpus(corpus, all_path)
        written.append(all_path)
    return written


def cmd_generate(config: RunConfig, spec_file: str | None, catalog: bool) -> int:
    out = Path(config.out)
    generator_seed = substream_seed(config.seed, "generator")
    if catalog and spec_file:
        raise ConfigError("generate takes --catalog or a spec file, not both")
    if catalog:
        for name, scenario in benchmark_suite(generator_seed).items():
            written = _write_corpus_files(scenario.corpus, out / name)
            print(f"scenario {name}: {len(written)} files under {out / name}")
        return 0
    if not spec_file:
        raise ConfigError("generate needs either --catalog or a spec file")
    spec_path = Path(spec_file)
    try:
        spec_obj = json.loads("".join(_text_lines(spec_path, "spec file", ConfigError)))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{spec_path}: invalid JSON ({exc.msg})") from None
    if not (isinstance(spec_obj, dict) and "target" in spec_obj
            and isinstance(spec_obj.get("sources"), list)):
        raise ConfigError(f"{spec_path}: expected an object with 'target' and a list 'sources'")
    target = _domain_spec_from_dict(spec_obj["target"], generator_seed)
    sources = [
        _domain_spec_from_dict(source, substream_seed(generator_seed, f"source{i}"))
        for i, source in enumerate(spec_obj["sources"])
    ]
    corpus = generate(sources, target)
    written = _write_corpus_files(corpus, out)
    print(f"generated {len(corpus)} documents across {len(corpus.domains)} domains; "
          f"{len(written)} files under {out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1, not argparse's 2
        raise ConfigError(message)


def _add_run_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", help="key = value config file")
    for f in fields(RunConfig):
        if command in f.metadata["commands"]:
            parser.add_argument(
                "--" + f.name.replace("_", "-"),
                dest=f.name,
                type=_PARSERS[f.name],
                choices=f.metadata["choices"],
                help=f.metadata["help"],
            )


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dataselect", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="write a training selection")
    _add_run_flags(p_select, "select")
    p_select.set_defaults(func=lambda a: cmd_select(build_run_config(a, "select")))

    p_eval = sub.add_parser("evaluate", help="run the multi-seed evaluation protocol")
    _add_run_flags(p_eval, "evaluate")
    p_eval.set_defaults(func=lambda a: cmd_evaluate(build_run_config(a, "evaluate")))

    p_sweep = sub.add_parser("sweep", help="accuracy vs number of training examples")
    _add_run_flags(p_sweep, "sweep")
    p_sweep.add_argument(
        "--n-values", required=True,
        type=_parse_int_list,
        help="comma-separated ascending sizes, e.g. 500,1000,2000",
    )
    p_sweep.set_defaults(func=lambda a: cmd_sweep(build_run_config(a, "sweep"), a.n_values))

    p_gen = sub.add_parser("generate", help="write synthetic corpora")
    _add_run_flags(p_gen, "generate")
    p_gen.add_argument("--catalog", action="store_true", help="write the builtin scenarios")
    p_gen.add_argument("--spec", help="JSON domain-spec file")
    p_gen.set_defaults(
        func=lambda a: cmd_generate(build_run_config(a, "generate"), a.spec, a.catalog)
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DataSelectError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
