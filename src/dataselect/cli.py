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
and batch size are library constants. Each ``RunConfig`` field names the
commands that read it; on those alone it is a flag (``--`` plus the field
name with ``_`` turned into ``-``), a config-file key and a JSON echo entry,
and a config file that sets another key is an error. ``select`` reads no
``runs``; ``sweep`` reads ``--n-values``, not ``n`` or ``task``;
``generate`` reads only ``seed`` and ``out``. Text is always lowercased
before tokenizing. ``task`` only sets the default ``n`` (2,000 for ternary,
1,600 for binary); the classifier trains on whatever labels the corpus holds.

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
from typing import Iterable, Union, get_args, get_origin, get_type_hints

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
from .selection import STRATEGIES, SelectionConfig, row_scorer
from .similarity import METRIC_ORIENTATION, PROXY_A
from .synthetic import DomainSpec, _child_seed, benchmark_suite, generate

BASELINES = ("random", "balanced")


def substream_seed(base_seed: int, name: str) -> int:
    """Derive a named, stable child seed from the base seed."""
    return _child_seed(base_seed, zlib.crc32(name.encode()))


RUN_COMMANDS = ("select", "evaluate", "sweep")
COMMANDS = RUN_COMMANDS + ("generate",)
# the files each run command writes into ``out``
OUTPUT_FILES = {
    "select": ("selection_ids.txt", "selection.json"),
    "evaluate": ("results.tsv", "results.json"),
    "sweep": ("sweep.tsv",),
}


def _option(default, *, help=None, choices=None, commands=RUN_COMMANDS):
    """Declare a ``RunConfig`` field with its flag's choices and help text.

    ``commands`` are the subcommands that read the field: each takes it as a
    flag and a config-file key and echoes it.
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
        commands=("select", "evaluate"),
    )
    corpus: str | None = _option(None, help="corpus JSONL path")
    target: str | None = _option(None, help="target domain name")
    strategy: str = _option("subset", choices=STRATEGIES, commands=("select",))
    strategies: tuple[str, ...] = _option(
        ("domain", "instance", "subset"), commands=("evaluate", "sweep")
    )
    representation: str = _option(SelectionConfig.representation, choices=REPRESENTATION_KINDS)
    metric: str | None = _option(None, choices=tuple(METRIC_ORIENTATION))
    n: int | None = _option(None, commands=("select", "evaluate"))
    s: int = _option(SelectionConfig.s)
    m: int = _option(SelectionConfig.m)
    ae_hidden: int = _option(
        AETrainConfig.hidden_dim,
        help="autoencoder hidden units; sizes other than 1000 may give codes that "
        "differ in the last bits across BLAS builds (reruns on one host are identical)",
    )
    ae_epochs: int = _option(AETrainConfig.epochs)
    runs: int = _option(10, commands=("evaluate", "sweep"))
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
        if self.n is None:
            self.n = 2000 if self.task == "ternary" else 1600

    def echo(self, command: str) -> dict:
        """The settings ``command`` reads, by field name."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if command in f.metadata["commands"]
        }


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
    """The file's values, overridden by the flags given. A config file may
    set only the keys ``command`` reads (those it has flags for).

    The files a run command writes are checked here, before any input is
    read. ``generate`` checks its ``out`` directory here, before it generates
    anything, and its files, whose names come from the corpora, once it has
    generated them.
    """
    values = load_config_file(args.config) if args.config else {}
    for key in values:
        if key not in vars(args):  # the command has a flag for each key it reads
            raise ConfigError(f"{args.config}: {command} does not read config key {key!r}")
    for key in _PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    config = RunConfig(**values)
    _check_outputs(Path(config.out), OUTPUT_FILES.get(command, ()))
    return config


# ---------------------------------------------------------------------------
# Shared experiment wiring
# ---------------------------------------------------------------------------

def _build_context(config: RunConfig, labeled_pool_only: bool):
    # bad training values are rejected before the corpus loads, as
    # SelectionConfig's are, so they exit 1 before any file is read
    ae_config = AETrainConfig(
        epochs=config.ae_epochs,
        hidden_dim=config.ae_hidden,
        seed=substream_seed(config.seed, "autoencoder"),
    )
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

    A target that a config's metric cannot rank against (``row_scorer``) is
    rejected once, before any run, so no baseline trains first and the error
    names no run. Baselines rank nothing, and proxy-A reads the target's rows,
    not its aggregate.
    """
    check_runs(config.runs)  # before the corpus loads, as the other settings
    context = _build_context(config, labeled_pool_only=True)
    for c in sel_configs:
        if c.strategy not in BASELINES and c.resolved_metric != PROXY_A:
            row_scorer(context.target_repr, c.resolved_metric)
    classifier = ClassifierConfig(seed=substream_seed(config.seed, "classifier"))
    selection_seed = substream_seed(config.seed, "selection")
    return [
        run_experiment(context, sel_config, config.runs, selection_seed, classifier)
        for sel_config in sel_configs
    ]


def _selection_config(config: RunConfig, strategy: str, n: int | None = None) -> SelectionConfig:
    return SelectionConfig(
        n=n if n is not None else config.n,
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


def _check_outputs(out: Path, names: Iterable[str | Path]) -> None:
    """Fail before anything is written when ``out`` or a file ``out / name``
    could not be: a directory on its path (``out`` included) is a file, or
    the file's own path is a directory."""
    targets = [out / name for name in names]
    directories = [out, *out.parents, *(path for t in targets for path in t.parents)]
    for path in dict.fromkeys(directories):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a file, not a directory")
    for target in targets:
        if target.is_dir():
            raise ConfigError(f"cannot write {target}: it is a directory")


def _write_outputs(config: RunConfig, command: str, *texts: str) -> Path:
    """Create the ``out`` directory and write the command's ``OUTPUT_FILES``
    into it, one text each, in order."""
    out = Path(config.out)
    with _output(out):
        out.mkdir(parents=True, exist_ok=True)
        for name, text in zip(OUTPUT_FILES[command], texts, strict=True):
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
    out = _write_outputs(
        config, "select",
        "".join(doc_id + "\n" for doc_id in result.chosen),
        _json_text({"config": config.echo("select"), "result": asdict(result)}),
    )
    # the baselines read no metric, and their result holds none
    label = config.strategy if result.metric is None else f"{config.strategy}, {result.metric}"
    print(f"selected {len(result.chosen)} of {sel_config.n} requested ({label}) -> "
          f"{out}/selection_ids.txt")
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
    out = _write_outputs(
        config, "evaluate",
        "".join(lines),
        _json_text({
            "config": config.echo("evaluate"),
            "results": [asdict(r) for r in results],
            "significance": significance,
        }),
    )
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
    out = _write_outputs(config, "sweep", "".join(lines))
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


def _write_corpora(out: Path, corpora: dict[str, Corpus]) -> None:
    """Write each corpus into ``out / subdirectory`` as one file per domain
    plus ``all.jsonl``, once every one of those paths has been checked."""
    files = {}
    for subdirectory, corpus in corpora.items():
        for domain in sorted(corpus.domains):
            files[Path(subdirectory, f"{domain}.jsonl")] = Corpus(
                corpus.documents[row] for row in corpus.domain_rows(domain).tolist()
            )
        files[Path(subdirectory, "all.jsonl")] = corpus
    _check_outputs(out, files)
    with _output(out):
        for name, corpus in files.items():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            save_corpus(corpus, out / name)


def cmd_generate(config: RunConfig, spec_file: str | None, catalog: bool) -> int:
    out = Path(config.out)
    generator_seed = substream_seed(config.seed, "generator")
    if catalog and spec_file:
        raise ConfigError("generate takes --catalog or a spec file, not both")
    if catalog:
        corpora = {name: s.corpus for name, s in benchmark_suite(generator_seed).items()}
    elif not spec_file:
        raise ConfigError("generate needs either --catalog or a spec file")
    else:
        spec_path = Path(spec_file)
        try:
            spec_obj = json.loads("".join(_text_lines(spec_path, "spec file", ConfigError)))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{spec_path}: invalid JSON ({exc.msg})") from None
        if not (isinstance(spec_obj, dict) and "target" in spec_obj
                and isinstance(spec_obj.get("sources"), list)):
            raise ConfigError(
                f"{spec_path}: expected an object with 'target' and a list 'sources'"
            )
        target = _domain_spec_from_dict(spec_obj["target"], generator_seed)
        sources = [
            _domain_spec_from_dict(source, substream_seed(generator_seed, f"source{i}"))
            for i, source in enumerate(spec_obj["sources"])
        ]
        corpora = {"": generate(sources, target)}
    _write_corpora(out, corpora)
    for name, corpus in corpora.items():
        print(f"generated {len(corpus)} documents across {len(corpus.domains)} domains; "
              f"{len(corpus.domains) + 1} files under {out / name}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefixes: sweep's --n is not --n-values
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
