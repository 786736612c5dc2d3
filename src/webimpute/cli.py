"""Command-line interface: impute, mine-patterns, mask, eval, sweep, sdg.

Exit codes: 0 success, 1 usage or configuration error (a ``mine-patterns``
count below 1 or a mask ratio outside [0, 1] too), 2 data error.  Partial web
failures are recorded in the report and do not affect the exit code.  An
output path that names a directory or lies in a missing directory is a data
error raised before any input is read, so such a run makes no query.
``--config file.json`` supplies run settings (field names mirror RunConfig);
explicit flags win over the file.  ``--log-level`` (before the subcommand)
sets what the ``webimpute`` loggers print to stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .depgraph import build_dependency_graph, export_dot
from .evalharness import evaluate, sweep
from .patterns import mine_patterns, save_patterns
from .pipeline import RunConfig, impute
from .providers import HttpProvider, LocalCorpusProvider
from .rules import RuleSet, parse_rules_file
from .tabular import (
    MaskSpec,
    dump_json,
    load_table,
    mask_random,
    read_ground_truth,
    read_text,
    write_ground_truth,
    write_json,
    write_table,
)

USAGE_ERROR = 1
DATA_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _checked(kind, holds, expected: str):
    """An argparse ``type``: a ``kind`` value for which ``holds`` is true."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_ratio = _checked(float, lambda v: 0.0 <= v <= 1.0, "a ratio in [0, 1]")
_attr_pair = _checked(
    lambda text: tuple(part.strip() for part in text.split(",", 1)),
    lambda v: len(v) == 2 and all(v),
    "A1,A2",
)


def _comma_list(kind):
    """An argparse ``type``: a non-empty comma-separated list of ``kind``."""

    def parse(text: str) -> list:
        try:
            values = [kind(part) for part in text.split(",") if part.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated values, got {text!r}")
        return values

    return parse


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", help="JSONL corpus for the local provider")
    p.add_argument("--url-template", help="live provider URL with {query}")
    p.add_argument("--pages", type=int, default=None)
    p.add_argument("--k", type=float, default=None, help="internal fill threshold")
    p.add_argument("--K", type=float, default=None, help="keyword-group threshold")
    p.add_argument("--Q", type=int, default=None, help="pattern support threshold")
    p.add_argument("--sample", type=int, default=None)
    p.add_argument(
        "--dict",
        action="append",
        default=[],
        metavar="ATTR=PATH",
        help="supplementary dictionary file, repeatable",
    )
    p.add_argument("--patterns", help="pattern cache path (read once if present, kept current)")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--reiterate", action="store_true", default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="webimpute", description="web-assisted table imputation")
    parser.add_argument("--version", action="version", version=f"webimpute {__version__}")
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="least severe log message printed to stderr (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("impute", help="fill missing cells of a table")
    p.add_argument("--table", required=True)
    p.add_argument("--rules", required=True)
    _add_run_flags(p)
    p.add_argument("--out", required=True, help="imputed table CSV")
    p.add_argument("--report", help="run report JSON")

    p = sub.add_parser("mine-patterns", help="mine text patterns for one attribute pair")
    p.add_argument("--table", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pair", type=_attr_pair, required=True, metavar="A1,A2")
    p.add_argument("--min-support", type=_positive_int, required=True)
    p.add_argument("--sample", type=_positive_int, default=5)
    p.add_argument("--pages", type=_positive_int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mask", help="mask a complete table for an experiment")
    p.add_argument("--table", required=True)
    p.add_argument("--ratio", type=_ratio, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--protect", action="append", default=[], metavar="ATTR")
    p.add_argument("--rules", help="optional rules for the imputability check")
    p.add_argument("--out", required=True, help="masked table CSV")
    p.add_argument("--truth", required=True, help="ground truth JSON")

    p = sub.add_parser("eval", help="score an imputed table against ground truth")
    p.add_argument("--table", required=True, help="imputed table CSV")
    p.add_argument("--truth", required=True)
    p.add_argument("--report", help="metrics JSON (default: stdout)")

    p = sub.add_parser("sweep", help="mask/impute/eval over a ratio x seed grid")
    p.add_argument("--table", required=True)
    p.add_argument("--rules", required=True)
    _add_run_flags(p)
    p.add_argument("--ratios", type=_comma_list(_ratio), required=True,
                   help="comma-separated, e.g. 0.05,0.2")
    p.add_argument("--seeds", type=_comma_list(int), default="1,2,3,4,5",
                   help="comma-separated (default 1-5)")
    p.add_argument("--protect", action="append", default=[], metavar="ATTR")
    p.add_argument("--out", required=True, help="per-run metrics CSV")
    p.add_argument("--report", help="plain-text summary (default: stdout)")

    p = sub.add_parser("sdg", help="export the dependency graph as DOT")
    p.add_argument("--rules", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--dot", required=True)
    return parser


def _read_config_file(path: str) -> dict:
    """The JSON object in a ``--config`` file; anything else is a usage error."""
    try:
        base = json.loads(read_text(path))
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise _UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(base, dict):
        raise _UsageError(
            f"config file {path} must hold a JSON object, got {type(base).__name__}"
        )
    if not isinstance(base.get("dictionaries", {}), dict):
        raise _UsageError(
            f"config file {path}: dictionaries must map attribute names to paths"
        )
    return base


def _load_config(args) -> RunConfig:
    base = _read_config_file(args.config) if getattr(args, "config", None) else {}
    overrides = {
        "bayes_threshold": args.k,
        "group_threshold": args.K,
        "pattern_support": args.Q,
        "pages": args.pages,
        "sample": args.sample,
        "pattern_cache": args.patterns,
        "reiterate": args.reiterate,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    dictionaries = dict(base.get("dictionaries", {}))
    for item in args.dict:
        attr, sep, path = item.partition("=")
        if not sep or not attr or not path:
            raise _UsageError(f"--dict expects ATTR=PATH, got {item!r}")
        dictionaries[attr] = path
    base["dictionaries"] = dictionaries
    try:
        return RunConfig.from_dict(base)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad configuration: {exc}") from None


def _check_outputs(*paths: str | None) -> None:
    """Fail as writing would, before any input is read or any query is made.

    A path that names a directory, or whose parent directory does not exist,
    raises the :class:`OSError` its write would have raised after the run.
    """
    for path in filter(None, paths):
        parent = Path(path).parent  # Path("o.csv").parent is Path(".")
        if Path(path).is_dir():
            code = errno.EISDIR
        elif not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)


_PROVIDER_KEYS = {  # kind -> (required, optional) keys of a --config provider
    "local": ({"corpus"}, set()),
    "http": ({"url_template"}, {"delay_ms", "user_agent", "timeout_ms"}),
}


def _build_provider(args, config: RunConfig):
    """The provider of ``--corpus``, else ``--url-template``, else ``--config``."""
    if getattr(args, "corpus", None):
        settings = {"kind": "local", "corpus": args.corpus}
    elif getattr(args, "url_template", None):
        settings = {"kind": "http", "url_template": args.url_template}
    else:
        settings = dict(config.provider or {})
    kind = settings.pop("kind", None)
    if kind is None:
        raise _UsageError("need --corpus, --url-template, or a provider in --config")
    if not isinstance(kind, str) or kind not in _PROVIDER_KEYS:
        raise _UsageError(f"unknown provider kind {kind!r}: expected 'local' or 'http'")
    required, optional = _PROVIDER_KEYS[kind]
    unknown = sorted(set(settings) - required - optional)
    if unknown:
        raise _UsageError(f"unknown {kind} provider key: {', '.join(unknown)}")
    missing = sorted(required - set(settings))
    if missing:
        raise _UsageError(f"{kind} provider needs key: {', '.join(missing)}")
    if kind == "local":
        if not isinstance(settings["corpus"], str):
            raise _UsageError("local provider key corpus must be a file path")
        return LocalCorpusProvider.from_jsonl(
            settings["corpus"], page_size=config.page_size
        )
    try:
        return HttpProvider(**settings)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad http provider settings: {exc}") from None


def _run_inputs(args):
    """``(config, provider, table, ruleset)`` of an ``impute`` or ``sweep``:
    outputs checked before any input is read, the provider built before the table."""
    config = _load_config(args)
    _check_outputs(args.out, args.report, config.pattern_cache)
    provider = _build_provider(args, config)
    table = load_table(args.table)
    return config, provider, table, RuleSet.estimate(parse_rules_file(args.rules), table)


def _cmd_impute(args) -> int:
    config, provider, table, ruleset = _run_inputs(args)
    imputed, report = impute(table, ruleset, config, provider)
    write_table(imputed, args.out)
    if args.report:
        report.write(args.report)
    counts = report.counts
    print(
        f"{report.initial_missing} missing: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return 0


def _cmd_mine_patterns(args) -> int:
    _check_outputs(args.out)
    table = load_table(args.table)
    provider = LocalCorpusProvider.from_jsonl(args.corpus)
    patterns = mine_patterns(
        provider,
        table,
        args.pair,
        min_support=args.min_support,
        sample=args.sample,
        pages=args.pages,
    )
    save_patterns(patterns, args.out)
    print(f"{len(patterns)} pattern(s) -> {args.out}")
    return 0


def _cmd_mask(args) -> int:
    _check_outputs(args.out, args.truth)
    table = load_table(args.table)
    rules = parse_rules_file(args.rules) if args.rules else None
    spec = MaskSpec(ratio=args.ratio, seed=args.seed, protected_attrs=frozenset(args.protect))
    masked, truth = mask_random(table, spec, rules=rules)
    write_table(masked, args.out)
    write_ground_truth(truth, args.truth)
    print(f"masked {len(truth)} cells -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _check_outputs(args.report)
    imputed = load_table(args.table)
    truth = read_ground_truth(args.truth)
    metrics = asdict(evaluate(truth, imputed))
    del metrics["phase_timings"]  # set only by a sweep's run_one
    if args.report:
        write_json(metrics, args.report)
    else:
        sys.stdout.write(dump_json(metrics))
    return 0


def _cmd_sweep(args) -> int:
    config, provider, table, ruleset = _run_inputs(args)
    result = sweep(
        table, ruleset, config, provider, args.ratios, args.seeds, protected=args.protect
    )
    Path(args.out).write_text(result.to_csv(), encoding="utf-8")
    summary = result.summary()
    if args.report:
        Path(args.report).write_text(summary, encoding="utf-8")
    sys.stdout.write(summary)
    return 0


def _cmd_sdg(args) -> int:
    _check_outputs(args.dot)
    table = load_table(args.table)
    ruleset = RuleSet.estimate(parse_rules_file(args.rules), table)
    graph = build_dependency_graph(ruleset)
    Path(args.dot).write_text(export_dot(graph), encoding="utf-8")
    print(f"{len(graph.nodes)} nodes, {len(graph.edges)} edges -> {args.dot}")
    return 0


_COMMANDS = {
    "impute": _cmd_impute,
    "mine-patterns": _cmd_mine_patterns,
    "mask": _cmd_mask,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "sdg": _cmd_sdg,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # One stderr handler on the package logger, removed on return, so that
    # the root logger and any handlers a caller installed are left alone.
    logger = logging.getLogger("webimpute")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(name)s: %(message)s"))
    saved_level = logger.level
    try:
        args = parser.parse_args(argv)
        logger.setLevel(args.log_level.upper())
        logger.addHandler(handler)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run 'webimpute --help' for usage", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # a missing, unreadable or unwritable path
        where = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else exc
        print(f"error: {where}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:  # TableError, RuleParseError, MiningError, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
