"""Command-line surface: option extraction, oracle building, training,
summarization, evaluation, threshold sweeps, statistics, gradient checks.

An optional --config JSON file supplies defaults for any flag of the chosen
subcommand, each of the type its flag takes; explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import oracle as oracle_mod
from . import pipeline
from .corpus import config_value, load_corpus, quote, read_records, write_records
from .model import TrainConfig
from .oracle import OracleConfig
from .pipeline import SummarizeConfig
from .rules import extract_options, option_record

logger = logging.getLogger(__name__)

# Flag (argparse dest) -> the parameter it sets, for each call built from flags.
ORACLE_FLAGS = {"k": "k", "beam": "beam_width", "m": "m"}
TRAIN_FLAGS = {"alpha": "alpha", "lr": "learning_rate", "epochs": "epochs",
               "seed": "seed", "hidden": "hidden_size"}
SUMMARIZE_FLAGS = {"k": "k", "tau": "tau"}
SWEEP_FLAGS = {"k": "k"}
GRADCHECK_FLAGS = {"hidden": "hidden_size", "seed": "seed"}

# Most thresholds one --tau-grid may hold: a step of 1e-4 across [0, 1]
MAX_TAU_POINTS = 10_001


def _load_documents(path):
    docs = list(load_corpus(path))
    if not docs:
        raise ValueError(f"no usable documents in {path}")
    seen = set()
    for doc in docs:
        if doc.id in seen:
            raise ValueError(f"duplicate document id {quote(doc.id)} in {path}")
        seen.add(doc.id)
    return docs


def _from_flags(build, args, flags: dict[str, str], **fixed):
    """build(...) with each flag's value as its parameter's.

    A rejected value is reported by the flag the user typed: the "field=" of
    the error becomes "--flag ".
    """
    try:
        return build(**{field: getattr(args, flag) for flag, field in flags.items()}, **fixed)
    except ValueError as exc:
        message = str(exc)
        for flag, field in flags.items():
            message = re.sub(rf"\b{field}=", f"--{flag.replace('_', '-')} ", message)
        raise ValueError(message) from None


def _parse_tau_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"--tau-grid expects start:stop:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"--tau-grid {spec!r} holds a non-finite part")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise ValueError(f"--tau-grid {spec!r}: start and stop must lie in [0, 1]")
    if step <= 0:
        raise ValueError("--tau-grid step must be positive")
    if (stop - start + 1e-9) / step >= MAX_TAU_POINTS:
        raise ValueError(f"--tau-grid {spec!r} holds more than {MAX_TAU_POINTS} thresholds")
    grid = []
    value = start
    while value <= stop + 1e-9:
        # the tolerance above stop admits stop itself, never a threshold past it;
        # adding 0.0 makes a start of -0 the threshold +0.0
        tau = min(round(value, 10), stop) + 0.0
        if not grid or tau != grid[-1]:
            grid.append(tau)
        value += step
    if not grid:
        raise ValueError(f"--tau-grid {spec!r} holds no threshold: start exceeds stop")
    return grid


def cmd_options_extract(args) -> int:
    docs = _load_documents(args.corpus)
    count = write_records(args.out, (option_record(doc.id, i, extract_options(tree))
                                     for doc in docs for i, tree in enumerate(doc.sentences)))
    print(f"wrote options for {count} sentences to {args.out}")
    return 0


def cmd_oracle_build(args) -> int:
    cfg = _from_flags(OracleConfig, args, ORACLE_FLAGS)
    docs = _load_documents(args.corpus)
    entries = (oracle_mod.build_document_oracles(doc, cfg) for doc in docs)
    count = oracle_mod.write_oracle_cache(args.out, cfg, entries)
    print(f"wrote oracles for {count} documents to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _from_flags(TrainConfig, args, TRAIN_FLAGS)
    examples = oracle_mod.read_oracle_cache(args.oracles, _load_documents(args.corpus))
    model, trace = model_mod.train(examples, cfg)
    model_mod.save_model(model, args.out)
    for epoch, loss in enumerate(trace, start=1):
        print(f"epoch {epoch}: mean loss {loss:.6f}")
    print(f"saved model to {args.out}")
    return 0


def cmd_summarize(args) -> int:
    cfg = _from_flags(SummarizeConfig, args, SUMMARIZE_FLAGS, dedup=not args.no_dedup)
    docs = _load_documents(args.corpus)
    model = model_mod.load_model(args.model)
    summaries = (pipeline.summarize(model, doc, cfg) for doc in docs)
    count = write_records(args.out, (
        {**pipeline.summary_to_record(summary),
         "rendered": " ".join(" ".join(sent) for sent in summary.text)}
        for summary in summaries))
    print(f"wrote {count} summaries to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _from_flags(SummarizeConfig, args, SUMMARIZE_FLAGS, dedup=not args.no_dedup)
    docs = _load_documents(args.corpus)
    model = model_mod.load_model(args.model)
    result = pipeline.evaluate_corpus(model, docs, cfg)
    if args.csv:
        pipeline.write_evaluation_csv(args.csv, result)
    if args.json:
        Path(args.json).write_text(
            json.dumps(pipeline.evaluation_to_json(result), indent=2), encoding="utf-8")
    print(f"documents evaluated: {len(result.rows)} (skipped {result.skipped})")
    for (_, label), score in zip(pipeline.METRICS, result.mean.scores):
        print(f"{label} F1: {score.f1:.4f}")
    return 0


def cmd_sweep(args) -> int:
    grid = _parse_tau_grid(args.tau_grid)
    cfg = _from_flags(SummarizeConfig, args, SWEEP_FLAGS, tau=0.0, dedup=not args.no_dedup)
    docs = _load_documents(args.corpus)
    model = model_mod.load_model(args.model)
    points = pipeline.sweep_threshold(model, docs, grid, cfg)
    pipeline.write_sweep_csv(args.out, points)
    for point in points:
        print(f"tau={point.tau:.2f} mean_f1={point.mean_f1:.4f} "
              f"ratio={point.compression_ratio:.4f}")
    print(f"wrote sweep to {args.out}")
    return 0


def cmd_stats(args) -> int:
    docs = _load_documents(args.corpus)
    oracles = None
    if args.oracles:
        oracles = oracle_mod.read_oracle_cache(args.oracles, docs)
    # the rules run once per sentence, for the summaries' check and the report
    options = [[extract_options(tree) for tree in doc.sentences] for doc in docs]
    summaries = None
    if args.summaries:
        by_id = {doc.id: doc_options for doc, doc_options in zip(docs, options)}
        summaries = read_records(
            args.summaries, docs,
            lambda record, doc: pipeline.summary_from_record(record, doc, by_id[doc.id]),
            "the summaries are stale; rerun `compsum summarize`")
    rows = pipeline.stats_report(options, oracles, summaries)
    pipeline.write_stats_csv(args.out, rows)
    print(f"{'node':8} {'len':>6} {'% comps':>8} {'comp acc':>9} {'dedup':>7}")
    for row in rows:
        acc = "-" if row.comp_acc is None else f"{row.comp_acc:.0f}%"
        ded = "-" if row.dedup_pct is None else f"{row.dedup_pct:.0f}%"
        print(f"{row.node_label:8} {row.mean_len:>6.1f} {row.pct_of_comps:>7.1f}% "
              f"{acc:>9} {ded:>7}")
    print(f"wrote stats to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples {args.samples} must be >= 1")
    model = _from_flags(model_mod.init_model, args, GRADCHECK_FLAGS)
    examples = oracle_mod.read_oracle_cache(args.oracles, _load_documents(args.corpus))
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(len(examples), size=min(args.samples, len(examples)), replace=False)
    worst = 0.0
    for index in picks:
        error = model_mod.gradient_check(model, examples[int(index)])
        worst = max(worst, error)
        print(f"document {examples[int(index)].doc.id}: max relative error {error:.3e}")
    print(f"overall max relative error: {worst:.3e}")
    return 0 if worst < 1e-4 else 1


# Each subcommand: its words, help and function; the path flags it requires;
# its other flags, each with its add_argument keywords; and the config whose
# fields give the flags of its flag -> field map their types and defaults
# (with --no-dedup where the config has a dedup field).
COMMANDS = (
    (("options", "extract"), "dump options per sentence", cmd_options_extract,
     ("corpus", "out"), {}, None, {}),
    (("oracle", "build"), "build and cache training oracles", cmd_oracle_build,
     ("corpus", "out"), {}, OracleConfig, ORACLE_FLAGS),
    (("train",), "train the joint model", cmd_train,
     ("corpus", "oracles", "out"), {}, TrainConfig, TRAIN_FLAGS),
    (("summarize",), "produce summaries", cmd_summarize,
     ("corpus", "model", "out"), {}, SummarizeConfig, SUMMARIZE_FLAGS),
    (("evaluate",), "score summaries against references", cmd_evaluate,
     ("corpus", "model"), {"csv": {}, "json": {}}, SummarizeConfig, SUMMARIZE_FLAGS),
    (("sweep",), "sweep the deletion threshold", cmd_sweep, ("corpus", "model", "out"),
     {"tau_grid": {"default": "0:1:0.1"}}, SummarizeConfig, SWEEP_FLAGS),
    (("stats",), "option statistics per node type", cmd_stats,
     ("corpus", "out"), {"oracles": {}, "summaries": {}}, None, {}),
    (("gradcheck",), "finite-difference gradient check", cmd_gradcheck, ("corpus", "oracles"),
     {"samples": {"type": int, "default": 3}}, TrainConfig, GRADCHECK_FLAGS),
)
GROUPS = {"options": "compression-option utilities", "oracle": "oracle construction"}


def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="compsum",
        description="Extractive-compressive summarization toolkit")
    parser.add_argument("--config", help="JSON file of default flag values")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {name: sub.add_parser(name, help=text).add_subparsers(dest="subcommand",
                                                                   required=True)
              for name, text in GROUPS.items()}
    leaves = []
    for (*group, word), text, func, required, optional, config, config_flags in COMMANDS:
        leaf = (groups[group[0]] if group else sub).add_parser(word, help=text)
        defaults = {field.name: field.default for field in (fields(config) if config else ())}
        flags = {**dict.fromkeys(required, {}), **optional,
                 **{flag: {"type": type(defaults[field]), "default": defaults[field]}
                    for flag, field in config_flags.items()}}
        if "dedup" in defaults:
            flags["no_dedup"] = {"action": "store_true"}
        for flag, keywords in flags.items():
            leaf.add_argument(f"--{flag.replace('_', '-')}", **keywords)
        leaf.set_defaults(func=func, required_args=required)
        leaves.append(leaf)
    return parser, leaves


def _apply_config(path, parsers) -> str | None:
    """Make a config file's values the defaults of the parsers that have their
    flags; returns the error when the file is rejected.

    A key set only where its flag is defined keeps an explicit flag of the
    top-level parser (-v) from being overwritten by a subcommand's default.
    """
    try:
        defaults = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        return f"config {path}: cannot read: {exc}"
    if not isinstance(defaults, dict):
        return (f"config {path}: expected a JSON object of flag defaults, "
                f"got {type(defaults).__name__}")
    # -h and --config itself take no value from a config file
    settable = defaults.keys() - {"help", "config"}
    actions = [(parser, action) for parser in parsers for action in parser._actions
               if action.option_strings and action.dest in settable]
    unknown = sorted(set(defaults) - {action.dest for _, action in actions})
    if unknown:
        return f"config {path}: no subcommand has a flag for key(s) {quote(unknown)}"
    for parser, action in actions:
        kind = bool if action.nargs == 0 else action.type or str
        try:
            value = config_value(defaults[action.dest], kind,
                                 f"config {path}: key {action.dest!r}")
        except ValueError as exc:
            return str(exc)
        parser.set_defaults(**{action.dest: value})
    return None


def main(argv=None) -> int:
    conf_parser = argparse.ArgumentParser(add_help=False)
    conf_parser.add_argument("--config")
    known, _ = conf_parser.parse_known_args(argv)
    parser, leaves = build_parser()
    if known.config:
        error = _apply_config(known.config, (parser, *leaves))
        if error:
            print(json.dumps({"error": error}), file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    missing = [name for name in getattr(args, "required_args", ())
               if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join(f"--{name}" for name in missing)
        print(json.dumps({"error": f"missing required arguments: {flags}",
                          "command": args.command}), file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except Exception as exc:  # surfaces a structured error and a nonzero exit
        print(json.dumps({"error": str(exc), "command": args.command}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
