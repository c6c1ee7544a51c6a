"""Command-line surface: option extraction, oracle building, training,
summarization, evaluation, threshold sweeps, statistics, gradient checks.

An optional --config JSON file supplies defaults for any flag of the chosen
subcommand, each of the type its flag takes; explicit flags always win.
"""

import argparse
import json
import logging
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import oracle as oracle_mod
from . import pipeline
from .corpus import load_corpus, read_records, write_records
from .model import CONFIG_JSON_TYPES, DEFAULT_HIDDEN_SIZE, TrainConfig
from .oracle import OracleConfig
from .pipeline import SummarizeConfig
from .rules import extract_options, option_record

logger = logging.getLogger(__name__)

# Flag (argparse dest) -> the parameter it sets, for each call built from flags.
ORACLE_FLAGS = {"k": "k", "beam": "beam_width", "m": "m"}
TRAIN_FLAGS = {"alpha": "alpha", "lr": "learning_rate", "epochs": "epochs",
               "seed": "seed", "hidden": "hidden_size"}
SUMMARIZE_FLAGS = {"k": "k", "tau": "tau"}
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
            raise ValueError(f"duplicate document id {doc.id!r} in {path}")
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
        # the tolerance above stop admits stop itself, never a threshold past it
        tau = min(round(value, 10), stop)
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
    print(f"ROUGE-1 F1: {result.mean1.f1:.4f}")
    print(f"ROUGE-2 F1: {result.mean2.f1:.4f}")
    print(f"ROUGE-L F1: {result.mean_l.f1:.4f}")
    return 0


def cmd_sweep(args) -> int:
    grid = _parse_tau_grid(args.tau_grid)
    cfg = _from_flags(SummarizeConfig, args, {"k": "k"}, tau=0.0, dedup=not args.no_dedup)
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


def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="compsum",
        description="Extractive-compressive summarization toolkit")
    parser.add_argument("--config", help="JSON file of default flag values")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    leaves: list[argparse.ArgumentParser] = []

    p_options = sub.add_parser("options", help="compression-option utilities")
    options_sub = p_options.add_subparsers(dest="subcommand", required=True)
    p_extract = options_sub.add_parser("extract", help="dump options per sentence")
    p_extract.add_argument("--corpus")
    p_extract.add_argument("--out")
    leaves.append(p_extract)
    p_extract.set_defaults(func=cmd_options_extract, required_args=("corpus", "out"))

    p_oracle = sub.add_parser("oracle", help="oracle construction")
    oracle_sub = p_oracle.add_subparsers(dest="subcommand", required=True)
    p_build = oracle_sub.add_parser("build", help="build and cache training oracles")
    p_build.add_argument("--corpus")
    p_build.add_argument("--out")
    p_build.add_argument("--k", type=int, default=OracleConfig.k)
    p_build.add_argument("--beam", type=int, default=OracleConfig.beam_width)
    p_build.add_argument("--m", type=int, default=OracleConfig.m)
    leaves.append(p_build)
    p_build.set_defaults(func=cmd_oracle_build, required_args=("corpus", "out"))

    p_train = sub.add_parser("train", help="train the joint model")
    p_train.add_argument("--corpus")
    p_train.add_argument("--oracles")
    p_train.add_argument("--out")
    p_train.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    p_train.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--seed", type=int, default=TrainConfig.seed)
    p_train.add_argument("--hidden", type=int, default=TrainConfig.hidden_size)
    leaves.append(p_train)
    p_train.set_defaults(func=cmd_train, required_args=("corpus", "oracles", "out"))

    p_sum = sub.add_parser("summarize", help="produce summaries")
    p_sum.add_argument("--corpus")
    p_sum.add_argument("--model")
    p_sum.add_argument("--out")
    p_sum.add_argument("--tau", type=float, default=SummarizeConfig.tau)
    p_sum.add_argument("--k", type=int, default=SummarizeConfig.k)
    p_sum.add_argument("--no-dedup", action="store_true")
    leaves.append(p_sum)
    p_sum.set_defaults(func=cmd_summarize, required_args=("corpus", "model", "out"))

    p_eval = sub.add_parser("evaluate", help="score summaries against references")
    p_eval.add_argument("--corpus")
    p_eval.add_argument("--model")
    p_eval.add_argument("--tau", type=float, default=SummarizeConfig.tau)
    p_eval.add_argument("--k", type=int, default=SummarizeConfig.k)
    p_eval.add_argument("--no-dedup", action="store_true")
    p_eval.add_argument("--csv")
    p_eval.add_argument("--json")
    leaves.append(p_eval)
    p_eval.set_defaults(func=cmd_evaluate, required_args=("corpus", "model"))

    p_sweep = sub.add_parser("sweep", help="sweep the deletion threshold")
    p_sweep.add_argument("--corpus")
    p_sweep.add_argument("--model")
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--tau-grid", default="0:1:0.1")
    p_sweep.add_argument("--k", type=int, default=SummarizeConfig.k)
    p_sweep.add_argument("--no-dedup", action="store_true")
    leaves.append(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep, required_args=("corpus", "model", "out"))

    p_stats = sub.add_parser("stats", help="option statistics per node type")
    p_stats.add_argument("--corpus")
    p_stats.add_argument("--out")
    p_stats.add_argument("--oracles")
    p_stats.add_argument("--summaries")
    leaves.append(p_stats)
    p_stats.set_defaults(func=cmd_stats, required_args=("corpus", "out"))

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--corpus")
    p_grad.add_argument("--oracles")
    p_grad.add_argument("--samples", type=int, default=3)
    p_grad.add_argument("--seed", type=int, default=TrainConfig.seed)
    p_grad.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN_SIZE)
    leaves.append(p_grad)
    p_grad.set_defaults(func=cmd_gradcheck, required_args=("corpus", "oracles"))

    return parser, leaves


def _apply_config(path, parsers) -> str | None:
    """Make a config file's values the defaults of the parsers that have their
    flags; returns the error when the file is rejected.

    A key set only where its flag is defined keeps an explicit flag of the
    top-level parser (-v) from being overwritten by a subcommand's default.
    """
    try:
        defaults = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return f"cannot read config {path}: {exc}"
    if not isinstance(defaults, dict):
        return (f"config {path}: expected a JSON object of flag defaults, "
                f"got {type(defaults).__name__}")
    actions = [(parser, action) for parser in parsers for action in parser._actions
               if action.option_strings and action.dest in defaults]
    unknown = sorted(set(defaults) - {action.dest for _, action in actions})
    if unknown:
        return (f"config {path}: no subcommand has a flag for "
                f"key(s) {', '.join(map(repr, unknown))}")
    for parser, action in actions:
        value = defaults[action.dest]
        kind = bool if action.nargs == 0 else action.type or str
        allowed, name = CONFIG_JSON_TYPES[kind]
        if type(value) not in allowed:
            return (f"config {path}: key {action.dest!r} holds {json.dumps(value)}, but "
                    f"{max(action.option_strings, key=len)} takes {name}")
        parser.set_defaults(**{action.dest: kind(value)})
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
