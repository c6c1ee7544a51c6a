"""End-to-end command-line workflow on a small generated corpus."""

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import corpusgen
from reference_oracle import library_labels
from compsum import Document
from compsum import model as model_mod
from compsum.cli import (
    GRADCHECK_FLAGS,
    MAX_TAU_POINTS,
    ORACLE_FLAGS,
    SUMMARIZE_FLAGS,
    TRAIN_FLAGS,
    _parse_tau_grid,
    build_parser,
    main,
)
from compsum.corpus import load_corpus, write_corpus
from compsum.model import TrainConfig, init_model, load_model, save_model
from compsum.oracle import OracleConfig, document_fingerprint, oracle_record, read_oracle_cache
from compsum.pipeline import SummarizeConfig
from compsum.rules import RuleId


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    path = root / "corpus.jsonl"
    docs, _ = corpusgen.learnable_corpus(count=12, seed=31)
    write_corpus(path, docs)
    return path


# JSON that Python's decoder rejects by a ValueError or a RecursionError, not a
# JSONDecodeError, and the message of each
LONG_INTEGER = "9" * 5000
LONG_INTEGER_ERROR = ("Exceeds the limit (4300 digits) for integer string conversion: "
                      "value has 5000 digits; use sys.set_int_max_str_digits() to increase "
                      "the limit")
DEEP_NESTING = "[" * 100_000
DEEP_NESTING_ERROR = ("maximum recursion depth exceeded while decoding a JSON array from a "
                      "unicode string")


def _structured_error(capsys) -> str:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def _cached_ids(oracles: Path) -> list[str]:
    """The document ids of a cache file's records, after its header."""
    return [json.loads(line)["doc_id"] for line in oracles.read_text().splitlines()[1:]]


def test_options_extract(corpus_path, tmp_path, capsys):
    out = tmp_path / "options.jsonl"
    assert main(["options", "extract", "--corpus", str(corpus_path),
                 "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(set(rec) == {"doc_id", "sent_index", "options"} for rec in lines)
    assert any(rec["options"] for rec in lines)


def test_options_extract_skips_too_deep_record(tmp_path, capsys):
    docs = corpusgen.fixture_corpus()[:2]
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, docs)
    deep = {"id": "deep", "sentences": [{"tokens": ["w"], "parse": corpusgen.deep_chain(1200)}]}
    good = corpus.read_text().splitlines()[1]
    corpus.write_text(json.dumps(deep) + "\n" + good + "\n", encoding="utf-8")
    out = tmp_path / "options.jsonl"
    assert main(["options", "extract", "--corpus", str(corpus), "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert {rec["doc_id"] for rec in lines} == {docs[1].id}
    assert len(lines) == len(docs[1].sentences)


def test_leaf_labelled_sbar_in_np_gets_no_option(tmp_path, capsys):
    # the clause rules read an SBAR's first child, which a leaf has none of
    record = {"id": "leaf-sbar",
              "sentences": [{"tokens": ["man", "who", "ran"],
                             "parse": "(S (NP (NN man) (SBAR who)) (VP (VBD ran)))"}],
              "reference": [["man", "ran"]]}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "options.jsonl"
    assert main(["options", "extract", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert [json.loads(line) for line in out.read_text().splitlines()] == [
        {"doc_id": "leaf-sbar", "sent_index": 0, "options": []}]
    oracles = tmp_path / "oracles.jsonl"
    assert main(["oracle", "build", "--corpus", str(corpus), "--out", str(oracles),
                 "--k", "1"]) == 0
    assert json.loads(oracles.read_text().splitlines()[1])["labels"] == [[]]


def test_mistyped_reference_record_is_skipped(tmp_path, capsys):
    docs, _ = corpusgen.learnable_corpus(count=4, seed=31)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, docs)
    lines = corpus.read_text(encoding="utf-8").splitlines()
    bad = json.loads(lines[1])
    bad["reference"] = [[1, 2, 3]]
    lines[1] = json.dumps(bad)
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    oracles = tmp_path / "oracles.jsonl"
    model_file = tmp_path / "model.json"
    evaluation = tmp_path / "evaluation.json"
    assert main(["oracle", "build", "--corpus", str(corpus), "--out", str(oracles),
                 "--k", "2"]) == 0
    valid_ids = [d.id for i, d in enumerate(docs) if i != 1]
    assert _cached_ids(oracles) == valid_ids
    assert main(["train", "--corpus", str(corpus), "--oracles", str(oracles),
                 "--out", str(model_file), "--epochs", "1"]) == 0
    assert main(["evaluate", "--corpus", str(corpus), "--model", str(model_file),
                 "--k", "2", "--json", str(evaluation)]) == 0
    payload = json.loads(evaluation.read_text())
    assert [row["doc_id"] for row in payload["documents"]] == valid_ids


def test_misshaped_sentences_record_is_skipped(tmp_path):
    docs, _ = corpusgen.learnable_corpus(count=2, seed=31)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, docs)
    lines = corpus.read_text(encoding="utf-8").splitlines()
    bad = json.loads(lines[0])
    bad["sentences"] = [[sent["tokens"], sent["parse"]] for sent in bad["sentences"]]
    lines[0] = json.dumps(bad)
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    oracles = tmp_path / "oracles.jsonl"
    assert main(["oracle", "build", "--corpus", str(corpus), "--out", str(oracles),
                 "--k", "2"]) == 0
    assert _cached_ids(oracles) == [docs[1].id]


def test_full_workflow(corpus_path, tmp_path, capsys):
    oracles = tmp_path / "oracles.jsonl"
    model_file = tmp_path / "model.json"
    summaries = tmp_path / "summaries.jsonl"

    assert main(["oracle", "build", "--corpus", str(corpus_path),
                 "--out", str(oracles), "--k", "2", "--beam", "8", "--m", "5"]) == 0
    header, record = map(json.loads, oracles.read_text().splitlines()[:2])
    assert (header["format"], header["version"]) == ("compsum-oracles", 3)
    assert set(record) == {"doc_id", "fingerprint", "oracles", "labels"}
    assert len(record["oracles"]) <= 5

    assert main(["train", "--corpus", str(corpus_path), "--oracles", str(oracles),
                 "--out", str(model_file), "--alpha", "1.0", "--lr", "0.001",
                 "--epochs", "2", "--seed", "11"]) == 0
    model = load_model(model_file)
    assert model.hidden_size == 32

    assert main(["summarize", "--corpus", str(corpus_path), "--model", str(model_file),
                 "--out", str(summaries), "--tau", "0.45", "--k", "2"]) == 0
    recs = [json.loads(line) for line in summaries.read_text().splitlines()]
    assert len(recs) == 12
    assert all(len(rec["selected"]) == 2 for rec in recs)

    eval_csv = tmp_path / "eval.csv"
    eval_json = tmp_path / "eval.json"
    assert main(["evaluate", "--corpus", str(corpus_path), "--model", str(model_file),
                 "--tau", "0.45", "--k", "2", "--csv", str(eval_csv),
                 "--json", str(eval_json)]) == 0
    printed = capsys.readouterr().out
    assert "ROUGE-1 F1" in printed
    payload = json.loads(eval_json.read_text())
    assert set(payload) == {"mean", "skipped", "documents"}
    with eval_csv.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "doc_id" and rows[-1][0] == "MEAN"

    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--corpus", str(corpus_path), "--model", str(model_file),
                 "--out", str(sweep_csv), "--tau-grid", "0:1:0.25", "--k", "2",
                 "--no-dedup"]) == 0
    with sweep_csv.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["tau", "rouge1_f1", "rouge2_f1", "rougeL_f1",
                       "mean_f1", "compression_ratio"]
    assert len(rows) == 6  # header + 5 grid points
    ratios = [float(r[5]) for r in rows[1:]]
    assert ratios == sorted(ratios, reverse=True)

    stats_csv = tmp_path / "stats.csv"
    assert main(["stats", "--corpus", str(corpus_path), "--oracles", str(oracles),
                 "--summaries", str(summaries), "--out", str(stats_csv)]) == 0
    with stats_csv.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["node_label", "len", "pct_of_comps", "comp_acc", "dedup"]


def test_gradcheck_command(corpus_path, tmp_path, capsys):
    oracles = tmp_path / "oracles.jsonl"
    main(["oracle", "build", "--corpus", str(corpus_path), "--out", str(oracles),
          "--k", "2"])
    code = main(["gradcheck", "--corpus", str(corpus_path),
                 "--oracles", str(oracles), "--samples", "2", "--seed", "3"])
    assert code == 0
    assert "max relative error" in capsys.readouterr().out


def test_config_file_supplies_defaults_flags_win(corpus_path, tmp_path, capsys):
    config = tmp_path / "config.json"
    out_from_config = tmp_path / "from_config.jsonl"
    config.write_text(json.dumps({
        "corpus": str(corpus_path), "out": str(out_from_config)}), encoding="utf-8")
    assert main(["--config", str(config), "options", "extract"]) == 0
    assert out_from_config.exists()

    out_flag = tmp_path / "from_flag.jsonl"
    assert main(["--config", str(config), "options", "extract",
                 "--out", str(out_flag)]) == 0
    assert out_flag.exists()


@pytest.mark.parametrize("content, expected", [
    ("[1, 2]", "expected a JSON object of flag defaults, got list"),
    ('{"epoch": 5, "outt": "x"}', 'no subcommand has a flag for key(s) ["epoch", "outt"]'),
    ('{"help": true}', 'no subcommand has a flag for key(s) ["help"]'),
    ('{"help": false}', 'no subcommand has a flag for key(s) ["help"]'),
    ('{"config": "zzz.json"}', 'no subcommand has a flag for key(s) ["config"]'),
    # once listed in full, 9,941 characters
    pytest.param(json.dumps({f"key{i:04}": 1 for i in range(1000)}),
                 'no subcommand has a flag for key(s) ["key0000", "key0001", "key0002", "key0…',
                 id="many-unknown"),
    # each once a raw traceback out of main
    pytest.param(f'{{"k": {LONG_INTEGER}}}', f"cannot read: {LONG_INTEGER_ERROR}",
                 id="integer-too-long"),
    pytest.param(DEEP_NESTING, f"cannot read: {DEEP_NESTING_ERROR}", id="nesting-too-deep"),
    pytest.param(b'{"k": "\xff"}', "cannot read: 'utf-8' codec can't decode byte 0xff in "
                 "position 7: invalid start byte", id="not-utf8"),
])
def test_config_that_is_no_object_of_flags_is_error(corpus_path, tmp_path, capsys,
                                                     content, expected):
    # a list once ended in a TypeError traceback, and unknown keys were
    # ignored; "help" and "config" were once accepted and did nothing
    config = tmp_path / "config.json"
    config.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    out = tmp_path / "options.jsonl"
    code = main(["--config", str(config), "options", "extract",
                 "--corpus", str(corpus_path), "--out", str(out)])
    assert code == 2
    error = _structured_error(capsys)
    assert error == f"config {config}: {expected}"
    assert len(error) < len(f"config {config}: ") + 200
    assert not out.exists()


@pytest.mark.parametrize("content, command, expected", [
    ({"k": 2.7}, ["oracle", "build"], "key 'k' holds 2.7, not an integer"),
    ({"tau": "0.5"}, ["summarize", "--model", "model.json"],
     "key 'tau' holds \"0.5\", not a number"),
    ({"out": 7}, ["oracle", "build"], "key 'out' holds 7, not a string"),
    ({"no_dedup": "false"}, ["summarize", "--model", "model.json"],
     "key 'no_dedup' holds \"false\", not true or false"),
    # once an OverflowError traceback out of main
    ({"alpha": 10 ** 400}, ["train", "--oracles", "oracles.jsonl"],
     "key 'alpha' holds an integer too large for a float"),
    # once quoted in full, 16,984 characters
    ({"k": list(range(3000))}, ["oracle", "build"],
     "key 'k' holds [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, …, not an integer"),
], ids=["integer", "number", "string", "switch", "too-large", "too-long"])
def test_config_value_of_the_wrong_type_is_error(corpus_path, tmp_path, capsys,
                                                 content, command, expected):
    # {"k": 2.7} once failed with a raw "'float' object cannot be interpreted
    # as an integer", and {"no_dedup": "false"} silently turned dedup off
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main(["--config", str(config), *command, "--corpus", str(corpus_path),
                 "--out", str(out)])
    assert code == 2
    error = _structured_error(capsys)
    assert error == f"config {config}: {expected}"
    assert len(error) < len(f"config {config}: ") + 200
    assert not out.exists()


def test_explicit_verbose_flag_wins_over_config(corpus_path, tmp_path, monkeypatch):
    # a config's "verbose": false once overrode -v, logging at WARNING
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: levels.append(kwargs["level"]))
    data = ["options", "extract", "--corpus", str(corpus_path), "--out", str(tmp_path / "o")]
    for verbose in (False, True):
        config = tmp_path / f"{verbose}.json"
        config.write_text(json.dumps({"verbose": verbose}), encoding="utf-8")
        assert main(["--config", str(config), "-v", *data]) == 0
        assert main(["--config", str(config), *data]) == 0
    assert levels == [logging.INFO, logging.WARNING, logging.INFO, logging.INFO]


def test_flag_defaults_are_the_config_defaults():
    _, leaves = build_parser()
    by_command = {leaf.prog.removeprefix("compsum "): leaf for leaf in leaves}
    cases = [("oracle build", OracleConfig, ORACLE_FLAGS), ("train", TrainConfig, TRAIN_FLAGS),
             ("summarize", SummarizeConfig, SUMMARIZE_FLAGS),
             ("evaluate", SummarizeConfig, SUMMARIZE_FLAGS),
             ("sweep", SummarizeConfig, {"k": "k"}), ("gradcheck", TrainConfig, GRADCHECK_FLAGS)]
    for command, config, flags in cases:
        for flag, field in flags.items():
            assert by_command[command].get_default(flag) == getattr(config, field), (command, flag)
    assert by_command["gradcheck"].get_default("hidden") == init_model().hidden_size
    # Every config field is set by a flag of its command (dedup by
    # --no-dedup), so none holds a value the command line cannot change.
    for config, flags, others in ((OracleConfig, ORACLE_FLAGS, ()),
                                  (TrainConfig, TRAIN_FLAGS, ()),
                                  (SummarizeConfig, SUMMARIZE_FLAGS, ("dedup",))):
        assert {f.name for f in fields(config)} == {*flags.values(), *others}, config.__name__


def _cli_surface() -> dict:
    """Each parser of build_parser() by its command words: its help text, its
    required_args and function's name, and each flag by dest, as its option
    strings, type's name, default and action class."""
    parser, leaves = build_parser()
    surface, runnable = {}, set()
    pending = [((), parser, parser.description)]
    while pending:
        words, node, help_text = pending.pop()
        func = node.get_default("func")
        surface[" ".join(words)] = (help_text, node.get_default("required_args"),
                                    func and func.__name__, {
            action.dest: (tuple(action.option_strings), action.type and action.type.__name__,
                          action.default, type(action).__name__)
            for action in node._actions if action.option_strings})
        for sub in node._actions:
            if isinstance(sub, argparse._SubParsersAction):
                helps = {choice.dest: choice.help for choice in sub._choices_actions}
                pending += [((*words, name), child, helps[name])
                            for name, child in sub.choices.items()]
        if func:
            runnable.add(node)
    assert set(leaves) == runnable  # the parsers main applies a config file to
    return surface


def _store(option: str, type_name=None, default=None) -> tuple:
    return ((option,), type_name, default, "_StoreAction")


HELP = (("-h", "--help"), None, argparse.SUPPRESS, "_HelpAction")
NO_DEDUP = (("--no-dedup",), None, False, "_StoreTrueAction")
# The command line build_parser() makes: each command's help, required flags,
# function, and every flag with its type and default
CLI_SURFACE = {
    "": ("Extractive-compressive summarization toolkit", None, None, {
        "config": _store("--config"), "help": HELP,
        "verbose": (("-v", "--verbose"), None, False, "_StoreTrueAction")}),
    "options": ("compression-option utilities", None, None, {"help": HELP}),
    "options extract": ("dump options per sentence", ("corpus", "out"), "cmd_options_extract", {
        "corpus": _store("--corpus"), "out": _store("--out"), "help": HELP}),
    "oracle": ("oracle construction", None, None, {"help": HELP}),
    "oracle build": ("build and cache training oracles", ("corpus", "out"), "cmd_oracle_build", {
        "corpus": _store("--corpus"), "out": _store("--out"), "help": HELP,
        "k": _store("--k", "int", 3), "beam": _store("--beam", "int", 8),
        "m": _store("--m", "int", 5)}),
    "train": ("train the joint model", ("corpus", "oracles", "out"), "cmd_train", {
        "corpus": _store("--corpus"), "oracles": _store("--oracles"), "out": _store("--out"),
        "help": HELP, "alpha": _store("--alpha", "float", 1.0),
        "lr": _store("--lr", "float", 0.001), "epochs": _store("--epochs", "int", 2),
        "seed": _store("--seed", "int", 0), "hidden": _store("--hidden", "int", 32)}),
    "summarize": ("produce summaries", ("corpus", "model", "out"), "cmd_summarize", {
        "corpus": _store("--corpus"), "model": _store("--model"), "out": _store("--out"),
        "help": HELP, "tau": _store("--tau", "float", 0.45), "k": _store("--k", "int", 3),
        "no_dedup": NO_DEDUP}),
    "evaluate": ("score summaries against references", ("corpus", "model"), "cmd_evaluate", {
        "corpus": _store("--corpus"), "model": _store("--model"), "csv": _store("--csv"),
        "json": _store("--json"), "help": HELP, "tau": _store("--tau", "float", 0.45),
        "k": _store("--k", "int", 3), "no_dedup": NO_DEDUP}),
    "sweep": ("sweep the deletion threshold", ("corpus", "model", "out"), "cmd_sweep", {
        "corpus": _store("--corpus"), "model": _store("--model"), "out": _store("--out"),
        "help": HELP, "tau_grid": _store("--tau-grid", None, "0:1:0.1"),
        "k": _store("--k", "int", 3), "no_dedup": NO_DEDUP}),
    "stats": ("option statistics per node type", ("corpus", "out"), "cmd_stats", {
        "corpus": _store("--corpus"), "out": _store("--out"), "oracles": _store("--oracles"),
        "summaries": _store("--summaries"), "help": HELP}),
    "gradcheck": ("finite-difference gradient check", ("corpus", "oracles"), "cmd_gradcheck", {
        "corpus": _store("--corpus"), "oracles": _store("--oracles"), "help": HELP,
        "samples": _store("--samples", "int", 3), "seed": _store("--seed", "int", 0),
        "hidden": _store("--hidden", "int", 32)}),
}


def test_cli_surface_is_pinned():
    # compared by dest, so only the order of flags in a usage line may change
    assert _cli_surface() == CLI_SURFACE


@pytest.fixture(scope="module")
def oracles_path(corpus_path):
    path = corpus_path.parent / "oracles.jsonl"
    assert main(["oracle", "build", "--corpus", str(corpus_path), "--out", str(path),
                 "--k", "2"]) == 0
    return path


@pytest.mark.parametrize("command, expected", [
    (["oracle", "build", "--m", "0"], "--m 0 must be >= 1"),
    (["train", "--hidden", "0"], "--hidden 0 must be >= 1"),
    (["train", "--lr", "0"], "--lr 0.0 must be > 0"),
    (["gradcheck", "--hidden", "0"], "--hidden 0 must be >= 1"),
    (["oracle", "build", "--m", "9"], "--m 9 must not exceed --beam 8"),
    (["train", "--lr", "nan"], "--lr nan must be finite"),
    (["train", "--alpha", "inf"], "--alpha inf must be finite"),
    (["train", "--seed", "-1"], "--seed -1 must be >= 0"),
    (["gradcheck", "--seed", "-1"], "--seed -1 must be >= 0"),
])
def test_rejected_value_is_named_by_its_flag(corpus_path, oracles_path, tmp_path, capsys,
                                             command, expected):
    # gradcheck --hidden 0 once checked only b2 and passed; --lr nan and
    # --alpha inf trained a model of NaN weights; --seed -1 failed only after
    # the files were read, with numpy's "expected non-negative integer"; the
    # others named config fields (m=0, hidden_size=0) instead of flags
    out = tmp_path / "out"
    paths = {"train": ["--oracles", str(oracles_path), "--out", str(out)],
             "gradcheck": ["--oracles", str(oracles_path)],
             "oracle": ["--out", str(out)]}
    code = main([*command, "--corpus", str(corpus_path), *paths[command[0]]])
    assert code == 1
    assert _structured_error(capsys) == expected
    assert not out.exists()


def test_training_that_diverges_is_error_and_saves_no_model(corpus_path, oracles_path,
                                                             tmp_path, capsys):
    # --lr 1e308 once saved a model of infinite weights that no command could load
    out = tmp_path / "model.json"
    code = main(["train", "--corpus", str(corpus_path), "--oracles", str(oracles_path),
                 "--out", str(out), "--lr", "1e308"])
    assert code == 1
    assert _structured_error(capsys) == (
        "training diverged: parameter w_d holds a non-finite weight after epoch 1 "
        "at learning rate 1e+308")
    assert not out.exists()


def _first_sentence_summary(doc: Document) -> str:
    """A summaries line for doc that selects its first sentence and deletes nothing."""
    return json.dumps({"doc_id": doc.id, "selected": [0], "deletions": [],
                       "text": [list(doc.sentences[0].tokens)]})


@pytest.mark.parametrize("lines, expected", [
    (["{not json"], ":1: malformed JSON"),
    # a fixed id, the one the case had before the message named the document
    pytest.param([_first_sentence_summary, "",
                  '{"doc_id": "doc0001", "deletions": [], "text": []}'],
                 ':3: document "doc0001": missing key \'selected\'',
                 id="lines1-:3: missing key 'selected'"),
    (["[1]"], ":1: record is not a JSON object"),
])
def test_bad_summaries_record_names_file_and_line(corpus_path, tmp_path, capsys,
                                                  lines, expected):
    # a function in lines stands for its line for the corpus's first document
    first = next(load_corpus(corpus_path))
    summaries = tmp_path / "summaries.jsonl"
    summaries.write_text("\n".join(line(first) if callable(line) else line
                                   for line in lines) + "\n", encoding="utf-8")
    code = main(["stats", "--corpus", str(corpus_path), "--summaries", str(summaries),
                 "--out", str(tmp_path / "stats.csv")])
    assert code == 1
    assert _structured_error(capsys).startswith(f"{summaries}{expected}")


RERUN = "the summaries are stale; rerun `compsum summarize`"


def _summarized(tmp_path: Path, docs, *flags: str) -> dict:
    """Files of docs summarized by an untrained model; the corpus file holds docs."""
    files = {name: tmp_path / name for name in
             ("corpus.jsonl", "model.json", "summaries.jsonl", "stats.csv")}
    write_corpus(files["corpus.jsonl"], docs)
    save_model(init_model(hidden_size=4, seed=0), files["model.json"])
    assert main(["summarize", "--corpus", str(files["corpus.jsonl"]),
                 "--model", str(files["model.json"]), "--out", str(files["summaries.jsonl"]),
                 "--k", "2", *flags]) == 0
    return files


def _stats_error(files: dict, capsys) -> str:
    capsys.readouterr()
    assert main(["stats", "--corpus", str(files["corpus.jsonl"]),
                 "--summaries", str(files["summaries.jsonl"]),
                 "--out", str(files["stats.csv"])]) == 1
    assert not files["stats.csv"].exists()
    return _structured_error(capsys)


def _swap_lines(path: Path, i: int, j: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[i], lines[j] = lines[j], lines[i]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("case", ["first-two-of-six", "two-swapped", "one-past-the-end"])
def test_summaries_out_of_corpus_order_are_located_error(tmp_path, capsys, case):
    # stats --summaries once joined nothing to the corpus and exited 0 on each
    docs, _ = corpusgen.learnable_corpus(count=6, seed=3)
    summarized = docs[:2] if case == "first-two-of-six" else docs
    files = _summarized(tmp_path, summarized)
    path = files["summaries.jsonl"]
    if case == "first-two-of-six":
        write_corpus(files["corpus.jsonl"], docs)
        expected = (f"{path}: no record of document {json.dumps(docs[2].id)} or the "
                    f"documents after it")
    elif case == "two-swapped":
        _swap_lines(path, 1, 2)
        expected = (f"{path}:2: record of document {json.dumps(docs[2].id)} where the corpus "
                    f"has document {json.dumps(docs[1].id)}")
    else:
        write_corpus(files["corpus.jsonl"], docs[:5])
        expected = (f"{path}:6: record of document {json.dumps(docs[5].id)} where the "
                    f"corpus has no document")
    assert _stats_error(files, capsys) == f"{expected}: {RERUN}"


def _first_deletion(record: dict) -> dict:
    return record["deletions"][0]


def _other_rule(deletion: dict) -> None:
    deletion["rule"] = next(rule.value for rule in RuleId if rule.value != deletion["rule"])


def _retyped(record: dict, key: str, kind: type) -> None:
    """Replace record[key] with the equal value of another JSON type, such as
    true or 1.0 for 1."""
    value = kind(record[key])
    assert value == record[key]
    record[key] = value


SUMMARY_RECORD_FAULTS = {
    "selected-not-a-list": (lambda rec: rec.update(selected="x"),
                            "selected is not a list of integers"),
    "selected-twice": (lambda rec: rec.update(selected=rec["selected"][:1] * 2),
                       "is not a list of distinct indices"),
    "selected-past-the-end": (lambda rec: rec.update(selected=[1000]),
                              "selected [1000] is not a list of distinct indices"),
    # once quoted in full
    "selected-too-long": (lambda rec: rec.update(selected=list(range(1000, 1400))),
                          "selected [1000, 1001, 1002, 1003, 1004, 1005, 10… is not a list"),
    # once a raw "'int' object is not subscriptable" or "string indices must be integers"
    "deletions-string": (lambda rec: rec.update(deletions="ab"),
                         "deletions is not a list of objects"),
    "deletions-integers": (lambda rec: rec.update(deletions=[3]),
                           "deletions is not a list of objects"),
    "deletion-sentence-not-selected": (
        lambda rec: _first_deletion(rec).update(sentence=1000000),
        "deletion in sentence 1000000, which is not selected"),
    "deletion-cause": (lambda rec: _first_deletion(rec).update(cause="x"),
                       'deletion cause "x" is neither MODEL nor DEDUP'),
    "deletion-label-null": (lambda rec: _first_deletion(rec).update(label=None),
                            "is none of the sentence's options"),
    "deletion-span-no-option": (lambda rec: _first_deletion(rec).update(start=0, end=10 ** 6),
                                "is none of the sentence's options"),
    "deletion-rule-of-another-option": (lambda rec: _other_rule(_first_deletion(rec)),
                                        "is none of the sentence's options"),
    # each once matched to the option [1, 2, ...] by ==
    "deletion-start-true": (lambda rec: _retyped(_first_deletion(rec), "start", bool),
                            "deletion [true, 2, "),
    "deletion-start-float": (lambda rec: _retyped(_first_deletion(rec), "start", float),
                             "deletion [1.0, 2, "),
    "deletion-end-float": (lambda rec: _retyped(_first_deletion(rec), "end", float),
                           "deletion [1, 2.0, "),
    # once counted twice by stats; the text is the same either way
    "deletion-listed-twice": (lambda rec: rec["deletions"].append(dict(_first_deletion(rec))),
                              "is listed twice"),
    "text": (lambda rec: rec["text"][0].append("extra"),
             "text is not the selected sentences' words outside the deleted spans"),
}


@pytest.mark.parametrize("case", [*SUMMARY_RECORD_FAULTS, "another-corpus"])
def test_summary_record_is_checked_against_its_document(tmp_path, capsys, case):
    # stats once read every one of these records and exited 0
    docs, _ = corpusgen.learnable_corpus(count=6, seed=3)
    files = _summarized(tmp_path, docs, "--tau", "1.0", "--no-dedup")
    path = files["summaries.jsonl"]
    if case == "another-corpus":
        other, _ = corpusgen.learnable_corpus(count=6, seed=99)
        assert [doc.id for doc in other] == [doc.id for doc in docs]
        (tmp_path / "other").mkdir()
        files = {**_summarized(tmp_path / "other", other, "--tau", "1.0", "--no-dedup"),
                 "corpus.jsonl": files["corpus.jsonl"]}
        line, message = 1, "text is not the selected sentences' words"
    else:
        edit, message = SUMMARY_RECORD_FAULTS[case]
        records = [json.loads(text) for text in path.read_text().splitlines()]
        line = next(i for i, rec in enumerate(records, start=1) if rec["deletions"])
        _edit_jsonl(path, line - 1, edit)
    error = _stats_error(files, capsys)
    # the reader names the record's document once; the check names only the field
    quoted = json.dumps(docs[line - 1].id)
    assert error.startswith(f"{files['summaries.jsonl']}:{line}: document {quoted}: ")
    assert error.count(quoted) == 1
    assert message in error
    if case.endswith("too-long"):
        assert len(error) < len(f"{files['summaries.jsonl']}:{line}: ") + 200


@pytest.mark.parametrize("command", ["summarize", "oracle build"])
def test_failed_command_leaves_no_partial_artifact(tmp_path, capsys, command):
    # each once left an empty summaries file, or a cache of only its header
    docs, _ = corpusgen.learnable_corpus(count=6, seed=3)
    files = _summarized(tmp_path, docs)
    out = tmp_path / "out.jsonl"
    argv = [*command.split(), "--corpus", str(files["corpus.jsonl"]), "--out", str(out),
            "--k", "7"]
    if command == "summarize":
        argv += ["--model", str(files["model.json"])]
    expected = f"document {json.dumps(docs[0].id)} has 6 scoreable sentences but k=7"
    for before in (None, b"kept\n"):
        if before is not None:
            out.write_bytes(before)
        capsys.readouterr()
        assert main(argv) == 1
        assert _structured_error(capsys) == expected
        assert (out.read_bytes() if out.exists() else None) == before
        assert sorted(path.name for path in tmp_path.iterdir() if "out" in path.name) == (
            [] if before is None else ["out.jsonl"])


def test_missing_corpus_is_structured_error(tmp_path, capsys):
    code = main(["options", "extract", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and payload["command"] == "options"


_FLOAT_DIMS = {name: float(dim) for name, dim in model_mod.FEATURE_DIMS.items()}

# edits of a model file written by save_model, and the error after its path
MALFORMED_MODELS = {
    "config-not-an-object": (lambda p: p.update(train_config=5),
                             "train_config: 5 is not an object"),
    "config-value-mistyped": (lambda p: p["train_config"].update(alpha="nonsense"),
                              "train_config: key 'alpha' holds \"nonsense\", not a number"),
    "config-bool-for-integer": (lambda p: p["train_config"].update(epochs=True),
                                "train_config: key 'epochs' holds true, not an integer"),
    "config-key-missing": (lambda p: p["train_config"].pop("seed"),
                           "train_config: missing key 'seed'"),
    "config-key-unknown": (lambda p: p["train_config"].update(max_sents=30),
                           'train_config: unknown key(s) ["max_sents"]'),
    # each once quoted in full: a weight of 5,000 characters gave 5,140
    "config-value-too-long": (lambda p: p["train_config"].update(alpha="x" * 5000),
                              f"train_config: key 'alpha' holds \"{'x' * 38}…, not a number"),
    "weight-too-long": (lambda p: p["weights"]["w1"][0].__setitem__(0, "x" * 5000),
                        f"parameter w1 holds \"{'x' * 38}…, which is not a JSON number"),
    "config-value-rejected": (lambda p: p["train_config"].update(alpha=-1),
                              "train_config: alpha=-1 must be >= 0"),
    "config-seed-negative": (lambda p: p["train_config"].update(seed=-1),
                             "train_config: seed=-1 must be >= 0"),
    "hidden-size-string": (lambda p: p.update(hidden_size="32"),
                           'hidden_size "32" is not an integer >= 1'),
    "hidden-size-fraction": (lambda p: p.update(hidden_size=32.7),
                             "hidden_size 32.7 is not an integer >= 1"),
    "hidden-size-disagrees": (lambda p: p["train_config"].update(hidden_size=16),
                              "hidden_size 32 does not match train_config hidden_size 16"),
    "no-weights": (lambda p: p.pop("weights"), "missing key 'weights'"),
    # each once a raw Python error, such as "'int' object is not subscriptable"
    "weights-list": (lambda p: p.update(weights=[1, 2]), "weights: [1, 2] is not an object"),
    "weights-string": (lambda p: p.update(weights="ab"), 'weights: "ab" is not an object'),
    "weights-number": (lambda p: p.update(weights=5), "weights: 5 is not an object"),
    "weights-null": (lambda p: p.update(weights=None), "weights: null is not an object"),
    # each once quoted in full: 5,114 and 5,182 characters
    "format-version-too-long": (lambda p: p.update(format_version="x" * 5000),
                                f"unsupported model format version \"{'x' * 38}… (expected "
                                f"{model_mod.MODEL_FORMAT_VERSION})"),
    "feature-dims-too-long": (lambda p: p.update(feature_dims="x" * 5000),
                              f"model feature dimensions \"{'x' * 38}… do not match this build "
                              f"{json.dumps(model_mod.FEATURE_DIMS)}"),
    "no-train-config": (lambda p: p.pop("train_config"), "missing key 'train_config'"),
    # each once read as the value it equals
    "format-version-true": (lambda p: p.update(format_version=True),
                            "unsupported model format version true (expected 1)"),
    "format-version-float": (lambda p: p.update(format_version=1.0),
                             "unsupported model format version 1.0 (expected 1)"),
    "feature-dims-floats": (lambda p: p.update(feature_dims=_FLOAT_DIMS),
                            f"model feature dimensions {json.dumps(_FLOAT_DIMS)[:39]}… do not "
                            f"match this build {json.dumps(model_mod.FEATURE_DIMS)}"),
    # an edit that returns a string is the file's text; each once a plain ValueError
    # or a RecursionError, naming no file
    "integer-too-long": (lambda p: json.dumps(p).replace('"hidden_size": 32',
                                                        f'"hidden_size": {LONG_INTEGER}'),
                         LONG_INTEGER_ERROR),
    "nesting-too-deep": (lambda p: f'{{"weights": {DEEP_NESTING}', DEEP_NESTING_ERROR),
}


@pytest.mark.parametrize("case", list(MALFORMED_MODELS))
def test_malformed_model_file_is_located_error(corpus_path, tmp_path, capsys, case):
    # every config case once loaded and summarized with exit 0, and a file
    # without weights failed with the bare KeyError text "'weights'"
    edit, expected = MALFORMED_MODELS[case]
    model = init_model(seed=0)
    model.train_config = asdict(TrainConfig())
    path = tmp_path / "m.json"
    save_model(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    text = edit(payload)
    path.write_text(text if isinstance(text, str) else json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["summarize", "--corpus", str(corpus_path), "--model", str(path),
                 "--out", str(tmp_path / "summaries.jsonl")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error == f"corrupt model file {path}: {expected}"
    assert len(error) < len(f"corrupt model file {path}: ") + 200


def test_bad_tau_grid_is_error(corpus_path, tmp_path, capsys):
    model_file = tmp_path / "model.json"
    oracles = tmp_path / "oracles.jsonl"
    main(["oracle", "build", "--corpus", str(corpus_path), "--out", str(oracles), "--k", "2"])
    main(["train", "--corpus", str(corpus_path), "--oracles", str(oracles),
          "--out", str(model_file), "--epochs", "0"])
    code = main(["sweep", "--corpus", str(corpus_path), "--model", str(model_file),
                 "--out", str(tmp_path / "s.csv"), "--tau-grid", "bogus"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("grid, expected", [
    ("0:1:nan", "--tau-grid '0:1:nan' holds a non-finite part"),
    ("0:inf:0.1", "--tau-grid '0:inf:0.1' holds a non-finite part"),
    ("0:2:0.5", "--tau-grid '0:2:0.5': start and stop must lie in [0, 1]"),
    ("-0.5:1:0.5", "--tau-grid '-0.5:1:0.5': start and stop must lie in [0, 1]"),
])
def test_tau_grid_outside_the_unit_interval_is_error(grid, expected):
    # 0:1:nan once swept tau 0 alone, 0:inf:0.1 never returned, and 0:2:0.5
    # failed with "tau=1.5 must lie in [0, 1]", naming no flag
    with pytest.raises(ValueError) as error:
        _parse_tau_grid(grid)
    assert str(error.value) == expected


@pytest.mark.parametrize("grid", ["0:1:1e-12", "0.5:0.5:1e-300", "0:1:0.00009999"])
def test_tau_grid_of_too_many_thresholds_is_error(grid):
    # 0:1:1e-12 once built its grid until killed, and a step below 1e-10
    # repeats taus once rounded to 10 places
    with pytest.raises(ValueError) as error:
        _parse_tau_grid(grid)
    assert str(error.value) == f"--tau-grid {grid!r} holds more than {MAX_TAU_POINTS} thresholds"
    assert len(_parse_tau_grid("0:1:0.0001")) == MAX_TAU_POINTS


@pytest.mark.parametrize("grid, expected", [
    ("0.5:0.5:1e-12", [0.5]),
    ("0.2:0.2000000004:1e-10", [0.2, 0.2000000001, 0.2000000002, 0.2000000003, 0.2000000004]),
    ("0:1:0.1", [i / 10 for i in range(11)]),
    ("-0:1:0.5", [0.0, 0.5, 1.0]),
])
def test_tau_grid_never_repeats_or_passes_stop(grid, expected):
    # 0.5:0.5:1e-12 once held 1001 thresholds, 11 of them distinct once
    # rounded, 0.2:0.2000000004:1e-10 ran on to 0.2000000013, and -0:1:0.5
    # once swept a threshold -0.0 (which == 0.0, so the reprs are compared)
    assert list(map(repr, _parse_tau_grid(grid))) == list(map(repr, expected))


def test_gradcheck_of_an_empty_cache_is_error(corpus_path, tmp_path, capsys):
    # an empty cache once printed "overall max relative error: 0.000e+00" and exited 0
    oracles = tmp_path / "oracles.jsonl"
    oracles.write_text("", encoding="utf-8")
    code = main(["gradcheck", "--corpus", str(corpus_path), "--oracles", str(oracles)])
    assert code == 1
    first = next(load_corpus(corpus_path)).id
    assert _structured_error(capsys) == (
        f"{oracles}: no record of document {json.dumps(first)} or the documents after it: "
        f"the cache is stale; {REBUILD}")


@pytest.mark.parametrize("command", [["evaluate"], ["sweep", "--out", "sweep.csv"]],
                         ids=["evaluate", "sweep"])
def test_corpus_without_references_is_error(tmp_path, capsys, monkeypatch, command):
    # evaluate once reported ROUGE-1 F1 0.0000 and sweep mean_f1=0.0000 at every tau
    docs, _ = corpusgen.learnable_corpus(count=6, seed=31)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, [Document(id=doc.id, sentences=doc.sentences) for doc in docs])
    save_model(init_model(), tmp_path / "model.json")
    monkeypatch.chdir(tmp_path)
    code = main([*command, "--corpus", str(corpus), "--model", "model.json", "--k", "2"])
    assert code == 1
    assert _structured_error(capsys) == "no document has a reference summary (6 skipped)"
    assert not (tmp_path / "sweep.csv").exists()


def _with_wordless_reference(tmp_path: Path) -> tuple[list[Document], Path]:
    """A corpus file whose second document's reference is one empty sentence."""
    docs, _ = corpusgen.learnable_corpus(count=6, seed=5)
    docs[1] = Document(id=docs[1].id, sentences=docs[1].sentences, reference=((),))
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, docs)
    assert json.loads(corpus.read_text().splitlines()[1])["reference"] == [[]]
    return docs, corpus


def test_oracle_build_rejects_a_reference_without_words(tmp_path, capsys):
    # it once built oracle [0, 1] with score 0.0 and only KEEP labels for it
    docs, corpus = _with_wordless_reference(tmp_path)
    out = tmp_path / "oracles.jsonl"
    assert main(["oracle", "build", "--corpus", str(corpus), "--out", str(out), "--k", "2"]) == 1
    assert _structured_error(capsys) == (
        f"document {json.dumps(docs[1].id)} has no reference summary")
    assert not out.exists()


def test_oracle_build_rejects_a_reference_that_preprocessing_empties(tmp_path, capsys):
    # stopwords and punctuation only: it once built oracle [0, 1] with score
    # 0.0 and only KEEP labels, which train would learn from
    docs, _ = corpusgen.learnable_corpus(count=2, seed=5)
    docs[1] = Document(id=docs[1].id, sentences=docs[1].sentences,
                       reference=(("the", "of", "."),))
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "oracles.jsonl"
    write_corpus(corpus, docs)
    assert main(["oracle", "build", "--corpus", str(corpus), "--out", str(out), "--k", "2"]) == 1
    assert _structured_error(capsys) == (
        f"document {json.dumps(docs[1].id)} has no reference word left after preprocessing")
    assert not out.exists()


def test_evaluate_skips_a_reference_without_words(tmp_path, capsys):
    # it once evaluated the document and gave it all-zero ROUGE rows
    docs, corpus = _with_wordless_reference(tmp_path)
    model_file, evaluation = tmp_path / "model.json", tmp_path / "evaluation.json"
    save_model(init_model(hidden_size=4, seed=0), model_file)
    assert main(["evaluate", "--corpus", str(corpus), "--model", str(model_file),
                 "--k", "2", "--json", str(evaluation)]) == 0
    assert "documents evaluated: 5 (skipped 1)" in capsys.readouterr().out
    result = json.loads(evaluation.read_text())
    assert [row["doc_id"] for row in result["documents"]] == [
        doc.id for doc in docs if doc is not docs[1]]


@pytest.mark.parametrize("command", [["summarize", "--out", "out.jsonl"], ["evaluate"],
                                     ["sweep", "--out", "sweep.csv"]],
                         ids=["summarize", "evaluate", "sweep"])
def test_k_above_max_sents_is_error_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                            command):
    # the error once came from the first document short of k, after the
    # corpus and the model were read; neither file exists here
    monkeypatch.chdir(tmp_path)
    code = main([*command, "--corpus", "absent.jsonl", "--model", "absent.json", "--k", "31"])
    assert code == 1
    assert _structured_error(capsys) == "--k 31 must satisfy 1 <= k <= 30"
    assert list(tmp_path.iterdir()) == []


def test_gradcheck_of_no_samples_is_error(corpus_path, tmp_path, capsys):
    oracles = tmp_path / "oracles.jsonl"
    main(["oracle", "build", "--corpus", str(corpus_path), "--out", str(oracles), "--k", "2"])
    code = main(["gradcheck", "--corpus", str(corpus_path), "--oracles", str(oracles),
                 "--samples", "0"])
    assert code == 1
    assert "--samples 0" in _structured_error(capsys)


def test_tau_grid_without_thresholds_is_error(corpus_path, tmp_path, capsys):
    model_file = tmp_path / "model.json"
    oracles = tmp_path / "oracles.jsonl"
    main(["oracle", "build", "--corpus", str(corpus_path), "--out", str(oracles), "--k", "2"])
    main(["train", "--corpus", str(corpus_path), "--oracles", str(oracles),
          "--out", str(model_file), "--epochs", "0"])
    out = tmp_path / "s.csv"
    code = main(["sweep", "--corpus", str(corpus_path), "--model", str(model_file),
                 "--out", str(out), "--tau-grid", "0.5:0.2:0.1"])
    assert code == 1
    assert "--tau-grid '0.5:0.2:0.1'" in _structured_error(capsys)
    assert not out.exists()


def _golden_corpus():
    """Rule fixtures, learnable documents, random flat documents, and one
    document whose stopword-only sentence leaves a bigram bridging a gap."""
    rng = np.random.default_rng(2019)
    docs = corpusgen.fixture_corpus()
    docs += corpusgen.learnable_corpus(count=6, seed=5)[0]
    docs += [corpusgen.random_flat_doc(rng, f"flat{i}", 6) for i in range(6)]
    flat = corpusgen.flat_tree
    docs.append(Document(
        id="empty-sentences",
        sentences=(flat(["it", "was", "the", "end"]), flat(["w1", "w2"]),
                   flat([",", "of", "."]), flat(["w2", "w3"])),
        reference=(("w1", "w2", "w2", "w3"),)))
    return docs


# SHA-256 of the oracle cache written for _golden_corpus(). Format version 3
# labels only the sentences some oracle picks. With every other sentence's
# options labeled too and its version set back to 2, it must be the
# version-2 file, GOLDEN_ORACLES_V2_SHA256, and stats must read from it the
# stats.csv pinned then, STATS_OF_EVERY_LABEL_SHA256. Version 2 added a
# header record, each document's fingerprint and each label's node label;
# without them it must still be the version-1 file,
# GOLDEN_ORACLES_V1_SHA256, which the subset scorer that re-counted n-grams
# of every joined candidate wrote and the count-based scorer reproduced.
GOLDEN_ORACLES_SHA256 = "fb200b7e745f3ab2923b2b6b03ed70e8852a5019a25af5a32c1f45432ca419b5"
GOLDEN_ORACLES_V2_SHA256 = "2282ba26e0e1d901501c522e58901fd2909c92c0748daba1979778d56a9e5507"
GOLDEN_ORACLES_V1_SHA256 = "65a899fb0f229e21960ab72821e6cb41d47b2a940311bc3d8cfa9f7bba64a71a"
STATS_OF_EVERY_LABEL_SHA256 = "e3f85f578b2891f15951670cd042afdd56bbee8417b459a82be8db37ffe6d4d7"


# SHA-256 of what train, summarize, evaluate --json and sweep write for
# _golden_corpus() with default flags and k=2, computed when summarize,
# evaluate and sweep re-ran the model for every tau. Scoring each document
# once and rendering it per tau must reproduce them byte for byte. The
# model's weights have not changed since; only its keys have. The file lost
# its top-level "seed" and its train_config lost "beta1", "beta2", "eps" (now
# constants) and "oracles_per_doc" (training uses every cached oracle):
# MODEL_WITH_ADAM_FIELDS_SHA256 is the pin from before, which the same model
# gives with those keys put back. Before that its train_config lost
# "max_sents" (the limit became the constant oracle.MAX_SENTS):
# MODEL_WITH_MAX_SENTS_SHA256 is the older file, with that key put back too.
# Last, train_config lost "positive_class_weight", which nothing set to any
# value but 1.0: MODEL_WITH_CLASS_WEIGHT_SHA256 is the file with it put back.
# The evaluate --csv file and stats --oracles --summaries were pinned later,
# as every report was made to read its ROUGE scores from one table; so were
# the lines evaluate and sweep print.
# The model.json pin holds on the CPU it was taken on: one with AVX-512,
# where OpenBLAS picks its SkylakeX kernels. Under OPENBLAS_CORETYPE=Haswell
# the model's bits, and so its hash, differ and this test fails; every other
# entry keeps its bytes, which the golden_chain_on_other_kernels tests show.
GOLDEN_OUTPUTS_SHA256 = {
    "model.json": "6da85c585c94937c0117ce8ee89fafc993c5df9d8aca232a8df467bb32e22f90",
    "summaries.jsonl": "56303d0932777e402ec222024d070e772ffa56979e0bd9790af2c44265d439c6",
    "evaluation.json": "215e9a057088a8b89c5ca19724d6818fc7c82cc3ea9bd7e0666f20fa55d81345",
    "sweep.csv": "116094869e8bdff7fc9f295bdc52b8f1d9676aec49e7ab18c3f664b154c5fd20",
    "evaluation.csv": "a68fcf9169cb9cd42abffbc9ea1cc92c19b8014514948026bad8d29f5723b14b",
    "stats.csv": "397d8f6a08371baac2374a7879ca05a1e307eace38944d7efa0f3df256efd0d9",
}
GOLDEN_EVALUATE_PRINTED = ["documents evaluated: 21 (skipped 0)", "ROUGE-1 F1: 0.5517",
                           "ROUGE-2 F1: 0.2434", "ROUGE-L F1: 0.4637"]
GOLDEN_SWEEP_PRINTED = (
    [f"tau=0.{i}0 mean_f1=0.4196 ratio=0.9761" for i in range(6)]
    + [f"tau=0.{i}0 mean_f1=0.4537 ratio=0.6925" for i in range(6, 10)]
    + ["tau=1.00 mean_f1=0.4537 ratio=0.6925"])
MODEL_WITH_CLASS_WEIGHT_SHA256 = "3b37cc9de856a293a6ef1e478c5faca886f62973aac1c9b75c54f2a1a8798070"
MODEL_WITH_ADAM_FIELDS_SHA256 = "eef0190bdc2c8d324c1dcc5819c20d0d68ea6ada1b5498bfdd08a496d338ad0b"
MODEL_WITH_MAX_SENTS_SHA256 = "4fc8763bf11fedc5917da8e917458e03a0fd7de4d66eee3c36307c581a7ee2ec"


def _older_model_file(payload: dict) -> dict:
    """The model file as written before the Adam fields, the oracle count,
    the model's second seed and the positive class weight were removed, with
    its keys in their old order."""
    config = payload["train_config"]
    old_config = {"alpha": config["alpha"], "learning_rate": config["learning_rate"],
                  "epochs": config["epochs"], "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                  "seed": config["seed"], "hidden_size": config["hidden_size"],
                  "oracles_per_doc": 5,
                  "positive_class_weight": 1.0}
    return {**payload, "train_config": old_config, "seed": config["seed"]}


def _records_bytes(records: list[dict]) -> bytes:
    return "".join(json.dumps(record) + "\n" for record in records).encode("utf-8")


def test_oracle_build_bytes_are_pinned(tmp_path, capsys):
    files, commands = _golden_chain(tmp_path)
    for argv in commands:
        assert main(argv) == 0
    oracles = Path(files["oracles.jsonl"])
    assert hashlib.sha256(oracles.read_bytes()).hexdigest() == GOLDEN_ORACLES_SHA256
    records = [json.loads(line) for line in oracles.read_text(encoding="utf-8").splitlines()]
    assert "doc_id" not in records[0]
    # each sentence no oracle picks gets the labels of its options
    corpus = str(tmp_path / "golden.jsonl")
    for record, entry in zip(records[1:], read_oracle_cache(oracles, load_corpus(corpus)),
                             strict=True):
        every = replace(entry, labels=tuple(map(tuple, library_labels(entry.doc))))
        rows = oracle_record(every)["labels"]
        assert all(row in ([], full) for row, full in zip(record["labels"], rows, strict=True))
        record["labels"] = rows
    refilled = tmp_path / "refilled.jsonl"
    refilled.write_bytes(_records_bytes(records))
    stats_csv = tmp_path / "refilled-stats.csv"
    assert main(["stats", "--corpus", corpus, "--oracles", str(refilled),
                 "--summaries", files["summaries.jsonl"], "--out", str(stats_csv)]) == 0
    assert hashlib.sha256(stats_csv.read_bytes()).hexdigest() == STATS_OF_EVERY_LABEL_SHA256
    records[0]["version"] = 2
    assert hashlib.sha256(_records_bytes(records)).hexdigest() == GOLDEN_ORACLES_V2_SHA256
    for record in records[1:]:
        del record["fingerprint"]
        for item in (item for sent in record["labels"] for item in sent):
            del item["node_label"]
    assert hashlib.sha256(_records_bytes(records[1:])).hexdigest() == GOLDEN_ORACLES_V1_SHA256


def _golden_chain(tmp_path: Path) -> tuple[dict[str, str], list[list[str]]]:
    """Write _golden_corpus() into tmp_path; the files of the pinned chain (the
    oracle cache and each GOLDEN_OUTPUTS_SHA256 entry) and its commands, in
    order: oracle build, train, summarize, evaluate, sweep and stats, at k=2."""
    corpus = str(tmp_path / "golden.jsonl")
    write_corpus(corpus, _golden_corpus())
    files = {name: str(tmp_path / name) for name in ["oracles.jsonl", *GOLDEN_OUTPUTS_SHA256]}
    data = ["--corpus", corpus, "--model", files["model.json"], "--k", "2"]
    return files, [
        ["oracle", "build", "--corpus", corpus, "--out", files["oracles.jsonl"], "--k", "2"],
        ["train", "--corpus", corpus, "--oracles", files["oracles.jsonl"],
         "--out", files["model.json"]],
        ["summarize", *data, "--out", files["summaries.jsonl"]],
        ["evaluate", *data, "--json", files["evaluation.json"], "--csv", files["evaluation.csv"]],
        ["sweep", *data, "--out", files["sweep.csv"]],
        ["stats", "--corpus", corpus, "--oracles", files["oracles.jsonl"],
         "--summaries", files["summaries.jsonl"], "--out", files["stats.csv"]],
    ]


def test_model_and_outputs_bytes_are_pinned(tmp_path, capsys):
    files, commands = _golden_chain(tmp_path)
    printed = {}
    for argv in commands:
        assert main(argv) == 0
        printed[argv[0]] = capsys.readouterr().out.splitlines()
    assert printed["evaluate"] == GOLDEN_EVALUATE_PRINTED
    assert printed["sweep"] == [*GOLDEN_SWEEP_PRINTED, f"wrote sweep to {files['sweep.csv']}"]
    digests = {name: hashlib.sha256(Path(files[name]).read_bytes()).hexdigest()
               for name in GOLDEN_OUTPUTS_SHA256}
    assert digests == GOLDEN_OUTPUTS_SHA256
    payload = json.loads(Path(files["model.json"]).read_text(encoding="utf-8"))
    assert "seed" not in payload
    assert list(payload["train_config"]) == [
        "alpha", "learning_rate", "epochs", "seed", "hidden_size"]
    weighted = {**payload, "train_config": {**payload["train_config"],
                                            "positive_class_weight": 1.0}}
    weighted_bytes = json.dumps(weighted).encode("utf-8")
    assert hashlib.sha256(weighted_bytes).hexdigest() == MODEL_WITH_CLASS_WEIGHT_SHA256
    older = _older_model_file(payload)
    old_bytes = json.dumps(older).encode("utf-8")
    assert hashlib.sha256(old_bytes).hexdigest() == MODEL_WITH_ADAM_FIELDS_SHA256
    older["train_config"]["max_sents"] = 30
    old_bytes = json.dumps(older).encode("utf-8")
    assert hashlib.sha256(old_bytes).hexdigest() == MODEL_WITH_MAX_SENTS_SHA256


# Runs the pinned chain in a child interpreter, whose environment alone
# picks the kernels of OpenBLAS, numpy and glibc, and prints the SHA-256 of
# each file it writes.
GOLDEN_CHAIN_IN_CHILD = """
import hashlib, json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from compsum.cli import main
from test_cli import _golden_chain
files, commands = _golden_chain(Path(sys.argv[3]))
codes = [main(argv) for argv in commands]
print(json.dumps({"codes": codes, "digests": {
    name: hashlib.sha256(Path(path).read_bytes()).hexdigest() for name, path in files.items()}}))
"""

# Each mask of another CPU's kernels than this machine picks: the child's
# environment variables, and whether model.json keeps its pin under them.
# glibc's math functions change bits under its mask too, but the model
# calls none on a value that reaches its weights (features.py's log1p takes
# small integers).
OTHER_KERNELS = {
    "Haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, False),
    "Prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, False),
    "numpy-without-avx512": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                             False),
    "glibc-without-avx2": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"}, True),
}


def _golden_chain_in_child(env: dict[str, str], tmp_path: Path) -> dict:
    """The exit codes and digests of the pinned chain, run in tmp_path by a
    child interpreter with env added to this one's environment."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", GOLDEN_CHAIN_IN_CHILD, str(root / "src"), str(root / "tests"),
         str(tmp_path)],
        env={**os.environ, **env}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=list(OTHER_KERNELS))
def golden_chain_on_other_kernels(request, tmp_path_factory):
    """The pinned chain's exit codes and digests under one OTHER_KERNELS mask,
    and whether its model.json should keep the pin there."""
    env, model_holds = OTHER_KERNELS[request.param]
    result = _golden_chain_in_child(env, tmp_path_factory.mktemp(f"golden-{request.param}"))
    return {**result, "model_holds": model_holds}


def test_pinned_outputs_but_the_model_hold_on_other_openblas_kernels(
        golden_chain_on_other_kernels):
    result = golden_chain_on_other_kernels
    assert result["codes"] == [0] * 6
    digests = dict(result["digests"])
    assert digests.pop("oracles.jsonl") == GOLDEN_ORACLES_SHA256
    del digests["model.json"]
    assert digests == {name: digest for name, digest in GOLDEN_OUTPUTS_SHA256.items()
                       if name != "model.json"}


def test_pinned_model_holds_on_other_openblas_kernels(golden_chain_on_other_kernels, request):
    if not golden_chain_on_other_kernels["model_holds"]:
        request.applymarker(pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 13: OpenBLAS and numpy kernels sum a product's terms, or "
            "approximate exp, log and tanh, each in their own way, so the trained "
            "weights, and model.json's bytes, depend on the kernels picked")))
    digest = golden_chain_on_other_kernels["digests"]["model.json"]
    assert digest == GOLDEN_OUTPUTS_SHA256["model.json"]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_pinned_outputs_hold_under_each_hash_seed(hash_seed, tmp_path):
    # str hashes, and so the order of a set of words or of a dict built from
    # one, change with PYTHONHASHSEED; no output may depend on that order
    result = _golden_chain_in_child({"PYTHONHASHSEED": hash_seed}, tmp_path)
    assert result["codes"] == [0] * 6
    digests = dict(result["digests"])
    assert digests.pop("oracles.jsonl") == GOLDEN_ORACLES_SHA256
    assert digests == GOLDEN_OUTPUTS_SHA256


def test_train_on_corrupted_cache_names_file_and_line(corpus_path, tmp_path, capsys):
    oracles = tmp_path / "oracles.jsonl"
    main(["oracle", "build", "--corpus", str(corpus_path), "--out", str(oracles), "--k", "2"])
    lines = oracles.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3][:40]
    oracles.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["train", "--corpus", str(corpus_path), "--oracles", str(oracles),
                 "--out", str(tmp_path / "model.json")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"].startswith(f"{oracles}:4: malformed JSON")


def _edit_jsonl(path: Path, line: int, edit) -> None:
    """Apply edit to the record on a JSONL file's line (0-based) in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[line])
    edit(record)
    lines[line] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _flat_parse(record: dict) -> None:
    sentence = record["sentences"][0]
    sentence["parse"] = "(S " + " ".join(f"(NN {tok})" for tok in sentence["tokens"]) + ")"


def _respaced_parse(record: dict) -> None:
    sentence = record["sentences"][0]
    sentence["parse"] = sentence["parse"].replace(" (", "  (", 1)


def _first_label(record: dict) -> dict:
    return next(item for sent in record["labels"] for item in sent)


def _drop_header(oracles: Path) -> None:
    lines = oracles.read_text(encoding="utf-8").splitlines()
    oracles.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")


def _numbered_preprocess(header: dict) -> None:
    _retyped(header["preprocess"], "lowercase", int)
    _retyped(header["preprocess"], "stem", float)


REBUILD = "rebuild it with `compsum oracle build`"


# (file edited, its 0-based line edited, the edit, the cache line the error
# names, what the error says); the cache's line 0 is its header, line 1 the
# first document's record, and "fingerprint" stands for the stale-document
# message the test computes
STALE_CACHES = {
    "changed-reference": ("corpus", 1, lambda rec: rec.update(
        reference=[["completely", "different", "words"]]), 3, "fingerprint"),
    "reparsed": ("corpus", 0, _flat_parse, 2, "fingerprint"),
    # the same tree: the fingerprint hashes each parse as stored
    "respaced-parse": ("corpus", 0, _respaced_parse, 2, "fingerprint"),
    "v1-headerless": ("oracles", None, None, 1,
                      "oracle cache has no header, so it is of format version 1; this version "
                      f"reads version 3: {REBUILD}"),
    # a cache of the last version, which labeled every sentence: stats would
    # read another Comp Acc from it
    "version-2": ("oracles", 0, lambda rec: rec.update(version=2), 1,
                  f"oracle cache is of format version 2; this version reads version 3: "
                  f"{REBUILD}"),
    "rules-version": ("oracles", 0, lambda rec: rec.update(rules_version=2), 1,
                      f"oracle cache was labeled under rules version 2, the rules are "
                      f"version 1: {REBUILD}"),
    "preprocess": ("oracles", 0, lambda rec: rec["preprocess"].update(stem=False), 1,
                   f"oracle cache was scored under other preprocessing than "
                   f"ORACLE_PREPROCESS: {REBUILD}"),
    # each once read as the value it equals
    "version-float": ("oracles", 0, lambda rec: _retyped(rec, "version", float), 1,
                      f"oracle cache is of format version 3.0; this version reads version 3: "
                      f"{REBUILD}"),
    "rules-version-true": ("oracles", 0, lambda rec: _retyped(rec, "rules_version", bool), 1,
                           f"oracle cache was labeled under rules version true, the rules are "
                           f"version 1: {REBUILD}"),
    "rules-version-float": ("oracles", 0, lambda rec: _retyped(rec, "rules_version", float), 1,
                            f"oracle cache was labeled under rules version 1.0, the rules are "
                            f"version 1: {REBUILD}"),
    "preprocess-numbers": ("oracles", 0, _numbered_preprocess, 1,
                           f"oracle cache was scored under other preprocessing than "
                           f"ORACLE_PREPROCESS: {REBUILD}"),
    "span-past-end": ("oracles", 1, lambda rec: _first_label(rec).update(end=99), 2,
                      "is no span of the sentence's"),
    "unknown-rule": ("oracles", 1, lambda rec: _first_label(rec).update(rule="NO_SUCH_RULE"),
                     2, "names an unknown rule"),
    # values of the wrong JSON type, each once read without a word
    "r-before-string": ("oracles", 1, lambda rec: _first_label(rec).update(
        r_before=str(_first_label(rec)["r_before"])), 2, '"] holds r_before "'),
    "node-label-integer": ("oracles", 1, lambda rec: _first_label(rec).update(node_label=5),
                           2, "and node_label 5, not two finite numbers and a string"),
    "r-after-nan": ("oracles", 1, lambda rec: _first_label(rec).update(r_after=math.nan), 2,
                    "r_after NaN and node_label"),
    "score-true": ("oracles", 1, lambda rec: rec["oracles"][0].update(score=True), 2,
                   "oracle score true is not a finite number"),
    "score-nan-string": ("oracles", 1, lambda rec: rec["oracles"][0].update(score="nan"), 2,
                         'oracle score "nan" is not a finite number'),
    "score-infinite": ("oracles", 1, lambda rec: rec["oracles"][0].update(score=math.inf), 2,
                       "oracle score Infinity is not a finite number"),
    # a number too large for a float, once an error with no file or line, then
    # one that quoted all 401 digits
    "score-too-large": ("oracles", 1, lambda rec: rec["oracles"][0].update(score=10 ** 400), 2,
                        f"oracle score {str(10 ** 400)[:39]}… is not a finite number"),
    "r-after-too-large": ("oracles", 1, lambda rec: _first_label(rec).update(r_after=10 ** 400),
                          2, f"r_after {str(10 ** 400)[:39]}… and node_label"),
    "start-too-large": ("oracles", 1, lambda rec: _first_label(rec).update(start=10 ** 400), 2,
                        f"cached option [{str(10 ** 400)[:38]}… is no span"),
    # values of 5,000 characters, each once quoted in full
    "version-too-long": ("oracles", 0, lambda rec: rec.update(version="x" * 5000), 1,
                         f"oracle cache is of format version \"{'x' * 38}…; this version reads "
                         f"version 3: {REBUILD}"),
    "rules-version-too-long": ("oracles", 0, lambda rec: rec.update(rules_version="x" * 5000),
                               1, f"labeled under rules version \"{'x' * 38}…, the rules are "
                               f"version 1: {REBUILD}"),
    "fingerprint-too-long": ("oracles", 1, lambda rec: rec.update(fingerprint="x" * 5000), 2,
                             f"built from fingerprint \"{'x' * 38}…, the corpus has "),
    "doc-id-too-long": ("oracles", 1, lambda rec: rec.update(doc_id="x" * 5000), 2,
                        f"record of document \"{'x' * 38}… where the corpus has document "
                        f"\"doc0000\": the cache is stale; {REBUILD}"),
    "rule-too-long": ("oracles", 1, lambda rec: _first_label(rec).update(rule="R" * 100), 2,
                      "names an unknown rule"),
    # a rule or label of another JSON type, each once raw Python text (an
    # unhashable type, or "... is not a valid CompressionLabel" at any length)
    "rule-list": ("oracles", 1, lambda rec: _first_label(rec).update(rule=["ADVP"]), 2,
                  '["ADVP"]] names an unknown rule'),
    "rule-object": ("oracles", 1, lambda rec: _first_label(rec).update(rule={"a": 1}), 2,
                    '{"a": 1}] names an unknown rule'),
    "label-too-long": ("oracles", 1, lambda rec: _first_label(rec).update(label="x" * 5000), 2,
                       f"is labeled \"{'x' * 38}…, neither KEEP nor DEL"),
    "label-list": ("oracles", 1, lambda rec: _first_label(rec).update(label=["KEEP"]), 2,
                   'is labeled ["KEEP"], neither KEEP nor DEL'),
    "label-null": ("oracles", 1, lambda rec: _first_label(rec).update(label=None), 2,
                   "is labeled null, neither KEEP nor DEL"),
    "label-lowercase": ("oracles", 1, lambda rec: _first_label(rec).update(label="del"), 2,
                        'is labeled "del", neither KEEP nor DEL'),
    "indices-too-long": ("oracles", 1, lambda rec: rec["oracles"][0].update(
        indices=[0.5] * 100), 2, "oracle indices is not a list of integers"),
    # lists of the wrong shape, each once a raw Python error
    "oracles-string": ("oracles", 1, lambda rec: rec.update(oracles="xy"), 2,
                       "oracles is not a list of objects"),
    "oracle-entry-list": ("oracles", 1, lambda rec: rec.update(oracles=[[1]]), 2,
                          "oracles is not a list of objects"),
    "label-rows-integers": ("oracles", 1, lambda rec: rec.update(labels=[5] * len(rec["labels"])),
                            2, "labels is not a list of lists"),
    "label-item-integer": ("oracles", 1, lambda rec: rec["labels"][0].append(5), 2,
                           "a label row is not a list of objects"),
    "oracle-config-rejected": ("oracles", 0, lambda rec: rec["oracle_config"].update(k=99), 1,
                               "oracle cache header's oracle_config: k=99 must satisfy "
                               f"1 <= k <= 30: {REBUILD}"),
    "oracle-config-string": ("oracles", 0, lambda rec: rec.update(oracle_config="x"), 1,
                             f'oracle cache header\'s oracle_config: "x" is not an object: '
                             f"{REBUILD}"),
    "oracle-config-key-missing": ("oracles", 0, lambda rec: rec["oracle_config"].pop("m"), 1,
                                  "oracle cache header's oracle_config: missing key 'm': "
                                  f"{REBUILD}"),
    # once quoted in full, 14,975 characters
    "oracle-config-too-long": ("oracles", 0, lambda rec: rec["oracle_config"].update(
        {f"key{i}": i for i in range(1000)}), 1,
        "oracle cache header's oracle_config: unknown key(s) [\"key0\", \"key1\", "),
}


@pytest.mark.parametrize("case", list(STALE_CACHES))
def test_stale_cache_is_located_error(tmp_path, capsys, case):
    # a cache built against another reference was once trained on with exit 0
    which, edited, edit, line, message = STALE_CACHES[case]
    docs, _ = corpusgen.learnable_corpus(count=3, seed=31)
    files = {"corpus": tmp_path / "corpus.jsonl", "oracles": tmp_path / "oracles.jsonl"}
    write_corpus(files["corpus"], docs)
    assert main(["oracle", "build", "--corpus", str(files["corpus"]),
                 "--out", str(files["oracles"]), "--k", "2"]) == 0
    cached = [json.loads(text) for text in files["oracles"].read_text().splitlines()]
    if edit is None:
        _drop_header(files["oracles"])
    else:
        _edit_jsonl(files[which], edited, edit)
    capsys.readouterr()
    assert main(["train", "--corpus", str(files["corpus"]), "--oracles", str(files["oracles"]),
                 "--out", str(tmp_path / "model.json")]) == 1
    error = _structured_error(capsys)
    where = f"{files['oracles']}:{line}: "
    if line > 1:
        # a record's fault names its document once: the reader says which,
        # after the line, unless the record is not joined to it
        quoted = json.dumps(cached[line - 1]["doc_id"])
        assert error.count(quoted) == 1
        if not message.startswith("record of document"):
            where += f"document {quoted}: "
    assert error.startswith(where)
    if message == "fingerprint":
        record = cached[line - 1]
        doc = next(d for d in load_corpus(files["corpus"]) if d.id == record["doc_id"])
        assert error == (
            f"{where}the cache is stale: it was built from fingerprint "
            f"\"{record['fingerprint'][:38]}…, the corpus has {document_fingerprint(doc)}; "
            f"{REBUILD}")
    else:
        assert message in error
    if case.endswith(("too-large", "too-long")) or case.startswith(("rule-", "label-")):
        # besides the corpus's own fingerprint, a 64-character hash no file gives
        allowance = len(document_fingerprint(docs[0])) if case.startswith("fingerprint") else 0
        assert len(error) < len(f"{files['oracles']}:{line}: ") + 200 + allowance
    assert not (tmp_path / "model.json").exists()


def _cached_commands(files: dict, tmp_path: Path) -> list[list[str]]:
    """train, gradcheck and stats --oracles on the corpus and cache in files."""
    data = ["--corpus", str(files["corpus"]), "--oracles", str(files["oracles"])]
    return [["train", *data, "--out", str(tmp_path / "model.json")],
            ["gradcheck", *data, "--hidden", "2", "--samples", "1"],
            ["stats", *data, "--out", str(tmp_path / "stats.csv")]]


def test_cache_of_part_of_the_corpus_is_error(tmp_path, capsys):
    # a cache of the first 2 of 6 documents was once trained on with exit 0,
    # the other 4 documents left out in silence
    docs, _ = corpusgen.learnable_corpus(count=6, seed=31)
    files = {"corpus": tmp_path / "corpus.jsonl", "oracles": tmp_path / "oracles.jsonl"}
    write_corpus(files["corpus"], docs[:2])
    assert main(["oracle", "build", "--corpus", str(files["corpus"]),
                 "--out", str(files["oracles"]), "--k", "2"]) == 0
    write_corpus(files["corpus"], docs)
    for command in _cached_commands(files, tmp_path):
        capsys.readouterr()
        assert main(command) == 1, command[0]
        assert _structured_error(capsys) == (
            f"{files['oracles']}: no record of document {json.dumps(docs[2].id)} or the documents "
            f"after it: the cache is stale; {REBUILD}")
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "stats.csv").exists()


def test_cache_in_another_order_than_the_corpus_is_located_error(tmp_path, capsys):
    docs, _ = corpusgen.learnable_corpus(count=4, seed=31)
    files = {"corpus": tmp_path / "corpus.jsonl", "oracles": tmp_path / "oracles.jsonl"}
    write_corpus(files["corpus"], docs)
    assert main(["oracle", "build", "--corpus", str(files["corpus"]),
                 "--out", str(files["oracles"]), "--k", "2"]) == 0
    lines = files["oracles"].read_text(encoding="utf-8").splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    files["oracles"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in _cached_commands(files, tmp_path):
        capsys.readouterr()
        assert main(command) == 1, command[0]
        assert _structured_error(capsys) == (
            f"{files['oracles']}:3: record of document {json.dumps(docs[2].id)} where the "
            f"corpus has document {json.dumps(docs[1].id)}: the cache is stale; {REBUILD}")
    assert not (tmp_path / "model.json").exists()


def test_duplicate_document_id_is_error(tmp_path, capsys):
    docs = corpusgen.fixture_corpus()
    corpus = tmp_path / "dup.jsonl"
    write_corpus(corpus, docs + [docs[1]])
    code = main(["stats", "--corpus", str(corpus), "--out", str(tmp_path / "stats.csv")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert 'duplicate document id "fix-relative"' in payload["error"]


def test_max_sents_is_no_flag_or_config_key(corpus_path, tmp_path, capsys):
    out = tmp_path / "oracles.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "build", "--corpus", str(corpus_path), "--out", str(out),
              "--max-sents", "45"])
    assert exit_info.value.code == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_sents": 30}), encoding="utf-8")
    assert main(["--config", str(config), "oracle", "build", "--corpus", str(corpus_path),
                 "--out", str(out)]) == 2
    assert _structured_error(capsys) == (
        f'config {config}: no subcommand has a flag for key(s) ["max_sents"]')
    assert not out.exists()


def test_train_has_no_oracle_count(corpus_path, oracles_path, tmp_path):
    # train --m once cut the cache's oracles in silence and recorded its own count
    out = tmp_path / "model.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--corpus", str(corpus_path), "--oracles", str(oracles_path),
              "--out", str(out), "--m", "5"])
    assert exit_info.value.code == 2
    assert not out.exists()


def test_train_and_gradcheck_compile_every_cached_oracle(corpus_path, tmp_path, monkeypatch):
    # both commands learn from or check each oracle the cache holds, here 2
    oracles = tmp_path / "oracles.jsonl"
    assert main(["oracle", "build", "--corpus", str(corpus_path), "--out", str(oracles),
                 "--k", "2", "--m", "2"]) == 0
    counts = []
    compile_example = model_mod.compile_example

    def counting(example):
        compiled = compile_example(example)
        counts.append(compiled.oracle_count)
        return compiled

    monkeypatch.setattr(model_mod, "compile_example", counting)
    assert main(["train", "--corpus", str(corpus_path), "--oracles", str(oracles),
                 "--out", str(tmp_path / "model.json"), "--epochs", "0"]) == 0
    assert counts == [2] * 12
    counts.clear()
    assert main(["gradcheck", "--corpus", str(corpus_path), "--oracles", str(oracles),
                 "--samples", "2", "--hidden", "2"]) == 0
    assert counts == [2, 2]


def test_oracle_index_beyond_max_sents_is_error(tmp_path, capsys):
    # the reference copies sentence 40, which no oracle can pick; a cache
    # hand-edited to pick it must fail in train and gradcheck
    flat = corpusgen.flat_tree
    sentences = tuple(flat([f"s{i}w{j}" for j in range(4)]) for i in range(45))
    doc = Document(id="b0", sentences=sentences, reference=(sentences[40].tokens,))
    corpus = tmp_path / "long.jsonl"
    oracles = tmp_path / "oracles.jsonl"
    write_corpus(corpus, [doc])
    assert main(["oracle", "build", "--corpus", str(corpus), "--out", str(oracles),
                 "--k", "1"]) == 0
    header, record = map(json.loads, oracles.read_text(encoding="utf-8").splitlines())
    assert all(max(o["indices"]) < 30 for o in record["oracles"])
    record["oracles"][0]["indices"] = [40]
    oracles.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    commands = (["train", "--out", str(tmp_path / "model.json")], ["gradcheck"])
    for command in commands:
        capsys.readouterr()
        assert main([*command, "--corpus", str(corpus), "--oracles", str(oracles)]) == 1
        assert _structured_error(capsys) == (
            f'{oracles}:2: document "b0": oracle index 40 >= 30 scoreable sentences')
