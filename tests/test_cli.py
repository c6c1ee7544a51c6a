"""End-to-end command-line workflow on a small generated corpus."""

import csv
import hashlib
import json
import logging
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import corpusgen
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
from compsum.oracle import OracleConfig, document_fingerprint
from compsum.pipeline import SummarizeConfig
from compsum.rules import RuleId


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    path = root / "corpus.jsonl"
    docs, _ = corpusgen.learnable_corpus(count=12, seed=31)
    write_corpus(path, docs)
    return path


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
    assert (header["format"], header["version"]) == ("compsum-oracles", 2)
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
    ('{"epoch": 5, "outt": "x"}', "no subcommand has a flag for key(s) 'epoch', 'outt'"),
])
def test_config_that_is_no_object_of_flags_is_error(corpus_path, tmp_path, capsys,
                                                     content, expected):
    # a list once ended in a TypeError traceback, and unknown keys were ignored
    config = tmp_path / "config.json"
    config.write_text(content, encoding="utf-8")
    out = tmp_path / "options.jsonl"
    code = main(["--config", str(config), "options", "extract",
                 "--corpus", str(corpus_path), "--out", str(out)])
    assert code == 2
    assert _structured_error(capsys) == f"config {config}: {expected}"
    assert not out.exists()


@pytest.mark.parametrize("content, command, expected", [
    ({"k": 2.7}, ["oracle", "build"], "key 'k' holds 2.7, but --k takes an integer"),
    ({"tau": "0.5"}, ["summarize", "--model", "model.json"],
     "key 'tau' holds \"0.5\", but --tau takes a number"),
    ({"out": 7}, ["oracle", "build"], "key 'out' holds 7, but --out takes a string"),
    ({"no_dedup": "false"}, ["summarize", "--model", "model.json"],
     "key 'no_dedup' holds \"false\", but --no-dedup takes true or false"),
], ids=["integer", "number", "string", "switch"])
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
    assert _structured_error(capsys) == f"config {config}: {expected}"
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
])
def test_rejected_value_is_named_by_its_flag(corpus_path, oracles_path, tmp_path, capsys,
                                             command, expected):
    # gradcheck --hidden 0 once checked only b2 and passed; --lr nan and
    # --alpha inf trained a model of NaN weights; the others named config
    # fields (m=0, hidden_size=0) instead of flags
    out = tmp_path / "out"
    paths = {"train": ["--oracles", str(oracles_path), "--out", str(out)],
             "gradcheck": ["--oracles", str(oracles_path)],
             "oracle": ["--out", str(out)]}
    code = main([*command, "--corpus", str(corpus_path), *paths[command[0]]])
    assert code == 1
    assert _structured_error(capsys) == expected
    assert not out.exists()


def _first_sentence_summary(doc: Document) -> str:
    """A summaries line for doc that selects its first sentence and deletes nothing."""
    return json.dumps({"doc_id": doc.id, "selected": [0], "deletions": [],
                       "text": [list(doc.sentences[0].tokens)]})


@pytest.mark.parametrize("lines, expected", [
    (["{not json"], ":1: malformed JSON"),
    ([_first_sentence_summary, "", '{"doc_id": "doc0001", "deletions": [], "text": []}'],
     ":3: missing key 'selected'"),
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
        expected = f"{path}: no record of document {docs[2].id!r} or the documents after it"
    elif case == "two-swapped":
        _swap_lines(path, 1, 2)
        expected = (f"{path}:2: record of document {docs[2].id!r} where the corpus has "
                    f"document {docs[1].id!r}")
    else:
        write_corpus(files["corpus.jsonl"], docs[:5])
        expected = (f"{path}:6: record of document {docs[5].id!r} where the corpus has "
                    f"no document")
    assert _stats_error(files, capsys) == f"{expected}: {RERUN}"


def _first_deletion(record: dict) -> dict:
    return record["deletions"][0]


def _other_rule(deletion: dict) -> None:
    deletion["rule"] = next(rule.value for rule in RuleId if rule.value != deletion["rule"])


SUMMARY_RECORD_FAULTS = {
    "selected-not-a-list": (lambda rec: rec.update(selected="x"),
                            "selected \"x\" is not a list of distinct indices"),
    "selected-twice": (lambda rec: rec.update(selected=rec["selected"][:1] * 2),
                       "is not a list of distinct indices"),
    "selected-past-the-end": (lambda rec: rec.update(selected=[1000]),
                              "selected [1000] is not a list of distinct indices"),
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
    assert error.startswith(f"{files['summaries.jsonl']}:{line}: document ")
    assert message in error


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
    expected = f"document {docs[0].id!r} has 6 scoreable sentences but k=7"
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


# edits of a model file written by save_model, and the error after its path
MALFORMED_MODELS = {
    "config-not-an-object": (lambda p: p.update(train_config=5),
                             "train_config: 5 is not null or an object"),
    "config-value-mistyped": (lambda p: p["train_config"].update(alpha="nonsense"),
                              "train_config: key 'alpha' holds \"nonsense\", not a number"),
    "config-bool-for-integer": (lambda p: p["train_config"].update(epochs=True),
                                "train_config: key 'epochs' holds true, not an integer"),
    "config-key-missing": (lambda p: p["train_config"].pop("seed"),
                           "train_config: missing key 'seed'"),
    "config-key-unknown": (lambda p: p["train_config"].update(max_sents=30),
                           "train_config: unknown key(s) 'max_sents'"),
    "config-value-rejected": (lambda p: p["train_config"].update(alpha=-1),
                              "train_config: alpha=-1 must be >= 0"),
    "no-weights": (lambda p: p.pop("weights"), "missing key 'weights'"),
    "no-train-config": (lambda p: p.pop("train_config"), "missing key 'train_config'"),
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
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["summarize", "--corpus", str(corpus_path), "--model", str(path),
                 "--out", str(tmp_path / "summaries.jsonl")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == f"corrupt model file {path}: {expected}"


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
])
def test_tau_grid_never_repeats_or_passes_stop(grid, expected):
    # 0.5:0.5:1e-12 once held 1001 thresholds, 11 of them distinct once
    # rounded, and 0.2:0.2000000004:1e-10 ran on to 0.2000000013
    assert _parse_tau_grid(grid) == expected


def test_gradcheck_of_an_empty_cache_is_error(corpus_path, tmp_path, capsys):
    # an empty cache once printed "overall max relative error: 0.000e+00" and exited 0
    oracles = tmp_path / "oracles.jsonl"
    oracles.write_text("", encoding="utf-8")
    code = main(["gradcheck", "--corpus", str(corpus_path), "--oracles", str(oracles)])
    assert code == 1
    first = next(load_corpus(corpus_path)).id
    assert _structured_error(capsys) == (
        f"{oracles}: no record of document {first!r} or the documents after it: "
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
    assert _structured_error(capsys) == f"document {docs[1].id!r} has no reference summary"
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


# SHA-256 of the oracle cache written for _golden_corpus(). The cache of
# format version 2 adds a header record, each document's fingerprint and each
# label's node label; without them it must still be the version-1 file,
# GOLDEN_ORACLES_V1_SHA256, which the subset scorer that re-counted n-grams
# of every joined candidate wrote and the count-based scorer reproduced.
GOLDEN_ORACLES_SHA256 = "2282ba26e0e1d901501c522e58901fd2909c92c0748daba1979778d56a9e5507"
GOLDEN_ORACLES_V1_SHA256 = "65a899fb0f229e21960ab72821e6cb41d47b2a940311bc3d8cfa9f7bba64a71a"


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
GOLDEN_OUTPUTS_SHA256 = {
    "model.json": "6da85c585c94937c0117ce8ee89fafc993c5df9d8aca232a8df467bb32e22f90",
    "summaries.jsonl": "56303d0932777e402ec222024d070e772ffa56979e0bd9790af2c44265d439c6",
    "evaluation.json": "215e9a057088a8b89c5ca19724d6818fc7c82cc3ea9bd7e0666f20fa55d81345",
    "sweep.csv": "116094869e8bdff7fc9f295bdc52b8f1d9676aec49e7ab18c3f664b154c5fd20",
}
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


def test_oracle_build_bytes_are_pinned(tmp_path, capsys):
    corpus = tmp_path / "golden.jsonl"
    oracles = tmp_path / "oracles.jsonl"
    write_corpus(corpus, _golden_corpus())
    assert main(["oracle", "build", "--corpus", str(corpus), "--out", str(oracles),
                 "--k", "2"]) == 0
    assert hashlib.sha256(oracles.read_bytes()).hexdigest() == GOLDEN_ORACLES_SHA256
    records = [json.loads(line) for line in oracles.read_text(encoding="utf-8").splitlines()]
    assert "doc_id" not in records[0]
    for record in records[1:]:
        del record["fingerprint"]
        for item in (item for sent in record["labels"] for item in sent):
            del item["node_label"]
    v1_bytes = "".join(json.dumps(record) + "\n" for record in records[1:]).encode("utf-8")
    assert hashlib.sha256(v1_bytes).hexdigest() == GOLDEN_ORACLES_V1_SHA256


def test_model_and_outputs_bytes_are_pinned(tmp_path, capsys):
    corpus = str(tmp_path / "golden.jsonl")
    oracles = str(tmp_path / "oracles.jsonl")
    out = {name: str(tmp_path / name) for name in GOLDEN_OUTPUTS_SHA256}
    write_corpus(corpus, _golden_corpus())
    data = ["--corpus", corpus, "--model", out["model.json"], "--k", "2"]
    assert main(["oracle", "build", "--corpus", corpus, "--out", oracles, "--k", "2"]) == 0
    assert main(["train", "--corpus", corpus, "--oracles", oracles,
                 "--out", out["model.json"]]) == 0
    assert main(["summarize", *data, "--out", out["summaries.jsonl"]]) == 0
    assert main(["evaluate", *data, "--json", out["evaluation.json"]]) == 0
    assert main(["sweep", *data, "--out", out["sweep.csv"]]) == 0
    digests = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for name, path in out.items()}
    assert digests == GOLDEN_OUTPUTS_SHA256
    payload = json.loads(Path(out["model.json"]).read_text(encoding="utf-8"))
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
                      f"reads version 2: {REBUILD}"),
    "rules-version": ("oracles", 0, lambda rec: rec.update(rules_version=2), 1,
                      f"oracle cache was labeled under rules version 2, the rules are "
                      f"version 1: {REBUILD}"),
    "preprocess": ("oracles", 0, lambda rec: rec["preprocess"].update(stem=False), 1,
                   f"oracle cache was scored under other preprocessing than "
                   f"ORACLE_PREPROCESS: {REBUILD}"),
    "span-past-end": ("oracles", 1, lambda rec: _first_label(rec).update(end=99), 2,
                      "is no span of the sentence's"),
    "unknown-rule": ("oracles", 1, lambda rec: _first_label(rec).update(rule="NO_SUCH_RULE"),
                     2, "names an unknown rule"),
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
    assert error.startswith(f"{files['oracles']}:{line}: ")
    if message == "fingerprint":
        record = cached[line - 1]
        doc = next(d for d in load_corpus(files["corpus"]) if d.id == record["doc_id"])
        assert error.endswith(
            f"document {doc.id!r}: the cache is stale: it was built from fingerprint "
            f"{record['fingerprint']}, the corpus has {document_fingerprint(doc)}; {REBUILD}")
    else:
        assert message in error
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
            f"{files['oracles']}: no record of document {docs[2].id!r} or the documents "
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
            f"{files['oracles']}:3: record of document {docs[2].id!r} where the corpus has "
            f"document {docs[1].id!r}: the cache is stale; {REBUILD}")
    assert not (tmp_path / "model.json").exists()


def test_duplicate_document_id_is_error(tmp_path, capsys):
    docs = corpusgen.fixture_corpus()
    corpus = tmp_path / "dup.jsonl"
    write_corpus(corpus, docs + [docs[1]])
    code = main(["stats", "--corpus", str(corpus), "--out", str(tmp_path / "stats.csv")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "duplicate document id 'fix-relative'" in payload["error"]


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
        f"config {config}: no subcommand has a flag for key(s) 'max_sents'")
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
            f"{oracles}:2: document 'b0': oracle index 40 >= 30 scoreable sentences")
