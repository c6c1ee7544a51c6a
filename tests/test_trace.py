"""The benchmark's span tracer (perfbench/spans.py) still fits the library.

`spans.install` wraps compsum's public functions by name and fails if one is
missing or still bound unwrapped somewhere, so renaming or dropping a traced
function breaks the benchmark's per-layer run. It runs in a child
interpreter because it patches the imported modules in place.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_SUMMARIZE = """
import json, sys
sys.path[:0] = sys.argv[1:4]
import spans
import compsum.cli
tracer = spans.Tracer()
spans.install(tracer)
import corpusgen
from compsum.model import init_model
from compsum.pipeline import SummarizeConfig, summarize
doc = corpusgen.learnable_corpus(count=1, seed=3)[0][0]
summary = summarize(init_model(seed=0), doc, SummarizeConfig(k=2))
print(json.dumps({"calls": tracer.calls, "selected": summary.selected}))
"""


TRACED_LOAD = """
import json, sys
sys.path[:0] = sys.argv[1:4]
import corpusgen
from compsum.corpus import write_corpus
docs, _ = corpusgen.learnable_corpus(count=6, seed=3)
write_corpus(sys.argv[4], docs)
import spans
import compsum.cli
tracer = spans.Tracer()
spans.install(tracer)
from compsum.corpus import load_corpus
loaded = list(load_corpus(sys.argv[4]))
print(json.dumps({"calls": tracer.calls, "counts": tracer.counts,
                  "docs": len(loaded), "sentences": sum(len(d.sentences) for d in loaded)}))
"""


TRACED_SWEEP = """
import json, sys
sys.path[:0] = sys.argv[1:4]
import spans
import compsum.cli
tracer = spans.Tracer()
spans.install(tracer)
import corpusgen
from compsum.model import init_model
from compsum.pipeline import SummarizeConfig, render, score_document, sweep_threshold
docs = corpusgen.learnable_corpus(count=8, seed=3)[0]
model = init_model(seed=0)
grid = [i / 10 for i in range(11)]
sweep_threshold(model, docs, grid, SummarizeConfig(k=2, tau=0.0, dedup=True))
calls = dict(tracer.calls)
texts, deletion_sets = set(), set()
for doc in docs:
    scored = score_document(model, doc, 2)
    for tau in grid:
        deletion_sets.add((doc.id, render(scored, tau, False).deletions))
        texts.add((doc.id, render(scored, tau, True).text))
print(json.dumps({"calls": calls, "docs": len(docs), "taus": len(grid),
                  "texts": len(texts), "deletion_sets": len(deletion_sets)}))
"""


TRACED_TRAIN = """
import json, sys
sys.path[:0] = sys.argv[1:4]
import spans
import compsum.cli
tracer = spans.Tracer()
spans.install(tracer)
import corpusgen
from compsum.corpus import write_corpus
corpus, oracles, model = sys.argv[4:7]
write_corpus(corpus, corpusgen.learnable_corpus(count=4, seed=3)[0])
main = compsum.cli.main
codes = [main(["oracle", "build", "--corpus", corpus, "--out", oracles, "--k", "2"])]
built = dict(tracer.calls)
codes.append(main(["train", "--corpus", corpus, "--oracles", oracles, "--out", model,
                   "--epochs", "1"]))
trained = dict(tracer.counts)
codes.append(main(["gradcheck", "--corpus", corpus, "--oracles", oracles, "--samples", "1",
                   "--hidden", "2"]))
calls = dict(tracer.calls)
from compsum.corpus import load_corpus
from compsum.model import compile_example
from compsum.oracle import read_oracle_cache
steps = [len(compile_example(example).steps)
         for example in read_oracle_cache(oracles, load_corpus(corpus))]
print(json.dumps({"codes": codes, "built": built, "calls": calls, "trained": trained,
                  "steps": steps}))
"""


TRACED_STATS = """
import json, sys
sys.path[:0] = sys.argv[1:4]
import spans
import compsum.cli
tracer = spans.Tracer()
spans.install(tracer)
import corpusgen
from compsum.corpus import write_corpus
from compsum.model import init_model, save_model
corpus, oracles, model, summaries, stats = sys.argv[4:9]
docs = corpusgen.learnable_corpus(count=4, seed=3)[0]
write_corpus(corpus, docs)
save_model(init_model(seed=0), model)
main = compsum.cli.main
codes = [main(["oracle", "build", "--corpus", corpus, "--out", oracles, "--k", "2"]),
         main(["summarize", "--corpus", corpus, "--model", model, "--k", "2",
               "--out", summaries])]
before = tracer.calls["rules.extract"]
codes.append(main(["stats", "--corpus", corpus, "--oracles", oracles,
                   "--summaries", summaries, "--out", stats]))
print(json.dumps({"codes": codes, "extract": tracer.calls["rules.extract"] - before,
                  "sentences": sum(len(doc.sentences) for doc in docs)}))
"""


# Runs the command chain and records, per command, the bracketed strings the
# rules read (through the one binding of treebank.node_arrays that
# extract_options calls) and the count of treebank.parse spans.
TRACED_COMMANDS = """
import json, sys
from collections import Counter
sys.path[:0] = sys.argv[1:4]
import spans
import compsum.cli
tracer = spans.Tracer()
spans.install(tracer)
import corpusgen
import compsum.rules as rules
from compsum.corpus import write_corpus
corpus, oracles, model, summaries = sys.argv[4:8]
write_corpus(corpus, corpusgen.learnable_corpus(count=4, seed=3)[0])
texts = Counter()
fill = rules.node_arrays
def counted_fill(text):
    texts[text] += 1
    return fill(text)
rules.node_arrays = counted_fill
data = ["--corpus", corpus, "--oracles", oracles]
decode = ["--corpus", corpus, "--model", model, "--k", "2"]
commands = {
    "oracle build": ["oracle", "build", "--corpus", corpus, "--out", oracles, "--k", "2"],
    "train": ["train", *data, "--out", model, "--epochs", "1"],
    "gradcheck": ["gradcheck", *data, "--samples", "1", "--hidden", "2"],
    "summarize": ["summarize", *decode, "--out", summaries],
    "evaluate": ["evaluate", *decode],
}
codes, read, parse_spans = [], {}, {}
for name, argv in commands.items():
    texts.clear()
    before = tracer.calls["treebank.parse"]
    codes.append(compsum.cli.main(argv))
    read[name] = dict(texts)
    parse_spans[name] = tracer.calls["treebank.parse"] - before
print(json.dumps({"codes": codes, "read": read, "spans": parse_spans}))
"""


def test_traced_train_and_gradcheck_run_no_rules(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_TRAIN,
         str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests"),
         *(str(tmp_path / name) for name in ("corpus.jsonl", "oracles.jsonl", "model.json"))],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    built, calls = result["built"], result["calls"]
    assert result["codes"] == [0, 0, 0]
    assert built["rules.extract"] > 0
    # the cache holds every option, so reading it back runs no rule
    assert calls["oracle.cache_read"] == 2
    assert calls["rules.extract"] == built["rules.extract"]
    # the benchmark counts compiled steps as each example's distinct steps
    assert result["trained"]["model.steps_compiled"] == sum(result["steps"])


def test_traced_stats_runs_the_rules_once_per_sentence(tmp_path):
    # the summaries' check and the report share one extraction
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_STATS,
         str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests"),
         *(str(tmp_path / name) for name in
           ("corpus.jsonl", "oracles.jsonl", "model.json", "summaries.jsonl", "stats.csv"))],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["extract"] == result["sentences"]


def test_traced_sweep_renders_and_scores_each_distinct_summary_once():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SWEEP,
         str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    calls, docs = result["calls"], result["docs"]
    assert calls["rouge.rouge_l"] == result["texts"] < docs * result["taus"]
    assert calls["pipeline.score_summary"] == result["texts"]
    assert calls["rouge.rouge_n"] == 2 * result["texts"]
    assert calls["pipeline.dedup"] == result["deletion_sets"] < docs * result["taus"]
    # each reference once, each distinct summary text once
    assert calls["rouge.preprocess"] == docs + result["texts"]


def test_traced_load_builds_no_tree(tmp_path):
    # loading once built every sentence's tree; it now only checks each parse
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_LOAD,
         str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests"),
         str(tmp_path / "corpus.jsonl")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["docs"] == 6
    assert result["calls"]["corpus.load"] == 1
    assert result["counts"]["corpus.docs_loaded"] == 6
    assert result["sentences"] > 6
    assert "treebank.parse" not in result["calls"]


def test_traced_commands_build_only_the_trees_they_read(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_COMMANDS,
         str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests"),
         *(str(tmp_path / name) for name in
           ("corpus.jsonl", "oracles.jsonl", "model.json", "summaries.jsonl"))],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    read = result["read"]
    assert result["codes"] == [0] * len(read)
    corpus = [json.loads(line)
              for line in (tmp_path / "corpus.jsonl").read_text().splitlines()]
    parses = [sent["parse"] for record in corpus for sent in record["sentences"]]
    # oracle build reads every sentence's options: each parse once, none twice
    assert read["oracle build"] == dict(Counter(parses))
    # training and the gradient check read words only
    assert read["train"] == read["gradcheck"] == {}
    # decoding reads the options of the selected sentences only
    summaries = [json.loads(line)
                 for line in (tmp_path / "summaries.jsonl").read_text().splitlines()]
    selected = Counter(corpus[i]["sentences"][j]["parse"]
                       for i, summary in enumerate(summaries) for j in summary["selected"])
    assert sum(selected.values()) == 2 * len(corpus)
    assert read["summarize"] == read["evaluate"] == dict(selected)
    # the rules read the parse itself: no command calls parse_ptb
    assert result["spans"] == {command: 0 for command in read}


def test_spans_install_and_trace_each_decode_step():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SUMMARIZE,
         str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    calls = result["calls"]
    assert calls["pipeline.summarize"] == 1
    assert calls["model.score"] == 2
    assert calls["model.classify"] == calls["features.option"] > 0
    assert calls["rules.extract"] == len(result["selected"])
