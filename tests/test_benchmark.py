"""The benchmark's output checks (perfbench/run.py) still pass on the library.

`run.check_outputs` reads fields and names of every stage's output (the
oracle cache, the summaries, the evaluation JSON and the sweep CSV) and of
the library (`load_corpus`, `approx_oracle_score`, `Span`,
`surviving_tokens`, `token_texts`). A change that breaks one would show only
as failed documents in a benchmark run; here it fails a test. The chain runs
in a child interpreter, because `run` imports `compsum` afresh for every
command. The benchmark's sentences also serve as inputs to the rules'
differential test, read in a child interpreter that has `perfbench/` on its
path.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs one untimed pass of the benchmark's chain over the documents its
# timed passes use, then the benchmark's own checks of every output.
CHECKED_PASS = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import run, workload
name, work = sys.argv[3], Path(sys.argv[4])
records = workload.generate(name, 3)[:workload.SHAPES[name].timed_docs]
files = run.corpus_files(work, "timed")
workload.write_corpus(files["corpus"], records)
_, _, codes = run.run_pass(files, None)
failed, facts = run.check_outputs(files, codes, len(records))
print(json.dumps({"codes": codes, "failed": failed, "docs": len(records),
                  "skipped": facts["docs_skipped"], "scores": len(facts["best_scores"])}))
"""


# extract_options against the node-walking matcher it replaced, on every
# sentence of a workload's corpus at seed 3.
RULES_ON_WORKLOAD = """
import json, sys
sys.path[:0] = sys.argv[1:4]
import reference_rules, reference_treebank, workload
from compsum.rules import extract_options
from compsum.treebank import SentenceTree
parses = [sent["parse"] for record in workload.generate(sys.argv[4], 3)
          for sent in record["sentences"]]
options, differing = 0, []
for parse in parses:
    got = extract_options(SentenceTree(parse))
    options += len(got)
    if got != reference_rules.extract_options(reference_treebank.parse_ptb(parse)):
        differing.append(parse)
print(json.dumps({"sentences": len(parses), "options": options, "differing": differing[:3]}))
"""


@pytest.mark.parametrize("workload", ["news-oracle", "short-chain"])
def test_rules_equal_the_reference_on_the_workload_sentences(workload):
    proc = subprocess.run(
        [sys.executable, "-c", RULES_ON_WORKLOAD, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(ROOT / "tests"), workload],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["differing"] == []
    assert result["sentences"] > 500
    assert result["options"] > 3 * result["sentences"]


@pytest.mark.parametrize("workload", ["news-oracle", "short-chain"])
def test_benchmark_checks_pass_on_its_timed_documents(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, "-c", CHECKED_PASS, str(ROOT / "perfbench"), str(ROOT / "src"),
         workload, str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stages = ["oracle_build", "train", "summarize", "evaluate", "sweep"]
    assert result["codes"] == dict.fromkeys(stages, 0), proc.stdout
    assert result["failed"] == dict.fromkeys(stages, 0)
    assert result["skipped"] == 0
    assert result["scores"] == result["docs"] > 0
