"""A dropped import of compsum leaves nothing of itself alive.

The benchmark imports compsum afresh for each command, as a new process
would. Every module postpones its annotations (PEP 563), so no annotation
such as `Iterator[Document]` is built at import and no `typing` cache keeps a
compsum class, and with it the module namespace its methods' globals hold.
This runs in a child interpreter because the test session shares one
interpreter whose compsum modules stay imported.
"""

import json
import subprocess
import sys
from pathlib import Path

import corpusgen
from compsum.corpus import write_corpus

ROOT = Path(__file__).resolve().parents[1]

RUN_AND_DROP = """
import gc, json, sys, weakref
sys.path.insert(0, sys.argv[1])
corpus, oracles, model, summaries, eval_json, sweep_csv = sys.argv[2:8]

def run():
    from compsum.cli import main
    argvs = [
        ["oracle", "build", "--corpus", corpus, "--out", oracles, "--k", "2", "--beam", "4",
         "--m", "2"],
        ["train", "--corpus", corpus, "--oracles", oracles, "--out", model, "--epochs", "1"],
        ["summarize", "--corpus", corpus, "--model", model, "--out", summaries, "--k", "2"],
        ["evaluate", "--corpus", corpus, "--model", model, "--k", "2", "--json", eval_json],
        ["sweep", "--corpus", corpus, "--model", model, "--out", sweep_csv, "--k", "2",
         "--tau-grid", "0:1:0.5"],
    ]
    return [main(argv) for argv in argvs]

codes = run()
names = [name for name in sys.modules if name == "compsum" or name.startswith("compsum.")]
classes = [weakref.ref(value) for name in names for value in vars(sys.modules[name]).values()
           if isinstance(value, type) and value.__module__ == name]
for name in names:
    del sys.modules[name]
gc.collect()
alive = sorted(f"{cls.__module__}.{cls.__qualname__}"
               for cls in (ref() for ref in classes) if cls is not None)
print(json.dumps({"codes": codes, "modules": sorted(names), "classes": len(classes),
                  "alive": alive}))
"""


def test_dropped_import_leaves_no_compsum_class_alive(tmp_path):
    docs, _ = corpusgen.learnable_corpus(count=4, seed=3)
    write_corpus(tmp_path / "corpus.jsonl", docs)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_AND_DROP, str(ROOT / "src"),
         *(str(tmp_path / name) for name in ("corpus.jsonl", "oracles.jsonl", "model.json",
                                             "summaries.jsonl", "eval.json", "sweep.csv"))],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 5
    # the commands import every module, so every class is checked
    modules = sorted(f"compsum.{path.stem}".removesuffix(".__init__")
                     for path in (ROOT / "src" / "compsum").glob("*.py"))
    assert result["modules"] == modules and result["classes"] > 0
    assert result["alive"] == [], f"still alive: {result['alive']}"
