"""The README's library quick start runs as written."""

import re
from pathlib import Path

import corpusgen
from compsum.corpus import write_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.compile(r"```python\n(.*?)```", re.DOTALL).search(
        text, text.index("## Library quick start"))
    # padded so that a failure names the README's own line
    code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    docs, _ = corpusgen.learnable_corpus(count=6, seed=5)
    write_corpus(tmp_path / "corpus.jsonl", docs)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4  # the summary, then one line per tau
    assert [line.split(" ", 1)[0] for line in printed[1:]] == ["0.0", "0.45", "1.0"]
