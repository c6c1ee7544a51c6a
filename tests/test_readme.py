"""The README's library quick start and CLI workflow run as written."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

import corpusgen
from compsum.cli import build_parser, main
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


def test_cli_workflow_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.compile(r"```bash\n(.*?)```", re.DOTALL).search(
        text, text.index("## CLI workflow"))
    lines = re.sub(r"\\\n", " ", block.group(1)).splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("compsum ")]
    _, leaves = build_parser()
    shown = {" ".join(takewhile(lambda word: not word.startswith("-"), argv))
             for argv in commands}
    assert shown == {leaf.prog for leaf in leaves}  # every subcommand is shown
    docs, _ = corpusgen.learnable_corpus(count=6, seed=5)
    write_corpus(tmp_path / "corpus.jsonl", docs)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, f"{shlex.join(argv)} exited {code}: {capsys.readouterr().err}"
