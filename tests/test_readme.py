"""The README's library quick start and CLI workflow run as written, and
the names its module table shows are the library's."""

import importlib
import inspect
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


# Backticked words in the module table that name no code in src/: a cache
# record's field, the two causes of a deletion, the command's name, and
# test helpers that live in tests/reference_model.py.
NOT_LIBRARY_CODE = {"fingerprint", "MODEL", "DEDUP", "compsum",
                    "loss_joint", "models_equal", "decode_greedy"}

# A name, dotted or not, optionally shown as a call: `node_arrays(parse)`.
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def _has(obj, path: list[str]) -> bool:
    for name in path:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _resolves(module, path: list[str]) -> bool:
    """True when path names an attribute of module or of a class it defines,
    or a `compsum` name or `compsum.<module>.<name>`."""
    classes = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__]
    if _has(module, path) or any(_has(cls, path) for cls in classes):
        return True
    if path[0] == "compsum":
        path = path[1:]
    package = importlib.import_module("compsum")
    if _has(package, path):
        return True
    try:
        submodule = importlib.import_module(f"compsum.{path[0]}")
    except ImportError:
        return False
    return _has(submodule, path[1:])


def test_module_table_names_resolve():
    text = README.read_text(encoding="utf-8")
    start = text.index("## What's inside")
    table = text[start:text.index("\n## ", start + 1)]
    rows = re.findall(r"^\| `(compsum\.\w+)` \| (.*) \|$", table, re.MULTILINE)
    assert rows
    unresolved, allowed = [], set()
    for module_name, role in rows:
        module = importlib.import_module(module_name)
        for quoted in re.findall(r"`([^`]+)`", role):
            match = _NAME.fullmatch(quoted)
            if match is None:       # a path, a flag or a literal
                continue
            name = match.group(1)
            if name in NOT_LIBRARY_CODE:
                allowed.add(name)
            elif not _resolves(module, name.split(".")):
                unresolved.append(f"{module_name}: `{quoted}`")
    assert unresolved == []
    assert allowed == NOT_LIBRARY_CODE  # no stale entry
