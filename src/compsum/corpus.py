"""JSONL files: the corpus, and the one-record-per-document artifacts that
each stage hands to the next.

A corpus is one JSON object per line: {"id", "sentences": [{"tokens",
"parse"}], "reference": [[token, ...], ...]}. An id is a string or an
integer, read as its decimal string. A line that is not UTF-8 text or not
JSON is skipped with a warning that names it. A record is rejected with a
warning that names its line and id (as its JSON text, cut as quote cuts
it; "?" when there is none) when it is not an object with such an id,
when sentences is not a list of objects that each have a parse and tokens,
when a parse is not a string or does not parse, when a token list or a
reference sentence is not a list of strings, or when a token list
disagrees with its parse leaves (after bracket unescaping); remaining
records still load. A parse is only checked here (treebank.parse_ptb says
how); a sentence keeps the parse string and its words.

Every JSONL file is written by write_records, so a command that fails
leaves no partial file. read_records reads an artifact of the corpus (the
oracle cache, the summaries) back, joining its i-th record to document i.
Every reader of a file checks what it reads with read_config (a config
object), list_of (a list of one JSON type), same_json (a value it must hold
exactly) and quote (a value an error shows).

The two loops that read a file, load_corpus and read_records, are the only
code that says which document a fault in a record belongs to: each puts
the line and the document's quoted id before the message of the check it
calls, which names only the sentence and field at fault.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .treebank import BRACKET_ESCAPE, BRACKET_UNESCAPE, ParseError, SentenceTree

logger = logging.getLogger(__name__)

T = TypeVar("T")

# Longest quote of a value read from a file in an error message
_QUOTED_CHARS = 40
# The JSON types a config value may have, by the Python type of its default:
# a field of a config dataclass, or a flag's default in a config file
CONFIG_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                     str: ((str,), "a string"), bool: ((bool,), "true or false")}
# What list_of calls the items of a list, by their Python type
_ITEMS = {str: "strings", int: "integers", dict: "objects", list: "lists"}


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[SentenceTree, ...]
    reference: tuple[tuple[str, ...], ...] = field(default=())

    def __post_init__(self):
        if not self.sentences:
            raise ValueError("no sentences")

    @property
    def reference_tokens(self) -> list[str]:
        return [tok for sent in self.reference for tok in sent]


def _unescape(tokens: list[str]) -> tuple[str, ...]:
    return tuple(map(BRACKET_UNESCAPE.get, tokens, tokens))


def _lines(path: Path) -> Iterator[tuple[int, bytes]]:
    """(line number, line) of each nonblank line of a file, undecoded, so that
    a line that is not UTF-8 text is the fault of that line alone."""
    with path.open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                yield lineno, line


def load_corpus(path) -> Iterator[Document]:
    """Stream documents from a JSONL file, skipping invalid records with a warning."""
    path = Path(path)
    count = 0
    for lineno, line in _lines(path):
        try:
            record = json.loads(line.decode("utf-8"))
        except UnicodeDecodeError:
            logger.warning("line %d: not UTF-8 text; record skipped", lineno)
            continue
        except (ValueError, RecursionError) as exc:  # also what json.loads cannot decode
            logger.warning("line %d: malformed JSON (%s); record skipped", lineno, exc)
            continue
        try:
            doc = document_from_record(record)
        except (KeyError, TypeError, ValueError) as exc:
            shown = quote(record["id"]) if isinstance(record, dict) and "id" in record else "?"
            logger.warning("line %d: document %s rejected: %s", lineno, shown, exc)
            continue
        count += 1
        yield doc
    if count == 0:
        logger.warning("no documents loaded from %s", path)


def document_from_record(record: dict) -> Document:
    if not isinstance(record, dict) or "id" not in record:
        raise ValueError("record is not an object with an id")
    doc_id = record["id"]
    if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
        raise ValueError("id is not a string or an integer")
    raw_sentences = record.get("sentences")
    if not isinstance(raw_sentences, list):
        raise ValueError("sentences is not a list of objects")
    sentences = []
    for i, sent in enumerate(raw_sentences):
        if not isinstance(sent, dict):
            raise ValueError(f"sentence {i} is not an object")
        for key in ("parse", "tokens"):
            if key not in sent:
                raise ValueError(f"sentence {i} has no {key}")
        parse = sent["parse"]
        if not isinstance(parse, str):
            raise ValueError(f"sentence {i}: parse is not a string")
        try:
            tree = SentenceTree(parse)
        except ParseError as exc:
            raise ValueError(f"sentence {i}: {exc}") from exc
        raw = sent["tokens"]
        try:
            # one comparison accepts a list of the parse's words, escaped or
            # not; anything else is checked by list_of below
            fits = (isinstance(raw, list) and len(raw) == len(tree.tokens)
                    and _unescape(raw) == tree.tokens)
        except TypeError:  # an item that is a list or an object
            fits = False
        if not fits and _unescape(list_of(raw, str, f"sentence {i}: tokens")) != tree.tokens:
            raise ValueError(f"sentence {i}: token list does not match parse leaves")
        sentences.append(tree)
    reference = record.get("reference", [])
    if not isinstance(reference, list):
        raise ValueError("reference is not a list of token lists")
    reference = tuple(_unescape(list_of(sent, str, f"reference sentence {j}"))
                      for j, sent in enumerate(reference))
    return Document(id=str(doc_id), sentences=tuple(sentences), reference=reference)


def quote(value) -> str:
    """value's JSON text, cut to _QUOTED_CHARS characters ending "…" if longer."""
    text = json.dumps(value)
    return text if len(text) <= _QUOTED_CHARS else text[:_QUOTED_CHARS - 1] + "…"


def same_json(value, expected) -> bool:
    """Whether value, read from a file, is expected as JSON: equal and of the
    same JSON type throughout, so neither 1.0 nor true is the integer 1."""
    return json.dumps(value, sort_keys=True) == json.dumps(expected, sort_keys=True)


def list_of(value, kind: type, what: str) -> list:
    """value, when it is a JSON list of items of type kind (a bool is no
    integer); otherwise a ValueError that starts with what."""
    if type(value) is not list or not set(map(type, value)) <= {kind}:
        raise ValueError(f"{what} is not a list of {_ITEMS[kind]}")
    return value


def config_value(value, kind: type, what: str):
    """value as kind, when it has kind's JSON type (CONFIG_JSON_TYPES) and,
    as a number, fits a float; otherwise a ValueError that starts with what."""
    allowed, name = CONFIG_JSON_TYPES[kind]
    if type(value) not in allowed:
        raise ValueError(f"{what} holds {quote(value)}, not {name}")
    if type(value) is int and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} holds an integer too large for a float")
    return kind(value)


def read_config(cls: type[T], value, what: str) -> T:
    """cls(**value) for a JSON object of exactly cls's fields, each of the
    JSON type of its default (config_value); any other value, or one cls
    rejects, is a ValueError that starts with what."""
    if type(value) is not dict:
        raise ValueError(f"{what}: {quote(value)} is not an object")
    defaults = {item.name: item.default for item in fields(cls)}
    unknown = sorted(value.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {quote(unknown)}")
    for name in defaults:
        if name not in value:
            raise ValueError(f"{what}: missing key {name!r}")
        config_value(value[name], type(defaults[name]), f"{what}: key {name!r}")
    try:
        return cls(**value)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def document_to_record(doc: Document) -> dict:
    """Inverse of document_from_record; escapes bracket tokens on the way out.

    Each parse is written as the sentence holds it (see SentenceTree.parse),
    so a document read back has the same fingerprint (oracle.document_fingerprint).

    A reference word that is itself a bracket code (say "-LRB-") would be
    read back unescaped, so it is a ValueError. No token is one: a sentence's
    tokens are the words its parse reads back as, which are unescaped.
    """
    for word in doc.reference_tokens:
        if word in BRACKET_UNESCAPE:
            raise ValueError(f"document {quote(doc.id)}: word {word!r} is a bracket code and "
                             f"would be read back as {BRACKET_UNESCAPE[word]!r}")
    return {
        "id": doc.id,
        "sentences": [
            {"tokens": [BRACKET_ESCAPE.get(t, t) for t in tree.tokens],
             "parse": tree.parse}
            for tree in doc.sentences
        ],
        "reference": [[BRACKET_ESCAPE.get(t, t) for t in sent] for sent in doc.reference],
    }


def read_records(path, documents: Iterable[Document], parse: Callable[[dict, Document], T],
                 stale: str, header: Callable[[dict], None] | None = None) -> list[T]:
    """parse(record, doc) for each JSON object line of a file, doc being the
    i-th of `documents` for the i-th record; blank lines are skipped.

    header, when given, checks the first record instead. A record whose
    doc_id is not that of the document at its place, or a document left
    without a record, is an error ending in `stale`, which says how to
    remake the file. Nothing is skipped: a line that is not UTF-8 text,
    malformed JSON, a line that is not an object, a missing key, or a
    TypeError or ValueError from header or parse is a ValueError that names
    the file and line, and the document once the record is joined to it. So
    parse names only the sentence and field at fault, never the document.
    """
    path = Path(path)
    corpus = iter(documents)
    out = []
    for lineno, line in _lines(path):
        try:
            record = json.loads(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSON: {exc.msg} "
                             f"at column {exc.colno}") from exc
        except (ValueError, RecursionError) as exc:  # what json.loads cannot decode otherwise
            raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        doc = None  # the document the record is joined to, once it is
        try:
            if not isinstance(record, dict):
                raise ValueError("record is not a JSON object")
            if header is not None:
                header(record)
                header = None
                continue
            at_place = next(corpus, None)
            if at_place is None or at_place.id != record["doc_id"]:
                has = "no document" if at_place is None else f"document {quote(at_place.id)}"
                raise ValueError(f"record of document {quote(record['doc_id'])} where the "
                                 f"corpus has {has}: {stale}")
            doc = at_place
            out.append(parse(record, doc))
        except (KeyError, TypeError, ValueError) as exc:
            where = f"{path}:{lineno}:" + ("" if doc is None else f" document {quote(doc.id)}:")
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{where} {what}") from exc
    missing = next(corpus, None)
    if missing is not None:
        raise ValueError(f"{path}: no record of document {quote(missing.id)} or the documents "
                         f"after it: {stale}")
    return out


def write_records(path, records: Iterable[dict]) -> int:
    """Write each record as one JSON line; returns the count.

    The records go to `<path>.partial`, which replaces path only after the
    last one, so a failure (which removes the partial file and is re-raised)
    leaves whatever was at path untouched.
    """
    path = Path(path)
    # a symlink, device or pipe (say /dev/stdout) is written through, never replaced
    in_place = path.is_symlink() or (path.exists() and not path.is_file())
    target = path if in_place else path.with_name(path.name + ".partial")
    count = 0
    try:
        with target.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
                count += 1
        if not in_place:
            target.replace(path)
    except BaseException:
        if not in_place:
            target.unlink(missing_ok=True)
        raise
    return count


def write_corpus(path, docs: Iterable[Document]) -> int:
    return write_records(path, map(document_to_record, docs))
