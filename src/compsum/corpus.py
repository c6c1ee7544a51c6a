"""JSONL files: the corpus, and the one-record-per-document artifacts that
each stage hands to the next.

A corpus is one JSON object per line: {"id", "sentences": [{"tokens",
"parse"}], "reference": [[token, ...], ...]}. An id is a string or an
integer, read as its decimal string. A record is rejected with a warning
that names its line and id (or "?") when it is not an object with such an
id, when sentences is not a list of objects that each have a parse and
tokens, when a parse is not a string or does not parse, when a token list
or a reference sentence is not a list of strings, or when a token list
disagrees with its parse leaves (after bracket unescaping); remaining
records still load. A parse is only checked here (treebank.parse_ptb says
how); a sentence keeps the parse string and its words.

Every JSONL file is written by write_records, so a command that fails
leaves no partial file. read_records reads an artifact of the corpus (the
oracle cache, the summaries) back, joining its i-th record to document i.
"""

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .treebank import BRACKET_ESCAPE, BRACKET_UNESCAPE, ParseError, SentenceTree

logger = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[SentenceTree, ...]
    reference: tuple[tuple[str, ...], ...] = field(default=())

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"document {self.id!r} has no sentences")

    @property
    def reference_tokens(self) -> list[str]:
        return [tok for sent in self.reference for tok in sent]


def _unescape(tokens: list[str]) -> tuple[str, ...]:
    return tuple(map(BRACKET_UNESCAPE.get, tokens, tokens))


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) of each nonblank line of a file."""
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                yield lineno, line


def load_corpus(path) -> Iterator[Document]:
    """Stream documents from a JSONL file, skipping invalid records with a warning."""
    path = Path(path)
    count = 0
    for lineno, line in _lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            logger.warning("line %d: malformed JSON (%s); record skipped", lineno, exc)
            continue
        try:
            doc = document_from_record(record)
        except (KeyError, TypeError, ValueError) as exc:
            doc_id = record.get("id", "?") if isinstance(record, dict) else "?"
            logger.warning("line %d: document %s rejected: %s", lineno, doc_id, exc)
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
            tree = SentenceTree.from_ptb(parse)
        except ParseError as exc:
            raise ValueError(f"sentence {i}: {exc}") from exc
        tokens = _unescape(_strings(sent["tokens"], f"sentence {i}: tokens"))
        if tree.tokens != tokens:
            raise ValueError(
                f"document {doc_id!r} sentence {i}: token list does not match parse leaves")
        sentences.append(tree)
    reference = record.get("reference", [])
    if not isinstance(reference, list):
        raise ValueError("reference is not a list of token lists")
    reference = tuple(_unescape(_strings(sent, f"reference sentence {j}"))
                      for j, sent in enumerate(reference))
    return Document(id=str(doc_id), sentences=tuple(sentences), reference=reference)


def _strings(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"{what} is not a list of strings")
    return value


def document_to_record(doc: Document) -> dict:
    """Inverse of document_from_record; escapes bracket tokens on the way out.

    Each parse is written as the sentence holds it (see SentenceTree.parse),
    so a document read back has the same fingerprint (oracle.document_fingerprint).

    A token or reference word that is itself a bracket code (say "-LRB-")
    would be read back unescaped, so it is a ValueError.
    """
    for word in (*(t for tree in doc.sentences for t in tree.tokens),
                 *doc.reference_tokens):
        if word in BRACKET_UNESCAPE:
            raise ValueError(f"document {doc.id!r}: word {word!r} is a bracket code and "
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
    remake the file. Nothing is skipped: malformed JSON, a line that is not
    an object, a missing key, or a TypeError or ValueError from header or
    parse is a ValueError that names the file and line.
    """
    path = Path(path)
    corpus = iter(documents)
    out = []
    for lineno, line in _lines(path):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not a JSON object")
            if header is not None:
                header(record)
                header = None
                continue
            doc = next(corpus, None)
            if doc is None or doc.id != record["doc_id"]:
                at_place = "no document" if doc is None else f"document {doc.id!r}"
                raise ValueError(f"record of document {record['doc_id']!r} where the corpus "
                                 f"has {at_place}: {stale}")
            out.append(parse(record, doc))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSON: {exc.msg} "
                             f"at column {exc.colno}") from exc
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    missing = next(corpus, None)
    if missing is not None:
        raise ValueError(f"{path}: no record of document {missing.id!r} or the documents "
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
