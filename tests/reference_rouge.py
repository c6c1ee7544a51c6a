"""The n-gram counting, quadratic LCS and set-based dedup that compsum replaced.

Kept only as oracles for differential tests: `rouge_n` counts each n-gram
by slicing and clips each distinct candidate gram by its largest count over
the references, one reference at a time, where `compsum.rouge.rouge_n`
counts grams with Counter and clips against the references' union;
`is_punctuation` tests a token one character at a time; `lcs_length` is the
row-by-row dynamic program that `compsum.rouge._lcs_length` used before it
went bit-parallel, and `dedup_summary` rebuilds the set of live tokens
outside each option, where `compsum.pipeline.dedup_summary` keeps live
counts. Nothing in `src/` imports it.
"""

from collections import Counter
from typing import Mapping, Sequence

from compsum.corpus import Document
from compsum.pipeline import CAUSE_DEDUP, AppliedDeletion, Summary
from compsum.rouge import RougeScore, _f1, is_punctuation
from compsum.rules import CompressionOption


def is_punctuation_by_character(token: str) -> bool:
    return not any(ch.isalnum() for ch in token)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], references: Sequence[Sequence[str]], n: int) -> RougeScore:
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    cand_counts = _ngram_counts(candidate, n)
    ref_counts = [_ngram_counts(ref, n) for ref in references]
    cand_total = sum(cand_counts.values())
    ref_total = sum(sum(rc.values()) for rc in ref_counts)
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    matches = 0
    for gram, count in cand_counts.items():
        best = max((rc[gram] for rc in ref_counts), default=0)
        matches += min(count, best)
    precision = matches / cand_total
    recall = matches / ref_total
    return RougeScore(precision, recall, _f1(precision, recall))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    row = [0] * (len(b) + 1)
    for x in a:
        prev = 0
        for j, y in enumerate(b, start=1):
            cur = row[j]
            row[j] = prev + 1 if x == y else max(row[j], row[j - 1])
            prev = cur
    return row[len(b)]


def dedup_summary(doc: Document, summary: Summary,
                  options: Mapping[int, Sequence[CompressionOption]]) -> Summary:
    ordered_sents = sorted(summary.selected)
    live: dict[int, list[bool]] = {
        i: [True] * len(doc.sentences[i].tokens) for i in ordered_sents}
    for deletion in summary.deletions:
        for pos in range(deletion.span.start, deletion.span.end):
            live[deletion.sentence][pos] = False
    lowered = {i: [t.lower() for t in doc.sentences[i].tokens]
               for i in ordered_sents}

    deletions = list(summary.deletions)
    for sent in ordered_sents:
        for option in sorted(options.get(sent, []),
                             key=lambda o: (o.span.start, -len(o.span))):
            span = option.span
            alive = [pos for pos in range(span.start, span.end) if live[sent][pos]]
            if not alive:
                continue
            content = {lowered[sent][pos] for pos in alive
                       if not is_punctuation(lowered[sent][pos])}
            outside: set[str] = set()
            for other in ordered_sents:
                for pos, ok in enumerate(live[other]):
                    if ok and not (other == sent and span.start <= pos < span.end):
                        outside.add(lowered[other][pos])
            if content <= outside:
                for pos in alive:
                    live[sent][pos] = False
                deletions.append(AppliedDeletion(
                    sent, span, CAUSE_DEDUP, option.rule, option.node_label))

    text = tuple(
        tuple(doc.sentences[i].tokens[pos]
              for pos in range(len(live[i])) if live[i][pos])
        for i in ordered_sents)
    return Summary(doc_id=summary.doc_id, selected=summary.selected,
                   deletions=tuple(deletions), text=text)
