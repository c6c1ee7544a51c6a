"""Per-option tallies of the two compression-analysis tables, the references
that compsum.pipeline.stats_report and compsum.oracle.compressability_report
are checked against.

`stats_report` keeps every option's span length in a list per node type
and counts labels and deletions one by one, where the library keeps only
integer counts per node type; `compressability_report` counts each bucket
in a loop, where the library counts them with one Counter. Nothing in
`src/` imports this module.
"""

from collections import Counter
from typing import Iterable, Sequence

from compsum.oracle import (
    CompressabilityBucket,
    CompressionLabel,
    DocumentOracles,
    LabeledOption,
    bucket_of,
)
from compsum.pipeline import CAUSE_DEDUP, StatsRow, Summary
from compsum.rules import CompressionOption


def stats_report(options: Sequence[Sequence[Sequence[CompressionOption]]],
                 oracles: Sequence[DocumentOracles] | None = None,
                 summaries: Sequence[Summary] | None = None) -> list[StatsRow]:
    lengths: dict[str, list[int]] = {}
    for doc_options in options:
        for sentence_options in doc_options:
            for option in sentence_options:
                lengths.setdefault(option.node_label, []).append(len(option.span))

    del_counts: Counter[str] = Counter()
    labeled_counts: Counter[str] = Counter()
    if oracles is not None:
        for entry in oracles:
            for lab in entry.all_labeled():
                label = lab.option.node_label
                labeled_counts[label] += 1
                if lab.label is CompressionLabel.DEL:
                    del_counts[label] += 1

    applied_counts: Counter[str] = Counter()
    dedup_counts: Counter[str] = Counter()
    if summaries is not None:
        for summary in summaries:
            for deletion in summary.deletions:
                applied_counts[deletion.node_label] += 1
                if deletion.cause == CAUSE_DEDUP:
                    dedup_counts[deletion.node_label] += 1

    share_base = (applied_counts if summaries is not None
                  else {label: len(spans) for label, spans in lengths.items()})
    share_total = sum(share_base.values())
    rows = []
    for label in sorted(lengths, key=lambda lab: (-share_base[lab], lab)):
        spans = lengths[label]
        share = 100.0 * share_base[label] / share_total if share_total else 0.0
        comp_acc = None
        if labeled_counts[label]:
            comp_acc = 100.0 * del_counts[label] / labeled_counts[label]
        dedup_pct = None
        if applied_counts[label]:
            dedup_pct = 100.0 * dedup_counts[label] / applied_counts[label]
        rows.append(StatsRow(
            node_label=label,
            mean_len=sum(spans) / len(spans),
            pct_of_comps=share,
            comp_acc=comp_acc,
            dedup_pct=dedup_pct))
    return rows


def compressability_report(
    labeled: Iterable[LabeledOption],
) -> dict[CompressabilityBucket, float]:
    counts = {bucket: 0 for bucket in CompressabilityBucket}
    total = 0
    for item in labeled:
        counts[bucket_of(item)] += 1
        total += 1
    if total == 0:
        raise ValueError("empty corpus: no labeled options")
    return {bucket: 100.0 * count / total for bucket, count in counts.items()}
