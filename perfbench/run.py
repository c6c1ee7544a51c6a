"""Benchmark of the compsum command line on seeded workloads.

    python3 perfbench/run.py --workload news-oracle --seed 1 --seconds 60 --trace 0

Run from the root of a compsum checkout. The benchmark generates the
workload's corpus from the seed and runs the whole command chain
(`oracle build`, `train`, `summarize`, `evaluate`, `sweep`) through
`compsum.cli.main(argv)`, the entry point of the `compsum` command: once over
the whole corpus, in a child interpreter, for the quality and memory figures,
then in timed passes over its leading documents until `--seconds` have gone
by. Each command starts from
freshly imported `compsum` modules, as it would in its own process, so no
module-level state carries from one command or pass to the next.

Outputs are checked outside the timed windows. With `--trace 0` the run
reports the end-to-end metrics (medians over passes); with `--trace 1` it
alternates untraced and traced passes and reports per-layer self times and
counts from spans recorded around each `compsum` module's public functions.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See README.md beside this file.
"""

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

STAGES = ("oracle_build", "train", "summarize", "evaluate", "sweep")
EPOCHS = 3
TAU_POINTS = 11          # the CLI's default grid 0:1:0.1
MIN_PASSES = 3
SETUP_SAMPLES = 20

# On the 2-core box the bounds were set on, CPU speed drifts by up to 2x within
# seconds and from one minute to the next, and a fixed piece of dict, string
# and sorting work on a few MB of strings slows down in step with compsum. So
# every timed command is bracketed by that work and its time is scaled to what
# it would be had the work taken REFERENCE_SECONDS, about its fastest time on
# that box. Raw times are printed too.
REFERENCE_WORDS = [f"w{i * 7919 % 100_000:05d}" * 3 for i in range(30_000)]
REFERENCE_SECONDS = 0.010

# Output file written by each stage; a failing stage fails every document.
STAGE_OUTPUT = {"oracle_build": "oracles", "train": "model", "summarize": "summaries",
                "evaluate": "evaluation", "sweep": "sweep"}

# Times the import in a fresh interpreter, then the timing reference in that
# same interpreter (median of 3), which tracks its speed better than a
# reference taken in this process; argv: src directory, perfbench directory.
SETUP_CODE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
              "import compsum.cli; compsum.cli.build_parser(); "
              "elapsed = time.perf_counter() - start; sys.path.insert(0, sys.argv[2]); "
              "import run; print(elapsed, sorted(run.reference_seconds() for _ in range(3))[1])")

# The quality pass runs in a child interpreter of its own, so that its memory
# high-water mark can be read against a baseline taken just after importing
# compsum; argv: perfbench directory, src directory, work directory.
QUALITY_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
                "run.quality_child(sys.argv[3])")

LAYER_TIMES = {   # metric -> span names whose self times it sums
    "corpus.load_s": ("corpus.load",),
    "treebank.parse_s": ("treebank.parse",),
    "rules.extract_s": ("rules.extract", "rules.normalize"),
    "stemming.stem_s": ("stemming.stem",),
    "rouge.preprocess_s": ("rouge.preprocess",),
    "rouge.rouge_n_s": ("rouge.rouge_n",),
    "rouge.rouge_l_s": ("rouge.rouge_l",),
    "oracle.beam_s": ("oracle.beam",),
    "oracle.label_s": ("oracle.label",),
    "oracle.cache_write_s": ("oracle.cache_write",),
    "oracle.cache_read_s": ("oracle.cache_read",),
    "features.context_s": ("features.context",),
    "features.option_s": ("features.option",),
    "model.train_s": ("model.train",),
    "model.compile_s": ("model.compile",),
    "model.score_s": ("model.score",),
    "model.classify_s": ("model.classify",),
    "model.io_s": ("model.io",),
    "pipeline.summarize_s": ("pipeline.summarize",),
    "pipeline.dedup_s": ("pipeline.dedup",),
    "pipeline.score_summary_s": ("pipeline.score_summary",),
}
LAYER_CALLS = {   # metric -> span name whose calls it counts
    "corpus.loads": "corpus.load",
    "treebank.trees_parsed": "treebank.parse",
    "rules.extract_calls": "rules.extract",
    "stemming.stem_calls": "stemming.stem",
    "rouge.preprocess_calls": "rouge.preprocess",
    "rouge.rouge_n_calls": "rouge.rouge_n",
    "features.contexts_built": "features.context",
    "features.option_feats_built": "features.option",
    "model.score_calls": "model.score",
    "model.classify_calls": "model.classify",
    "pipeline.summarize_calls": "pipeline.summarize",
}


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class _WarningLog(logging.Handler):
    """Collects the library's warnings (skipped records and the like)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(f"{record.name}: {record.getMessage()}")


def fresh_cli():
    """Import compsum anew, as a separate `compsum` process would."""
    for name in [n for n in sys.modules if n == "compsum" or n.startswith("compsum.")]:
        del sys.modules[name]
    return importlib.import_module("compsum.cli")


def stage_argv(stage: str, files: dict) -> list[str]:
    corpus, model = str(files["corpus"]), str(files["model"])
    return {
        "oracle_build": ["oracle", "build", "--corpus", corpus, "--out", str(files["oracles"])],
        "train": ["train", "--corpus", corpus, "--oracles", str(files["oracles"]),
                  "--out", model, "--epochs", str(EPOCHS)],
        "summarize": ["summarize", "--corpus", corpus, "--model", model,
                      "--out", str(files["summaries"])],
        "evaluate": ["evaluate", "--corpus", corpus, "--model", model,
                     "--json", str(files["evaluation"])],
        "sweep": ["sweep", "--corpus", corpus, "--model", model, "--out", str(files["sweep"])],
    }[stage]


def run_stage(stage: str, files: dict, tracer) -> tuple[float, int, str]:
    """Wall time, exit code and captured output of one CLI command."""
    cli = fresh_cli()
    if tracer is not None:
        spans.install(tracer)
    captured = io.StringIO()
    argv = stage_argv(stage, files)
    root_span = tracer.stage_span(stage) if tracer is not None else contextlib.nullcontext()
    # start from a heap with no garbage left by earlier imports and commands,
    # as a new process would; a collection inside the window is noise
    gc.collect()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            with root_span:
                code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    return elapsed, code, captured.getvalue()


def reference_seconds() -> float:
    """Wall time of a fixed piece of work: the machine's speed right now."""
    start = time.perf_counter()
    counts: dict = {}
    for word in REFERENCE_WORDS:
        key = word[2:9]
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: item[1])
    " ".join(key for key, _ in ranked[:2000])
    [word.upper() for word in REFERENCE_WORDS[:8000]]
    return time.perf_counter() - start


def run_pass(files: dict, tracer) -> tuple[dict, dict, dict]:
    """Raw seconds, reference-scaled seconds and exit code of each command."""
    for name in STAGE_OUTPUT.values():
        files[name].unlink(missing_ok=True)
    raw, scaled, codes = {}, {}, {}
    before = reference_seconds()
    for stage in STAGES:
        raw[stage], codes[stage], output = run_stage(stage, files, tracer)
        after = reference_seconds()
        scaled[stage] = raw[stage] * REFERENCE_SECONDS / ((before + after) / 2)
        before = after
        if codes[stage] != 0:
            print(f"stage {stage} exited {codes[stage]}: {output.strip()[-500:]}")
    return raw, scaled, codes


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def measure_setup() -> float:
    """Reference-scaled seconds to import compsum and build its parser in a
    fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"importing compsum failed: {proc.stderr.strip()[-500:]}")
    elapsed, reference = map(float, proc.stdout.split()[-2:])
    return elapsed * REFERENCE_SECONDS / reference


# --- output checks, outside the timed windows --------------------------------

MALFORMED = (KeyError, IndexError, TypeError, ValueError)  # an output record that is not well formed


def _check_oracle_record(record: dict, doc, facts: dict, approx_oracle_score) -> bool:
    ok = bool(record["oracles"]) and len(record["labels"]) == len(doc.sentences)
    for entry in record["oracles"]:
        tokens = [tok for i in sorted(entry["indices"]) for tok in doc.sentences[i].token_texts]
        ok &= approx_oracle_score(tokens, doc.reference_tokens) == entry["score"]
    facts["best_scores"].append(max(entry["score"] for entry in record["oracles"]))
    for sentence in record["labels"]:
        for lab in sentence:
            ok &= lab["label"] == ("DEL" if lab["r_after"] > lab["r_before"] else "KEEP")
            facts["options_by_rule"][lab["rule"]] = facts["options_by_rule"].get(lab["rule"], 0) + 1
    return ok


def _check_summary_record(record: dict, doc, Span, surviving_tokens) -> bool:
    spans_by_sentence: dict = {}
    for d in record["deletions"]:
        spans_by_sentence.setdefault(d["sentence"], []).append(Span(d["start"], d["end"]))
    want = [surviving_tokens(doc.sentences[i], spans_by_sentence.get(i, []))
            for i in sorted(record["selected"])]
    return want == record["text"]


def _failed_records(path: Path, docs: dict, check) -> int:
    """Documents whose record in a JSONL output is missing, malformed or fails `check`."""
    passed = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
            doc = docs[record["doc_id"]]
            if check(record, doc):
                passed.add(doc.id)
        except MALFORMED:
            continue
    return len(docs) - len(passed)


def check_outputs(files: dict, codes: dict, n_docs: int) -> tuple[dict, dict]:
    """Failed documents per stage, plus facts read from the outputs."""
    fresh_cli()
    from compsum.corpus import load_corpus
    from compsum.rouge import approx_oracle_score
    from compsum.treebank import Span, surviving_tokens

    docs = {doc.id: doc for doc in load_corpus(files["corpus"])}
    failed = {stage: (0 if codes[stage] == 0 else n_docs) for stage in STAGES}
    facts: dict = {"options_by_rule": {}, "best_scores": [], "docs_skipped": n_docs - len(docs)}

    if codes["oracle_build"] == 0:
        failed["oracle_build"] = _failed_records(
            files["oracles"], docs,
            lambda record, doc: _check_oracle_record(record, doc, facts, approx_oracle_score))
    if codes["summarize"] == 0:
        failed["summarize"] = _failed_records(
            files["summaries"], docs,
            lambda record, doc: _check_summary_record(record, doc, Span, surviving_tokens))
    if codes["evaluate"] == 0:
        try:
            report = json.loads(files["evaluation"].read_text(encoding="utf-8"))
            in_range = {row["doc_id"] for row in report["documents"]
                        if all(0.0 <= v <= 1.0 for key in ("rouge1", "rouge2", "rougeL")
                               for v in row[key].values())}
            means = [report["mean"][key]["f1"] for key in ("rouge1", "rouge2", "rougeL")]
            failed["evaluate"] = len(docs.keys() - in_range)
            if not all(0.0 <= v <= 1.0 for v in means):
                failed["evaluate"] = n_docs
            facts["rouge_mean_f1"] = sum(means) / 3.0
        except MALFORMED:
            failed["evaluate"] = n_docs
    if codes["sweep"] == 0:
        try:
            rows = files["sweep"].read_text(encoding="utf-8").splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")[1:]]
            if len(rows) != TAU_POINTS or not all(0.0 <= v <= 1.0 for v in values):
                failed["sweep"] = n_docs
        except MALFORMED:
            failed["sweep"] = n_docs
    return failed, facts


# --- metrics ----------------------------------------------------------------

def pass_rates(seconds: dict, n_docs: int) -> dict:
    return {
        "oracle_docs_per_s": n_docs / seconds["oracle_build"],
        "train_doc_epochs_per_s": n_docs * EPOCHS / seconds["train"],
        # summarize and evaluate each decode every document
        "decode_docs_per_s": 2 * n_docs / (seconds["summarize"] + seconds["evaluate"]),
        "sweep_doc_taus_per_s": n_docs * TAU_POINTS / seconds["sweep"],
        "chain_docs_per_s": n_docs / sum(seconds.values()),
    }


def layer_metrics(tracer: spans.Tracer, n_docs: int) -> tuple[dict, dict]:
    """Times and counts of one traced pass."""
    self_s: dict = {}
    for (_stage, name), ns in tracer.self_ns.items():
        self_s[name] = self_s.get(name, 0.0) + ns / 1e9
    times = {f"cli.{stage}_s": tracer.stage_ns[stage] / 1e9 for stage in STAGES}
    for metric, names in LAYER_TIMES.items():
        times[metric] = sum(self_s.get(name, 0.0) for name in names)
    calls, counts = tracer.calls, tracer.counts
    exact = {metric: calls[name] for metric, name in LAYER_CALLS.items()}
    exact.update({
        "corpus.docs_skipped": calls["corpus.load"] * n_docs - counts["corpus.docs_loaded"],
        "rules.options_per_sentence": counts["rules.options"] / max(calls["rules.extract"], 1),
        "stemming.distinct_ratio": len(tracer.stemmed_words) / max(calls["stemming.stem"], 1),
        "oracle.subsets_scored": counts["oracle.subsets_scored"],
        "oracle.options_labeled": counts["oracle.options_labeled"],
        "oracle.del_rate": counts["oracle.del_labels"] / max(counts["oracle.options_labeled"], 1),
        "model.steps_compiled": counts["model.steps_compiled"],
    })
    return times, exact


def accounting(tracer: spans.Tracer) -> dict:
    """Per stage: its duration and the self time of each layer inside it."""
    table = {}
    for stage in STAGES:
        layers: dict = {}
        for (span_stage, name), ns in tracer.self_ns.items():
            if span_stage == stage:
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0) + ns
        table[stage] = {"stage_ns": tracer.stage_ns[stage], "layers_ns": layers}
    return table


def traced_metrics(tracers: list, chain_traced: list, chain_plain: list, n_docs: int,
                   problems: list) -> dict:
    """Per-layer metrics: mean times and the counts, which must repeat exactly."""
    per_pass = [layer_metrics(tracer, n_docs) for tracer in tracers]
    counts = per_pass[0][1]
    if any(exact != counts for _, exact in per_pass[1:]):
        problems.append("traced counts differ between passes")
    if counts["corpus.docs_skipped"] != 0:
        problems.append(f"corpus loads skipped {counts['corpus.docs_skipped']} documents")
    metrics = {name: statistics.fmean(times[name] for times, _ in per_pass)
               for name in per_pass[0][0]}
    metrics.update(counts)
    doc_ms = [ms for tracer in tracers for ms in tracer.doc_ms]
    metrics["oracle.doc_ms_p50"] = statistics.median(doc_ms)
    metrics["oracle.doc_ms_p90"] = statistics.quantiles(doc_ms, n=10, method="inclusive")[8]
    metrics["trace.overhead_frac"] = (statistics.median(chain_traced)
                                      / statistics.median(chain_plain) - 1.0)
    print("counts " + json.dumps(counts, sort_keys=True))
    for stage, row in accounting(tracers[0]).items():
        if sum(row["layers_ns"].values()) != row["stage_ns"]:
            problems.append(f"self times of {stage} do not add up to its duration")
        shares = ", ".join(f"{layer} {100.0 * ns / row['stage_ns']:.1f}%" for layer, ns in
                           sorted(row["layers_ns"].items(), key=lambda item: -item[1]))
        print(f"accounting {stage} {row['stage_ns'] / 1e9:.4f} s = {shares}")
    return metrics


def write_spans(tracers: list, path: Path) -> None:
    """One JSON array per span: traced pass, id, name, start, end, parent, document."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for index, tracer in enumerate(tracers):
            for span in tracer.spans:
                handle.write(json.dumps([index, *span]) + "\n")


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


# --- one run ---------------------------------------------------------------

CORPUS_FILES = (("corpus", ".jsonl"), ("oracles", ".jsonl"), ("model", ".json"),
                ("summaries", ".jsonl"), ("evaluation", ".json"), ("sweep", ".csv"))


def corpus_files(work: Path, label: str) -> dict:
    return {name: work / f"{label}-{name}{suffix}" for name, suffix in CORPUS_FILES}


def output_hashes(files: dict) -> dict:
    return {name: sha256(files[name]) for name, _ in CORPUS_FILES}


def quality_child(work: str) -> None:
    """Run the chain once over the quality corpus and print, as one JSON line,
    the exit codes, the library's warnings and the memory it took: the growth
    of this process's peak RSS over its size just after importing compsum, plus
    the peak RSS of the largest child process compsum waited for."""
    warnings = _WarningLog()
    logging.getLogger().addHandler(warnings)
    logging.getLogger().setLevel(logging.WARNING)
    fresh_cli()
    reference_seconds()   # so that the peak of the timing reference is in the baseline
    baseline_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _, _, codes = run_pass(corpus_files(Path(work), "quality"), None)
    grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline_kib
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"codes": codes, "warnings": warnings.messages,
                      "peak_rss_mb": (grown_kib + child_kib) / 1024.0}))


def quality_pass(work: Path) -> tuple[dict, list, float]:
    """Exit codes, warnings and memory figure of the quality pass (see
    `quality_child`); a child that dies fails every command."""
    proc = subprocess.run([sys.executable, "-c", QUALITY_CODE, str(HERE), str(SRC), str(work)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        found = json.loads(lines[-1])
        return found["codes"], found["warnings"], found["peak_rss_mb"]
    except (IndexError, ValueError, KeyError):
        print(f"quality pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return {stage: 1 for stage in STAGES}, [], 0.0


def run(args, work: Path) -> dict:
    records = workload.generate(args.workload, args.seed)
    timed_docs = workload.SHAPES[args.workload].timed_docs
    sets = {"quality": records, "timed": records[:timed_docs]}
    files = {}
    for label, docs in sets.items():
        files[label] = corpus_files(work, label)
        workload.write_corpus(files[label]["corpus"], docs)

    warnings = _WarningLog()
    logging.getLogger().addHandler(warnings)
    logging.getLogger().setLevel(logging.WARNING)
    problems: list[str] = []
    start = time.perf_counter()

    # The quality pass runs the chain once over the whole corpus: enough
    # documents for steady quality and memory figures, checked in full, and a
    # warm-up for the timed passes. It is not part of any throughput figure.
    codes, quality_warnings, rss_mb = quality_pass(work)
    warnings.messages.extend(quality_warnings)
    failed, facts = check_outputs(files["quality"], codes, len(records))
    attempted = len(records) * len(STAGES)
    hashes = {"quality": output_hashes(files["quality"])}

    # Timed passes repeat the chain over the first documents; the first is
    # checked in full, later ones must reproduce its outputs byte for byte.
    setup, chain_plain, chain_traced, rates, tracers, pass_log = [], [], [], [], [], []
    timed_facts = None
    passes, last_pass_s = 0, 0.0
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    # a pass starts only if one as long as the last still ends within --seconds
    while passes < min_passes or time.perf_counter() - start + last_pass_s < args.seconds:
        pass_start = time.perf_counter()
        for _ in range(2):   # setup samples spread over the run, not taken in one burst
            if len(setup) < SETUP_SAMPLES:
                setup.append(measure_setup())
        tracer = spans.Tracer() if args.trace and passes % 2 == 1 else None
        raw, seconds, codes = run_pass(files["timed"], tracer)
        pass_log.append({"raw": [raw[stage] for stage in STAGES],
                         "scaled": [seconds[stage] for stage in STAGES]})
        attempted += timed_docs * len(STAGES)
        if timed_facts is None:
            pass_failed, timed_facts = check_outputs(files["timed"], codes, timed_docs)
            hashes["timed"] = output_hashes(files["timed"])
        else:
            now = output_hashes(files["timed"])
            pass_failed = {stage: timed_docs if codes[stage] != 0 or now[STAGE_OUTPUT[stage]]
                           != hashes["timed"][STAGE_OUTPUT[stage]] else 0 for stage in STAGES}
        for stage in STAGES:
            failed[stage] += pass_failed[stage]
        if tracer is not None:
            tracers.append(tracer)
            chain_traced.append(sum(seconds.values()))
        else:
            rates.append(pass_rates(seconds, timed_docs))
            chain_plain.append(sum(seconds.values()))
        passes += 1
        last_pass_s = time.perf_counter() - pass_start
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())
    logging.getLogger().removeHandler(warnings)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"timed_passes {passes} quality_documents {len(records)} timed_documents {timed_docs}")
    print("machine " + json.dumps(machine_facts()))
    print("shape " + json.dumps({
        "quality": workload.corpus_shape(records, facts["options_by_rule"]),
        "timed": workload.corpus_shape(sets["timed"], timed_facts["options_by_rule"])}))
    print("hashes " + json.dumps(hashes))
    print("failed_by_stage " + json.dumps(failed))
    print("pass_seconds " + json.dumps({"stages": STAGES, "passes": pass_log}))
    for message in warnings.messages[:5]:
        print(f"warning {message}")
    if warnings.messages:
        problems.append(f"compsum logged {len(warnings.messages)} warnings")
    for label, found in (("quality", facts), ("timed", timed_facts)):
        if found["docs_skipped"]:
            problems.append(f"loading the {label} corpus skipped {found['docs_skipped']} documents")

    if args.trace:
        metrics = traced_metrics(tracers, chain_traced, chain_plain, timed_docs, problems)
        write_spans(tracers, WORK_ROOT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        units = metric_units("per_layer")
    else:
        metrics = {name: statistics.median(rate[name] for rate in rates)
                   for name in rates[0]}
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = rss_mb
        metrics["oracle_mean_score"] = statistics.fmean(facts["best_scores"] or [0.0])
        metrics["rouge_mean_f1"] = facts.get("rouge_mean_f1", 0.0)
        units = metric_units("end_to_end")
    if metrics.keys() != units.keys():
        raise RuntimeError("metrics measured and metrics in BENCHMARK.json differ: "
                           f"{sorted(metrics.keys() ^ units.keys())}")

    total_failed = sum(failed.values())
    print(f"metric docs_failed_frac = {total_failed / attempted!r} ratio "
          f"({total_failed} of {attempted} document-stages)")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    for problem in problems:
        print(f"problem {problem}")
    return {
        "correct": total_failed == 0 and not problems,
        "attempted": attempted,
        "failed": total_failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "compsum" / "cli.py").is_file():
        print(f"error: no compsum sources under {SRC}; run from a compsum checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
