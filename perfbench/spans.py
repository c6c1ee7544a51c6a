"""Span tracing of compsum's layers, installed from outside the library.

`install(tracer)` replaces the public functions listed in `WRAPPED`, one or
more per `compsum` module, with wrappers that record a span per call: name,
start, end, parent span and document id. A name bound into another module by `from ... import` is
replaced there as well (for example `compsum.rouge.stem` and
`extract_options` in `compsum.oracle`, `compsum.pipeline` and `compsum.cli`),
because a call through that binding would otherwise go untraced.

A span's self time is its duration minus the durations of its direct child
spans; since calls nest strictly, the self times inside a stage add up to the
stage's duration exactly.
"""

import contextlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans plus self time, call and event counts per (stage, name)."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, name, start_ns, end_ns, parent_id, doc_id)
        self.stack: list[list] = []      # [id, name, start_ns, child_ns, doc_id]
        self.stage = None
        self.self_ns: dict[tuple, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.doc_ms: list[float] = []
        self.stemmed_words: set = set()
        self.next_id = 0
        self.stage_ns: dict[str, int] = {}

    def begin(self, name: str, doc_id=None) -> None:
        if doc_id is None and self.stack:
            doc_id = self.stack[-1][4]
        self.next_id += 1
        self.stack.append([self.next_id, name, time.perf_counter_ns(), 0, doc_id])

    def end(self) -> int:
        end_ns = time.perf_counter_ns()
        span_id, name, start_ns, child_ns, doc_id = self.stack.pop()
        duration = end_ns - start_ns
        parent_id = None
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.self_ns[(self.stage, name)] += duration - child_ns
        self.calls[name] += 1
        self.spans.append((span_id, name, start_ns, end_ns, parent_id, doc_id))
        return duration

    @property
    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    @contextlib.contextmanager
    def stage_span(self, stage: str):
        """The root span of one CLI command."""
        self.stage = stage
        self.begin(f"cli.{stage}")
        try:
            yield
        finally:
            self.stage_ns[stage] = self.end()
            self.stage = None


def _wrap(tracer: Tracer, name: str, fn, after=None, doc_arg=None):
    def traced(*args, **kwargs):
        doc_id = doc_arg(args) if doc_arg else None
        tracer.begin(name, doc_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.end()
        if after:
            after(tracer, args, result, duration)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, counter: str):
    """One span over a generator's whole iteration; counts the items yielded."""
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            for item in fn(*args, **kwargs):
                tracer.counts[counter] += 1
                yield item
        finally:
            tracer.end()

    traced.__wrapped__ = fn
    return traced


# --- per-call counters, taken at the span boundary --------------------------

def _count_options(tracer, args, result, duration):
    tracer.counts["rules.options"] += len(result)


def _record_stem(tracer, args, result, duration):
    tracer.stemmed_words.add(args[0])


def _count_subset(tracer, args, result, duration):
    if tracer.parent_name == "oracle.beam":
        tracer.counts["oracle.subsets_scored"] += 1


def _count_labels(tracer, args, result, duration):
    tracer.counts["oracle.options_labeled"] += len(result)
    tracer.counts["oracle.del_labels"] += sum(lab.label.value == "DEL" for lab in result)


def _record_doc(tracer, args, result, duration):
    tracer.doc_ms.append(duration / 1e6)


def _count_steps(tracer, args, result, duration):
    tracer.counts["model.steps_compiled"] += len(result.steps)


def _doc_id(position):
    return lambda args: args[position].id


# (module, function, span name, after-hook, document-id getter)
WRAPPED = [
    ("treebank", "parse_ptb", "treebank.parse", None, None),
    ("rules", "extract_options", "rules.extract", _count_options, None),
    ("rules", "normalize_options", "rules.normalize", None, None),
    ("stemming", "stem", "stemming.stem", _record_stem, None),
    ("rouge", "preprocess_tokens", "rouge.preprocess", None, None),
    ("rouge", "rouge_n", "rouge.rouge_n", None, None),
    ("rouge", "rouge_l", "rouge.rouge_l", None, None),
    ("rouge", "approx_score_pretokenized", "rouge.approx", _count_subset, None),
    ("oracle", "beam_search_oracle", "oracle.beam", None, None),
    ("oracle", "label_compressions", "oracle.label", _count_labels, None),
    ("oracle", "build_document_oracles", "oracle.build_doc", _record_doc, _doc_id(0)),
    ("oracle", "write_oracle_cache", "oracle.cache_write", None, None),
    ("oracle", "read_oracle_cache", "oracle.cache_read", None, None),
    ("features", "featurize_option", "features.option", None, None),
    ("model", "train", "model.train", None, None),
    ("model", "compile_example", "model.compile", _count_steps, lambda args: args[0].doc.id),
    ("model", "score_remaining", "model.score", None, None),
    ("model", "classify_option", "model.classify", None, None),
    ("model", "save_model", "model.io", None, None),
    ("model", "load_model", "model.io", None, None),
    ("pipeline", "summarize", "pipeline.summarize", None, _doc_id(1)),
    ("pipeline", "dedup_summary", "pipeline.dedup", None, None),
    ("pipeline", "score_summary", "pipeline.score_summary", None, None),
]


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the freshly imported compsum modules; call once per import."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "compsum" or name.startswith("compsum.")]
    for module_name, attr, span, after, doc_arg in WRAPPED:
        module = sys.modules[f"compsum.{module_name}"]
        original = getattr(module, attr)
        _rebind(modules, original, _wrap(tracer, span, original, after, doc_arg))
    corpus = sys.modules["compsum.corpus"]
    _rebind(modules, corpus.load_corpus,
            _wrap_generator(tracer, "corpus.load", corpus.load_corpus, "corpus.docs_loaded"))
    # a class is shared by every module that imports it, so patch it in place
    context_cls = sys.modules["compsum.features"].DocumentContext
    context_cls.__init__ = _wrap(tracer, "features.context", context_cls.__init__,
                                 None, _doc_id(1))
    for module_name, attr, *_ in WRAPPED:
        original = getattr(sys.modules[f"compsum.{module_name}"], attr).__wrapped__
        stale = [mod.__name__ for mod in modules
                 if any(value is original for value in vars(mod).values())]
        if stale:
            raise RuntimeError(f"{module_name}.{attr} still bound unwrapped in {stale}")
