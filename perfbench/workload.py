"""Seeded corpus generator for the compsum benchmark.

It writes JSONL corpora in the format `compsum` reads, with parses built from
a small phrase grammar that produces every one of the eight compression-rule
patterns. It imports nothing from `compsum` or the test suite, so a change to
either cannot shift the benchmark's inputs; only the seed and the workload
shape below decide them.

Two random streams build a corpus. The structure stream (tree shapes,
lengths, which patterns go where, which lead sentences and token positions the
references keep) is seeded by the workload name alone, so every seed gives the
same shapes, token counts and option counts, and the work per corpus does not
depend on the luck of the draw. The word stream, seeded by `--seed`, picks
every word. Both use `random.Random.random()` alone, whose sequence is fixed
across Python versions, so a seed names the same corpus everywhere.
"""

import bisect
import json
import random
from dataclasses import dataclass

# Word classes get their own Zipf-ranked pseudo-word lists. The vocabulary is
# fixed (built from VOCAB_SEED, not the run seed) so every seed draws from the
# same types and stemmer workload.
VOCAB_SEED = 20190201
ZIPF_EXPONENT = 1.07
VOCAB_SIZES = {"noun": 1800, "verb": 450, "adj": 500, "adv": 250, "proper": 400}

ONSETS = ["b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "l",
          "m", "n", "p", "pl", "qu", "r", "s", "sh", "st", "t", "tr", "v", "w", "z"]
NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
CODAS = ["", "", "n", "r", "l", "s", "t", "m", "nd", "rk"]
SUFFIXES = {
    "noun": ["", "", "s", "ation", "ment", "ness", "er", "ity", "ism"],
    "adj": ["ful", "ive", "al", "ous", "able", "ic", "less"],
    "adv": ["ly"],
}

DETERMINERS = ["the", "a", "this", "its", "their"]
RELATIVIZERS = ["which", "that", "who"]
SUBORDINATORS = ["because", "although", "while", "after", "before", "since", "if"]
ADJUNCT_PREPS = ["on", "in", "at", "during", "after", "over", "near", "within"]
DEGREE_ADVERBS = ["very", "quite", "rather", "too"]


@dataclass(frozen=True)
class Shape:
    """Document shape of one workload; every range is inclusive."""

    docs: int             # the whole corpus, run once for the quality figures
    timed_docs: int       # its leading documents, run in every timed pass
    sentences: tuple[int, int]
    tokens: tuple[int, int]
    reference_sentences: int
    lead: int             # reference sentences are drawn from this many leading sentences
    drop_rate: float      # share of reference tokens dropped
    novel_per_sentence: int


SHAPES = {
    "news-oracle": Shape(docs=24, timed_docs=4, sentences=(30, 40), tokens=(20, 30),
                         reference_sentences=3, lead=3, drop_rate=0.25,
                         novel_per_sentence=3),
    "short-chain": Shape(docs=100, timed_docs=20, sentences=(5, 8), tokens=(14, 24),
                         reference_sentences=1, lead=3, drop_rate=0.2,
                         novel_per_sentence=2),
}


class _Vocab:
    def __init__(self):
        rng = random.Random(VOCAB_SEED)
        seen: set[str] = set()
        self.words: dict[str, list[str]] = {}
        self.cumulative: dict[str, list[float]] = {}
        for cls, size in VOCAB_SIZES.items():
            words: list[str] = []
            while len(words) < size:
                word = _pseudo_word(rng, cls)
                if word not in seen:
                    seen.add(word)
                    words.append(word)
            self.words[cls] = words
            total = 0.0
            cumulative = []
            for rank in range(1, size + 1):
                total += rank ** -ZIPF_EXPONENT
                cumulative.append(total)
            self.cumulative[cls] = cumulative

    def draw(self, rng: random.Random, cls: str) -> str:
        cumulative = self.cumulative[cls]
        index = bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
        return self.words[cls][min(index, len(cumulative) - 1)]


def _pick(rng: random.Random, items):
    return items[int(rng.random() * len(items))]


def _between(rng: random.Random, low: int, high: int) -> int:
    return low + int(rng.random() * (high - low + 1))


def _pseudo_word(rng: random.Random, cls: str) -> str:
    syllables = 2 + int(rng.random() * 2)
    stem = "".join(_pick(rng, ONSETS) + _pick(rng, NUCLEI) for _ in range(syllables))
    stem += _pick(rng, CODAS)
    if cls == "verb":
        return stem
    if cls == "proper":
        return stem.capitalize()
    if cls == "adv":
        return stem + _pick(rng, SUFFIXES["adj"]) + "ly"
    return stem + _pick(rng, SUFFIXES[cls])


def _inflect(verb: str, suffix: str) -> str:
    return (verb[:-1] if verb.endswith("e") else verb) + suffix


# A node is (label, [children]) and a leaf is (tag, word); serialization
# yields the bracketed parse and the token list together.

def _leaf(tag: str, word: str):
    return (tag, word)


def _node(label: str, *children):
    return (label, list(children))


def _serialize(tree, tokens: list[str]) -> str:
    label, body = tree
    if isinstance(body, str):
        tokens.append(body)
        return f"({label} {body})"
    return "(" + label + " " + " ".join(_serialize(child, tokens) for child in body) + ")"


def _count(tree) -> int:
    body = tree[1]
    return 1 if isinstance(body, str) else sum(_count(child) for child in body)



def _capitalize_first(tree):
    label, body = tree
    if isinstance(body, str):
        return (label, body[:1].upper() + body[1:])
    return (label, [_capitalize_first(body[0])] + body[1:])


class _NounPhrase:
    """A determiner, optional ADJP, adjectives and nouns, then postmodifiers."""

    def __init__(self):
        self.nouns = 1
        self.adjectives = 0
        self.adjp = None
        self.post: list[list] = []

    def tree(self, rng: random.Random, vocab: _Vocab):
        kids = [_leaf("DT", _pick(rng, DETERMINERS))]
        if self.adjp is not None:
            kids.append(self.adjp)
        kids.extend(_leaf("JJ", vocab.draw(rng, "adj")) for _ in range(self.adjectives))
        kids.extend(_leaf("NN", vocab.draw(rng, "noun")) for _ in range(self.nouns))
        base = _node("NP", *kids)
        if not self.post:
            return base
        return _node("NP", base, *(node for tail in self.post for node in tail))


class _ClauseMaker:
    """Grows one clause to an exact token count with rule-bearing phrases.

    The core clause is "DT NN VBD DT NN ." (6 tokens). Each expansion adds one
    compression-rule pattern; one-token pads (an adjective or a compound noun)
    fill whatever no expansion fits.
    """

    EXPANSIONS = ("appositive", "relative", "adverbial", "adjp", "advp",
                  "gerundive", "pp", "parenthetical")

    def __init__(self, plan: random.Random, rng: random.Random, vocab: _Vocab):
        self.plan = plan      # structure
        self.rng = rng        # words
        self.vocab = vocab

    def _np(self, adjective: bool = False):
        rng, vocab = self.rng, self.vocab
        kids = [_leaf("DT", _pick(rng, DETERMINERS))]
        if adjective:
            kids.append(_leaf("JJ", vocab.draw(rng, "adj")))
        kids.append(_leaf("NN", vocab.draw(rng, "noun")))
        return _node("NP", *kids)

    def _verb(self, tag: str = "VBD"):
        suffix = "ing" if tag == "VBG" else "ed"
        return _leaf(tag, _inflect(self.vocab.draw(self.rng, "verb"), suffix))

    def _expansion(self, name: str, subject: _NounPhrase, obj: _NounPhrase, clause: dict):
        """Attach one pattern; returns its token cost, or None if it cannot attach."""
        plan, rng, vocab = self.plan, self.rng, self.vocab
        host = _pick(plan, [subject, obj])
        if name == "appositive":
            tail = [_leaf(",", ","), self._np(adjective=True), _leaf(",", ",")]
            host.post.append(tail)
        elif name == "relative":
            tail = [_node("SBAR", _node("WHNP", _leaf("WDT", _pick(rng, RELATIVIZERS))),
                          _node("S", _node("VP", self._verb(), self._np())))]
            host.post.append(tail)
        elif name == "gerundive":
            tail = [_node("VP", self._verb("VBG"), self._np())]
            host.post.append(tail)
        elif name == "adjp":
            if host.adjp is not None:
                return None
            host.adjp = _node("ADJP", _leaf("RB", _pick(rng, DEGREE_ADVERBS)),
                              _leaf("JJ", vocab.draw(rng, "adj")))
            return 2
        elif name == "adverbial":
            tail = [_node("SBAR", _leaf("IN", _pick(rng, SUBORDINATORS)),
                          _node("S", self._np(),
                                _node("VP", self._verb(),
                                      _node("NP", _leaf("NN", vocab.draw(rng, "noun"))))))]
            clause["vp_post"].extend(tail)
        elif name == "pp":
            tail = [_node("PP", _leaf("IN", _pick(rng, ADJUNCT_PREPS)), self._np())]
            clause["vp_post"].extend(tail)
        elif name == "parenthetical":
            tail = [_node("PRN", _leaf("-LRB-", "-LRB-"),
                          _node("NP", _leaf("NNP", vocab.draw(rng, "proper")),
                                _leaf("NNP", vocab.draw(rng, "proper"))),
                          _leaf("-RRB-", "-RRB-"))]
            if plan.random() < 0.5:
                host.post.append(tail)
            else:
                clause["vp_post"].extend(tail)
        else:  # advp: a fronted adverb with its comma, or a bare RB before the verb
            if not clause["front"] and plan.random() < 0.5:
                tail = [_node("ADVP", _leaf("RB", vocab.draw(rng, "adv"))), _leaf(",", ",")]
                clause["front"] = tail
            elif not clause["pre_verb"]:
                tail = [_leaf("RB", vocab.draw(rng, "adv"))]
                clause["pre_verb"] = tail
            else:
                return None
        return sum(_count(node) for node in tail)

    def build(self, length: int, forced: str | None):
        """A sentence tree of exactly `length` tokens, with `forced` among its patterns."""
        plan, rng = self.plan, self.rng
        subject, obj = _NounPhrase(), _NounPhrase()
        clause = {"front": [], "pre_verb": [], "vp_post": []}
        remaining = length - 6
        pending = [forced] if forced else []
        while remaining > 0:
            name = pending.pop() if pending else _pick(plan, self.EXPANSIONS)
            if plan.random() >= 0.15 and remaining >= 5:
                # costs are at most 5 tokens, so any expansion fits here
                cost = self._expansion(name, subject, obj, clause)
                if cost is not None:
                    remaining -= cost
                    continue
            pad = _pick(plan, [subject, obj])
            if plan.random() < 0.5:
                pad.nouns += 1
            else:
                pad.adjectives += 1
            remaining -= 1
        vp = _node("VP", *clause["pre_verb"], self._verb(), obj.tree(rng, self.vocab),
                   *clause["vp_post"])
        tree = _node("S", *clause["front"], subject.tree(rng, self.vocab), vp,
                     _leaf(".", "."))
        return _capitalize_first(tree)


def _reference_sentence(plan: random.Random, rng: random.Random, vocab: _Vocab,
                        tokens: list[str], shape: Shape) -> list[str]:
    kept = [tok for tok in tokens if plan.random() >= shape.drop_rate]
    if not kept:
        kept = tokens[:1]
    for _ in range(shape.novel_per_sentence):
        word = vocab.draw(rng, _pick(plan, ["noun", "verb", "adj"]))
        kept.insert(int(plan.random() * (len(kept) + 1)), word)
    return kept


def _stratified(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """`count` values spread evenly over [low, high], in shuffled order."""
    width = high - low + 1
    values = [low + min(int((i + 0.5) * width / count), width - 1) for i in range(count)]
    for i in range(count - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        values[i], values[j] = values[j], values[i]
    return values


def generate(workload: str, seed: int):
    """Records of the workload's corpus for `seed`, as `compsum` reads them."""
    shape = SHAPES[workload]
    vocab = _Vocab()
    plan = random.Random(f"{workload}:structure")
    rng = random.Random(f"{workload}:{seed}")
    maker = _ClauseMaker(plan, rng, vocab)
    patterns = _ClauseMaker.EXPANSIONS
    records = []
    # the timed prefix and the rest each spread evenly over the length range
    lengths = (_stratified(plan, *shape.sentences, shape.timed_docs)
               + _stratified(plan, *shape.sentences, shape.docs - shape.timed_docs))
    for doc_index, n_sents in enumerate(lengths):
        sentences = []
        for i in range(n_sents):
            length = _between(plan, *shape.tokens)
            # the first sentences of a document carry the patterns in turn, so
            # every document with eight or more sentences has all of them
            forced = patterns[(doc_index + i) % len(patterns)]
            tokens: list[str] = []
            parse = _serialize(maker.build(length, forced), tokens)
            sentences.append({"tokens": tokens, "parse": parse})
        lead = min(shape.lead, n_sents)
        picks = sorted(_sample(plan, lead, shape.reference_sentences))
        reference = [_reference_sentence(plan, rng, vocab, sentences[i]["tokens"], shape)
                     for i in picks]
        records.append({"id": f"{workload}-{seed}-{doc_index:04d}",
                        "sentences": sentences, "reference": reference})
    return records


def _sample(rng: random.Random, population: int, count: int) -> list[int]:
    pool = list(range(population))
    for i in range(min(count, population)):
        j = i + int(rng.random() * (population - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


def write_corpus(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def corpus_shape(records, options_by_rule: dict[str, int]) -> dict:
    """Input properties a speed claim can name: sizes, options by rule, types."""
    sent_counts = [len(r["sentences"]) for r in records]
    tok_counts = [len(s["tokens"]) for r in records for s in r["sentences"]]
    types = {tok for r in records for s in r["sentences"] for tok in s["tokens"]}
    n_sents = sum(sent_counts)
    return {
        "documents": len(records),
        "sentences_per_doc": {"min": min(sent_counts), "mean": n_sents / len(records),
                              "max": max(sent_counts)},
        "tokens_per_sentence": {"min": min(tok_counts),
                                "mean": sum(tok_counts) / len(tok_counts),
                                "max": max(tok_counts)},
        "options_per_sentence_by_rule": {rule: count / n_sents
                                         for rule, count in sorted(options_by_rule.items())},
        "vocabulary_types": len(types),
        "reference_sentences_per_doc": sum(len(r["reference"]) for r in records) / len(records),
    }
