"""Deterministic corpora for tests: a learnable synthetic corpus, random
flat documents for oracle equivalence checks, and a small handcrafted
fixture corpus exercising every rule."""

import numpy as np

from compsum import Document, parse_ptb

TOPICS = [
    "senate", "budget", "harbor", "glacier", "festival", "reactor", "orchard",
    "museum", "tribunal", "pipeline", "quarry", "summit", "vaccine",
    "cathedral", "archive", "canal", "observatory", "foundry", "terrace",
    "monsoon",
]
VERBS = [
    "approved", "rejected", "inspected", "praised", "expanded", "toured",
    "funded", "criticized", "surveyed", "restored",
]
JUNK_ADJS = [
    "gleaming", "rusty", "obscure", "faded", "crooked", "spotless", "dusty",
    "jagged", "mellow", "brisk", "soggy", "prickly",
]


def flat_tree(tokens):
    """A one-level tree; handy when only token content matters."""
    return parse_ptb("(S " + " ".join(f"(NN {t})" for t in tokens) + ")")


def deep_chain(depth):
    """Bracketed source of a unary chain `depth` brackets deep around one word."""
    return "(X " * (depth - 1) + "(NN w)" + ")" * (depth - 1)


def random_flat_doc(rng: np.random.Generator, doc_id: str, n_sents: int) -> Document:
    """Random flat-parse document over a small shared vocabulary."""
    vocab = [f"w{j}" for j in range(14)]
    sents = tuple(
        flat_tree(rng.choice(vocab, size=int(rng.integers(4, 9))))
        for _ in range(n_sents))
    reference = tuple(str(t) for t in rng.choice(vocab, size=int(rng.integers(8, 15))))
    return Document(id=doc_id, sentences=sents, reference=(reference,))


def make_learnable_doc(rng: np.random.Generator, doc_id: str) -> tuple[Document, int]:
    """One salient sentence copied verbatim into the reference.

    The salient sentence is the longest and covers the most document
    vocabulary. Topic-word options recur across sentences (oracle KEEP);
    junk modifiers are unique to their sentence (oracle DEL).
    """
    topics = [str(t) for t in rng.choice(TOPICS, size=6, replace=False)]
    n = int(rng.integers(5, 8))
    salient = int(rng.integers(0, n))
    sents = []
    slot = 0
    for i in range(n):
        if i == salient:
            source = (
                f"(S (NP (DT the) (JJ {topics[1]}) (NN {topics[0]})) "
                f"(VP (VBD {rng.choice(VERBS)}) "
                f"(NP (DT the) (NN {topics[2]}) (NN {topics[3]})) "
                f"(PP (IN near) (NP (NN {topics[4]}) (NN {topics[5]})))) (. .))")
        else:
            t1 = topics[1 + (slot % 5)]
            t2 = topics[1 + ((slot + 2) % 5)]
            slot += 1
            j1, j2 = (str(j) for j in rng.choice(JUNK_ADJS, size=2, replace=False))
            source = (
                f"(S (NP (DT the) (JJ {t1}) (NN f{doc_id}x{i})) "
                f"(VP (VBD {rng.choice(VERBS)}) "
                f"(NP (DT the) (JJ {j1}) (NN {t2})) "
                f"(PP (IN near) (NP (DT the) (JJ {j2}) (NN g{doc_id}x{i})))) (. .))")
        sents.append(parse_ptb(source))
    reference = (sents[salient].token_texts,)
    return Document(id=doc_id, sentences=tuple(sents), reference=reference), salient


def learnable_corpus(count: int = 200, seed: int = 7) -> tuple[list[Document], list[int]]:
    rng = np.random.default_rng(seed)
    docs, salients = [], []
    for i in range(count):
        doc, salient = make_learnable_doc(rng, f"doc{i:04d}")
        docs.append(doc)
        salients.append(salient)
    return docs, salients


# Handcrafted documents covering every rule, with references picked so the
# oracle labeling produces a mix of KEEP and DEL.
_FIXTURE_SOURCES = [
    (
        "fix-appositive",
        [
            "(S (NP (NP (NNP John)) (, ,) (NP (DT a) (NN doctor)) (, ,)) (VP (VBD spoke) (PP (IN at) (NP (DT the) (NN summit)))) (. .))",
            "(S (NP (DT The) (NN summit)) (VP (VBD continued)) (. .))",
        ],
        [["John", "spoke", "at", "the", "summit", "."]],
    ),
    (
        "fix-relative",
        [
            "(S (NP (NP (DT The) (NN car)) (SBAR (WHNP (WDT that)) (S (VP (VBD broke))))) (VP (VBD stopped) (ADVP (RB abruptly))) (. .))",
            "(S (NP (DT The) (NN driver)) (VP (VBD waited)) (. .))",
        ],
        [["The", "car", "stopped", "."]],
    ),
    (
        "fix-adverbial",
        [
            "(S (SBAR (IN Because) (S (NP (PRP it)) (VP (VBD rained)))) (, ,) (NP (DT the) (NN festival)) (VP (VBD moved) (PP (IN in) (NP (NNP March)))) (. .))",
            "(S (NP (DT The) (NN crowd)) (VP (VBD cheered)) (. .))",
        ],
        [["the", "festival", "moved", "because", "it", "rained", "."]],
    ),
    (
        "fix-adjectives",
        [
            "(S (NP (DT The) (JJ old) (NN museum)) (VP (VBD displayed) (NP (DT a) (JJ rare) (NN painting))) (. .))",
            "(S (NP (DT The) (NN painting)) (VP (VBD vanished)) (. .))",
        ],
        [["The", "museum", "displayed", "a", "rare", "painting", "."]],
    ),
    (
        "fix-gerundive",
        [
            "(S (NP (NP (DT The) (NN ship)) (, ,) (VP (VBG carrying) (NP (NN grain))) (, ,)) (VP (VBD docked) (PP (IN at) (NP (NN dawn)))) (. .))",
            "(S (NP (DT The) (NN harbor)) (VP (VBD opened)) (. .))",
        ],
        [["The", "ship", "docked", "."]],
    ),
    (
        "fix-parenthetical",
        [
            "(S (NP (NP (DT The) (NN deal)) (PRN (-LRB- -LRB-) (ADJP (JJ worth) (NP (NNS millions))) (-RRB- -RRB-))) (VP (VBD closed) (ADVP (RB yesterday))) (. .))",
            "(S (NP (DT The) (NN bank)) (VP (VBD approved) (NP (DT the) (NN deal))) (. .))",
        ],
        [["The", "deal", "closed", "yesterday", "."]],
    ),
    (
        "fix-pp",
        [
            "(S (NP (DT The) (NN senate)) (VP (VBD approved) (NP (DT the) (NN budget)) (PP (IN on) (NP (NNP Monday)))) (. .))",
            "(S (NP (DT The) (NN budget)) (VP (VBD grew) (PP (IN over) (NP (DT the) (NN decade)))) (. .))",
        ],
        [["The", "senate", "approved", "the", "budget", "."]],
    ),
    (
        "fix-advp",
        [
            "(S (ADVP (RB However)) (, ,) (NP (DT the) (NN glacier)) (VP (ADVP (RB slowly)) (VBD retreated)) (. .))",
            "(S (NP (DT The) (NN glacier)) (VP (VBD retreated) (ADVP (RB north))) (. .))",
        ],
        [["the", "glacier", "slowly", "retreated", "."]],
    ),
]


def fixture_corpus() -> list[Document]:
    docs = []
    for doc_id, sources, reference in _FIXTURE_SOURCES:
        docs.append(Document(
            id=doc_id,
            sentences=tuple(parse_ptb(src) for src in sources),
            reference=tuple(tuple(sent) for sent in reference)))
    return docs
