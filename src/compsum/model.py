"""Extraction scorer, compression classifier, joint loss, and training.

The extraction scorer is a pointer-style softmax over unselected sentences:
score_i = w_m . tanh(W_d d + W_h h_i + b_s), where d is the decoder input
(state vector concatenated with document features) and h_i the sentence
features; it points only at a document's first oracle.MAX_SENTS sentences,
in training and decoding alike, as the oracles do. The compression
classifier is a one-hidden-layer tanh MLP with a logistic output. Gradients
are computed by hand and checked against central finite differences;
training is plain adaptive-moment gradient descent (Adam's published
rates) over one document per step, on every oracle of its
oracle.DocumentOracles, as oracle building or the cache reader returns it.
A document's oracles mostly share their leading picks, so each distinct
teacher-forced step is compiled and run once per loss, and its terms are
added as often as the oracles take it, in their order. compile_example packs
a document's distinct steps into one set of arrays, and CompiledExample.steps
holds the distinct steps' keys. The packed forward and backward passes are
functions of their own, apart from the one-step forwards of inference: they
make each step's matrix products and sums on its own rows, and run every
elementwise operation once per document. That gives the bits of running the
steps one by one through the inference forwards, which
tests/reference_model.py does and the tests compare bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, replace
from itertools import accumulate, chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import quote, read_config, same_json
from .features import (
    DECODER_INPUT_DIM,
    OPTION_FEATURE_DIM,
    SENTENCE_FEATURE_DIM,
    STATE_DIM,
    DecoderState,
    DocumentContext,
    advance_state,
    initial_state,
    option_table,
)
from .oracle import CompressionLabel, DocumentOracles, scoreable_sentences

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
DEFAULT_HIDDEN_SIZE = 32
INIT_SCALE = 0.08

PARAM_ORDER = ("w_d", "w_h", "b_s", "w_m", "w1", "b1", "w2", "b2")

FEATURE_DIMS = {
    "sentence": SENTENCE_FEATURE_DIM,
    "decoder_input": DECODER_INPUT_DIM,
    "option": OPTION_FEATURE_DIM,
}
# A constant of the build, so an error shows it in full rather than quoted
_FEATURE_DIMS_JSON = json.dumps(FEATURE_DIMS)


def param_shapes(hidden_size: int) -> dict[str, tuple[int, ...]]:
    return {
        "w_d": (hidden_size, DECODER_INPUT_DIM),
        "w_h": (hidden_size, SENTENCE_FEATURE_DIM),
        "b_s": (hidden_size,),
        "w_m": (hidden_size,),
        "w1": (hidden_size, OPTION_FEATURE_DIM),
        "b1": (hidden_size,),
        "w2": (hidden_size,),
        "b2": (1,),
    }


@dataclass
class Model:
    hidden_size: int
    params: dict[str, np.ndarray]
    train_config: dict | None = None


def init_model(hidden_size: int = DEFAULT_HIDDEN_SIZE, seed: int = 0) -> Model:
    """Uniform [-0.08, 0.08] initialization of every parameter, seeded."""
    if hidden_size < 1:
        raise ValueError(f"hidden_size={hidden_size} must be >= 1")
    if seed < 0:
        raise ValueError(f"seed={seed} must be >= 0")
    rng = np.random.default_rng(seed)
    params = {
        name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
        for name, shape in param_shapes(hidden_size).items()
    }
    return Model(hidden_size=hidden_size, params=params)


class ModelFormatError(ValueError):
    """Model file is corrupt, has wrong shapes, or an unknown version."""


def save_model(model: Model, path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_dims": FEATURE_DIMS,
        "hidden_size": model.hidden_size,
        "weights": {name: model.params[name].tolist() for name in PARAM_ORDER},
        "train_config": model.train_config,
    }
    Path(path).write_text(json.dumps(payload, allow_nan=False), encoding="utf-8")


def load_model(path) -> Model:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also what json.loads cannot decode
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"corrupt model file {path}: not an object")
    try:
        version = payload.get("format_version")
        if not same_json(version, MODEL_FORMAT_VERSION):
            raise ValueError(f"unsupported model format version {quote(version)} "
                             f"(expected {MODEL_FORMAT_VERSION})")
        if not same_json(payload.get("feature_dims"), FEATURE_DIMS):
            raise ValueError(f"model feature dimensions {quote(payload.get('feature_dims'))} "
                             f"do not match this build {_FEATURE_DIMS_JSON}")
        hidden = payload["hidden_size"]
        if type(hidden) is not int or hidden < 1:
            raise ValueError(f"hidden_size {quote(hidden)} is not an integer >= 1")
        shapes = param_shapes(hidden)
        if type(payload["weights"]) is not dict:
            raise ValueError(f"weights: {quote(payload['weights'])} is not an object")
        params = {}
        for name in PARAM_ORDER:
            weights = payload["weights"][name]
            for bad in _non_numbers(weights):
                raise ValueError(
                    f"parameter {name} holds {quote(bad)}, which is not a JSON number")
            arr = np.asarray(weights, dtype=np.float64)
            if arr.shape != shapes[name]:
                raise ValueError(f"parameter {name} has shape {arr.shape}, "
                                 f"expected {shapes[name]}")
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name} holds a non-finite weight")
            params[name] = arr
        config = payload["train_config"]
        if config is not None and read_config(TrainConfig, config,
                                              "train_config").hidden_size != hidden:
            raise ValueError(f"hidden_size {hidden} does not match "
                             f"train_config hidden_size {config['hidden_size']}")
    except KeyError as exc:
        raise ModelFormatError(f"corrupt model file {path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
    return Model(hidden_size=hidden, params=params, train_config=config)


_NUMBER_TYPES = {int, float}


def _non_numbers(value):
    """The items of nested JSON lists that are not numbers (a bool is not
    one), in document order."""
    pending = [value]
    while pending:
        item = pending.pop()
        if type(item) is not list:
            if type(item) not in _NUMBER_TYPES:
                yield item
        elif not set(map(type, item)) <= _NUMBER_TYPES:   # else a list of numbers
            pending.extend(reversed(item))


# ---------------------------------------------------------------------------
# Forward passes


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _extraction_forward(params: dict, decoder_input: np.ndarray, sent_feats: np.ndarray):
    """Tanh activations (r, H) and raw pointer scores (r,) for each row of sent_feats."""
    pre = sent_feats @ params["w_h"].T + (params["w_d"] @ decoder_input + params["b_s"])
    act = np.tanh(pre)
    return act, act @ params["w_m"]


def _compression_forward(params: dict, option_feats: np.ndarray):
    """Tanh hidden layer (c, H) and deletion logits (c,) for each row of option_feats."""
    hidden = np.tanh(option_feats @ params["w1"].T + params["b1"])
    return hidden, hidden @ params["w2"] + params["b2"][0]


def score_remaining(
    model: Model,
    state,
    doc_feats: np.ndarray,
    sent_feats: np.ndarray,
) -> np.ndarray:
    """Probability distribution over the sentences state has not selected;
    selected ones get exactly 0."""
    n = sent_feats.shape[0]
    remaining = [i for i in range(n) if i not in state.selected]
    if not remaining:
        raise ValueError("all sentences already selected")
    decoder_input = np.concatenate([state.vector, doc_feats])
    _, scores = _extraction_forward(model.params, decoder_input, sent_feats[remaining])
    shifted = scores - scores.max()
    weights = np.exp(shifted)
    probs = np.zeros(n, dtype=np.float64)
    probs[remaining] = weights / weights.sum()
    return probs


def greedy_steps(model: Model, ctx: DocumentContext, k: int):
    """Greedy argmax decoding for k sentences; ties pick the lower index.

    Only the first MAX_SENTS sentences are scoreable, as for the oracles the
    model was trained on. Yields (pick, state) per step, state being the
    decoder state the pick was scored in.
    """
    n = scoreable_sentences(ctx.doc, k)
    state = initial_state(k)
    while True:
        probs = score_remaining(model, state, ctx.document_features, ctx.sentence_features[:n])
        pick = int(np.argmax(probs))
        yield pick, state
        if len(state.selected) + 1 == k:
            return
        state = advance_state(ctx, state, pick)


def classify_option(model: Model, feats: np.ndarray) -> float:
    """Deletion probability of one compression option."""
    _, z = _compression_forward(model.params, feats[None, :])
    return float(_sigmoid(z[0]))


# ---------------------------------------------------------------------------
# The joint loss and training


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 1.0
    learning_rate: float = 0.001
    epochs: int = 2
    seed: int = 0
    hidden_size: int = DEFAULT_HIDDEN_SIZE

    def __post_init__(self):
        for field in ("alpha", "learning_rate"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"{field}={getattr(self, field)} must be finite")
        if self.alpha < 0:
            raise ValueError(f"alpha={self.alpha} must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate={self.learning_rate} must be > 0")
        if self.epochs < 0:
            raise ValueError(f"epochs={self.epochs} must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size={self.hidden_size} must be >= 1")


@dataclass
class CompiledExample:
    """A document's distinct teacher-forced steps, packed one after another."""

    decoder_inputs: np.ndarray       # (S, DECODER_INPUT_DIM)
    sent_feats: np.ndarray           # (R, SENTENCE_FEATURE_DIM), each step's unselected sentences
    row_bounds: tuple[int, ...]      # step s owns rows row_bounds[s]:row_bounds[s + 1]
    row_steps: np.ndarray            # (R,) the step of each row
    target_rows: list[int]           # the row of each step's gold pick
    option_feats: np.ndarray         # (C, OPTION_FEATURE_DIM), each step's target's options
    option_targets: np.ndarray       # (C,), 1.0 for DEL
    option_bounds: tuple[int, ...]   # step s owns options option_bounds[s]:option_bounds[s + 1]
    order: list[int]                 # every oracle's steps in turn, as step indices
    oracle_count: int
    steps: tuple[tuple, ...]         # each step's key (k, ordered prefix + target), by index


def compile_example(example: DocumentOracles) -> CompiledExample:
    """Precompute the teacher-forced steps; they do not depend on the weights.

    A step is a function of its key (k, ordered prefix, target), k being the
    oracle's length, by which the state vector divides. Oracles that share
    leading picks share steps, so each distinct key is compiled once,
    `steps` lists the keys by step index, and `order` lists the steps of
    every oracle, pick by pick. Each target sentence's options are
    featurized once, as an option table; a step copies its target's table
    and fills in the coverage column.
    """
    doc = example.doc
    ctx = DocumentContext(doc)
    n = scoreable_sentences(doc)
    states: list[DecoderState] = []  # the state each distinct step is taken in
    targets: list[int] = []
    order: list[int] = []
    # (k, ordered prefix + target) -> (its step index, the state after it, if a pick follows)
    known: dict[tuple, tuple[int, DecoderState | None]] = {}
    for oracle in example.candidates:
        picks = oracle.sentence_indices
        state = initial_state(len(picks))
        for depth, target in enumerate(picks):
            key = (len(picks), picks[:depth + 1])
            if key not in known:
                after = advance_state(ctx, state, target) if depth + 1 < len(picks) else None
                known[key] = (len(states), after)
                states.append(state)
                targets.append(target)
            index, state = known[key]
            order.append(index)

    remaining = [[i for i in range(n) if i not in state.selected] for state in states]
    row_bounds = tuple(accumulate(map(len, remaining), initial=0))
    labels = [example.labels[target] for target in targets]
    option_bounds = tuple(accumulate(map(len, labels), initial=0))
    tables = {target: option_table(ctx, target, [lab.option for lab in example.labels[target]])
              for target in set(targets) if example.labels[target]}
    decoder_inputs = np.empty((len(states), DECODER_INPUT_DIM))
    decoder_inputs[:, :STATE_DIM] = [state.vector for state in states]
    decoder_inputs[:, STATE_DIM:] = ctx.document_features
    option_feats = np.empty((option_bounds[-1], OPTION_FEATURE_DIM))
    for s, target in enumerate(targets):
        if target in tables:
            tables[target].fill(option_feats[option_bounds[s]:option_bounds[s + 1]], states[s])
    return CompiledExample(
        decoder_inputs=decoder_inputs,
        sent_feats=ctx.sentence_features[list(chain.from_iterable(remaining))],
        row_bounds=row_bounds,
        row_steps=np.array([s for s, rows in enumerate(remaining) for _ in rows], dtype=np.intp),
        target_rows=[lo + rows.index(target)
                     for lo, rows, target in zip(row_bounds, remaining, targets)],
        option_feats=option_feats,
        option_targets=np.array([1.0 if lab.label is CompressionLabel.DEL else 0.0
                                 for step_labels in labels for lab in step_labels]),
        option_bounds=option_bounds,
        order=order,
        oracle_count=len(example.candidates),
        steps=tuple(known))


# The forward and backward passes run over the pack: each step makes its own
# products and sums, whose bits depend on the rows they reduce, and every
# elementwise operation runs once per document, which gives the same bits as
# running it step by step. Each loss then adds a distinct step's terms to its
# sums in `order`, as often as the step recurs: the same additions in the
# same sequence as computing every step anew. A step without options adds a
# zero compression term (and gradient), which leaves a sum that starts at
# +0.0 bit for bit.


def _packed_extraction_forward(params: dict, compiled: CompiledExample):
    """_extraction_forward over every step of the pack: the activations and
    pointer scores of every row, each step's against its decoder input."""
    rows, feats = compiled.row_bounds, compiled.sent_feats
    steps = list(zip(rows, rows[1:]))
    pre = np.empty((len(feats), len(params["b_s"])), feats.dtype)
    bias = np.empty((len(steps), len(params["b_s"])), feats.dtype)
    for s, (lo, hi) in enumerate(steps):
        np.matmul(feats[lo:hi], params["w_h"].T, out=pre[lo:hi])
        np.matmul(params["w_d"], compiled.decoder_inputs[s], out=bias[s])
    bias += params["b_s"]
    pre += bias[compiled.row_steps]
    act = np.tanh(pre, out=pre)
    scores = np.empty(len(feats), feats.dtype)
    for lo, hi in steps:
        np.matmul(act[lo:hi], params["w_m"], out=scores[lo:hi])
    return act, scores


def _packed_compression_forward(params: dict, compiled: CompiledExample):
    """_compression_forward over every option of the pack: the hidden layer
    and deletion logits of every option row."""
    options, feats = compiled.option_bounds, compiled.option_feats
    steps = [(lo, hi) for lo, hi in zip(options, options[1:]) if lo < hi]
    hidden = np.empty((len(feats), len(params["b1"])), feats.dtype)
    for lo, hi in steps:
        np.matmul(feats[lo:hi], params["w1"].T, out=hidden[lo:hi])
    hidden += params["b1"]
    np.tanh(hidden, out=hidden)
    logits = np.empty(len(feats), feats.dtype)
    for lo, hi in steps:
        np.matmul(hidden[lo:hi], params["w2"], out=logits[lo:hi])
    logits += params["b2"][0]
    return hidden, logits


def _step_terms(params: dict, compiled: CompiledExample):
    """Both forward passes over every distinct step: the steps' extraction
    NLLs and summed logistic losses of their options (0 without options),
    the activations, pointer scores and the logz of each row's step, and the
    options' hidden layer and logits."""
    rows = compiled.row_bounds
    act, scores = _packed_extraction_forward(params, compiled)
    top = np.maximum.reduceat(scores, rows[:-1])    # a maximum is exact in any order
    weights = np.exp(scores - top[compiled.row_steps])
    sums = np.array([np.add.reduce(weights[lo:hi]) for lo, hi in zip(rows, rows[1:])])
    logz = top + np.log(sums)
    sent_terms = logz - scores[compiled.target_rows]

    options = compiled.option_bounds
    hidden, z = _packed_compression_forward(params, compiled)
    losses = np.logaddexp(0.0, z) - compiled.option_targets * z
    comp_terms = np.zeros(len(sent_terms), sent_terms.dtype)
    for s, (lo, hi) in enumerate(zip(options, options[1:])):
        if lo < hi:
            comp_terms[s] = np.add.reduce(losses[lo:hi])
    return sent_terms, comp_terms, act, scores, logz[compiled.row_steps], hidden, z


def _loss_compiled(params: dict, compiled: CompiledExample, alpha: float):
    # Accumulates in the dtype of the inputs so the extended-precision
    # gradient-check path is not silently rounded back to float64.
    zero = compiled.sent_feats.dtype.type(0.0)
    sent_terms, comp_terms = _step_terms(params, compiled)[:2]
    sent_nll = comp_nll = zero
    for index in compiled.order:
        sent_nll += sent_terms[index]
        comp_nll += comp_terms[index]
    return sent_nll / compiled.oracle_count + alpha * comp_nll


def _flat_buffer(shapes: dict[str, tuple[int, ...]], *lead: int):
    """A zeroed float64 array of shape (*lead, total size of shapes) and, per
    name in order, a view of the next slice of its last axis shaped
    (*lead, *shape)."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = np.zeros((*lead, sum(sizes)))
    views = {}
    start = 0
    for (name, shape), size in zip(shapes.items(), sizes):
        views[name] = flat[..., start:start + size].reshape(*lead, *shape)
        start += size
    return flat, views


def _loss_terms_and_grad(params: dict, compiled: CompiledExample, alpha: float):
    """The extraction NLL averaged over the oracles, the compression NLL, and
    the gradient of extraction + alpha * compression, flat in PARAM_ORDER."""
    inv_m = 1.0 / compiled.oracle_count
    sent_terms, comp_terms, act, scores, logz, hidden, z = _step_terms(params, compiled)
    increments, step_grads = _flat_buffer(
        {name: params[name].shape for name in PARAM_ORDER}, len(compiled.decoder_inputs))
    options, feats = compiled.option_bounds, compiled.option_feats
    dzc = alpha * (_sigmoid(z) - compiled.option_targets)
    dhid = dzc[:, None] * params["w2"] * (1.0 - hidden * hidden)
    for s, (lo, hi) in enumerate(zip(options, options[1:])):
        if lo < hi:
            np.matmul(hidden[lo:hi].T, dzc[lo:hi], out=step_grads["w2"][s])
            np.add.reduce(dzc[lo:hi], keepdims=True, out=step_grads["b2"][s])
            np.matmul(dhid[lo:hi].T, feats[lo:hi], out=step_grads["w1"][s])
            np.add.reduce(dhid[lo:hi], axis=0, out=step_grads["b1"][s])

    rows, feats = compiled.row_bounds, compiled.sent_feats
    dz = np.exp(scores - logz)
    dz[compiled.target_rows] -= 1.0
    dz *= inv_m
    steps = list(zip(rows, rows[1:]))
    for s, (lo, hi) in enumerate(steps):
        np.matmul(act[lo:hi].T, dz[lo:hi], out=step_grads["w_m"][s])
    # act is read for the last time above, so 1 - act * act overwrites it.
    # einsum writes the outer products below without the iterator buffers of
    # a broadcasting multiply (64 KiB per operand on a news-sized pack). It
    # writes +0.0 where the multiply gives -0.0; a zero's sign cannot reach
    # the gradient, whose sum in `order` starts at +0.0.
    slope = np.subtract(1.0, np.multiply(act, act, out=act), out=act)
    dact = np.einsum("r,h->rh", dz, params["w_m"])
    dact *= slope
    for s, (lo, hi) in enumerate(steps):
        np.matmul(dact[lo:hi].T, feats[lo:hi], out=step_grads["w_h"][s])
        np.add.reduce(dact[lo:hi], axis=0, out=step_grads["b_s"][s])
    np.einsum("sh,sd->shd", step_grads["b_s"], compiled.decoder_inputs, out=step_grads["w_d"])

    sent_terms, comp_terms = sent_terms.tolist(), comp_terms.tolist()
    sent_nll = 0.0
    comp_nll = 0.0
    grad = np.zeros(increments.shape[1])
    for index in compiled.order:
        sent_nll += sent_terms[index]
        comp_nll += comp_terms[index]
        grad += increments[index]
    return sent_nll * inv_m, comp_nll, grad


def _loss_and_grads_compiled(params: dict, compiled: CompiledExample, alpha: float):
    """The joint loss and its gradient by parameter name."""
    extraction, compression, grad = _loss_terms_and_grad(params, compiled, alpha)
    flat, grads = _flat_buffer({name: params[name].shape for name in PARAM_ORDER})
    flat[...] = grad
    return extraction + alpha * compression, grads


def train(examples: Sequence[DocumentOracles], cfg: TrainConfig) -> tuple[Model, list[float]]:
    """Adaptive-moment gradient descent, one document per step, seeded and
    deterministic. Returns the model and the per-epoch mean loss trace, and
    logs each epoch's mean loss, extraction NLL and compression NLL.

    The parameters and both moments are each one flat array (the model's
    per-name arrays are views of its parameter buffer), so one update is
    Adam's three formulas over every weight at once, each element computed
    as a per-name update would compute it.

    A step so large that weights overflow is caught once per epoch: a
    non-finite parameter is a ValueError naming it, so no such model is
    returned. numpy's floating-point warnings are off in the epoch loop,
    since that check reports what they would.
    """
    if not examples:
        raise ValueError("empty training corpus")
    model = init_model(cfg.hidden_size, cfg.seed)
    model.train_config = asdict(cfg)
    flat, views = _flat_buffer(param_shapes(cfg.hidden_size))
    for name in PARAM_ORDER:
        views[name][...] = model.params[name]
    model.params = views
    compiled = [compile_example(example) for example in examples]
    moment1 = np.zeros_like(flat)
    moment2 = np.zeros_like(flat)
    step = 0
    trace: list[float] = []
    for epoch in range(cfg.epochs):
        losses, extraction, compression = [], [], []
        with np.errstate(all="ignore"):  # overflow is checked below
            for ce in compiled:
                sent_nll, comp_nll, grad = _loss_terms_and_grad(model.params, ce, cfg.alpha)
                losses.append(sent_nll + cfg.alpha * comp_nll)
                extraction.append(sent_nll)
                compression.append(comp_nll)
                step += 1
                moment1 = _BETA1 * moment1 + (1 - _BETA1) * grad
                moment2 = _BETA2 * moment2 + (1 - _BETA2) * grad * grad
                flat -= (cfg.learning_rate * (moment1 / (1 - _BETA1 ** step))
                         / (np.sqrt(moment2 / (1 - _BETA2 ** step)) + _EPS))
        if not np.isfinite(flat).all():
            name = next(name for name in PARAM_ORDER if not np.isfinite(views[name]).all())
            raise ValueError(f"training diverged: parameter {name} holds a non-finite weight "
                             f"after epoch {epoch + 1} at learning rate {cfg.learning_rate}")
        trace.append(float(np.mean(losses)))
        logger.info("epoch %d: mean loss %.6f, extraction NLL %.6f, compression NLL %.6f",
                    epoch + 1, trace[-1], np.mean(extraction), np.mean(compression))
    return model, trace


# Adam's published moment decay rates and denominator guard (Kingma & Ba 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
_REFINE_THRESHOLD = 1e-5
# The gradient check differentiates the joint loss at this alpha and step.
_CHECK_ALPHA = 1.0
_CHECK_STEP = 1e-5


def _as_longdouble(compiled: CompiledExample) -> CompiledExample:
    return replace(compiled, **{field: getattr(compiled, field).astype(np.longdouble)
                                for field in ("decoder_inputs", "sent_feats", "option_feats",
                                              "option_targets")})


def _central_difference(params, compiled, name, idx, step_size):
    flat = params[name].ravel()
    original = flat[idx]
    flat[idx] = original + step_size
    upper = _loss_compiled(params, compiled, _CHECK_ALPHA)
    flat[idx] = original - step_size
    lower = _loss_compiled(params, compiled, _CHECK_ALPHA)
    flat[idx] = original
    return (upper - lower) / (2.0 * step_size)


def gradient_check(model: Model, example: DocumentOracles,
                   grads: dict | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per parameter scalar: |ga - gn| / max(1e-8, |ga| + |gn|).
    Parameters whose gradients are so small that float64 rounding noise
    dominates the difference quotient are re-evaluated in extended
    precision. Passing `grads` overrides the analytic gradients (used by
    mutation tests).
    """
    compiled = compile_example(example)
    params = {name: arr.copy() for name, arr in model.params.items()}
    if grads is None:
        _, grads = _loss_and_grads_compiled(params, compiled, _CHECK_ALPHA)
    worst = 0.0
    refine: list[tuple[str, int, float]] = []
    for name in PARAM_ORDER:
        analytic = grads[name].ravel()
        for idx in range(params[name].size):
            numeric = _central_difference(params, compiled, name, idx, _CHECK_STEP)
            relative = abs(analytic[idx] - numeric) / max(1e-8, abs(analytic[idx]) + abs(numeric))
            if relative > _REFINE_THRESHOLD:
                refine.append((name, idx, float(analytic[idx])))
            else:
                worst = max(worst, relative)
    if refine:
        wide_params = {name: arr.astype(np.longdouble) for name, arr in params.items()}
        wide_compiled = _as_longdouble(compiled)
        for name, idx, analytic_value in refine:
            numeric = float(_central_difference(
                wide_params, wide_compiled, name, idx, np.longdouble(_CHECK_STEP)))
            denom = max(1e-8, abs(analytic_value) + abs(numeric))
            worst = max(worst, abs(analytic_value - numeric) / denom)
    return worst
