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
"""

import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document
from .features import (
    DECODER_INPUT_DIM,
    OPTION_FEATURE_DIM,
    SENTENCE_FEATURE_DIM,
    DocumentContext,
    advance_state,
    featurize_option,
    initial_state,
)
from .oracle import MAX_SENTS, CompressionLabel, DocumentOracles, scoreable_sentences

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
    rng = np.random.default_rng(seed)
    params = {
        name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
        for name, shape in param_shapes(hidden_size).items()
    }
    return Model(hidden_size=hidden_size, params=params)


def models_equal(a: Model, b: Model) -> bool:
    return (a.hidden_size == b.hidden_size
            and set(a.params) == set(b.params)
            and all(np.array_equal(a.params[k], b.params[k]) for k in a.params))


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
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path) -> Model:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"corrupt model file {path}: not an object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})")
    if payload.get("feature_dims") != FEATURE_DIMS:
        raise ModelFormatError(f"model feature dimensions {payload.get('feature_dims')} "
                               f"do not match this build {FEATURE_DIMS}")
    try:
        hidden = int(payload["hidden_size"])
        shapes = param_shapes(hidden)
        params = {}
        for name in PARAM_ORDER:
            arr = np.asarray(payload["weights"][name], dtype=np.float64)
            if arr.shape != shapes[name]:
                raise ModelFormatError(
                    f"parameter {name} has shape {arr.shape}, expected {shapes[name]}")
            if not np.isfinite(arr).all():
                raise ModelFormatError(f"parameter {name} holds a non-finite weight")
            params[name] = arr
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
    return Model(hidden_size=hidden, params=params, train_config=payload.get("train_config"))


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


def extraction_scores(params: dict, decoder_input: np.ndarray,
                      sent_feats: np.ndarray) -> np.ndarray:
    """Raw pointer scores for each row of sent_feats."""
    return _extraction_forward(params, decoder_input, sent_feats)[1]


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
    scores = extraction_scores(model.params, decoder_input, sent_feats[remaining])
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
    for _ in range(k):
        probs = score_remaining(model, state, ctx.document_features, ctx.sentence_features[:n])
        pick = int(np.argmax(probs))
        yield pick, state
        state = advance_state(ctx, state, pick)


def decode_greedy(model: Model, doc: Document, k: int) -> list[int]:
    """Greedy argmax decoding for k sentences; ties pick the lower index."""
    return [pick for pick, _ in greedy_steps(model, DocumentContext(doc), k)]


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
    positive_class_weight: float = 1.0

    def __post_init__(self):
        for field in ("alpha", "learning_rate", "positive_class_weight"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"{field}={getattr(self, field)} must be finite")
        if self.alpha < 0:
            raise ValueError(f"alpha={self.alpha} must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate={self.learning_rate} must be > 0")
        if self.epochs < 0:
            raise ValueError(f"epochs={self.epochs} must be >= 0")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size={self.hidden_size} must be >= 1")


@dataclass
class _Step:
    decoder_input: np.ndarray        # (DECODER_INPUT_DIM,)
    remaining: np.ndarray            # unselected sentence indices
    target_pos: int                  # position of the gold pick in `remaining`
    option_feats: np.ndarray         # (c, OPTION_FEATURE_DIM), possibly c == 0
    option_targets: np.ndarray       # (c,), 1.0 for DEL


@dataclass
class CompiledExample:
    sent_feats: np.ndarray
    steps: list[_Step]
    oracle_count: int


def compile_example(example: DocumentOracles) -> CompiledExample:
    """Precompute all teacher-forced features; they do not depend on weights.

    Every oracle must be a nonempty list of distinct indices among the
    document's first MAX_SENTS sentences, and there must be at least one;
    the labels hold one tuple per sentence of the document.
    """
    doc = example.doc
    if not example.candidates:
        raise ValueError(f"document {doc.id!r} has no oracles")
    if len(example.labels) != len(doc.sentences):
        raise ValueError(f"document {doc.id!r}: labels for {len(example.labels)} sentences, "
                         f"document has {len(doc.sentences)}")
    ctx = DocumentContext(doc)
    n = min(MAX_SENTS, len(doc.sentences))
    steps: list[_Step] = []
    for oracle in example.candidates:
        indices = oracle.sentence_indices
        if not indices or min(indices) < 0 or len(set(indices)) < len(indices):
            raise ValueError(f"document {doc.id!r}: oracle {list(indices)} is not a nonempty "
                             f"list of distinct sentence indices >= 0")
        state = initial_state(len(indices))
        for target in indices:
            if target >= n:
                raise ValueError(
                    f"document {doc.id!r}: oracle index {target} >= {n} scoreable sentences")
            remaining = np.array([i for i in range(n) if i not in state.selected],
                                 dtype=np.int64)
            target_pos = int(np.nonzero(remaining == target)[0][0])
            sent_labels = example.labels[target]
            if sent_labels:
                option_feats = np.stack([
                    featurize_option(ctx, target, lab.option, state)
                    for lab in sent_labels])
                option_targets = np.array(
                    [1.0 if lab.label is CompressionLabel.DEL else 0.0
                     for lab in sent_labels])
            else:
                option_feats = np.zeros((0, OPTION_FEATURE_DIM))
                option_targets = np.zeros(0)
            steps.append(_Step(
                decoder_input=np.concatenate([state.vector, ctx.document_features]),
                remaining=remaining,
                target_pos=target_pos,
                option_feats=option_feats,
                option_targets=option_targets,
            ))
            state = advance_state(ctx, state, target)
    return CompiledExample(sent_feats=ctx.sentence_features[:n],
                           steps=steps, oracle_count=len(example.candidates))


def _logsumexp(z: np.ndarray):
    m = z.max()
    return m + np.log(np.exp(z - m).sum())


def _loss_compiled(params: dict, compiled: CompiledExample, alpha: float,
                   pos_weight: float = 1.0):
    # Accumulates in the dtype of the inputs so the extended-precision
    # gradient-check path is not silently rounded back to float64.
    sent_nll = compiled.sent_feats.dtype.type(0.0)
    comp_nll = compiled.sent_feats.dtype.type(0.0)
    for step in compiled.steps:
        _, scores = _extraction_forward(params, step.decoder_input,
                                        compiled.sent_feats[step.remaining])
        sent_nll += _logsumexp(scores) - scores[step.target_pos]
        if step.option_feats.shape[0]:
            _, z = _compression_forward(params, step.option_feats)
            y = step.option_targets
            weights = np.where(y == 1.0, pos_weight, 1.0)
            comp_nll += (weights * (np.logaddexp(0.0, z) - y * z)).sum()
    return sent_nll / compiled.oracle_count + alpha * comp_nll


def _loss_and_grads_compiled(params: dict, compiled: CompiledExample, alpha: float,
                             pos_weight: float = 1.0):
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    sent_nll = 0.0
    comp_nll = 0.0
    inv_m = 1.0 / compiled.oracle_count
    for step in compiled.steps:
        feats = compiled.sent_feats[step.remaining]
        act, scores = _extraction_forward(params, step.decoder_input, feats)
        logz = _logsumexp(scores)
        sent_nll += logz - scores[step.target_pos]
        dz = np.exp(scores - logz)
        dz[step.target_pos] -= 1.0
        dz *= inv_m
        grads["w_m"] += act.T @ dz
        dact = np.outer(dz, params["w_m"]) * (1.0 - act * act)
        grads["w_h"] += dact.T @ feats
        grads["b_s"] += dact.sum(axis=0)
        grads["w_d"] += np.outer(dact.sum(axis=0), step.decoder_input)

        if step.option_feats.shape[0]:
            hidden, z = _compression_forward(params, step.option_feats)
            y = step.option_targets
            weights = np.where(y == 1.0, pos_weight, 1.0)
            comp_nll += float((weights * (np.logaddexp(0.0, z) - y * z)).sum())
            dzc = alpha * weights * (_sigmoid(z) - y)
            grads["w2"] += hidden.T @ dzc
            grads["b2"] += dzc.sum(keepdims=True)
            dhid = np.outer(dzc, params["w2"]) * (1.0 - hidden * hidden)
            grads["w1"] += dhid.T @ step.option_feats
            grads["b1"] += dhid.sum(axis=0)
    loss = sent_nll * inv_m + alpha * comp_nll
    return loss, grads


def loss_joint(model: Model, example: DocumentOracles, alpha: float = 1.0) -> float:
    """Teacher-forced extraction NLL (averaged over oracles) plus alpha times
    the summed, unweighted compression NLL over the oracle sentences' options."""
    return float(_loss_compiled(model.params, compile_example(example), alpha))


def train(examples: Sequence[DocumentOracles], cfg: TrainConfig) -> tuple[Model, list[float]]:
    """Adaptive-moment gradient descent, one document per step, seeded and
    deterministic. Returns the model and the per-epoch mean loss trace."""
    if not examples:
        raise ValueError("empty training corpus")
    model = init_model(cfg.hidden_size, cfg.seed)
    model.train_config = asdict(cfg)
    compiled = [compile_example(example) for example in examples]
    moment1 = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    moment2 = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    step = 0
    trace: list[float] = []
    for epoch in range(cfg.epochs):
        losses = []
        for ce in compiled:
            loss, grads = _loss_and_grads_compiled(
                model.params, ce, cfg.alpha, cfg.positive_class_weight)
            losses.append(loss)
            step += 1
            for name in PARAM_ORDER:
                g = grads[name]
                moment1[name] = _BETA1 * moment1[name] + (1 - _BETA1) * g
                moment2[name] = _BETA2 * moment2[name] + (1 - _BETA2) * g * g
                m_hat = moment1[name] / (1 - _BETA1 ** step)
                v_hat = moment2[name] / (1 - _BETA2 ** step)
                model.params[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
        trace.append(float(np.mean(losses)))
        logger.info("epoch %d: mean loss %.6f", epoch + 1, trace[-1])
    return model, trace


# Adam's published moment decay rates and denominator guard (Kingma & Ba 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
_REFINE_THRESHOLD = 1e-5
# The gradient check differentiates the unweighted joint loss at this alpha and step.
_CHECK_ALPHA = 1.0
_CHECK_STEP = 1e-5


def _as_longdouble(compiled: CompiledExample) -> CompiledExample:
    steps = [_Step(decoder_input=s.decoder_input.astype(np.longdouble),
                   remaining=s.remaining,
                   target_pos=s.target_pos,
                   option_feats=s.option_feats.astype(np.longdouble),
                   option_targets=s.option_targets.astype(np.longdouble))
             for s in compiled.steps]
    return CompiledExample(sent_feats=compiled.sent_feats.astype(np.longdouble),
                           steps=steps, oracle_count=compiled.oracle_count)


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
