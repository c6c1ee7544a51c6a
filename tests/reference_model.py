"""Step-by-step training, the reference that compsum.model's training is checked against.

`compile_example` featurizes every teacher-forced step of every oracle,
one option at a time, and `_loss_compiled` and `_loss_and_grads_compiled`
run the forward (and backward) pass once per step, through this module's
own plain one-step forwards, `extraction_forward` and `compression_forward`.
`compsum.model` compiles each distinct step once into a per-document pack,
runs each elementwise operation once over the pack, and adds each step's
terms in the teacher-forced order; `train` updates each parameter by name,
where `compsum.model.train` updates one flat buffer. The library must give
the same bits, and its inference (`score_remaining`, `classify_option`)
the bits of the plain forwards. This module imports no forward, products
helper, `_step_terms` or `_loss_*` function from `compsum.model`
(`tests/test_imports.py` checks this), so the library is never compared
with itself; only the test helper `loss_joint` reads the library's loss.

`loss_joint`, `models_equal` and `decode_greedy` are helpers of the tests
that read the library's loss, weights and decode loop. Nothing in `src/`
imports this module.
"""

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from compsum import model as library
from compsum.corpus import Document
from compsum.features import (
    OPTION_FEATURE_DIM,
    DocumentContext,
    advance_state,
    featurize_option,
    initial_state,
)
from compsum.model import (
    _BETA1,
    _BETA2,
    _EPS,
    PARAM_ORDER,
    Model,
    TrainConfig,
    _sigmoid,
    greedy_steps,
    init_model,
)
from compsum.oracle import CompressionLabel, DocumentOracles, scoreable_sentences


def models_equal(a: Model, b: Model) -> bool:
    return (a.hidden_size == b.hidden_size
            and set(a.params) == set(b.params)
            and all(np.array_equal(a.params[k], b.params[k]) for k in a.params))


def decode_greedy(model: Model, doc: Document, k: int) -> list[int]:
    """Greedy argmax decoding for k sentences; ties pick the lower index."""
    return [pick for pick, _ in greedy_steps(model, DocumentContext(doc), k)]


def loss_joint(model: Model, example: DocumentOracles, alpha: float = 1.0) -> float:
    """The library's teacher-forced extraction NLL (averaged over oracles)
    plus alpha times the summed compression NLL over the oracle sentences'
    options."""
    return float(library._loss_compiled(model.params, library.compile_example(example), alpha))


def extraction_forward(params: dict, decoder_input: np.ndarray, sent_feats: np.ndarray):
    """Tanh activations (r, H) and raw pointer scores (r,) for each row of sent_feats."""
    pre = sent_feats @ params["w_h"].T + (params["w_d"] @ decoder_input + params["b_s"])
    act = np.tanh(pre)
    return act, act @ params["w_m"]


def compression_forward(params: dict, option_feats: np.ndarray):
    """Tanh hidden layer (c, H) and deletion logits (c,) for each row of option_feats."""
    hidden = np.tanh(option_feats @ params["w1"].T + params["b1"])
    return hidden, hidden @ params["w2"] + params["b2"][0]


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
    """Precompute all teacher-forced features; they do not depend on weights."""
    doc = example.doc
    ctx = DocumentContext(doc)
    n = scoreable_sentences(doc)
    steps: list[_Step] = []
    for oracle in example.candidates:
        indices = oracle.sentence_indices
        state = initial_state(len(indices))
        for target in indices:
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


def _loss_compiled(params: dict, compiled: CompiledExample, alpha: float):
    # Accumulates in the dtype of the inputs so the extended-precision
    # gradient-check path is not silently rounded back to float64.
    sent_nll = compiled.sent_feats.dtype.type(0.0)
    comp_nll = compiled.sent_feats.dtype.type(0.0)
    for step in compiled.steps:
        _, scores = extraction_forward(params, step.decoder_input,
                                       compiled.sent_feats[step.remaining])
        sent_nll += _logsumexp(scores) - scores[step.target_pos]
        if step.option_feats.shape[0]:
            _, z = compression_forward(params, step.option_feats)
            y = step.option_targets
            comp_nll += (np.logaddexp(0.0, z) - y * z).sum()
    return sent_nll / compiled.oracle_count + alpha * comp_nll


def _loss_and_grads_compiled(params: dict, compiled: CompiledExample, alpha: float):
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    sent_nll = 0.0
    comp_nll = 0.0
    inv_m = 1.0 / compiled.oracle_count
    for step in compiled.steps:
        feats = compiled.sent_feats[step.remaining]
        act, scores = extraction_forward(params, step.decoder_input, feats)
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
            hidden, z = compression_forward(params, step.option_feats)
            y = step.option_targets
            comp_nll += float((np.logaddexp(0.0, z) - y * z).sum())
            dzc = alpha * (_sigmoid(z) - y)
            grads["w2"] += hidden.T @ dzc
            grads["b2"] += dzc.sum(keepdims=True)
            dhid = np.outer(dzc, params["w2"]) * (1.0 - hidden * hidden)
            grads["w1"] += dhid.T @ step.option_feats
            grads["b1"] += dhid.sum(axis=0)
    loss = sent_nll * inv_m + alpha * comp_nll
    return loss, grads


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
            loss, grads = _loss_and_grads_compiled(model.params, ce, cfg.alpha)
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
    return model, trace


def _as_longdouble(compiled: CompiledExample) -> CompiledExample:
    steps = [_Step(decoder_input=s.decoder_input.astype(np.longdouble),
                   remaining=s.remaining,
                   target_pos=s.target_pos,
                   option_feats=s.option_feats.astype(np.longdouble),
                   option_targets=s.option_targets.astype(np.longdouble))
             for s in compiled.steps]
    return CompiledExample(sent_feats=compiled.sent_feats.astype(np.longdouble),
                           steps=steps, oracle_count=compiled.oracle_count)
