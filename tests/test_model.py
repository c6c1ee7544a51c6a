"""Extraction scorer, compression classifier, joint loss, training loop."""

import json
import logging
import math
from dataclasses import asdict

import numpy as np
import pytest

import corpusgen
import reference_model
from reference_model import decode_greedy, loss_joint, models_equal
from compsum import Document, parse_ptb
from compsum import model as model_mod
from compsum.features import DocumentContext, advance_state, featurize_option, initial_state
from compsum.model import (
    INIT_SCALE,
    PARAM_ORDER,
    Model,
    ModelFormatError,
    TrainConfig,
    classify_option,
    compile_example,
    gradient_check,
    init_model,
    load_model,
    param_shapes,
    save_model,
    score_remaining,
    train,
    _as_longdouble,
    _extraction_forward,
    _loss_and_grads_compiled,
    _loss_compiled,
)
from compsum.oracle import (
    DocumentOracles,
    OracleCandidate,
    OracleConfig,
    build_document_oracles,
    scoreable_sentences,
)
from compsum.rules import extract_options


def make_examples(count=6, seed=3, k=2):
    docs, _ = corpusgen.learnable_corpus(count=count, seed=seed)
    cfg = OracleConfig(k=k, beam_width=8, m=5)
    return [build_document_oracles(doc, cfg) for doc in docs]


def zero_model(hidden=32):
    shapes = param_shapes(hidden)
    return Model(hidden_size=hidden,
                 params={name: np.zeros(shape) for name, shape in shapes.items()})


class TestScoreRemaining:
    def test_one_remaining_gets_probability_one(self):
        example = make_examples(1)[0]
        ctx = DocumentContext(example.doc)
        model = init_model(seed=0)
        n = len(example.doc.sentences)
        state = initial_state(n)
        selected = list(range(n - 1))
        for pick in selected:
            state = advance_state(ctx, state, pick)
        probs = score_remaining(model, state, ctx.document_features, ctx.sentence_features)
        assert probs[n - 1] == pytest.approx(1.0, abs=1e-12)
        assert all(probs[i] == 0.0 for i in selected)

    def test_zero_weights_uniform(self):
        example = make_examples(1)[0]
        ctx = DocumentContext(example.doc)
        n = len(example.doc.sentences)
        probs = score_remaining(zero_model(), initial_state(2),
                                ctx.document_features, ctx.sentence_features)
        assert np.allclose(probs, 1.0 / n)

    def test_probabilities_sum_to_one(self):
        example = make_examples(1)[0]
        ctx = DocumentContext(example.doc)
        model = init_model(seed=1)
        probs = score_remaining(model, advance_state(ctx, initial_state(2), 0),
                                ctx.document_features, ctx.sentence_features)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert probs[0] == 0.0

    def test_matches_straight_line_recomputation(self):
        example = make_examples(1)[0]
        ctx = DocumentContext(example.doc)
        model = init_model(seed=2)
        state = advance_state(ctx, initial_state(2), 1)
        probs = score_remaining(model, state, ctx.document_features, ctx.sentence_features)
        d = np.concatenate([state.vector, ctx.document_features])
        p = model.params
        raw = {}
        for i in range(len(example.doc.sentences)):
            if i == 1:
                continue
            hidden = np.tanh(p["w_d"] @ d + p["w_h"] @ ctx.sentence_features[i] + p["b_s"])
            raw[i] = float(p["w_m"] @ hidden)
        denom = sum(math.exp(v) for v in raw.values())
        for i, value in raw.items():
            assert probs[i] == pytest.approx(math.exp(value) / denom, rel=1e-12)

    def test_all_selected_rejected(self):
        example = make_examples(1)[0]
        ctx = DocumentContext(example.doc)
        n = len(example.doc.sentences)
        state = initial_state(n)
        for pick in range(n):
            state = advance_state(ctx, state, pick)
        with pytest.raises(ValueError):
            score_remaining(init_model(), state, ctx.document_features, ctx.sentence_features)

    def test_constant_shift_invariance(self):
        example = make_examples(1)[0]
        ctx = DocumentContext(example.doc)
        model = init_model(seed=4)
        d = np.concatenate([initial_state(2).vector, ctx.document_features])
        _, scores = _extraction_forward(model.params, d, ctx.sentence_features)
        def softmax(z):
            w = np.exp(z - z.max())
            return w / w.sum()
        assert np.allclose(softmax(scores), softmax(scores + 123.456))

    def test_permutation_covariance(self):
        example = make_examples(1)[0]
        ctx = DocumentContext(example.doc)
        model = init_model(seed=5)
        n = len(example.doc.sentences)
        perm = np.random.default_rng(0).permutation(n)
        state = initial_state(2)
        base = score_remaining(model, state, ctx.document_features, ctx.sentence_features)
        permuted = score_remaining(model, state, ctx.document_features,
                                   ctx.sentence_features[perm])
        assert np.allclose(permuted, base[perm])


class TestDecodeGreedy:
    def test_full_decode_is_permutation(self):
        example = make_examples(1)[0]
        n = len(example.doc.sentences)
        order = decode_greedy(init_model(seed=6), example.doc, n)
        assert sorted(order) == list(range(n))

    def test_zero_model_picks_lowest_indices(self):
        example = make_examples(1)[0]
        assert decode_greedy(zero_model(), example.doc, 3) == [0, 1, 2]

    def test_k_too_large_rejected(self):
        example = make_examples(1)[0]
        with pytest.raises(ValueError, match=example.doc.id):
            decode_greedy(init_model(), example.doc, len(example.doc.sentences) + 1)

    def test_never_repeats(self):
        for example in make_examples(4, seed=9):
            order = decode_greedy(init_model(seed=7), example.doc, 4)
            assert len(set(order)) == len(order)


class TestClassifyOption:
    def _feats(self):
        example = make_examples(1)[0]
        ctx = DocumentContext(example.doc)
        lab = example.labels[0][0]
        return featurize_option(ctx, 0, lab.option, initial_state(2))

    def test_zero_weights_give_half(self):
        assert classify_option(zero_model(), self._feats()) == 0.5

    def test_output_in_open_interval(self):
        model = init_model(seed=8)
        p = classify_option(model, self._feats())
        assert 0.0 < p < 1.0

    def test_matches_scalar_recomputation(self):
        model = init_model(seed=9)
        feats = self._feats()
        p = model.params
        hidden = [math.tanh(sum(p["w1"][i, j] * feats[j] for j in range(len(feats)))
                            + p["b1"][i])
                  for i in range(model.hidden_size)]
        z = sum(p["w2"][i] * hidden[i] for i in range(model.hidden_size)) + p["b2"][0]
        expected = 1.0 / (1.0 + math.exp(-z))
        assert classify_option(model, feats) == pytest.approx(expected, rel=1e-12)


class TestLossJoint:
    def test_single_sentence_doc_k1_sentence_loss_zero(self):
        tree = corpusgen.flat_tree(["storm", "coast"])
        doc = Document(id="one", sentences=(tree,), reference=(("storm",),))
        example = build_document_oracles(doc, OracleConfig(k=1, m=1))
        assert loss_joint(init_model(seed=1), example, alpha=0.0) == pytest.approx(0.0)

    def test_alpha_zero_is_pure_extraction_loss(self):
        example = make_examples(1)[0]
        model = init_model(seed=2)
        base = loss_joint(model, example, alpha=0.0)
        mixed = loss_joint(model, example, alpha=1.0)
        assert mixed > base

    def test_product_form_identity_m1(self):
        # exp(-loss) must equal the explicit product of step and option
        # probabilities, computed operation by operation
        for seed, example in enumerate(make_examples(5, seed=21)):
            model = init_model(seed=seed)
            single = DocumentOracles(example.doc, example.candidates[:1], example.labels)
            loss = loss_joint(model, single, alpha=1.0)
            ctx = DocumentContext(example.doc)
            state = initial_state(len(single.candidates[0].sentence_indices))
            product = 1.0
            for target in single.candidates[0].sentence_indices:
                probs = score_remaining(model, state, ctx.document_features,
                                        ctx.sentence_features)
                product *= probs[target]
                for lab in example.labels[target]:
                    p_del = classify_option(
                        model, featurize_option(ctx, target, lab.option, state))
                    product *= p_del if lab.label.value == "DEL" else (1.0 - p_del)
                state = advance_state(ctx, state, target)
            assert math.exp(-loss) == pytest.approx(product, rel=1e-9)

    def test_oracle_index_out_of_range_rejected(self):
        example = make_examples(1)[0]
        n = len(example.doc.sentences)
        with pytest.raises(ValueError, match=f"oracle index {n} >= {n} scoreable sentences"):
            DocumentOracles(example.doc, (OracleCandidate((0, n), 0.5),), example.labels)

    @pytest.mark.parametrize("oracles, expected", [
        ((), "no oracles"),
        (((),), r"oracle \[\] is not a nonempty list"),
        (((0, -1),), r"oracle \[0, -1\] is not a nonempty list of distinct sentence indices >= 0"),
        (((1, 1),), r"oracle \[1, 1\] is not a nonempty list of distinct"),
    ], ids=["no-oracles", "empty-oracle", "negative-index", "repeated-index"])
    def test_misused_oracles_rejected_naming_the_document(self, oracles, expected):
        # these once compiled silently (no oracles, an empty oracle) or failed
        # with numpy's "index 0 is out of bounds" (a negative or repeated index);
        # now no such record can be built, so none reaches compile_example or train;
        # the message leaves the document to the cache reader, which names it
        example = make_examples(1)[0]
        with pytest.raises(ValueError, match=f"^{expected}"):
            DocumentOracles(example.doc, tuple(OracleCandidate(o, 0.5) for o in oracles),
                            example.labels)

    @pytest.mark.parametrize("rows", [0, 1], ids=["no-labels", "one-row"])
    def test_labels_shorter_than_the_document_rejected(self, rows):
        # these once compiled with no compression loss for the missing sentences
        example = make_examples(1)[0]
        n = len(example.doc.sentences)
        with pytest.raises(ValueError) as error:
            DocumentOracles(example.doc, example.candidates, example.labels[:rows])
        assert str(error.value) == f"labels for {rows} sentences, document has {n}"

    def test_loss_decreases_under_small_gradient_step(self):
        for example in make_examples(3, seed=33):
            model = init_model(seed=11)
            compiled = compile_example(example)
            params = {k: v.copy() for k, v in model.params.items()}
            loss, grads = _loss_and_grads_compiled(params, compiled, 1.0)
            for name in params:
                params[name] -= 1e-6 * grads[name]
            stepped = Model(hidden_size=model.hidden_size, params=params)
            assert loss_joint(stepped, example) < loss


def with_oracles(example, oracles, empty=()):
    """example with the given oracles, and no options in the sentences `empty`."""
    labels = tuple(() if i in empty else sent for i, sent in enumerate(example.labels))
    return DocumentOracles(example.doc, tuple(OracleCandidate(tuple(o), 0.5) for o in oracles),
                           labels)


# A sentence with 10 compression options (two ADVPs, four adjectives, an
# appositive, two adjunct PPs and an adverbial clause)
MANY_OPTIONS = ("(S (ADVP (RB however)) (, ,) (NP (NP (DT the) (JJ old) (JJ rusty) (NN harbor)) "
                "(, ,) (NP (DT a) (NN landmark)) (, ,)) (VP (ADVP (RB slowly)) (VBD reopened) "
                "(NP (DT the) (JJ narrow) (JJ western) (NN canal)) "
                "(PP (IN near) (NP (DT the) (NN quarry))) (PP (IN in) (NP (NNP March))) "
                "(SBAR (IN because) (S (NP (NN trade)) (VP (VBD grew))))) (. .))")


def many_rows_and_options():
    """Document 0 of make_examples(seed=3) and 3 sentences of document 1
    around MANY_OPTIONS: 10 scoreable sentences, so a step sums 8 or more
    pointer weights and logistic losses, where numpy's sum of a row stops
    adding in sequence and adds 8 running sums."""
    first, second = corpusgen.learnable_corpus(count=2, seed=3)[0]
    sentences = first.sentences[:4] + (parse_ptb(MANY_OPTIONS),) + first.sentences[4:] + (
        second.sentences[:10 - len(first.sentences) - 1])
    doc = Document(id="many", sentences=sentences,
                   reference=(sentences[4].token_texts[:12],))
    assert len(doc.sentences) == 10 and len(extract_options(sentences[4])) == 10
    return build_document_oracles(doc, OracleConfig(k=3, beam_width=8, m=5))


def hand_built_examples():
    # document 0 of make_examples(seed=3) has 6 sentences, each with options
    example = make_examples(1, seed=3, k=3)[0]
    return {
        "shared-prefixes": with_oracles(example, [(0, 2, 1), (0, 2, 4), (0, 3, 1), (5, 2, 1)]),
        "duplicated-oracle": with_oracles(example, [(1, 0), (1, 0), (2, 0)]),
        "lengths-2-and-3": with_oracles(example, [(0, 1), (0, 1, 2), (0, 3), (0, 1)]),
        "targets-without-options": with_oracles(example, [(0, 2, 1), (0, 2, 3), (2, 0, 1)],
                                                empty=(0, 2)),
        "many-rows-and-options": with_oracles(many_rows_and_options(),
                                              [(4, 0, 1), (4, 0, 2), (0, 4, 9), (4, 7)]),
    }


def assert_same_as_step_by_step(example, model):
    """Every loss and gradient of compiling each distinct step once and
    running the steps packed equals, bit for bit, that of compiling and
    running every step in turn; also with the weights times 8, where tanh
    and exp saturate."""
    compiled = compile_example(example)
    reference = reference_model.compile_example(example)
    assert len(compiled.order) == len(reference.steps)
    for params in (model.params, {name: 8.0 * arr for name, arr in model.params.items()}):
        for alpha in (0.0, 0.7, 1.0):
            loss, grads = _loss_and_grads_compiled(params, compiled, alpha)
            expected, expected_grads = reference_model._loss_and_grads_compiled(
                params, reference, alpha)
            assert loss == expected
            for name in PARAM_ORDER:
                assert grads[name].tobytes() == expected_grads[name].tobytes(), name
            assert (_loss_compiled(params, compiled, alpha)
                    == reference_model._loss_compiled(params, reference, alpha))
        wide = {name: arr.astype(np.longdouble) for name, arr in params.items()}
        wide_loss = _loss_compiled(wide, _as_longdouble(compiled), 1.0)
        assert wide_loss.dtype == np.longdouble
        assert wide_loss == reference_model._loss_compiled(
            wide, reference_model._as_longdouble(reference), 1.0)


class TestDistinctSteps:
    def test_learnable_corpus_losses_and_gradients_equal_the_reference(self):
        examples = make_examples(8, seed=3, k=3)
        for seed, example in enumerate(examples):
            assert_same_as_step_by_step(example, init_model(seed=seed))
        # the oracles share their leading picks, so there is something to share
        assert sum(len(compile_example(e).steps) for e in examples) < sum(
            len(reference_model.compile_example(e).steps) for e in examples)

    @pytest.mark.parametrize("case", list(hand_built_examples()))
    def test_hand_built_oracles_equal_the_reference(self, case):
        example = hand_built_examples()[case]
        for seed in (0, 1):
            assert_same_as_step_by_step(example, init_model(seed=seed))
        assert_same_as_step_by_step(example, zero_model())

    def test_training_equals_the_reference(self, monkeypatch):
        examples = make_examples(6, seed=3, k=3) + list(hand_built_examples().values())
        # the second scale starts from weights 8 times the usual, saturating tanh and exp
        for scale in (1, 8):
            monkeypatch.setattr(model_mod, "INIT_SCALE", scale * INIT_SCALE)
            for cfg in (TrainConfig(epochs=3, seed=5),
                        TrainConfig(epochs=2, seed=1, alpha=0.3, learning_rate=0.01)):
                model, trace = train(examples, cfg)
                expected, expected_trace = reference_model.train(examples, cfg)
                assert trace == expected_trace
                for name in PARAM_ORDER:
                    assert model.params[name].tobytes() == expected.params[name].tobytes(), name
                assert model.train_config == expected.train_config

    def test_each_distinct_step_is_featurized_once(self, monkeypatch):
        # (0,) and (0, 1) start oracles of length 2 and of length 3: the state
        # vector divides by the length, so those steps differ and are not merged
        example = hand_built_examples()["lengths-2-and-3"]
        tables = []
        build_table = model_mod.option_table

        def counting(ctx, target, options):
            tables.append(target)
            return build_table(ctx, target, options)

        monkeypatch.setattr(model_mod, "option_table", counting)
        compiled = compile_example(example)
        keys = {(len(o.sentence_indices), o.sentence_indices[:depth + 1])
                for o in example.candidates for depth in range(len(o.sentence_indices))}
        assert len(keys) == 6
        assert set(compiled.steps) == keys
        assert len(compiled.steps) == len(keys) == len(compiled.decoder_inputs)
        assert len(compiled.order) == 9
        # one option table per target sentence with options, whatever its steps
        assert sorted(tables) == sorted({prefix[-1] for _, prefix in keys
                                         if example.labels[prefix[-1]]})
        assert len(compiled.option_feats) == sum(
            len(example.labels[prefix[-1]]) for _, prefix in keys)
        # the second pick of (0, 1) and of (0, 1, 2): same prefix and target, other k
        assert compiled.steps[compiled.order[1]] == (2, (0, 1))
        assert compiled.steps[compiled.order[3]] == (3, (0, 1))
        assert not np.array_equal(compiled.decoder_inputs[compiled.order[1]],
                                  compiled.decoder_inputs[compiled.order[3]])


def test_inference_equals_the_plain_forwards_of_the_reference():
    """score_remaining and classify_option give the bits of the reference's
    one-step forwards, with softmax and sigmoid written out in the library's
    order, in every decoder state of every oracle, for every option of every
    scoreable sentence; also with the weights times 8, where tanh and exp
    saturate."""
    docs = corpusgen.learnable_corpus(count=20)[0] + corpusgen.fixture_corpus()
    states = 0
    for seed, doc in enumerate(docs):
        n = scoreable_sentences(doc)
        example = build_document_oracles(doc, OracleConfig(k=min(3, n), beam_width=8, m=5))
        ctx = DocumentContext(doc)
        sent_feats = ctx.sentence_features[:n]
        model = init_model(seed=seed)
        for params in (model.params, {name: 8.0 * arr for name, arr in model.params.items()}):
            scaled = Model(hidden_size=model.hidden_size, params=params)
            for oracle in example.candidates:
                state = initial_state(len(oracle.sentence_indices))
                for target in oracle.sentence_indices:
                    remaining = [i for i in range(n) if i not in state.selected]
                    _, scores = reference_model.extraction_forward(
                        params, np.concatenate([state.vector, ctx.document_features]),
                        sent_feats[remaining])
                    weights = np.exp(scores - scores.max())
                    expected = np.zeros(n)
                    expected[remaining] = weights / weights.sum()
                    probs = score_remaining(scaled, state, ctx.document_features, sent_feats)
                    assert probs.tobytes() == expected.tobytes()
                    for sent in range(n):
                        for lab in example.labels[sent]:
                            feats = featurize_option(ctx, sent, lab.option, state)
                            _, z = reference_model.compression_forward(params, feats[None, :])
                            expected_p = 0.5 * (1.0 + np.tanh(0.5 * z[0]))
                            p_del = np.float64(classify_option(scaled, feats))
                            assert p_del.tobytes() == expected_p.tobytes()
                    states += 1
                    state = advance_state(ctx, state, target)
    assert states > 100


class TestGradientCheck:
    def test_correct_gradients_pass(self):
        example = make_examples(1, seed=41)[0]
        assert gradient_check(init_model(seed=0), example) < 1e-4

    def test_zero_weights_pass(self):
        example = make_examples(1, seed=42)[0]
        assert gradient_check(zero_model(), example) < 1e-4

    def test_corrupted_gradient_detected(self):
        example = make_examples(1, seed=43)[0]
        model = init_model(seed=1)
        compiled = compile_example(example)
        _, grads = _loss_and_grads_compiled(
            {k: v.copy() for k, v in model.params.items()}, compiled, 1.0)
        grads["w_m"] = grads["w_m"] + 0.05
        assert gradient_check(model, example, grads=grads) > 1e-2


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        examples = make_examples(3, seed=51)
        cfg = TrainConfig(epochs=0, seed=17)
        model, trace = train(examples, cfg)
        assert trace == []
        assert models_equal(model, init_model(cfg.hidden_size, cfg.seed))

    def test_loss_improves_after_two_epochs(self):
        examples = make_examples(12, seed=52)
        cfg = TrainConfig(epochs=2, seed=5)
        model, trace = train(examples, cfg)
        init_loss = float(np.mean([loss_joint(init_model(cfg.hidden_size, cfg.seed), e)
                                   for e in examples]))
        final_loss = float(np.mean([loss_joint(model, e) for e in examples]))
        assert final_loss < init_loss
        assert len(trace) == 2 and trace[1] < trace[0]

    def test_epoch_means_non_increasing_within_tolerance(self):
        examples = make_examples(10, seed=54)
        _, trace = train(examples, TrainConfig(epochs=4, seed=7))
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev * 1.05

    def test_same_seed_bit_identical(self):
        examples = make_examples(4, seed=53)
        cfg = TrainConfig(epochs=2, seed=23)
        a, trace_a = train(examples, cfg)
        b, trace_b = train(examples, cfg)
        assert models_equal(a, b)
        assert trace_a == trace_b

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainConfig())

    def test_epoch_log_splits_the_loss(self, caplog):
        # one document: the epoch means are the losses at the initialization
        example = make_examples(1, seed=52)[0]
        cfg = TrainConfig(epochs=2, seed=5, alpha=0.5)
        with caplog.at_level(logging.INFO, logger="compsum.model"):
            _, trace = train([example], cfg)
        initial = init_model(cfg.hidden_size, cfg.seed)
        extraction = loss_joint(initial, example, alpha=0.0)
        compression = loss_joint(initial, example, alpha=1.0) - extraction
        messages = [record.getMessage() for record in caplog.records
                    if record.name == "compsum.model"]
        assert len(messages) == 2
        assert messages[0] == (f"epoch 1: mean loss {trace[0]:.6f}, "
                               f"extraction NLL {extraction:.6f}, "
                               f"compression NLL {compression:.6f}")
        assert messages[1].startswith(f"epoch 2: mean loss {trace[1]:.6f}, extraction NLL ")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("hidden_size", 0)])
    def test_config_that_would_do_nothing_rejected(self, field, value):
        # each once trained on nothing, saved the initialization or wrote an unloadable model
        with pytest.raises(ValueError, match=f"{field}={value}"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.inf), ("alpha", math.nan), ("learning_rate", math.nan),
        ("learning_rate", math.inf)])
    def test_non_finite_rate_rejected(self, field, value):
        # alpha=inf and learning_rate=nan once trained a model whose every weight was NaN
        with pytest.raises(ValueError) as error:
            TrainConfig(**{field: value})
        assert str(error.value) == f"{field}={value} must be finite"


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        model, _ = train(make_examples(2, seed=61), TrainConfig(epochs=1, seed=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert models_equal(model, loaded)
        assert loaded.train_config == model.train_config

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model(seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[:100], encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model = init_model(seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value) == (f"corrupt model file {path}: unsupported model format "
                                    f"version 99 (expected {model_mod.MODEL_FORMAT_VERSION})")

    def test_feature_dims_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_model(seed=1), path)
        payload = json.loads(path.read_text())
        payload["feature_dims"] = {**payload["feature_dims"], "option": 1}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value).startswith(f"corrupt model file {path}: model feature "
                                           f"dimensions ")

    def test_shape_mismatch_rejected(self, tmp_path):
        model = init_model(seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["weights"]["w_m"] = payload["weights"]["w_m"][:-1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value).startswith(f"corrupt model file {path}: parameter w_m has shape ")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        # a NaN model once loaded and failed later in summarize with
        # "p_del=nan must lie in [0, 1]"
        path = tmp_path / "model.json"
        save_model(init_model(seed=1), path)
        payload = json.loads(path.read_text())
        payload["weights"]["w1"][2][3] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value) == (f"corrupt model file {path}: "
                                    f"parameter w1 holds a non-finite weight")

    @pytest.mark.parametrize("value", ["0.5", True, None], ids=["string", "bool", "null"])
    def test_weight_that_is_not_a_json_number_rejected(self, tmp_path, value):
        # "0.5" and true once loaded as 0.5 and 1.0, and null was "non-finite"
        path = tmp_path / "model.json"
        save_model(init_model(seed=1), path)
        payload = json.loads(path.read_text())
        payload["weights"]["w1"][2][3] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value) == (f"corrupt model file {path}: parameter w1 holds "
                                    f"{json.dumps(value)}, which is not a JSON number")

    @pytest.mark.parametrize("place", ["weight", "train_config"])
    def test_number_too_large_for_a_float_rejected(self, tmp_path, place):
        # once a bare OverflowError
        path = tmp_path / "model.json"
        save_model(init_model(seed=1), path)
        payload = json.loads(path.read_text())
        if place == "weight":
            payload["weights"]["w1"][2][3] = 10 ** 400
        else:
            payload["train_config"] = {**asdict(TrainConfig()), "alpha": 10 ** 400}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value) == f"corrupt model file {path}: " + {
            "weight": "int too large to convert to float",
            "train_config": "train_config: key 'alpha' holds an integer too large for a float",
        }[place]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weight_is_not_saved(self, tmp_path, value):
        # such a model was once written, for every later command to reject
        model = init_model(seed=1)
        model.params["w1"][2, 3] = value
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            save_model(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("value, expected", [
        ("32", 'hidden_size "32" is not an integer >= 1'),
        (32.7, "hidden_size 32.7 is not an integer >= 1"),
        (32.0, "hidden_size 32.0 is not an integer >= 1"),
        (True, "hidden_size true is not an integer >= 1"),
        (0, "hidden_size 0 is not an integer >= 1"),
    ])
    def test_hidden_size_that_is_not_an_integer_rejected(self, tmp_path, value, expected):
        # "32" and 32.7 once loaded as 32
        path = tmp_path / "model.json"
        save_model(init_model(seed=1), path)
        payload = json.loads(path.read_text())
        payload["hidden_size"] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value) == f"corrupt model file {path}: {expected}"

    def test_hidden_size_that_disagrees_with_the_config_rejected(self, tmp_path):
        # a train_config of hidden size 16 once loaded beside 32-wide weights
        model, _ = train(make_examples(1, seed=61), TrainConfig(epochs=0, hidden_size=4))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["train_config"]["hidden_size"] = 16
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value) == (f"corrupt model file {path}: hidden_size 4 does not "
                                    f"match train_config hidden_size 16")

    def test_missing_weights_rejected(self, tmp_path):
        model = init_model(seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["weights"]["w_d"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="corrupt"):
            load_model(path)
