"""Extraction scorer, compression classifier, joint loss, training loop."""

import math

import numpy as np
import pytest

import corpusgen
from compsum import Document
from compsum.features import DocumentContext, advance_state, featurize_option, initial_state
from compsum.model import (
    Model,
    ModelFormatError,
    TrainConfig,
    classify_option,
    compile_example,
    decode_greedy,
    extraction_scores,
    gradient_check,
    init_model,
    load_model,
    loss_joint,
    models_equal,
    param_shapes,
    save_model,
    score_remaining,
    train,
    _as_longdouble,
    _loss_and_grads_compiled,
    _loss_compiled,
)
from compsum.oracle import DocumentOracles, OracleCandidate, OracleConfig, build_document_oracles


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
        scores = extraction_scores(model.params, d, ctx.sentence_features)
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
        bad = DocumentOracles(example.doc, (OracleCandidate((0, n), 0.5),), example.labels)
        with pytest.raises(ValueError, match=f"oracle index {n} >= {n} scoreable sentences"):
            loss_joint(init_model(), bad)

    @pytest.mark.parametrize("oracles, expected", [
        ((), "has no oracles"),
        (((),), r"oracle \[\] is not a nonempty list"),
        (((0, -1),), r"oracle \[0, -1\] is not a nonempty list of distinct sentence indices >= 0"),
        (((1, 1),), r"oracle \[1, 1\] is not a nonempty list of distinct"),
    ], ids=["no-oracles", "empty-oracle", "negative-index", "repeated-index"])
    def test_misused_oracles_rejected_naming_the_document(self, oracles, expected):
        # these once compiled silently (no oracles, an empty oracle) or failed
        # with numpy's "index 0 is out of bounds" (a negative or repeated index)
        example = make_examples(1)[0]
        bad = DocumentOracles(example.doc, tuple(OracleCandidate(o, 0.5) for o in oracles),
                              example.labels)
        with pytest.raises(ValueError, match=f"document {example.doc.id!r}.*{expected}"):
            compile_example(bad)
        with pytest.raises(ValueError, match=expected):
            train([bad], TrainConfig(epochs=1))

    @pytest.mark.parametrize("rows", [0, 1], ids=["no-labels", "one-row"])
    def test_labels_shorter_than_the_document_rejected(self, rows):
        # these once compiled with no compression loss for the missing sentences
        example = make_examples(1)[0]
        n = len(example.doc.sentences)
        bad = DocumentOracles(example.doc, example.candidates, example.labels[:rows])
        with pytest.raises(ValueError) as error:
            compile_example(bad)
        assert str(error.value) == (f"document {example.doc.id!r}: labels for {rows} "
                                    f"sentences, document has {n}")

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


    def test_weighted_loss_gradients_match_central_differences(self):
        # gradient_check always uses positive_class_weight 1, so the weighted
        # gradient is checked here against extended-precision differences
        example = make_examples(1, seed=44)[0]
        model = init_model(hidden_size=8, seed=2)
        compiled = compile_example(example)
        assert any(step.option_targets.any() for step in compiled.steps)
        _, grads = _loss_and_grads_compiled(
            {k: v.copy() for k, v in model.params.items()}, compiled, 1.0, pos_weight=3.0)
        wide = {k: v.astype(np.longdouble) for k, v in model.params.items()}
        wide_compiled = _as_longdouble(compiled)
        step = np.longdouble(1e-5)
        worst = 0.0
        for name, values in wide.items():
            flat = values.ravel()
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + step
                upper = _loss_compiled(wide, wide_compiled, 1.0, pos_weight=3.0)
                flat[idx] = original - step
                lower = _loss_compiled(wide, wide_compiled, 1.0, pos_weight=3.0)
                flat[idx] = original
                numeric = float((upper - lower) / (2 * step))
                analytic = grads[name].ravel()[idx]
                worst = max(worst, abs(analytic - numeric)
                            / max(1e-8, abs(analytic) + abs(numeric)))
        assert worst < 1e-4


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
        ("learning_rate", math.inf), ("positive_class_weight", math.nan)])
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
        import json
        model = init_model(seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        import json
        model = init_model(seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["weights"]["w_m"] = payload["weights"]["w_m"][:-1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="shape"):
            load_model(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        # a NaN model once loaded and failed later in summarize with
        # "p_del=nan must lie in [0, 1]"
        model = init_model(seed=1)
        model.params["w1"][2, 3] = value
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(ModelFormatError) as error:
            load_model(path)
        assert str(error.value) == "parameter w1 holds a non-finite weight"

    def test_missing_weights_rejected(self, tmp_path):
        import json
        model = init_model(seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["weights"]["w_d"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="corrupt"):
            load_model(path)
