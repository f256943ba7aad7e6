import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtkg import autodiff as ad
from meshtkg.autodiff import Tensor, grad_check, param
from meshtkg.encoders import synthetic_embeddings
from meshtkg.model import (
    AblationConfig,
    MeshModel,
    expert_mix,
    forward_queries,
    fuse,
    init_model,
    init_prediction_expert,
    partial_fuse,
    prediction_weights,
    score,
    score_logits,
)

from conftest import make_vocab


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestExpertMix:
    def test_zero_gate_is_even_blend(self, np_gen):
        d = 6
        q_g = Tensor(np_gen.standard_normal((3, d)))
        q_s = Tensor(np_gen.standard_normal((3, d)))
        alpha, q = expert_mix(param(np.zeros((d, 1))), param(np.zeros(1)), q_g, q_s)
        assert np.all(alpha.values == 0.5)
        assert np.allclose(q.values, 0.5 * (q_g.values + q_s.values), atol=1e-15)

    def test_saturated_gate_selects_structural(self, np_gen):
        d = 4
        q_g = Tensor(np_gen.standard_normal((2, d)))
        q_s = Tensor(np_gen.standard_normal((2, d)))
        alpha, q = expert_mix(param(np.zeros((d, 1))), param(np.full(1, 50.0)), q_g, q_s)
        assert np.all(alpha.values > 1.0 - 1e-15)
        assert np.allclose(q.values, q_g.values, atol=1e-13)

    def test_gradients(self):
        gen = np.random.default_rng(4)
        d = 5
        w = param(gen.standard_normal((d, 1)))
        b = param(gen.standard_normal(1))
        q_g = param(gen.standard_normal((2, d)))
        q_s = param(gen.standard_normal((2, d)))

        def fn(w, b, q_g, q_s):
            _, q = expert_mix(w, b, q_g, q_s)
            return ad.tensor_sum(q)

        assert grad_check(fn, [w, b, q_g, q_s], eps=1e-5) < 1e-4


class TestPredictionExpert:
    def test_zero_params_give_half(self, np_gen):
        params = init_prediction_expert(4, 3)
        alphas = prediction_weights(params, Tensor(np_gen.standard_normal((5, 4))))
        assert np.all(alphas.values == 0.5)

    def test_two_experts_for_one_one(self, np_gen):
        params = init_prediction_expert(4, 2)
        alphas = prediction_weights(params, Tensor(np_gen.standard_normal((1, 4))))
        assert alphas.shape == (1, 2)

    def test_hand_computed_weights(self):
        d, k = 4, 3
        w = np.arange(d * k, dtype=float).reshape(d, k) / 10.0
        b = np.array([0.1, -0.2, 0.3])
        gate = np.array([[0.5, -1.0, 0.25, 2.0]])
        expected = sigmoid(gate @ w + b)
        params = init_prediction_expert(d, k, dtype=np.float64)
        params.w.values[...] = w
        params.b.values[...] = b
        alphas = prediction_weights(params, Tensor(gate))
        assert np.allclose(alphas.values, expected, atol=1e-12)

    def test_not_softmax_normalized(self, np_gen):
        params = init_prediction_expert(4, 3, dtype=np.float64)
        params.b.values[...] = np.array([2.0, 2.0, 2.0])
        alphas = prediction_weights(params, Tensor(np.zeros((1, 4))))
        assert alphas.values.sum() > 1.0  # independent sigmoids, no normalization


class TestFusion:
    def test_even_weights_halve_sum(self, np_gen):
        d = 4
        q1 = Tensor(np_gen.standard_normal((2, d)))
        q2 = Tensor(np_gen.standard_normal((2, d)))
        alphas = Tensor(np.full((2, 2), 0.5))
        q = fuse(alphas, [q1, q2], num_historical=1)
        assert np.allclose(q.values, 0.5 * (q1.values + q2.values))

    @given(
        st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_partials_recompose_exactly(self, mn, seed):
        m, n = mn
        gen = np.random.default_rng(seed)
        d, batch = 5, 3
        outputs = [Tensor(gen.standard_normal((batch, d))) for _ in range(m + n)]
        alphas = Tensor(gen.uniform(0.0, 1.0, (batch, m + n)))
        q = fuse(alphas, outputs, m)
        q_his = partial_fuse(alphas, outputs, "his", m)
        q_nhis = partial_fuse(alphas, outputs, "nhis", m)
        assert np.array_equal(q.values, q_his.values + q_nhis.values)

    def test_explicit_summation_oracle(self, np_gen):
        m, n = 2, 1
        d, batch = 4, 2
        outputs = [Tensor(np_gen.standard_normal((batch, d))) for _ in range(m + n)]
        alphas_v = np_gen.uniform(size=(batch, m + n))
        expected = sum(alphas_v[:, i : i + 1] * outputs[i].values for i in range(m + n))
        q = fuse(Tensor(alphas_v), outputs, num_historical=m)
        assert np.allclose(q.values, expected, atol=1e-15)

    def test_size_mismatch(self, np_gen):
        outputs = [Tensor(np_gen.standard_normal((2, 3)))]
        with pytest.raises(ValueError):
            fuse(Tensor(np.ones((2, 2))), outputs, num_historical=1)


class TestScore:
    def test_zero_query_scores_half(self):
        p = score(Tensor(np.zeros((2, 4))), Tensor(np.ones((5, 4))))
        assert p.shape == (2, 5)
        assert np.all(p.values == 0.5)

    def test_hand_computed(self):
        q = np.array([[1.0, -1.0]])
        H = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        p = score(Tensor(q), Tensor(H))
        assert np.allclose(p.values, sigmoid(q @ H.T), atol=1e-12)

    def test_ranking_matches_logits(self, np_gen):
        q = Tensor(np_gen.standard_normal((3, 6)))
        H = Tensor(np_gen.standard_normal((9, 6)))
        p = score(q, H).values
        logits = score_logits(q, H).values
        assert np.array_equal(np.argsort(-p, axis=1), np.argsort(-logits, axis=1))

    def test_strictly_inside_unit_interval(self, np_gen):
        # float64 1 / (1 + exp(-x)) rounds to exactly 1.0 from logit
        # ln(2**53) = 36.7368 on (IEEE rounding, not a defect; expit does the
        # same), so only logits below that stay inside
        q = Tensor(np_gen.standard_normal((4, 3)) * 10)
        H = Tensor(np_gen.standard_normal((6, 3)))
        p, logits = score(q, H).values, score_logits(q, H).values
        inside = logits < 36.7
        assert np.all(p[inside] > 0.0) and np.all(p[inside] < 1.0)
        assert np.all(p[logits >= 36.74] == 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            score(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def small_model(np_gen=None, **overrides):
    gen = np.random.default_rng(17)
    kwargs = dict(
        num_entities=7, num_relations=3, dim=5, llm_dim=11, adapter_hidden=6,
        channels=2, kernel_width=3, layers=2, window=2, dropout=0.0,
        num_historical=1, num_nonhistorical=1, gate_input="structural",
        gen=gen, dtype=np.float64,
    )
    kwargs.update(overrides)
    return init_model(**kwargs)


def small_inputs(model, seed=0):
    gen = np.random.default_rng(seed)
    spec = model.spec
    H_g = Tensor(gen.standard_normal((spec.num_entities, spec.dim)))
    R_g = Tensor(gen.standard_normal((2 * spec.num_relations, spec.dim)))
    sem = synthetic_embeddings(make_vocab(spec.num_entities, spec.num_relations), spec.llm_dim, seed=1)
    s_idx = np.array([0, 3, 6])
    r_idx = np.array([0, 4, 2])  # includes an inverse relation id
    return H_g, R_g, sem, s_idx, r_idx


class TestForwardQueries:
    def test_shapes_and_alpha_init(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        bundle = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
        assert bundle.q.shape == (3, model.spec.dim)
        assert bundle.alphas.shape == (3, 2)
        # zero-initialized gates: every weight is exactly 0.5 and each expert
        # output is the even blend of the two query views
        assert np.all(bundle.alphas.values == 0.5)
        for alpha in bundle.expert_alphas:
            assert np.all(alpha.values == 0.5)
        expected = 0.5 * (bundle.q_g.values + bundle.q_s.values)
        assert np.array_equal(bundle.expert_alphas[0].values, bundle.expert_alphas[1].values)
        assert np.allclose(bundle.q_his.values + bundle.q_nhis.values, bundle.q.values, atol=0)
        assert np.allclose(bundle.q.values, expected, atol=1e-15)

    def test_mean_path_coincides_at_init_for_one_one(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        full = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
        mean = forward_queries(
            model, H_g, R_g, sem, s_idx, r_idx,
            ablation=AblationConfig(disable_prediction_expert=True),
        )
        assert np.array_equal(full.q.values, mean.q.values)
        assert np.array_equal(full.logits.values, mean.logits.values)

    def test_disable_semantic_scores_structural_query(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        bundle = forward_queries(
            model, H_g, R_g, sem, s_idx, r_idx, ablation=AblationConfig(disable_semantic=True)
        )
        assert bundle.q is bundle.q_g
        assert bundle.q_s is None and bundle.alphas is None
        assert bundle.score_table is H_g

    def test_disable_structural_scores_semantic_table(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        bundle = forward_queries(
            model, None, None, sem, s_idx, r_idx, ablation=AblationConfig(disable_structural=True)
        )
        assert bundle.q is bundle.q_s
        assert bundle.score_table.shape == (model.spec.num_entities, model.spec.dim)

    def test_composed_pipeline_gradients(self):
        # gradient flow through score(fuse(expert_mix(decode(adapt(...)))))
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        trained = {
            name: t
            for name, t in model.named_parameters().items()
            if not name.startswith("encoder.")
        }
        with ad.Tape() as tape:
            bundle = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
            loss = ad.tensor_sum(ad.sigmoid(bundle.logits))
            ad.backward(loss, tape)
        missing = [n for n, t in trained.items() if t.grad is None]
        assert not missing, f"no gradient reached: {missing}"

    def test_pipeline_grad_check(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        probes = [
            model.gates.weights[0],
            model.gates.biases[0],
            model.prediction.w,
            model.prediction.b,
            model.decoder_g.proj,
            model.adapters.f_h.w2,
            H_g,
        ]

        def fn(*_):
            bundle = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
            return ad.tensor_sum(score(bundle.q, bundle.score_table))

        assert grad_check(fn, probes, eps=1e-5) < 1e-4
