import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtkg import autodiff as ad
from meshtkg.autodiff import Tensor, grad_check
from meshtkg.decoder import decode
from meshtkg.encoders import adapt_rows, synthetic_embeddings
from meshtkg.model import (
    AblationConfig,
    ExpertParams,
    ModelSpec,
    expert_mix,
    forward_queries,
    init_model,
    score_logits,
)

from conftest import make_vocab


def bits(a):
    """The IEEE bit patterns of a float array, for bit-for-bit comparison."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def random_experts(gen, gate_dim, num_experts, dtype=np.float64):
    experts = ExpertParams.zeros(gate_dim, num_experts, dtype=dtype)
    for t in ad.named_tensors(experts).values():
        t.values[...] = gen.standard_normal(t.shape)
    return experts


def per_expert_reference(experts, gate, q_g, q_s, num_historical, uniform=False):
    """The paper's formula one expert at a time, in float64: expert i blends
    a_i q_g + (1 - a_i) q_s, the prediction expert weighs that blend by
    p_i, and each block sums its experts."""
    gate, q_g, q_s = (np.asarray(x, dtype=np.float64) for x in (gate, q_g, q_s))
    gate_w, gate_b, pred_w, pred_b = (np.asarray(t.values, dtype=np.float64)
                                      for t in ad.named_tensors(experts).values())
    k = gate_b.size
    blocks = [0.0, 0.0]
    p = np.empty((gate.shape[0], k))
    for i in range(k):
        a_i = sigmoid(gate @ gate_w[:, i : i + 1] + gate_b[i])
        p[:, i : i + 1] = 1.0 / k if uniform else sigmoid(gate @ pred_w[:, i : i + 1] + pred_b[i])
        blocks[i >= num_historical] += p[:, i : i + 1] * (a_i * q_g + (1.0 - a_i) * q_s)
    return p, *blocks


EXPERT_COUNTS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]


class TestExpertMix:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mn", EXPERT_COUNTS, ids=lambda mn: f"{mn[0]}x{mn[1]}")
    def test_matches_per_expert_reference(self, mn, dtype):
        """Within 16 eps of |q_g| + |q_s| of the one-expert-at-a-time
        formula, for trained-looking gates and for the uniform ablation."""
        m, n = mn
        gen = np.random.default_rng(1000 * m + n)
        eps = np.finfo(dtype).eps
        worst = 0.0
        for draw in range(40):
            batch, d, g = int(gen.integers(1, 6)), int(gen.integers(2, 9)), int(gen.integers(2, 9))
            experts = random_experts(gen, g, m + n, dtype)
            gate, q_g, q_s = (Tensor(gen.standard_normal((batch, w)).astype(dtype))
                              for w in (g, d, d))
            uniform = draw % 4 == 3
            p, q_his, q_nhis = expert_mix(experts, gate, q_g, q_s, m, uniform=uniform)
            want_p, want_his, want_nhis = per_expert_reference(
                experts, gate.values, q_g.values, q_s.values, m, uniform)
            assert p.dtype == q_his.dtype == q_nhis.dtype == dtype
            assert np.allclose(p.values, want_p, rtol=0, atol=8 * eps)
            size = np.abs(q_g.values.astype(np.float64)) + np.abs(q_s.values)
            for got, want in ((q_his, want_his), (q_nhis, want_nhis)):
                worst = max(worst, float(np.max(np.abs(got.values - want) / size)) / eps)
        assert worst < 16.0

    def test_zero_gates_are_even_blends(self, np_gen):
        d = 6
        q_g = Tensor(np_gen.standard_normal((3, d)))
        q_s = Tensor(np_gen.standard_normal((3, d)))
        experts = ExpertParams.zeros(d, 2, dtype=np.float64)
        p, q_his, q_nhis = expert_mix(experts, q_g, q_g, q_s, 1)
        assert np.all(p.values == 0.5)
        assert np.array_equal(q_his.values, (q_g.values + q_s.values) / 4.0)
        assert np.array_equal(q_nhis.values, q_his.values)

    def test_saturated_gates_select_structural(self, np_gen):
        d = 4
        q_g = Tensor(np_gen.standard_normal((2, d)))
        q_s = Tensor(np_gen.standard_normal((2, d)))
        experts = ExpertParams.zeros(d, 3, dtype=np.float64)
        experts.gate_b.values[...] = 50.0
        _, q_his, q_nhis = expert_mix(experts, q_g, q_g, q_s, 2)
        assert np.allclose(q_his.values, 2 * 0.5 * q_g.values, atol=1e-13)
        assert np.allclose(q_nhis.values, 0.5 * q_g.values, atol=1e-13)

    def test_hand_computed_weights(self):
        d, k = 4, 3
        experts = ExpertParams.zeros(d, k, dtype=np.float64)
        experts.pred_w.values[...] = np.arange(d * k, dtype=float).reshape(d, k) / 10.0
        experts.pred_b.values[...] = np.array([0.1, -0.2, 0.3])
        gate = np.array([[0.5, -1.0, 0.25, 2.0]])
        expected = sigmoid(gate @ experts.pred_w.values + experts.pred_b.values)
        q = Tensor(np.ones((1, 2)))
        p, _, _ = expert_mix(experts, Tensor(gate), q, q, 1)
        assert p.shape == (1, k)
        assert np.allclose(p.values, expected, atol=1e-12)

    def test_weights_not_softmax_normalized(self):
        experts = ExpertParams.zeros(4, 3, dtype=np.float64)
        experts.pred_b.values[...] = 2.0
        q = Tensor(np.ones((1, 2)))
        p, _, _ = expert_mix(experts, Tensor(np.zeros((1, 4))), q, q, 2)
        assert p.values.sum() > 1.0  # independent sigmoids, no normalization

    def test_gradients(self):
        gen = np.random.default_rng(4)
        m, n, g, d = 2, 1, 5, 3
        experts = random_experts(gen, g, m + n)
        gate = Tensor(gen.standard_normal((2, g)))
        q_g = Tensor(gen.standard_normal((2, d)))
        q_s = Tensor(gen.standard_normal((2, d)))

        def fn(*_):
            p, q_his, q_nhis = expert_mix(experts, gate, q_g, q_s, m)
            # weigh the three outputs differently so each gradient path counts
            return ad.add(ad.add(ad.tensor_sum(q_his), ad.scale(ad.tensor_sum(q_nhis), -2.0)),
                          ad.scale(ad.tensor_sum(p), 0.5))

        probes = [*ad.named_tensors(experts).values(), gate, q_g, q_s]
        assert grad_check(fn, probes, eps=1e-5) < 1e-4


class TestScore:
    def test_zero_query_scores_half(self):
        p = ad.sigmoid(score_logits(Tensor(np.zeros((2, 4))), Tensor(np.ones((5, 4)))))
        assert p.shape == (2, 5)
        assert np.all(p.values == 0.5)

    def test_hand_computed(self):
        q = np.array([[1.0, -1.0]])
        H = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        p = ad.sigmoid(score_logits(Tensor(q), Tensor(H)))
        assert np.allclose(p.values, sigmoid(q @ H.T), atol=1e-12)

    def test_ranking_matches_logits(self, np_gen):
        q = Tensor(np_gen.standard_normal((3, 6)))
        H = Tensor(np_gen.standard_normal((9, 6)))
        logits = score_logits(q, H)
        p, logits = ad.sigmoid(logits).values, logits.values
        assert np.array_equal(np.argsort(-p, axis=1), np.argsort(-logits, axis=1))

    def test_strictly_inside_unit_interval(self, np_gen):
        # float64 1 / (1 + exp(-x)) rounds to exactly 1.0 from logit
        # ln(2**53) = 36.7368 on (IEEE rounding, not a defect; expit does the
        # same), so only logits below that stay inside
        q = Tensor(np_gen.standard_normal((4, 3)) * 10)
        H = Tensor(np_gen.standard_normal((6, 3)))
        logits = score_logits(q, H)
        p, logits = ad.sigmoid(logits).values, logits.values
        inside = logits < 36.7
        assert np.all(p[inside] > 0.0) and np.all(p[inside] < 1.0)
        assert np.all(p[logits >= 36.74] == 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            score_logits(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def small_model(**overrides):
    kwargs = dict(
        num_entities=7, num_relations=3, dim=5, llm_dim=11, adapter_hidden=6,
        channels=2, kernel_width=3, layers=2, window=2, dropout=0.0,
        num_historical=1, num_nonhistorical=1, gate_input="structural",
        dtype=np.float64,
    )
    kwargs.update(overrides)
    return init_model(ModelSpec(**kwargs), np.random.default_rng(17))


def small_inputs(model, seed=0):
    gen = np.random.default_rng(seed)
    spec = model.spec
    H_g = Tensor(gen.standard_normal((spec.num_entities, spec.dim)))
    R_g = Tensor(gen.standard_normal((2 * spec.num_relations, spec.dim)))
    sem = synthetic_embeddings(make_vocab(spec.num_entities, spec.num_relations), spec.llm_dim, seed=1)
    s_idx = np.array([0, 3, 6])
    r_idx = np.array([0, 4, 2])  # includes an inverse relation id
    return H_g, R_g, sem, s_idx, r_idx


def path_queries(model, H_g, R_g, sem, s_idx, r_idx):
    """The structural query q_g and the semantic query q_s, decoded outside
    `forward_queries` (the small model has no dropout)."""
    q_g = decode(model.decoder_g, ad.gather_rows(H_g, s_idx), ad.gather_rows(R_g, r_idx))
    q_s = decode(model.decoder_l, adapt_rows(model.adapter.f_h, sem.entity[s_idx]),
                 adapt_rows(model.adapter.f_r, sem.relation[r_idx % model.spec.num_relations]))
    return q_g, q_s


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
        q_g, q_s = path_queries(model, H_g, R_g, sem, s_idx, r_idx)
        expected = 0.5 * (q_g.values + q_s.values)
        assert np.array_equal(bundle.q_his.values, bundle.q_nhis.values)
        assert np.array_equal(bundle.q_his.values + bundle.q_nhis.values, bundle.q.values)
        assert np.array_equal(bundle.q.values, expected)

    def test_same_tape_for_any_expert_count(self):
        sizes = []
        for m, n in ((1, 1), (3, 2)):
            model = small_model(num_historical=m, num_nonhistorical=n)
            H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
            with ad.Tape(model.named_parameters().values()) as tape:
                bundle = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
            assert bundle.alphas.shape == (3, m + n)
            sizes.append([node.op for node in tape.nodes])
        assert sizes[0] == sizes[1]

    def test_mean_path_coincides_at_init_for_one_one(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        full = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
        mean = forward_queries(
            model, H_g, R_g, sem, s_idx, r_idx,
            ablation=AblationConfig(disable_prediction_expert=True),
        )
        assert np.array_equal(full.q.values, mean.q.values)
        assert np.array_equal(score_logits(full.q, full.score_table).values,
                              score_logits(mean.q, mean.score_table).values)

    def test_disable_semantic_scores_structural_query(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        bundle = forward_queries(
            model, H_g, R_g, sem, s_idx, r_idx, ablation=AblationConfig(disable_semantic=True)
        )
        q_g, _ = path_queries(model, H_g, R_g, sem, s_idx, r_idx)
        assert np.array_equal(bits(bundle.q.values), bits(q_g.values))
        assert bundle.q_his is None and bundle.q_nhis is None and bundle.alphas is None
        assert bundle.score_table is H_g

    def test_disable_structural_scores_semantic_table(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        bundle = forward_queries(
            model, None, None, sem, s_idx, r_idx, ablation=AblationConfig(disable_structural=True)
        )
        _, q_s = path_queries(model, H_g, R_g, sem, s_idx, r_idx)
        assert np.array_equal(bits(bundle.q.values), bits(q_s.values))
        assert bundle.q_his is None and bundle.q_nhis is None and bundle.alphas is None
        assert bundle.score_table.shape == (model.spec.num_entities, model.spec.dim)

    def test_composed_pipeline_gradients(self):
        # gradient flow through score(expert_mix(decode(adapt(...))))
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        trained = {
            name: t
            for name, t in model.named_parameters().items()
            if not name.startswith("encoder.")
        }
        with ad.Tape(trained.values()) as tape:
            bundle = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
            loss = ad.tensor_sum(ad.sigmoid(score_logits(bundle.q, bundle.score_table)))
            grads = ad.backward(loss, tape)
        missing = [n for n, g in zip(trained, grads) if not np.any(g)]
        assert not missing, f"no gradient reached: {missing}"

    def test_pipeline_grad_check(self):
        model = small_model()
        H_g, R_g, sem, s_idx, r_idx = small_inputs(model)
        probes = [
            *ad.named_tensors(model.experts).values(),
            model.decoder_g.proj,
            model.adapter.f_h.w2,
            H_g,
        ]

        def fn(*_):
            bundle = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
            return ad.tensor_sum(ad.sigmoid(score_logits(bundle.q, bundle.score_table)))

        assert grad_check(fn, probes, eps=1e-5) < 1e-4
