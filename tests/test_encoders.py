import os
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from meshtkg import autodiff as ad
from meshtkg import encoders, rng
from meshtkg.autodiff import Tensor, grad_check
from meshtkg.encoders import (
    EmbeddingCoverageError,
    EmbeddingFormatError,
    GruParams,
    SemanticEmbeddingTable,
    adapt_rows,
    emit_prompts,
    encode_structural,
    gru_cell,
    init_adapters,
    init_gru,
    init_structural_encoder,
    load_semantic_embeddings,
    save_semantic_embeddings,
    synthetic_embeddings,
)
from meshtkg.tkg import ParseError, Quadruple, TemporalKG, Vocabulary, add_inverse_relations

from conftest import dense_gather, group, make_vocab


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestStructuralEncoder:
    def test_zero_window_returns_initial_tables(self, np_gen):
        params = init_structural_encoder(5, 4, 8, layers=2, window=0, dropout=0.0, gen=np_gen)
        edges = group([(0, 0, 1, 0), (1, 1, 2, 1)]).snapshots()
        H, R = encode_structural(params, edges, t=2)
        assert H is params.entity_emb and R is params.relation_emb

    def test_t_zero_returns_initial_tables(self, np_gen):
        params = init_structural_encoder(5, 4, 8, layers=2, window=3, dropout=0.0, gen=np_gen)
        edges = group([(0, 0, 1, 0)]).snapshots()
        H, R = encode_structural(params, edges, t=0)
        assert H is params.entity_emb

    def test_output_shapes(self, np_gen):
        tkg = add_inverse_relations(group([(0, 0, 1, 0), (2, 1, 3, 1), (4, 2, 5, 1)]), 3)
        params = init_structural_encoder(6, 6, 10, layers=2, window=3, dropout=0.0, gen=np_gen)
        H, R = encode_structural(params, tkg.snapshots(), t=2)
        assert H.shape == (6, 10)
        assert R.shape == (6, 10)

    def test_causality_ignores_snapshots_at_or_after_t(self, np_gen):
        params = init_structural_encoder(4, 2, 6, layers=1, window=5, dropout=0.0, gen=np_gen)
        past = group([(0, 0, 1, 0), (1, 0, 2, 1)])
        with_future = group([(0, 0, 1, 0), (1, 0, 2, 1), (2, 0, 3, 2), (3, 0, 0, 3)])
        H1, R1 = encode_structural(params, past.snapshots(), t=2)
        H2, R2 = encode_structural(params, with_future.snapshots(), t=2)
        assert np.array_equal(H1.values, H2.values)
        assert np.array_equal(R1.values, R2.values)

    def test_empty_snapshot_inside_window(self, np_gen):
        # a gap timestamp (no facts) still evolves the tables via the cells
        params = init_structural_encoder(4, 2, 6, layers=2, window=3, dropout=0.0, gen=np_gen)
        gappy = TemporalKG([[Quadruple(0, 0, 1, 0)], [], [Quadruple(1, 1, 2, 2)]], "train")
        H, R = encode_structural(params, gappy.snapshots(), t=3)
        assert H.shape == (4, 6) and R.shape == (2, 6)
        assert np.all(np.isfinite(H.values))

    def test_eval_encoding_is_bit_identical(self, np_gen):
        params = init_structural_encoder(5, 4, 8, layers=2, window=3, dropout=0.3, gen=np_gen)
        edges = group([(0, 0, 1, 0), (1, 1, 2, 1), (3, 0, 4, 2)]).snapshots()
        H1, _ = encode_structural(params, edges, t=3)
        H2, _ = encode_structural(params, edges, t=3)
        assert np.array_equal(H1.values, H2.values)

    def test_zero_weights_hand_computed_cell(self):
        """All-zero weights: aggregation is zero, the gated update reduces to
        (1 - sigmoid(b_z)) * tanh(b_n) for every entity row."""
        d = 3
        params = init_structural_encoder(3, 2, d, layers=1, window=1, dropout=0.0,
                                         gen=np.random.default_rng(0), dtype=np.float64)
        for t in ad.named_tensors(params).values():
            t.values[...] = 0.0
        # distinctive gate biases: update 0.4, reset -0.3, candidate 0.9
        b = np.concatenate([np.full(d, 0.4), np.full(d, -0.3), np.full(d, 0.9)])
        params.ent_cell.b.values[...] = b
        params.rel_cell.b.values[...] = b
        edges = group([(0, 0, 1, 0)]).snapshots()
        H, R = encode_structural(params, edges, t=1)
        expected = (1.0 - sigmoid(0.4)) * np.tanh(0.9)
        assert np.allclose(H.values, expected, atol=1e-12)
        assert np.allclose(R.values, expected, atol=1e-12)

    def test_gradients_flow_to_all_encoder_params(self):
        gen = np.random.default_rng(5)
        params = init_structural_encoder(4, 4, 3, layers=2, window=2, dropout=0.0,
                                         gen=gen, dtype=np.float64)
        tkg = add_inverse_relations(group([(0, 0, 1, 0), (1, 1, 2, 1), (2, 0, 3, 1)]), 2)
        edges = tkg.snapshots()
        named = ad.named_tensors(params)
        with ad.Tape(named.values()) as tape:
            H, R = encode_structural(params, edges, t=2)
            loss = ad.add(ad.tensor_sum(ad.sigmoid(H)), ad.tensor_sum(ad.sigmoid(R)))
            grads = ad.backward(loss, tape)
        missing = [n for n, g in zip(named, grads) if not np.any(g)]
        assert not missing, f"no gradient reached: {missing}"

    def test_encoder_gradient_check_small(self):
        gen = np.random.default_rng(9)
        tkg = add_inverse_relations(group([(0, 0, 1, 0), (1, 0, 2, 0)]), 1)
        edges = tkg.snapshots()
        params = init_structural_encoder(3, 2, 2, layers=1, window=1, dropout=0.0,
                                         gen=gen, dtype=np.float64)

        def fn(ent, rel):
            params.entity_emb = ent
            params.relation_emb = rel
            H, R = encode_structural(params, edges, t=1)
            return ad.add(ad.tensor_sum(ad.sigmoid(H)), ad.tensor_sum(ad.sigmoid(R)))

        ent = Tensor(params.entity_emb.values.copy())
        rel = Tensor(params.relation_emb.values.copy())
        assert grad_check(fn, [ent, rel], eps=1e-5) < 1e-4


def composed_gru_cell(params: GruParams, x: Tensor, h: Tensor) -> Tensor:
    """The cell spelled out in primitive ops; oracle for the fused `ad.gru`."""
    d = params.wh.shape[0]
    xa = ad.matmul(x, params.wx)
    ha = ad.matmul(h, params.wh)
    z = ad.sigmoid(ad.add(ad.add(ad.slice_last(xa, 0, d), ad.slice_last(ha, 0, d)),
                          ad.slice_last(params.b, 0, d)))
    r = ad.sigmoid(ad.add(ad.add(ad.slice_last(xa, d, 2 * d), ad.slice_last(ha, d, 2 * d)),
                          ad.slice_last(params.b, d, 2 * d)))
    n = ad.tanh(ad.add(ad.add(ad.slice_last(xa, 2 * d, 3 * d),
                              ad.mul(r, ad.slice_last(ha, 2 * d, 3 * d))),
                       ad.slice_last(params.b, 2 * d, 3 * d)))
    one_minus_z = ad.shift(ad.neg(z), 1.0)
    return ad.add(ad.mul(one_minus_z, n), ad.mul(z, h))


class TestGruCell:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_forward_matches_composed_bit_for_bit(self, dtype):
        gen = np.random.default_rng(11)
        cell = init_gru(6, 4, gen, dtype=dtype)
        cell.b.values[...] = gen.standard_normal(12)
        x = Tensor(gen.standard_normal((9, 6)).astype(dtype))
        h = Tensor(gen.standard_normal((9, 4)).astype(dtype))
        fused = gru_cell(cell, x, h).values
        assert fused.dtype == dtype
        assert np.array_equal(fused, composed_gru_cell(cell, x, h).values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch,in_dim,hidden", [
        (7128, 100, 100), (460, 200, 100), (7128, 32, 32), (460, 64, 32),  # the benchmark's
        (37, 200, 100), (100, 100, 100),
    ])
    def test_fused_forward_within_8_eps_of_composed(self, batch, in_dim, hidden, dtype):
        """Per-gate matmuls may round differently from slicing the full
        x @ Wx: about 1-2% of the elements differ at some shapes, by at
        most 8 eps (the outputs are O(1))."""
        gen = np.random.default_rng(batch + in_dim + hidden)
        cell = init_gru(in_dim, hidden, gen, dtype=dtype)
        cell.b.values[...] = gen.standard_normal(3 * hidden)
        x = Tensor(gen.standard_normal((batch, in_dim)).astype(dtype))
        h = Tensor(gen.standard_normal((batch, hidden)).astype(dtype))
        diff = np.abs(gru_cell(cell, x, h).values - composed_gru_cell(cell, x, h).values)
        assert diff.max() <= 8 * np.finfo(dtype).eps

    def test_fused_gradients_match_composed(self):
        gen = np.random.default_rng(12)
        cell = init_gru(3, 2, gen, dtype=np.float64)
        cell.b.values[...] = gen.standard_normal(6)
        inputs = [Tensor(gen.standard_normal((4, 3))), Tensor(gen.standard_normal((4, 2)))]
        weights = gen.standard_normal((4, 2))

        def grads(cell_fn):
            with ad.Tape(inputs + [cell.wx, cell.wh, cell.b]) as tape:
                out = cell_fn(cell, *inputs)
                return ad.backward(ad.tensor_sum(ad.mul(out, Tensor(weights))), tape)

        for fused, composed in zip(grads(gru_cell), grads(composed_gru_cell)):
            assert fused.shape == composed.shape
            assert np.max(np.abs(fused - composed) / np.maximum(1.0, np.abs(composed))) < 1e-10

    def test_backward_keeps_no_full_width_preactivation(self):
        """Only (B, d)-wide gate arrays stay alive for the backward pass,
        never a (B, 3d) pre-activation or a view into one."""
        gen = np.random.default_rng(13)
        cell = init_gru(5, 4, gen, dtype=np.float32)
        x, h = Tensor(gen.standard_normal((9, 5))), Tensor(gen.standard_normal((9, 4)))
        with ad.Tape([x, h, cell.wx, cell.wh, cell.b]) as tape:
            gru_cell(cell, x, h)
        kept = []
        for cell_ref in tape.nodes[-1].backward_fn.__closure__:
            arr = cell_ref.cell_contents
            while isinstance(arr, np.ndarray):
                kept.append(arr.shape)
                arr = arr.base
        assert kept and all(shape[-1] != 12 for shape in kept), kept

    def test_hand_computed_step(self):
        d = 2
        cell = GruParams(
            wx=Tensor(np.zeros((d, 3 * d))),
            wh=Tensor(np.zeros((d, 3 * d))),
            b=Tensor(np.array([0.1, 0.1, -0.2, -0.2, 0.5, 0.5])),
        )
        h = Tensor(np.array([[1.0, -1.0]]))
        x = Tensor(np.zeros((1, d)))
        out = gru_cell(cell, x, h).values[0]
        z = sigmoid(0.1)
        n = np.tanh(0.5)
        assert np.allclose(out, (1 - z) * n + z * h.values[0])


def dense_aggregate(layer, X: Tensor, R: Tensor, rows: np.ndarray) -> Tensor:
    """The aggregation layer over every entity row, rows with no in-edge
    averaging to zero before the agg transform; oracle for the row-sparse
    `encoders.aggregate`."""
    num_entities = X.shape[0]
    s_idx, r_idx, o_idx = rows[:, 0], rows[:, 1], rows[:, 2]
    in_deg = np.bincount(o_idx, minlength=num_entities).astype(X.dtype)
    inv_deg = np.divide(1.0, in_deg, out=np.zeros_like(in_deg), where=in_deg > 0)
    msg = ad.add(ad.gather_rows(X, s_idx), ad.gather_rows(R, r_idx))
    agg = ad.mul(ad.scatter_add_rows(msg, o_idx, num_entities), Tensor(inv_deg[:, None]))
    return ad.add(ad.matmul(agg, layer.agg), ad.matmul(X, layer.self))


def scattered_aggregate(layer, X: Tensor, R: Tensor, rows: np.ndarray) -> Tensor:
    """`encoders.aggregate` with the agg rows scattered into a zero (|E|, d)
    table that is then added to X @ self; the bit-for-bit oracle of its
    in-place rows."""
    s_idx, r_idx, o_idx = rows[:, 0], rows[:, 1], rows[:, 2]
    dst, slot, in_deg = np.unique(o_idx, return_inverse=True, return_counts=True)
    inv_deg = Tensor(np.divide(1.0, in_deg.astype(X.dtype))[:, None])
    msg = ad.add(ad.gather_rows(X, s_idx), ad.gather_rows(R, r_idx))
    agg = ad.mul(ad.scatter_add_rows(msg, slot, len(dst)), inv_deg)
    return ad.add(ad.scatter_add_rows(ad.matmul(agg, layer.agg), dst, X.shape[0]),
                  ad.matmul(X, layer.self))


def skewed_snapshots(seed, num_entities, num_relations, facts_per_step, count):
    """`count` snapshots of facts and their inverses (relation + R), with
    Zipf-skewed entity popularity as in news-event data, so objects repeat
    and most entities have no in-edge in a snapshot."""
    gen = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, num_entities + 1) ** 1.1
    pop = (pop / pop.sum())[gen.permutation(num_entities)]
    blocks = []
    for _ in range(count):
        s, o = gen.choice(num_entities, size=(2, facts_per_step), p=pop)
        r = gen.integers(num_relations, size=facts_per_step)
        blocks.append(np.concatenate([np.stack([s, r, o], axis=1),
                                      np.stack([o, r + num_relations, s], axis=1)]))
    return blocks


# (|E|, |R|, facts per timestamp) of bench/stream.py's TINY and ICEWS14 shapes
ENCODER_SHAPES = {"tiny": (60, 6, 12), "icews14": (7128, 230, 246)}


class TestSparseAggregation:
    def _encode(self, monkeypatch, layer_fn, shape, dim, dtype):
        """Outputs and every encoder gradient of a 2-layer, window-3 encode,
        with dropout drawn from a Philox stream, under `layer_fn`; and the
        op of each recorded node."""
        num_entities, num_relations, facts = ENCODER_SHAPES[shape]
        params = init_structural_encoder(num_entities, 2 * num_relations, dim, layers=2,
                                         window=3, dropout=0.2, gen=np.random.default_rng(4),
                                         dtype=dtype)
        snapshots = skewed_snapshots(5, num_entities, num_relations, facts, 3)
        weights = np.random.default_rng(6)
        w_h = Tensor(weights.standard_normal((num_entities, dim)).astype(dtype))
        w_r = Tensor(weights.standard_normal((2 * num_relations, dim)).astype(dtype))
        monkeypatch.setattr(encoders, "aggregate", layer_fn)
        named = ad.named_tensors(params)
        with ad.Tape(named.values()) as tape:
            H, R = encode_structural(params, snapshots, t=3, gen=rng.stream(1, rng.DROPOUT))
            loss = ad.add(ad.tensor_sum(ad.mul(H, w_h)), ad.tensor_sum(ad.mul(R, w_r)))
            grads = ad.backward(loss, tape)
        return (H.values, R.values, dict(zip(named, grads)),
                [node.op for node in tape.nodes])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [32, 100])
    @pytest.mark.parametrize("shape", ["tiny", "icews14"])
    def test_matches_dense_layer(self, monkeypatch, shape, dim, dtype):
        """The (k, d) agg product may round differently from the same rows of
        the (|E|, d) one, so outputs are held to 8 eps and gradients to 16
        eps of each array's largest element (at least 1); at the float32
        shapes of the run digest (tiny, 32) and the benchmark (icews14, 32
        and 100) the outputs are equal."""
        sparse = self._encode(monkeypatch, encoders.aggregate, shape, dim, dtype)
        dense = self._encode(monkeypatch, dense_aggregate, shape, dim, dtype)
        eps = np.finfo(dtype).eps
        for got, want in zip(sparse[:2], dense[:2]):
            assert got.dtype == dtype
            if dtype == np.float32 and (shape, dim) != ("tiny", 100):
                assert np.array_equal(got, want)
            assert np.abs(got - want).max() <= 8 * eps
        grads, oracle = sparse[2], dense[2]
        assert grads.keys() == oracle.keys()
        for name, want in oracle.items():
            bound = 16 * eps * max(1.0, np.abs(want).max())
            assert np.abs(grads[name] - want).max() <= bound, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [32, 100])
    @pytest.mark.parametrize("shape", ["tiny", "icews14"])
    def test_matches_scattered_layer_and_dense_gathers_bit_for_bit(self, monkeypatch, shape,
                                                                    dim, dtype):
        """Outputs and every encoder gradient have the bits of the zero-table
        forms: each layer's agg rows scattered into an (|E|, d) table, and
        each gather's gradient a table too. Each of the 2 layers over 3
        snapshots adds its agg rows in place instead."""
        got = self._encode(monkeypatch, encoders.aggregate, shape, dim, dtype)
        assert got[3].count("add_rows") == 2 * 3
        monkeypatch.setattr(ad, "gather_rows", dense_gather)
        want = self._encode(monkeypatch, scattered_aggregate, shape, dim, dtype)
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == dtype and g.tobytes() == w.tobytes()
        assert got[2].keys() == want[2].keys()
        for name, w in want[2].items():
            assert got[2][name].tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_without_in_edge_gets_self_transform(self, dtype):
        gen = np.random.default_rng(8)
        layer = encoders.LayerParams(*(Tensor(gen.standard_normal((4, 4)).astype(dtype))
                                       for _ in range(2)))
        X = Tensor(gen.standard_normal((5, 4)).astype(dtype))
        R = Tensor(gen.standard_normal((3, 4)).astype(dtype))
        rows = np.array([[0, 1, 2, 0], [3, 0, 2, 0], [1, 2, 4, 0]])  # objects 2 and 4
        out = encoders.aggregate(layer, X, R, rows).values
        self_loop = X.values @ layer.self.values
        assert np.array_equal(out[[0, 1, 3]], self_loop[[0, 1, 3]])
        dense = dense_aggregate(layer, X, R, rows).values
        assert np.abs(out - dense).max() <= 8 * np.finfo(dtype).eps

    def test_snapshot_with_no_facts(self):
        gen = np.random.default_rng(9)
        layer = encoders.LayerParams(*(Tensor(gen.standard_normal((4, 4))) for _ in range(2)))
        X, R = Tensor(gen.standard_normal((5, 4))), Tensor(gen.standard_normal((3, 4)))
        with ad.Tape([layer.agg, layer.self, X, R]) as tape:
            out = encoders.aggregate(layer, X, R, np.empty((0, 4), np.int64))
            g_agg, _, g_x, g_r = ad.backward(ad.tensor_sum(out), tape)
        assert np.array_equal(out.values, X.values @ layer.self.values)
        assert not np.any(g_agg) and not np.any(g_r)
        assert np.array_equal(g_x, np.ones((5, 4)) @ layer.self.values.T)


def prompt_lines(tmp_path):
    """The emitted lines of a one-entity, one-relation vocabulary."""
    path = tmp_path / "prompts.tsv"
    emit_prompts(Vocabulary(["France"], ["Abuse"], 0), "political", "historical", str(path))
    return path.read_text().splitlines()


class TestPrompts:
    def test_political_domain_entity_prompt(self, tmp_path):
        assert prompt_lines(tmp_path)[0] == (
            "E\t0\tIn the context of political, please provide historical background about France."
        )

    def test_relation_prompt(self, tmp_path):
        assert prompt_lines(tmp_path)[1] == (
            "R\t0\tIn the context of political, what are the historical perspectives "
            "through which we can understand the Abuse?"
        )

    def test_emit_file_layout(self, tmp_path):
        vocab = make_vocab(2, 1)
        path = tmp_path / "prompts.tsv"
        n = emit_prompts(vocab, "political", "historical", str(path))
        lines = path.read_text().splitlines()
        assert n == 3 and len(lines) == 3
        kind, idx, prompt = lines[0].split("\t")
        assert (kind, idx) == ("E", "0")
        assert "e0" in prompt and "<" not in prompt
        assert lines[2].startswith("R\t0\t")

    def test_empty_vocab_empty_file(self, tmp_path):
        vocab = make_vocab(0, 0)
        path = tmp_path / "prompts.tsv"
        emit_prompts(vocab, "a", "b", str(path))
        assert path.read_text() == ""


class TestFrozenEncoding:
    def test_miss_stores_the_arrays_and_a_hit_reads_them(self, np_gen, monkeypatch):
        params = init_structural_encoder(6, 6, 10, layers=2, window=3, dropout=0.0, gen=np_gen)
        snapshots = add_inverse_relations(group([(0, 0, 1, 0), (2, 1, 3, 1), (4, 2, 5, 1)]),
                                          3).snapshots()
        cache = {}
        H, R = encoders.frozen_encoding(params, snapshots, 2, cache)
        H_ref, R_ref = encode_structural(params, snapshots, 2)
        assert list(cache) == [2]
        assert np.array_equal(H.values, H_ref.values) and np.array_equal(R.values, R_ref.values)
        assert {H.key, R.key}.isdisjoint(t.key for t in ad.named_tensors(params).values())
        # a hit encodes nothing and wraps the stored arrays
        monkeypatch.setattr(encoders, "encode_structural", None)
        H2, R2 = encoders.frozen_encoding(params, snapshots, 2, cache)
        assert H2.values is cache[2][0] and R2.values is cache[2][1]

    def test_no_history_gives_constants_over_the_embedding_tables(self, np_gen):
        params = init_structural_encoder(5, 4, 8, layers=2, window=3, dropout=0.0, gen=np_gen)
        H, R = encoders.frozen_encoding(params, group([(0, 0, 1, 0)]).snapshots(), 0, {})
        assert H is not params.entity_emb and R is not params.relation_emb
        assert H.values is params.entity_emb.values and R.values is params.relation_emb.values


def philox_stream(seed, domain, index):
    """A new Philox keyed by (seed, domain, index), as `rng` defines its
    streams; built without `rng`."""
    key = np.array([seed % 2**64, (domain % 2**32) << 32 | index % 2**32], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TestSemanticTables:
    def test_synthetic_deterministic(self):
        vocab = make_vocab(4, 2)
        a = synthetic_embeddings(vocab, 16, seed=3)
        b = synthetic_embeddings(vocab, 16, seed=3)
        assert np.array_equal(a.entity, b.entity)
        assert np.array_equal(a.relation, b.relation)
        c = synthetic_embeddings(vocab, 16, seed=4)
        assert not np.array_equal(a.entity, c.entity)

    @pytest.mark.parametrize("num_entities, num_relations, dim", [
        (4, 0, 7), (4, 3, 7), (0, 0, 7), (1, 0, 7), (1, 1, 7), (5, 2, 4096), (1, 1, 4096)])
    def test_synthetic_rows_are_their_streams_draws(self, num_entities, num_relations, dim):
        """Row i is the float64 draw of a new Philox keyed by (seed, kind, i),
        rounded to float32, bit for bit; width 4,096 is drawn on every core."""
        assert 4096 >= encoders.THREADED_WIDTH
        table = synthetic_embeddings(make_vocab(num_entities, num_relations), dim, seed=5)
        for block, kind in ((table.entity, rng.SYNTH_ENTITY), (table.relation, rng.SYNTH_RELATION)):
            want = np.array([philox_stream(5, kind, i).standard_normal(dim)
                             for i in range(len(block))], dtype=np.float32).reshape(-1, dim)
            assert block.dtype == np.float32
            assert block.tobytes() == want.tobytes()
        assert table.entity.shape == (num_entities, dim)
        assert table.relation.shape == (num_relations, dim)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_synthetic_rows_do_not_depend_on_the_core_count(self, monkeypatch, cpus):
        """One thread, two, or more threads than rows draw the same bytes."""
        vocab = make_vocab(5, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = synthetic_embeddings(vocab, encoders.THREADED_WIDTH, seed=2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        got = synthetic_embeddings(vocab, encoders.THREADED_WIDTH, seed=2)
        assert got.entity.tobytes() == want.entity.tobytes()
        assert got.relation.tobytes() == want.relation.tobytes()

    def test_synthetic_rows_without_sched_getaffinity(self, monkeypatch):
        """Where the OS has no affinity call, the threaded width draws over
        `os.cpu_count()` workers the bytes it draws on Linux."""
        vocab = make_vocab(5, 2)
        want = synthetic_embeddings(vocab, encoders.THREADED_WIDTH, seed=2)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        got = synthetic_embeddings(vocab, encoders.THREADED_WIDTH, seed=2)
        assert got.entity.tobytes() == want.entity.tobytes()
        assert got.relation.tobytes() == want.relation.tobytes()

    def test_an_exception_in_a_worker_reaches_the_caller(self, monkeypatch):
        """Two workers split the 5 entity rows 2 / 3: row 4 is the second's."""
        rekey = rng.rekey

        def failing(bitgen, seed, domain, index=0):
            if (domain, index) == (rng.SYNTH_ENTITY, 4):
                raise MemoryError("Unable to allocate row 4")
            rekey(bitgen, seed, domain, index)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(rng, "rekey", failing)
        with pytest.raises(MemoryError, match="row 4"):
            synthetic_embeddings(make_vocab(5, 1), encoders.THREADED_WIDTH, seed=1)

    def test_streams_draw_no_os_entropy(self, monkeypatch):
        """A stream is fixed by its key, so building one calls no
        `random.getrandbits` for OS entropy (it reads `random._urandom`), as
        a Philox built from a key alone does for a seed it then discards."""
        class EntropyRead(Exception):
            pass

        def refuse(numbytes):
            raise EntropyRead

        keys = ((1, rng.INIT, 0), (2**64 + 3, rng.DROPOUT, 2**32 + 7))
        monkeypatch.setattr(random, "_urandom", refuse)
        with pytest.raises(EntropyRead):
            philox_stream(*keys[0])
        got = [rng.stream(*key).standard_normal(9) for key in keys]
        monkeypatch.undo()
        for key, draw in zip(keys, got):
            assert draw.tobytes() == philox_stream(*key).standard_normal(9).tobytes()

    def test_synthetic_rows_differ(self):
        table = synthetic_embeddings(make_vocab(3, 1), 8, seed=0)
        assert not np.array_equal(table.entity[0], table.entity[1])
        assert not np.array_equal(table.entity[0], table.relation[0])

    def test_synthetic_row_moments(self):
        table = synthetic_embeddings(make_vocab(2, 1), 4096, seed=1)
        for row in (table.entity[0], table.entity[1], table.relation[0]):
            assert abs(row.mean()) < 5.0 / np.sqrt(4096)
            assert abs(row.var() - 1.0) < 5.0 * np.sqrt(2.0 / 4096)

    @pytest.mark.parametrize("binary", [False, True])
    def test_roundtrip_bit_identical(self, tmp_path, binary):
        vocab = make_vocab(5, 3)
        table = synthetic_embeddings(vocab, 12, seed=9)
        path = str(tmp_path / "emb")
        save_semantic_embeddings(path, table, binary=binary)
        loaded = load_semantic_embeddings(path, vocab)
        assert np.array_equal(loaded.entity, table.entity)
        assert np.array_equal(loaded.relation, table.relation)

    @pytest.mark.parametrize("binary", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_finite_rows_round_trip_bit_for_bit(self, binary, data, tmp_path_factory):
        """Any finite float32 rows, -0.0, subnormals and the extremes
        included, come back with their bits, in either layout."""
        num_entities, num_relations, dim = data.draw(
            st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(1, 5)))
        info = np.finfo(np.float32)
        finite = st.floats(width=32, allow_nan=False, allow_infinity=False,
                           allow_subnormal=True) | st.sampled_from(
            [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal, info.tiny,
             info.max, info.min])
        entity, relation = (data.draw(hnp.arrays(np.float32, (n, dim), elements=finite))
                            for n in (num_entities, num_relations))
        path = str(tmp_path_factory.mktemp("emb") / "emb")
        save_semantic_embeddings(path, SemanticEmbeddingTable(entity, relation, dim, "drawn"),
                                 binary=binary)
        loaded = load_semantic_embeddings(path, make_vocab(num_entities, num_relations))
        assert loaded.entity.tobytes() == entity.tobytes()
        assert loaded.relation.tobytes() == relation.tobytes()

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind, row", [("E", 2), ("R", 1)])
    def test_non_finite_row_refused_before_writing(self, tmp_path, binary, value, kind, row):
        """A row the reader would refuse is named by kind and id, and no
        file is written."""
        table = synthetic_embeddings(make_vocab(3, 2), 4, seed=1)
        (table.entity if kind == "E" else table.relation)[row, 1] = value
        table.relation[-1, 0] = np.nan  # a later bad row is not the one named
        path = tmp_path / "emb"
        with pytest.raises(ValueError, match=f"^non-finite embedding value in row {kind} {row}$"):
            save_semantic_embeddings(str(path), table, binary=binary)
        assert not path.exists()

    def test_packed_body_that_starts_like_a_text_row_loads(self, tmp_path):
        """The float32 0.50014144 is the bytes `E<TAB>\\x00?`: the header's
        version, not the body's first bytes, names the layout."""
        vocab = make_vocab(5, 3)
        table = synthetic_embeddings(vocab, 12, seed=9)
        table.entity[0, 0] = 0.50014144
        path = tmp_path / "emb"
        save_semantic_embeddings(str(path), table, binary=True)
        assert path.read_bytes().split(b"\n", 1)[1].startswith(b"E\t")
        loaded = load_semantic_embeddings(str(path), vocab)
        assert np.array_equal(loaded.entity, table.entity)
        assert np.array_equal(loaded.relation, table.relation)

    def test_header_row_count(self, tmp_path):
        path = tmp_path / "emb"
        path.write_text("tkg-emb 1 3 4\nE\t0\t1 2 3 4\nE\t1\t1 2 3 4\nR\t0\t1 2 3 4\n")
        vocab = make_vocab(2, 1)
        table = load_semantic_embeddings(str(path), vocab)
        assert table.entity.shape == (2, 4)
        assert table.relation.shape == (1, 4)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb"
        path.write_text("tkg-emb 1 2 4\nE\t0\t1 2 3\nR\t0\t1 2 3 4\n")
        with pytest.raises(EmbeddingFormatError, match="declares 4"):
            load_semantic_embeddings(str(path), make_vocab(1, 1))

    @pytest.mark.parametrize("text, error, message", [
        (b"tkg-emb x 3 4\n", EmbeddingFormatError, "bad header"),
        (b"tkg-emb 1 2 2\nE\tzero\t1 2\nR\t0\t1 2\n", EmbeddingFormatError,
         "emb:2: id is not an integer"),
        # ids that int() reads as 0 but the id and fact files' field rule refuses
        (b"tkg-emb 1 2 2\nE\t0_0\t1 2\nR\t0\t1 2\n", EmbeddingFormatError,
         "emb:2: id is not an integer: '0_0'"),
        ("tkg-emb 1 2 2\nE\t0\t1 2\nR\t\u0660\t1 2\n".encode(), EmbeddingFormatError,
         "emb:3: id is not an integer: '\u0660'"),
        (b"tkg-emb 1 2 2\nE\t0\t1 2\nR\t0\t1 \xff\n", ParseError, "emb:3: byte 0xff is not UTF-8"),
        (b"tkg-emb 1 2 -4\nE\t0\t1 2\nR\t0\t1 2\n", EmbeddingFormatError, "width -4"),
        (b"tkg-emb 1 2 0\n", EmbeddingFormatError, "width 0"),
        # rows of 10**17 values are beyond any memory: refused before allocating
        (b"tkg-emb 1 2 100000000000000000\nE\t0\t1 2\nR\t0\t1 2\n", EmbeddingFormatError,
         "body holds only 16 bytes"),
        (None, EmbeddingFormatError, "missing embedding file"),
        (b"tkg-emb 3 2 2\nE\t0\t1 2\nR\t0\t1 2\n", EmbeddingFormatError,
         "unsupported format version 3"),
        (b"tkg-emb 1 3 2\nE\t0\t1 2\nR\t0\t1 2\n", EmbeddingCoverageError,
         "header declares 3 rows, vocabulary needs 2"),
        (b"tkg-emb 1 2 2\nE\t0\nR\t0\t1 2\n", EmbeddingFormatError,
         "emb:2: expected `E|R<TAB>id<TAB>values`"),
        (b"tkg-emb 1 2 2\nE\t0\t1 x\nR\t0\t1 2\n", EmbeddingFormatError,
         "emb:2: non-numeric embedding value"),
        (b"tkg-emb 1 2 2\nE\t0\t1 2\nE\t1\t1 2\n", EmbeddingCoverageError,
         "emb:3: E id 1 outside vocabulary"),
        (b"tkg-emb 1 2 2\nE\t0\t1 2\nR\t0\t1 2\nE\t0\t9 9\n", EmbeddingFormatError,
         "emb:4: E id 0 given twice"),
        (b"tkg-emb 1 2 2\nE\t0\tinf 2\nR\t0\t1 2\n", EmbeddingFormatError,
         "emb:2: non-finite embedding value"),
        (b"tkg-emb 1 2 2\nE\t0\t1 2\n\nR\t0\t1 nan\n", EmbeddingFormatError,
         "emb:4: non-finite embedding value"),
        (b"tkg-emb 2 2 2\n" + np.array([1, 2, 1, np.inf], dtype="<f4").tobytes(),
         EmbeddingFormatError, "non-finite embedding value in binary row R 0"),
        (b"tkg-emb 2 2 2\n" + np.array([1, 2, 1], dtype="<f4").tobytes(),
         EmbeddingFormatError, "packed values (16 bytes), the body holds 12"),
        # a version-1 body is text rows, whatever its length
        (b"tkg-emb 1 2 2\n" + np.array([1, 2, 1, 3], dtype="<f4").tobytes(),
         ParseError, "emb:2: byte 0x80 is not UTF-8"),
    ], ids=["header", "row_id", "row_id_underscore", "row_id_other_script", "utf8", "negative_dim", "zero_dim", "sizes_beyond_memory",
            "missing_file", "version", "row_count", "malformed_row", "non_numeric",
            "id_outside_vocabulary", "repeated_id", "inf", "nan_after_blank_line", "non_finite_binary_row",
            "packed_length", "packed_body_under_text_version"])
    def test_malformed_file_is_refused(self, tmp_path, text, error, message):
        path = tmp_path / "emb"
        if text is not None:
            path.write_bytes(text)
        with pytest.raises(error, match=re.escape(message)):
            load_semantic_embeddings(str(path), make_vocab(1, 1))

    @pytest.mark.parametrize("value", ["1e39", "-3.5e38"])
    def test_value_beyond_float32_is_located_without_a_warning(self, tmp_path, value):
        path = tmp_path / "emb"
        path.write_text(f"tkg-emb 1 3 2\nE\t0\t1 2\nE\t1\t0.5 {value}\nR\t0\t1 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingFormatError,
                               match=rf"^{re.escape(str(path))}:3: .* beyond the float32 range$"):
                load_semantic_embeddings(str(path), make_vocab(2, 1))

    def test_largest_float32_value_loads(self, tmp_path):
        path = tmp_path / "emb"
        path.write_text("tkg-emb 1 2 2\nE\t0\t3.4028235e38 -3.4028235e38\nR\t0\t1 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_semantic_embeddings(str(path), make_vocab(1, 1))
        assert np.array_equal(table.entity[0], [np.finfo(np.float32).max, np.finfo(np.float32).min])

    def test_missing_id_listed(self, tmp_path):
        path = tmp_path / "emb"
        path.write_text("tkg-emb 1 4 2\nE\t0\t1 2\nR\t1\t1 2\n")
        with pytest.raises(EmbeddingCoverageError,
                           match=re.escape("missing entity ids [1] and relation ids [0]")):
            load_semantic_embeddings(str(path), make_vocab(2, 2))


class TestAdapters:
    def test_zero_adapters_give_zero_tables(self):
        gen = np.random.default_rng(0)
        params = init_adapters(8, 6, 4, gen)
        for t in ad.named_tensors(params).values():
            t.values[...] = 0.0
        table = synthetic_embeddings(make_vocab(3, 2), 8, seed=0)
        h_l = adapt_rows(params.f_h, table.entity)
        r_l = adapt_rows(params.f_r, table.relation)
        assert h_l.shape == (3, 4) and r_l.shape == (2, 4)
        assert np.allclose(h_l.values, 0.0) and np.allclose(r_l.values, 0.0)

    def test_identity_configuration_passes_through_relu(self):
        d = 4
        gen = np.random.default_rng(0)
        params = init_adapters(d, d, d, gen, dtype=np.float64)
        for mlp in (params.f_h, params.f_r):
            mlp.w1.values[...] = np.eye(d)
            mlp.b1.values[...] = 0.0
            mlp.w2.values[...] = np.eye(d)
            mlp.b2.values[...] = 0.0
        x = np.array([[1.0, -2.0, 0.5, -0.1]], dtype=np.float32)
        out = adapt_rows(params.f_h, x)
        assert out.dtype == np.float64
        assert np.allclose(out.values, np.maximum(x, 0.0))

    def test_adapter_gradients(self):
        gen = np.random.default_rng(2)
        params = init_adapters(5, 3, 2, gen, dtype=np.float64)
        rows = gen.standard_normal((4, 5))

        def fn(w1, b1, w2, b2):
            from meshtkg.encoders import MlpParams

            return ad.tensor_sum(adapt_rows(MlpParams(w1, b1, w2, b2), rows))

        f = params.f_h
        assert grad_check(fn, [f.w1, f.b1, f.w2, f.b2], eps=1e-5) < 1e-4

    def test_dimension_mismatch(self):
        params = init_adapters(8, 4, 2, np.random.default_rng(0))
        table = synthetic_embeddings(make_vocab(2, 1), 9, seed=0)
        with pytest.raises(ValueError, match="dim"):
            adapt_rows(params.f_h, table.entity)
