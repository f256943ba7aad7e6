import os
import platform
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshtkg
from meshtkg import autodiff as ad
from meshtkg import encoders, training
from meshtkg.autodiff import NumericError, Tensor
from meshtkg.config import CHOICES, RunConfig
from meshtkg.encoders import synthetic_embeddings
from meshtkg.model import ModelSpec, forward_queries, init_model, score_logits
from meshtkg.training import (
    expert_losses,
    load_checkpoint,
    major_loss,
    save_checkpoint,
    stage1_losses,
    total_loss,
    train_model,
)

from meshtkg.tkg import DatasetError

from conftest import group, make_vocab, micro_config


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def as_queries(logits):
    """(q, table) whose scores q @ table.T are exactly `logits`: the logits
    against an identity table."""
    logits = np.asarray(logits)
    return Tensor(logits), Tensor(np.eye(logits.shape[1], dtype=logits.dtype))


class TestMajorLoss:
    def test_literal_perfect_prediction(self):
        q, table = as_queries([[-50.0, 50.0, -50.0]])  # probabilities 0, 1, 0
        assert major_loss(q, table, [1], "literal").item() == pytest.approx(-1.0)

    def test_literal_zero_probability(self):
        q, table = as_queries([[0.0, -50.0, 0.0]])  # probabilities 0.5, 0, 0.5
        assert major_loss(q, table, [1], "literal").item() == pytest.approx(0.0)

    def test_literal_matches_summation_oracle(self, np_gen):
        logits = np_gen.standard_normal((4, 6))
        targets = [2, 0, 5, 3]
        expected = -sum(sigmoid(logits[i, o]) for i, o in enumerate(targets))
        got = major_loss(*as_queries(logits), targets, "literal").item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_cross_entropy_matches_log_softmax(self, np_gen):
        logits = np_gen.standard_normal((3, 5))
        targets = [0, 4, 2]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -sum(logp[i, o] for i, o in enumerate(targets))
        got = major_loss(*as_queries(logits), targets, "cross_entropy").item()
        assert got == pytest.approx(expected, abs=1e-10)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            major_loss(*as_queries(np.ones((1, 2))), [0], "hinge")


class TestExpertLosses:
    def test_all_historical_zeroes_nonhistorical_term(self, np_gen):
        q, table = as_queries(np_gen.standard_normal((3, 4)))
        l_his, l_nhis = expert_losses(q, table, [0, 1, 2], [1, 1, 1], "literal")
        assert l_nhis.item() == 0.0
        assert l_his.item() < 0.0

    def test_all_nonhistorical_zeroes_historical_term(self, np_gen):
        q, table = as_queries(np_gen.standard_normal((3, 4)))
        l_his, l_nhis = expert_losses(q, table, [0, 1, 2], [0, 0, 0], "literal")
        assert l_his.item() == 0.0
        assert l_nhis.item() < 0.0

    def test_mixed_batch_matches_brute_force(self, np_gen):
        x_his = np_gen.standard_normal((6, 5))
        x_nhis = np_gen.standard_normal((6, 5))
        targets = [0, 3, 2, 4, 1, 0]
        flags = [1, 0, 1, 1, 0, 0]
        # each event's own expert row: the historical expert's on historical events
        rows = np.where(np.array(flags)[:, None] == 1, x_his, x_nhis)
        exp_his = -sum(sigmoid(x_his[i, o]) * f for i, (o, f) in enumerate(zip(targets, flags)))
        exp_nhis = -sum(sigmoid(x_nhis[i, o]) * (1 - f)
                        for i, (o, f) in enumerate(zip(targets, flags)))
        l_his, l_nhis = expert_losses(*as_queries(rows), targets, flags, "literal")
        assert l_his.item() == pytest.approx(exp_his, abs=1e-12)
        assert l_nhis.item() == pytest.approx(exp_nhis, abs=1e-12)

    def test_each_event_feeds_exactly_one_term(self, np_gen):
        # the two terms partition the major loss of the same rows
        logits = np_gen.standard_normal((8, 5))
        targets = list(np_gen.integers(5, size=8))
        flags = list(np_gen.integers(2, size=8))
        l_his, l_nhis = expert_losses(*as_queries(logits), targets, flags, "literal")
        both = major_loss(*as_queries(logits), targets, "literal").item()
        assert l_his.item() + l_nhis.item() == pytest.approx(both, abs=1e-12)


def bits(a):
    a = np.asarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


class TestStage1Losses:
    INDICATORS = {
        "all_historical": [1] * 8,
        "all_nonhistorical": [0] * 8,
        "mixed": [1, 0, 0, 1, 1, 0, 1, 0],
    }

    @staticmethod
    def micro_batch(dtype):
        gen = np.random.default_rng(31)
        model = init_model(ModelSpec(
            num_entities=13, num_relations=3, dim=6, llm_dim=8, adapter_hidden=5,
            channels=2, kernel_width=3, layers=1, window=2, dropout=0.0,
            num_historical=2, num_nonhistorical=1, gate_input="concatenated",
            dtype=dtype,
        ), gen)
        for t in model.named_parameters().values():  # move the zero-initialised gates
            t.values[...] = gen.standard_normal(t.shape)
        H = Tensor(gen.standard_normal((13, 6)).astype(dtype))
        R = Tensor(gen.standard_normal((6, 6)).astype(dtype))
        sem = synthetic_embeddings(make_vocab(13, 3), 8, seed=1)
        rows = gen.integers(0, [13, 6, 13], size=(8, 3))
        return model, H, R, sem, rows

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("mode", ["cross_entropy", "literal"])
    @pytest.mark.parametrize("flags", sorted(INDICATORS))
    @pytest.mark.parametrize("omega", [0.5, 0.6])
    def test_bit_identical_to_full_width_oracle(self, mode, flags, dtype, omega):
        """One expert query per event gives the terms, and the gradients,
        of scoring q_his and q_nhis on every row and taking each event's
        row from its own expert's scores.

        The cross-entropy gradients are bit for bit only at a power-of-two
        omega: the fused loss scales its (B, d) product by -omega, the
        oracle its (B, |E|) score gradient, and only a power-of-two scale
        is exact in both. At omega 0.6 each scaled score is one rounding
        apart, carried back through the model's backward products: each
        gradient stays within 16 eps of its largest element (at most
        6.6 eps seen at these shapes); the terms stay bit for bit."""
        model, H, R, sem, rows = self.micro_batch(dtype)
        ind = self.INDICATORS[flags]
        params = [t for n, t in model.named_parameters().items() if not n.startswith("encoder.")]

        def step(terms_fn):
            with ad.Tape(params) as tape:
                bundle = forward_queries(model, H, R, sem, rows[:, 0], rows[:, 1])
                terms = terms_fn(bundle)
                grads = ad.backward(total_loss(*terms, omega), tape)
            return [t.values for t in terms], grads

        def oracle(bundle):
            full_his, full_nhis = (score_logits(q, bundle.score_table)
                                   for q in (bundle.q_his, bundle.q_nhis))
            mask = np.array(ind, dtype=dtype)[:, None]
            own = ad.add(ad.mul(full_his, Tensor(mask)), ad.mul(full_nhis, Tensor(1.0 - mask)))
            identity = Tensor(np.eye(own.shape[1], dtype=dtype))  # scores own exactly
            return (major_loss(bundle.q, bundle.score_table, rows[:, 2], mode),
                    *expert_losses(own, identity, rows[:, 2], ind, mode))

        terms, grads = step(lambda bundle: stage1_losses(bundle, rows[:, 2], ind, mode))
        want_terms, want_grads = step(oracle)
        for got, want in zip(terms, want_terms):
            assert np.array_equal(bits(got), bits(want))
        exact = mode == "literal" or omega == 0.5
        for got, want in zip(grads, want_grads):
            if exact:
                assert np.array_equal(bits(got), bits(want))
            else:
                bound = 16 * np.finfo(dtype).eps * np.abs(want).max()
                assert np.abs(got - want).max() <= bound
        l_his, l_nhis = terms[1:]  # a term with no events is exactly 0
        assert (l_his == 0.0) == (flags == "all_nonhistorical")
        assert (l_nhis == 0.0) == (flags == "all_historical")

    @pytest.mark.parametrize("overrides,counts", [
        ({}, (0, 2, 0)),
        ({"loss_mode": "literal"}, (2, 2, 0)),
        ({"omega": 0.0}, (0, 1, 0)),
        ({"disable_semantic": True}, (0, 1, 0)),
    ], ids=["experts", "literal", "omega_0", "no_semantic"])
    def test_wide_nodes_per_step(self, synth_dataset, tmp_path, monkeypatch, recorded,
                                 overrides, counts):
        """Per stage-1 step: the nodes that output or keep for backward an
        array with |E| in its shape, the |E|-wide picks, and the |E|-wide
        sigmoids. There is one pick for the major term, plus one for the
        expert queries (one per event) when the expert terms are on. The
        cross-entropy picks score the frozen encoder's constant table and
        keep only a (B, d) product, so no node outputs or keeps an |E|-wide
        array; the literal loss reads one (B, |E|) score product per pick,
        and no sigmoid runs |E|-wide: it puts only each event's picked logit
        through one."""
        config = micro_config(synth_dataset["dir"], str(tmp_path), epochs_stage0=0,
                              epochs_stage1=1, **overrides)
        sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
        num_entities = synth_dataset["vocab"].num_entities
        seen = []

        def wide(*arrays):
            return any(num_entities in a.shape for a in arrays)

        def kept(fn):
            cells = (c.cell_contents for c in fn.__closure__ or ())
            return [a for a in cells if isinstance(a, np.ndarray)]

        def counting_backward(output, tape):
            nodes = [(n.op, n.backward_fn, *recorded[n.output]) for n in tape.nodes]
            seen.append((
                sum(wide(out.values, *kept(fn)) for _, fn, out, _ in nodes),
                sum(op == "pick_log_softmax" and inputs[1].shape[0] == num_entities
                    or op == "pick_last" and inputs[0].shape[-1] == num_entities
                    for op, _, _, inputs in nodes),
                sum(op == "sigmoid" and wide(out.values) for op, _, out, _ in nodes),
            ))
            recorded.clear()
            return backward(output, tape)

        backward = ad.backward
        monkeypatch.setattr(ad, "backward", counting_backward)
        train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                    synth_dataset["valid"], sem)
        assert seen and set(seen) == {counts}


class TestTotalLoss:
    def test_omega_zero_is_major_only(self):
        lm, lh, ln = (Tensor(np.array(v)) for v in (-0.7, -0.4, -0.9))
        assert total_loss(lm, lh, ln, 0.0).item() == pytest.approx(-0.7)

    def test_omega_one_sums_everything(self):
        parts = [Tensor(np.array(-1.0)) for _ in range(3)]
        assert total_loss(*parts, 1.0).item() == pytest.approx(-3.0)

    def test_weighted_example(self):
        lm, lh, ln = (Tensor(np.array(v)) for v in (-0.5, -0.2, -0.3))
        assert total_loss(lm, lh, ln, 0.6).item() == pytest.approx(-0.8)


# Two stage-0 train_model calls in one fresh process, printing the minor
# page faults of each: (|E|, d) float32 tables of 500 KiB and (2F, |E|)
# score buffers of 9.2 MiB, well above glibc's default 128 KiB mmap
# threshold.
TWO_CALLS = """
import resource
import numpy as np
from meshtkg.config import RunConfig
from meshtkg.encoders import synthetic_embeddings
from meshtkg.tkg import TemporalKG, Vocabulary
from meshtkg.training import train_model

E, R, T, F = 4000, 8, 5, 300
gen = np.random.default_rng(0)
facts = np.stack([gen.integers(E, size=T * F), gen.integers(R, size=T * F),
                  gen.integers(E, size=T * F), np.repeat(np.arange(T), F)], axis=1)
vocab = Vocabulary([f"e{k}" for k in range(E)], [f"r{k}" for k in range(R)], T)
config = RunConfig(dataset="d", dim=32, epochs_stage0=2, epochs_stage1=0)
sem = synthetic_embeddings(vocab, config.llm_dim, 1)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_model(config, vocab, TemporalKG(facts, "train"), TemporalKG(split="valid"), sem)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_second_train_model_call_reuses_the_heap():
    """train_model keeps freed memory in the heap, so a second call with the
    same shapes takes under a tenth of the first call's minor faults."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(meshtkg.__file__))}
    proc = subprocess.run([sys.executable, "-c", TWO_CALLS], env=env, capture_output=True,
                          text=True, check=True)
    first, second = map(int, proc.stdout.split())
    assert second < first / 10, (first, second)


class TestTrainModel:
    def test_freeze_invariant(self, trained):
        result = trained["result"]
        named = result.model.named_parameters()
        for name in result.frozen_names:
            assert np.array_equal(named[name].values, result.frozen_values[name]), name
        assert all(name.startswith("encoder.") for name in result.frozen_names)

    def test_training_reduces_loss(self, trained):
        losses = [float(line.split("\t")[1]) for line in trained["result"].log_lines]
        assert losses[-1] < losses[0]
        assert trained["result"].stage0_losses[-1] < trained["result"].stage0_losses[0]

    def test_beats_random_ranker(self, trained):
        # uniform-random ranking has expected MRR of H_|E| / |E|
        num_entities = trained["vocab"].num_entities
        random_mrr = sum(1.0 / r for r in range(1, num_entities + 1)) / num_entities
        assert trained["result"].best_valid_mrr > 2.0 * random_mrr

    @pytest.mark.parametrize("test_split", ["real", "empty"])
    def test_best_valid_mrr_is_evaluate_on_valid(self, trained, test_split):
        """The kept epoch's validation MRR is what `evaluate` reports on the
        valid split for the returned model, whatever the test split holds."""
        from meshtkg.evaluation import evaluate
        from meshtkg.model import AblationConfig

        test = trained["test"] if test_split == "real" else group([], "test")
        result = evaluate(trained["result"].model, trained["vocab"], trained["train"],
                          trained["valid"], test, trained["sem"],
                          ablation=AblationConfig.from_config(trained["config"]), split="valid")
        assert trained["result"].best_valid_mrr == result.overall.mrr

    def test_zero_stage1_epochs_keeps_initialization(self, synth_dataset, tmp_path):
        config = micro_config(synth_dataset["dir"], str(tmp_path), epochs_stage0=2, epochs_stage1=0)
        sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
        result = train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                             synth_dataset["valid"], sem)
        assert result.log_lines == []
        assert result.best_valid_mrr is None
        # stage-1 parameters are untouched: gates still at their zero init
        for t in ad.named_tensors(result.model.experts).values():
            assert np.all(t.values == 0.0)

    @pytest.mark.parametrize("window", [3, 0])
    def test_stage1_leaves_encoder_without_gradients(self, synth_dataset, tmp_path, window,
                                                     monkeypatch, recorded):
        """No op recorded in stage 1 reads a frozen encoder tensor, also at
        the timestamps whose encoding is the embedding tables themselves
        (t = 0, and every t under window 0)."""
        config = micro_config(synth_dataset["dir"], str(tmp_path), epochs_stage0=0,
                              epochs_stage1=1, window=window)
        sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
        reads = []
        backward = ad.backward

        def spy(output, tape):
            reads.extend(x.key for n in tape.nodes for x in recorded[n.output][1])
            recorded.clear()
            return backward(output, tape)

        monkeypatch.setattr(ad, "backward", spy)
        result = train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                             synth_dataset["valid"], sem)
        encoder = {t.key for t in ad.named_tensors(result.model.encoder).values()}
        assert reads and encoder.isdisjoint(reads)

    def test_stage1_encodes_each_timestamp_once_off_the_tape(self, synth_dataset, tmp_path,
                                                            monkeypatch):
        """The frozen encoding of each timestamp is computed once per run,
        the training ones inside the first epoch's steps, and records no
        node on a step's tape."""
        calls = []
        encode = encoders.encode_structural

        def spy(params, snapshots, t, **kwargs):
            tape = ad.active_tape()
            before = len(tape.nodes) if tape else 0
            out = encode(params, snapshots, t, **kwargs)
            calls.append((t, tape is not None, (len(tape.nodes) if tape else 0) - before))
            return out

        monkeypatch.setattr(encoders, "encode_structural", spy)
        config = micro_config(synth_dataset["dir"], str(tmp_path), epochs_stage0=0,
                              epochs_stage1=2)
        sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
        train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                    synth_dataset["valid"], sem)
        assert [t for t, _, _ in calls] == list(range(17))   # 14 training, 3 validation
        assert [taped for _, taped, _ in calls] == [True] * 14 + [False] * 3
        assert all(added == 0 for _, _, added in calls)

    def test_step_gradients_are_freed_before_the_next_forward(self, synth_dataset, tmp_path,
                                                             monkeypatch):
        """The gradient arrays a step hands to Adam are dead when the next
        step's forward starts, in both stages, so they never stand beside
        the next step's forward and backward arrays."""
        refs, alive = [], []
        backward, forward = ad.backward, training.forward_queries

        def spy_backward(output, tape):
            grads = backward(output, tape)
            refs[:] = [weakref.ref(g) for g in grads]
            return grads

        def spy_forward(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return forward(*args, **kwargs)

        monkeypatch.setattr(ad, "backward", spy_backward)
        monkeypatch.setattr(training, "forward_queries", spy_forward)
        config = micro_config(synth_dataset["dir"], str(tmp_path), epochs_stage0=1,
                              epochs_stage1=1)
        sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
        train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                    synth_dataset["valid"], sem)
        assert len(alive) == 2 * 14 and not any(alive)

    def test_adam_overflow_raises_numeric_error(self, synth_dataset, tmp_path):
        """Semantic rows of 1e30 overflow the float32 second moments of the
        adapters; the run stops there rather than train on with weights
        that no longer move."""
        config = micro_config(synth_dataset["dir"], str(tmp_path), epochs_stage0=1,
                              epochs_stage1=1)
        sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
        sem.entity[...] = 1e30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^Adam update failed in stage 1, epoch 1, "
                                                   r"timestamp \d+: overflow encountered"):
                train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                            synth_dataset["valid"], sem)

    def test_empty_valid_split(self, synth_dataset, tmp_path):
        # stage 1 needs validation facts to pick its epoch; without stage 1 none are read
        empty = group([], "valid")
        for epochs_stage1 in (0, 1):
            config = micro_config(synth_dataset["dir"], str(tmp_path), epochs_stage0=1,
                                  epochs_stage1=epochs_stage1)
            sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim,
                                       config.synthetic_seed)
            args = (config, synth_dataset["vocab"], synth_dataset["train"], empty, sem)
            if epochs_stage1:
                with pytest.raises(DatasetError, match="valid split has no facts"):
                    train_model(*args)
            else:
                assert train_model(*args).best_valid_mrr is None

    def test_identical_seed_identical_logs(self, synth_dataset, tmp_path):
        runs = []
        for tag in ("a", "b"):
            config = micro_config(synth_dataset["dir"], str(tmp_path / tag),
                                  epochs_stage0=3, epochs_stage1=3)
            sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
            result = train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                                 synth_dataset["valid"], sem)
            runs.append(result)
        assert runs[0].log_lines == runs[1].log_lines
        a = runs[0].model.named_parameters()
        b = runs[1].model.named_parameters()
        assert all(np.array_equal(a[n].values, b[n].values) for n in a)

    def test_different_seed_changes_trajectory(self, synth_dataset, tmp_path):
        logs = []
        for seed in (1, 2):
            config = micro_config(synth_dataset["dir"], str(tmp_path / str(seed)),
                                  seed=seed, epochs_stage0=2, epochs_stage1=2)
            sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
            result = train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                                 synth_dataset["valid"], sem)
            logs.append(result.log_lines)
        assert logs[0] != logs[1]

    def test_literal_loss_mode_runs(self, synth_dataset, tmp_path):
        config = micro_config(synth_dataset["dir"], str(tmp_path), loss_mode="literal",
                              epochs_stage0=1, epochs_stage1=2)
        sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
        result = train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                             synth_dataset["valid"], sem)
        # literal losses are negative sums of probabilities
        assert float(result.log_lines[-1].split("\t")[1]) < 0.0


@pytest.fixture(scope="module")
def saved(trained, tmp_path_factory):
    """A good checkpoint's bytes, and a path to write variants of it to."""
    path = str(tmp_path_factory.mktemp("ckpt") / "model.mesh")
    result = trained["result"]
    save_checkpoint(path, result.model, trained["config"], result.frozen_names, 1)
    with open(path, "rb") as fh:
        return {"raw": fh.read(), "path": path}


class TestCheckpoint:
    def test_roundtrip_bit_exact_params(self, trained, tmp_path):
        path = str(tmp_path / "model.mesh")
        result = trained["result"]
        save_checkpoint(path, result.model, trained["config"], result.frozen_names, 1)
        loaded, header = load_checkpoint(path)
        assert header["frozen"] == result.frozen_names
        assert header["config"] == trained["config"]
        assert loaded.spec == result.model.spec
        a = result.model.named_parameters()
        b = loaded.named_parameters()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name].values, b[name].values), name

    def test_roundtrip_bit_exact_scores(self, trained, tmp_path):
        from meshtkg.evaluation import evaluate

        path = str(tmp_path / "model.mesh")
        result = trained["result"]
        save_checkpoint(path, result.model, trained["config"], result.frozen_names, 1)
        loaded, _ = load_checkpoint(path)
        kwargs = dict(
            vocab=trained["vocab"], train=trained["train"], valid=trained["valid"],
            test=trained["test"], sem=trained["sem"],
        )
        r1 = evaluate(result.model, **kwargs)
        r2 = evaluate(loaded, **kwargs)
        assert [r.filtered_rank for r in r1.results] == [r.filtered_rank for r in r2.results]
        assert [r.raw_rank for r in r1.results] == [r.raw_rank for r in r2.results]

    def test_header_manifest_is_the_parameter_schema(self, trained, tmp_path):
        """A 2-layer model's tensors, named by field path in field order, are
        the checkpoint's manifest, and its frozen list is the encoder's."""
        model = trained["result"].model
        mlp = [("w1", (16, 16)), ("b1", (16,)), ("w2", (16, 16)), ("b2", (16,))]
        conv = [("kernels", (3, 2, 3)), ("kernel_bias", (3,)), ("proj", (48, 16)),
                ("proj_bias", (16,))]
        encoder = [
            ("encoder.entity_emb", (30, 16)), ("encoder.relation_emb", (8, 16)),
            ("encoder.layer0.agg", (16, 16)), ("encoder.layer0.self", (16, 16)),
            ("encoder.layer1.agg", (16, 16)), ("encoder.layer1.self", (16, 16)),
            ("encoder.ent_cell.wx", (16, 48)), ("encoder.ent_cell.wh", (16, 48)),
            ("encoder.ent_cell.b", (48,)),
            ("encoder.rel_cell.wx", (32, 48)), ("encoder.rel_cell.wh", (16, 48)),
            ("encoder.rel_cell.b", (48,)),
        ]
        schema = [
            *encoder,
            *((f"adapter.{f}.{n}", shape) for f in ("f_h", "f_r") for n, shape in mlp),
            *((f"{d}.{n}", shape) for d in ("decoder_g", "decoder_l") for n, shape in conv),
            ("experts.gate_w", (16, 2)), ("experts.gate_b", (2,)),
            ("experts.pred_w", (16, 2)), ("experts.pred_b", (2,)),
        ]
        assert [(n, t.shape) for n, t in model.named_parameters().items()] == schema
        path = str(tmp_path / "model.mesh")
        save_checkpoint(path, model, trained["config"], trained["result"].frozen_names, 1)
        _, header = load_checkpoint(path)
        assert [(e["name"], tuple(e["shape"])) for e in header["params"]] == schema
        assert header["frozen"] == sorted(name for name, _ in encoder)

    def test_float64_roundtrip_bit_exact_params(self, tmp_path):
        config = RunConfig(dtype="float64", dim=8, llm_dim=8, adapter_hidden=8, channels=2,
                           num_historical=3, num_nonhistorical=2, gate_input="concatenated")
        model = init_model(ModelSpec.from_config(config, 6, 2, config.llm_dim),
                           np.random.default_rng(5))
        for t in ad.named_tensors(model.experts).values():  # move the zero-initialised gates
            t.values[...] = np.random.default_rng(6).standard_normal(t.shape)
        path = str(tmp_path / "model64.mesh")
        save_checkpoint(path, model, config, [], 1)
        loaded, _ = load_checkpoint(path)
        b = loaded.named_parameters()
        for name, tensor in model.named_parameters().items():
            assert b[name].values.dtype == np.float64, name
            assert np.array_equal(tensor.values, b[name].values), name

    @settings(max_examples=25, deadline=None)
    @given(dtype=st.sampled_from(CHOICES["dtype"]), gate_input=st.sampled_from(
        CHOICES["gate_input"]), m=st.integers(1, 3), n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1))
    def test_any_tiny_spec_round_trips(self, dtype, gate_input, m, n, seed, tmp_path_factory):
        """A checkpoint of any tiny spec loads back with the parameters'
        bytes, names and dtypes and the stored RunConfig equal."""
        config = RunConfig(dtype=dtype, gate_input=gate_input, num_historical=m,
                           num_nonhistorical=n, dim=4, llm_dim=3, adapter_hidden=5, channels=2,
                           layers=1, seed=seed)
        gen = np.random.default_rng(seed)
        model = init_model(ModelSpec.from_config(config, 5, 2, config.llm_dim), gen)
        for t in ad.named_tensors(model.experts).values():  # move the zero-initialised gates
            t.values[...] = gen.standard_normal(t.shape)
        path = str(tmp_path_factory.mktemp("ckpt") / "model.mesh")
        frozen = sorted(ad.named_tensors(model.encoder, "encoder."))
        save_checkpoint(path, model, config, frozen, seed)
        loaded, header = load_checkpoint(path)
        assert header["config"] == config and header["frozen"] == frozen
        assert loaded.spec == model.spec
        want, got = model.named_parameters(), loaded.named_parameters()
        assert list(got) == list(want)
        for name, t in want.items():
            assert got[name].values.dtype == t.values.dtype, name
            assert got[name].values.tobytes() == t.values.tobytes(), name

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_refused_before_writing(self, tmp_path, value):
        """A parameter `load_checkpoint` would refuse is named, and neither
        the checkpoint nor its temporary file is written."""
        config = RunConfig(dim=8, llm_dim=8, adapter_hidden=8, channels=2)
        model = init_model(ModelSpec.from_config(config, 6, 2, config.llm_dim),
                           np.random.default_rng(5))
        model.decoder_l.proj.values[3, 1] = value
        model.experts.pred_b.values[0] = np.nan  # a later bad parameter is not the one named
        path = tmp_path / "model.mesh"
        with pytest.raises(ValueError,
                           match=r"^parameter decoder_l\.proj holds a non-finite value$"):
            save_checkpoint(str(path), model, config, [], 1)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _load_bytes(saved, raw):
        with open(saved["path"], "wb") as fh:
            fh.write(raw)
        return load_checkpoint(saved["path"])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_rejected(self, saved, data):
        raw = saved["raw"]
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(DatasetError):
            self._load_bytes(saved, raw[:cut])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_blob_bit_flip_rejected(self, saved, data):
        raw = saved["raw"]
        start = raw.index(b"\n") + 1
        flipped = bytearray(raw)
        flipped[data.draw(st.integers(start, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        with pytest.raises(DatasetError, match="SHA-256"):
            self._load_bytes(saved, bytes(flipped))

    def test_failed_save_leaves_the_previous_file(self, tmp_path):
        """A save that fails part way leaves the checkpoint already at the
        path as it was."""
        config = RunConfig(dim=8, llm_dim=8, adapter_hidden=8, channels=2)
        model = init_model(ModelSpec.from_config(config, 6, 2, config.llm_dim),
                           np.random.default_rng(5))
        path = tmp_path / "model.mesh"
        save_checkpoint(str(path), model, config, [], 1)
        before = path.read_bytes()
        model.experts.pred_b.values = np.array([object()] * 2)  # cannot be serialised
        with pytest.raises(TypeError):
            save_checkpoint(str(path), model, config, [], 1)
        assert path.read_bytes() == before

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(DatasetError, match="not a model checkpoint"):
            load_checkpoint(str(path))
