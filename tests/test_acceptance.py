"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them inline).

Criteria 1, 2, and 8 check published reference numbers on the real ICEWS
benchmark datasets. Those directories are not redistributable with this
package; point MESH_DATA_DIR (default: ./data) at a directory containing
ICEWS14 / ICEWS18 / ICEWS05-15 subdirectories in the standard 5-file
layout and the tests run; otherwise they skip with an explanation.
Criterion 8 additionally has a synthetic stand-in that always runs.
"""

import os
import time

import numpy as np
import pytest

from meshtkg import autodiff as ad
from meshtkg import rng
from meshtkg.autodiff import Tensor, grad_check
from meshtkg.config import resolve
from meshtkg.encoders import synthetic_embeddings
from meshtkg.evaluation import (
    compute_metrics,
    evaluate,
    evaluate_naive,
    filtered_ranks,
)
from meshtkg.history import build_index, dataset_stats
from meshtkg.model import (
    AblationConfig,
    ModelSpec,
    expert_mix,
    forward_queries,
    init_model,
    score_logits,
)
from meshtkg.tkg import Quadruple, load_dataset
from meshtkg.training import (
    expert_losses,
    load_checkpoint,
    major_loss,
    save_checkpoint,
    total_loss,
    train_model,
)

from conftest import group, make_vocab, micro_config, sort_oracle_rank
from test_autodiff import primitive_cases

DATA_DIR = os.environ.get("MESH_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data"))

DATASET_FILES = ("train.txt", "valid.txt", "test.txt", "entity2id.txt", "relation2id.txt")


def dataset_path(name):
    path = os.path.join(DATA_DIR, name)
    if all(os.path.isfile(os.path.join(path, f)) for f in DATASET_FILES):
        return path
    return None


def require_dataset(name, criterion):
    path = dataset_path(name)
    if path is None:
        line = (f"[criterion {criterion:2d}] SKIP: {name} not found under {DATA_DIR} "
                f"(set MESH_DATA_DIR to run)")
        print(line)
        pytest.skip(line)
    return path


def criterion(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. dataset statistics

STATS_EXPECTATIONS = {
    # |E|, |R|, train/valid/test counts (exact), |F_his| target (+-1% relative)
    "ICEWS14": dict(entities=7128, relations=230, sizes=(74845, 8514, 7371), his=3064),
    "ICEWS18": dict(entities=23033, relations=256, sizes=None, rate=0.421),
    "ICEWS05-15": dict(entities=10778, relations=None, sizes=None, rate=0.540),
}


@pytest.mark.parametrize("name", list(STATS_EXPECTATIONS))
def test_criterion_1_dataset_statistics(name):
    path = require_dataset(name, 1)
    expect = STATS_EXPECTATIONS[name]
    start = time.monotonic()
    vocab, train, valid, test = load_dataset(path)
    report = dataset_stats(vocab, train, valid, test)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    detail = [f"{name}: runtime {elapsed:.1f}s"]
    if expect.get("entities"):
        ok &= report.num_entities == expect["entities"]
        detail.append(f"|E|={report.num_entities}")
    if expect.get("relations"):
        ok &= report.num_relations == expect["relations"]
        detail.append(f"|R|={report.num_relations}")
    if expect.get("sizes"):
        got = (report.num_train, report.num_valid, report.num_test)
        ok &= got == expect["sizes"]
        detail.append(f"splits={got}")
    if expect.get("his"):
        lo, hi = 0.99 * expect["his"], 1.01 * expect["his"]
        ok &= lo <= report.historical_test <= hi
        detail.append(f"|F_his|={report.historical_test} (target {expect['his']} +-1%)")
    if expect.get("rate"):
        target = expect["rate"]
        ok &= abs(report.historical_rate - target) <= 0.01 * target
        detail.append(f"rate={100 * report.historical_rate:.1f}% (target {100 * target:.1f}% +-1%)")
    criterion(1, ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 2. naive baseline

NAIVE_EXPECTATIONS = {
    "ICEWS14": dict(h3=38.00, h10=44.73, tol=2.0),
    "ICEWS18": dict(h3=4.04, h10=6.29, tol=1.0),
    "ICEWS05-15": dict(h3=39.66, h10=49.68, tol=2.0),
}


@pytest.mark.parametrize("name", list(NAIVE_EXPECTATIONS))
def test_criterion_2_naive_baseline(name):
    path = require_dataset(name, 2)
    expect = NAIVE_EXPECTATIONS[name]
    vocab, train, valid, test = load_dataset(path)
    start = time.monotonic()
    result = evaluate_naive(vocab, train, valid, test)
    elapsed = time.monotonic() - start
    h3 = 100.0 * result.overall.hits3
    h10 = 100.0 * result.overall.hits10
    ok = (
        abs(h3 - expect["h3"]) <= expect["tol"]
        and abs(h10 - expect["h10"]) <= expect["tol"]
        and elapsed < 60.0
    )
    criterion(2, ok, f"{name}: H@3={h3:.2f} (target {expect['h3']}+-{expect['tol']}), "
                     f"H@10={h10:.2f} (target {expect['h10']}+-{expect['tol']}), "
                     f"runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. gradient integrity

def test_criterion_3_gradient_integrity():
    start = time.monotonic()
    gen = np.random.default_rng(33)
    worst = 0.0
    for name, fn, inputs in primitive_cases(gen):
        worst = max(worst, grad_check(fn, inputs, eps=1e-5))

    # composed pipeline score(expert_mix(decode(adapt(.)))) at the
    # stated working sizes: d=5, |E|=7, d_LLM=11, C=2
    model = init_model(ModelSpec(
        num_entities=7, num_relations=3, dim=5, llm_dim=11, adapter_hidden=6,
        channels=2, kernel_width=3, layers=2, window=2, dropout=0.0,
        num_historical=1, num_nonhistorical=1, gate_input="structural",
        dtype=np.float64,
    ), np.random.default_rng(34))
    H_g = Tensor(gen.standard_normal((7, 5)))
    R_g = Tensor(gen.standard_normal((6, 5)))
    sem = synthetic_embeddings(make_vocab(7, 3), 11, seed=2)
    s_idx = np.array([0, 2, 6])
    r_idx = np.array([1, 5, 0])
    probes = [
        H_g, R_g,
        model.adapter.f_h.w1, model.adapter.f_h.w2, model.adapter.f_r.w1,
        model.decoder_g.kernels, model.decoder_g.proj,
        model.decoder_l.kernels, model.decoder_l.proj,
        *ad.named_tensors(model.experts).values(),
    ]

    def pipeline(*_):
        bundle = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
        return ad.tensor_sum(ad.sigmoid(score_logits(bundle.q, bundle.score_table)))

    worst = max(worst, grad_check(pipeline, probes, eps=1e-5))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 10.0
    criterion(3, ok, f"max relative error {worst:.2e} (< 1e-4), runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. loss-formula oracle

def test_criterion_4_loss_formula_oracle():
    # six events over a 4-timestamp graph; the repeats make events 3..5 historical
    events = [
        Quadruple(0, 0, 1, 0),
        Quadruple(1, 0, 2, 0),
        Quadruple(2, 1, 3, 1),
        Quadruple(0, 0, 1, 2),
        Quadruple(1, 0, 2, 2),
        Quadruple(0, 0, 1, 3),
    ]
    index = build_index(events)
    flags = [index.indicator(q.s, q.r, q.o, q.t) for q in events]
    assert flags == [0, 0, 0, 1, 1, 1]

    gen = np.random.default_rng(44)
    num_entities = 5
    x = gen.standard_normal((6, num_entities))
    x_his = gen.standard_normal((6, num_entities))
    x_nhis = gen.standard_normal((6, num_entities))
    targets = [q.o for q in events]
    identity = Tensor(np.eye(num_entities))

    def prob(logit):
        return 1.0 / (1.0 + np.exp(-logit))

    def brute(omega, flags):
        lm = lh = ln = 0.0
        for i, q in enumerate(events):
            lm -= prob(x[i, q.o])
            lh -= prob(x_his[i, q.o]) * flags[i]
            ln -= prob(x_nhis[i, q.o]) * (1 - flags[i])
        return lm, lh, ln, lm + omega * (lh + ln)

    worst = 0.0
    for omega, use_flags in ((1.0, flags), (0.0, flags), (0.6, [1] * 6)):
        # each event's row comes from its own expert's logits
        own = np.where(np.array(use_flags)[:, None] == 1, x_his, x_nhis)
        # an identity table scores each row as the given logits, exactly
        lm = major_loss(Tensor(x), identity, targets, "literal")
        lh, ln = expert_losses(Tensor(own), identity, targets, use_flags, "literal")
        lt = total_loss(lm, lh, ln, omega)
        exp_lm, exp_lh, exp_ln, exp_lt = brute(omega, use_flags)
        worst = max(worst, abs(lm.item() - exp_lm), abs(lh.item() - exp_lh),
                    abs(ln.item() - exp_ln), abs(lt.item() - exp_lt))
        if use_flags == [1] * 6:
            assert ln.item() == 0.0  # all-historical degenerate case
    ok = worst < 1e-12
    criterion(4, ok, f"literal-mode losses match the brute-force loop (max diff {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. expert decomposition identity

def test_criterion_5_expert_decomposition_bit_exact():
    gen = np.random.default_rng(55)
    combos = [(1, 1), (2, 1), (1, 2), (2, 2)]
    # each combination with its own gate input and dtype
    models = [
        init_model(ModelSpec(
            num_entities=7, num_relations=3, dim=5, llm_dim=6, adapter_hidden=4,
            channels=2, kernel_width=3, layers=1, window=2, dropout=0.0,
            num_historical=m, num_nonhistorical=n, gate_input=gate_input,
            dtype=dtype,
        ), np.random.default_rng(34))
        for (m, n), gate_input, dtype in [((1, 1), "structural", np.float64),
                                          ((2, 1), "semantic", np.float32),
                                          ((1, 2), "concatenated", np.float64),
                                          ((2, 2), "structural", np.float32)]
    ]
    sem = synthetic_embeddings(make_vocab(7, 3), 6, seed=5)
    checked = 0
    exact = True
    for i in range(1000):
        model = models[i % 4]
        for t in ad.named_tensors(model.experts).values():
            t.values[...] = 2.0 * gen.standard_normal(t.shape)
        H_g = Tensor(gen.standard_normal((7, 5)).astype(model.spec.dtype))
        R_g = Tensor(gen.standard_normal((6, 5)).astype(model.spec.dtype))
        batch = int(gen.integers(1, 5))
        bundle = forward_queries(model, H_g, R_g, sem, gen.integers(0, 7, batch),
                                 gen.integers(0, 6, batch))
        exact &= np.array_equal(bundle.q.values, bundle.q_his.values + bundle.q_nhis.values)
        checked += 1
    criterion(5, exact and checked == 1000,
              f"q == q_his + q_nhis bit-exact for {checked} random forward_queries "
              f"parameterizations over {combos}")


# ---------------------------------------------------------------------------
# 6. metric oracle

def test_criterion_6_metric_oracle():
    """1,000 random queries ranked in one `filtered_ranks` call: query q is
    the row (q, 0, o, 0), whose known rows are its own object and its
    filter set."""
    gen = np.random.default_rng(66)
    num_entities = 40
    scores, queries, known, oracle_ranks = [], [], [], []
    for q in range(1000):
        # half the vectors are quantized to force score ties
        row = gen.uniform(size=num_entities)
        if gen.random() < 0.5:
            row = np.round(row, 1)
        o = int(gen.integers(num_entities))
        filter_out = {int(e) for e in gen.choice(num_entities, size=6, replace=False)} - {o}
        scores.append(row)
        queries.append((q, 0, o, 0))
        known += [(q, 0, e, 0) for e in (o, *sorted(filter_out))]
        oracle_ranks.append(sort_oracle_rank(row, o, filter_out))
    _, ranks = filtered_ranks(np.array(scores), np.array(queries), np.array(known))
    worst = float(np.max(np.abs(ranks - np.array(oracle_ranks))))
    report = compute_metrics(ranks)
    mrr_oracle = sum(1.0 / r for r in oracle_ranks) / len(oracle_ranks)
    hits = {k: sum(r <= k for r in oracle_ranks) / len(oracle_ranks) for k in (1, 3, 10)}
    worst = max(
        worst,
        abs(report.mrr - mrr_oracle),
        abs(report.hits1 - hits[1]),
        abs(report.hits3 - hits[3]),
        abs(report.hits10 - hits[10]),
    )
    criterion(6, worst < 1e-12, f"ranks and MRR/Hits match the sort oracle (max diff {worst:.2e})")


# ---------------------------------------------------------------------------
# 7. freeze invariant

def test_criterion_7_freeze_invariant(trained):
    result = trained["result"]
    named = result.model.named_parameters()
    drifted = [
        name for name in result.frozen_names
        if not np.array_equal(named[name].values, result.frozen_values[name])
    ]
    criterion(7, not drifted,
              f"{len(result.frozen_names)} structural-encoder parameters bit-identical "
              f"after stage 1 (drifted: {drifted or 'none'})")


# ---------------------------------------------------------------------------
# 8. desk-scale learning

def loss_trend_ok(losses, window=5):
    """Downward trend over the first `window` epochs, tolerating one bump."""
    head = losses[: max(2, min(window, len(losses)))]
    increases = sum(1 for a, b in zip(head, head[1:]) if b > a)
    return increases <= 1 and head[-1] < head[0]


def expected_random_mrr(num_entities):
    return sum(1.0 / r for r in range(1, num_entities + 1)) / num_entities


@pytest.mark.slow
def test_criterion_8_desk_scale_learning_icews14(tmp_path):
    path = require_dataset("ICEWS14", 8)
    start = time.monotonic()
    config = resolve(dict(
        dataset=path, out=str(tmp_path), profile="desk", seed=1, max_timestamps=100,
    ))
    vocab, train, valid, test = load_dataset(path)
    from meshtkg.tkg import truncate_and_resplit

    vocab, train, valid, test = truncate_and_resplit(vocab, train, valid, test, 100)
    sem = synthetic_embeddings(vocab, config.llm_dim, config.synthetic_seed)
    result = train_model(config, vocab, train, valid, sem)
    elapsed = time.monotonic() - start
    losses = [float(line.split("\t")[1]) for line in result.log_lines]
    target = 50.0 * expected_random_mrr(vocab.num_entities)
    ok = (
        loss_trend_ok(losses)
        and result.best_valid_mrr >= target
        and elapsed < 1800.0
    )
    criterion(8, ok, f"ICEWS14[:100]: losses {losses[:5]}, valid MRR "
                     f"{result.best_valid_mrr:.4f} (>= {target:.4f}), runtime {elapsed:.0f}s")


def test_criterion_8_desk_scale_learning_synthetic_standin(trained):
    """Always-run stand-in on the synthetic corpus (the ICEWS14 variant above
    is the criterion as stated; this guards the property without the data)."""
    result = trained["result"]
    losses = [float(line.split("\t")[1]) for line in result.log_lines]
    random_mrr = expected_random_mrr(trained["vocab"].num_entities)
    ok = loss_trend_ok(losses) and result.best_valid_mrr >= 3.0 * random_mrr
    criterion(8, ok, f"synthetic stand-in: losses {losses[:5]}, valid MRR "
                     f"{result.best_valid_mrr:.4f} >= 3x random ({random_mrr:.4f})")


# ---------------------------------------------------------------------------
# 9. determinism and round-trip

def test_criterion_9_determinism_and_roundtrip(synth_dataset, tmp_path):
    logs = []
    models = []
    for tag in ("one", "two"):
        config = micro_config(synth_dataset["dir"], str(tmp_path / tag),
                              epochs_stage0=3, epochs_stage1=3)
        sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
        result = train_model(config, synth_dataset["vocab"], synth_dataset["train"],
                             synth_dataset["valid"], sem)
        logs.append("\n".join(result.log_lines))
        models.append((result, config, sem))
    identical_logs = logs[0] == logs[1]

    result, config, sem = models[0]
    ckpt = str(tmp_path / "model.mesh")
    save_checkpoint(ckpt, result.model, config, result.frozen_names, config.seed)
    loaded, _ = load_checkpoint(ckpt)

    # score every test query with both models and demand bitwise equality
    from meshtkg.tkg import add_inverse_relations, merge

    vocab = synth_dataset["vocab"]
    train_aug = add_inverse_relations(synth_dataset["train"], vocab.num_relations)
    valid_aug = add_inverse_relations(synth_dataset["valid"], vocab.num_relations)
    test_aug = add_inverse_relations(synth_dataset["test"], vocab.num_relations)
    cond = merge(train_aug, valid_aug, test_aug).snapshots()
    from meshtkg.encoders import encode_structural

    bit_exact = True
    for t, snap in enumerate(test_aug.snapshots()):
        if not len(snap):
            continue
        s_idx, r_idx = snap[:, 0], snap[:, 1]
        scores = []
        for m in (result.model, loaded):
            H, R = encode_structural(m.encoder, cond, t)
            bundle = forward_queries(m, H, R, sem, s_idx, r_idx)
            scores.append(score_logits(bundle.q, bundle.score_table).values)
        bit_exact &= np.array_equal(scores[0], scores[1])
    criterion(9, identical_logs and bit_exact,
              f"identical logs across reruns: {identical_logs}; "
              f"checkpoint scores bit-exact: {bit_exact}")


# ---------------------------------------------------------------------------
# 10. gate symmetry at initialization

def test_criterion_10_gate_symmetry_at_init():
    gen = np.random.default_rng(10)
    model = init_model(ModelSpec(
        num_entities=9, num_relations=4, dim=6, llm_dim=12, adapter_hidden=8,
        channels=2, kernel_width=3, layers=1, window=2, dropout=0.0,
        num_historical=1, num_nonhistorical=1, gate_input="structural",
        dtype=np.float64,
    ), gen)
    ok = True
    for _ in range(25):
        q_g = Tensor(gen.standard_normal((4, 6)))
        q_s = Tensor(gen.standard_normal((4, 6)))
        p, q_his, q_nhis = expert_mix(model.experts, q_g, q_g, q_s, 1)
        ok &= np.all(p.values == 0.5)
        ok &= np.array_equal(q_his.values, q_nhis.values)
        ok &= np.array_equal(q_his.values + q_nhis.values, (q_g.values + q_s.values) / 2.0)

    H_g = Tensor(gen.standard_normal((9, 6)))
    R_g = Tensor(gen.standard_normal((8, 6)))
    sem = synthetic_embeddings(make_vocab(9, 4), 12, seed=3)
    s_idx = np.array([0, 4, 8])
    r_idx = np.array([0, 3, 7])
    full = forward_queries(model, H_g, R_g, sem, s_idx, r_idx)
    mean = forward_queries(model, H_g, R_g, sem, s_idx, r_idx,
                           ablation=AblationConfig(disable_prediction_expert=True))
    coincide = np.array_equal(score_logits(full.q, full.score_table).values,
                              score_logits(mean.q, mean.score_table).values)
    ok &= coincide
    criterion(10, bool(ok),
              f"zero-init gates give exact 0.5 weights and q = (q_g + q_s) / 2; "
              f"mean-fusion path coincides for M=N=1: {coincide}")
