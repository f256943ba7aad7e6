import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtkg.evaluation import (
    GateStats,
    MetricsReport,
    compute_metrics,
    evaluate,
    evaluate_naive,
    filtered_ranks,
    gate_statistics,
    split_metrics,
    welch_t,
)
from meshtkg.model import AblationConfig
from meshtkg.tkg import add_inverse_relations

from conftest import group, quads, sort_oracle_rank


def rank_one(scores, o, filter_out=()):
    """Raw and filtered rank of object o among one query's `scores`, through
    `filtered_ranks`: the query row (0, 0, o, 0), whose known rows at t = 0
    are its own object and the objects of `filter_out`."""
    known = np.array([(0, 0, e, 0) for e in (o, *filter_out)])
    raw, filtered = filtered_ranks(np.asarray(scores)[None, :], np.array([[0, 0, o, 0]]), known)
    return raw[0], filtered[0]


class TestRankQuery:
    def test_unique_maximum_is_rank_one(self):
        scores = np.array([0.1, 0.9, 0.3])
        raw, filtered = rank_one(scores, 1, filter_out=[0])
        assert raw == 1.0 and filtered == 1.0

    def test_filter_deletion_semantics(self):
        # entities (a, b, o) scored (0.9, 0.8, 0.7); a is another true answer
        scores = np.array([0.9, 0.8, 0.7])
        raw, filtered = rank_one(scores, 2, filter_out=[0])
        assert raw == 3.0
        assert filtered == 2.0

    def test_own_object_left_out_of_filter(self):
        # a known row repeating the query's own object filters nothing: o
        # stays a candidate and keeps its rank among the others
        scores = np.array([0.9, 0.8, 0.7])
        assert rank_one(scores, 2, filter_out=[0, 2]) == rank_one(scores, 2, filter_out=[0])
        assert rank_one(scores, 2, filter_out=[2]) == (3.0, 3.0)

    def test_matches_sort_oracle_with_ties(self, np_gen):
        for _ in range(100):
            # quantized scores force plenty of exact ties
            scores = np.round(np_gen.uniform(size=20), 1)
            o = int(np_gen.integers(20))
            filter_out = [int(e) for e in np_gen.choice(20, size=5, replace=False) if e != o]
            raw, filtered = rank_one(scores, o, filter_out)
            assert raw == pytest.approx(sort_oracle_rank(scores, o), abs=1e-12)
            assert filtered == pytest.approx(sort_oracle_rank(scores, o, filter_out), abs=1e-12)
            assert filtered <= raw

    def test_invariant_under_monotone_transform(self, np_gen):
        scores = np_gen.standard_normal(15)
        o = 3
        filt = [1, 7]
        a = rank_one(scores, o, filt)
        b = rank_one(1.0 / (1.0 + np.exp(-scores)), o, filt)
        assert a == b


class TestComputeMetrics:
    def test_perfect_ranks(self):
        report = compute_metrics([1, 1, 1])
        assert report.mrr == 1.0
        assert report.hits1 == report.hits3 == report.hits10 == 1.0

    def test_hand_example(self):
        report = compute_metrics([1, 2, 4])
        assert report.mrr == pytest.approx(7.0 / 12.0)
        assert report.hits1 == pytest.approx(1 / 3)
        assert report.hits3 == pytest.approx(2 / 3)
        assert report.hits10 == 1.0

    def test_direct_summation_oracle(self, np_gen):
        ranks = np_gen.integers(1, 300, size=1000).astype(float)
        report = compute_metrics(ranks)
        assert report.mrr == pytest.approx(sum(1.0 / r for r in ranks) / 1000, abs=1e-12)
        assert report.hits10 == pytest.approx(sum(r <= 10 for r in ranks) / 1000, abs=1e-12)

    def test_hits_monotone_in_k(self, np_gen):
        report = compute_metrics(np_gen.integers(1, 30, size=200))
        assert report.hits1 <= report.hits3 <= report.hits10

    def test_empty_has_no_metrics(self):
        assert compute_metrics([]) == MetricsReport(None, None, None, None, 0)


class TestSplitMetrics:
    def test_all_historical_flags_empty_bucket(self):
        his, nhis = split_metrics(np.array([1.0, 2.0]), np.array([1, 1]))
        assert his.count == 2
        assert nhis.count == 0 and nhis.mrr is None

    def test_hand_labeled_buckets(self, np_gen):
        ranks = np_gen.integers(1, 10, size=10).astype(float)
        indicators = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 0])
        his, nhis = split_metrics(ranks, indicators)
        assert his.count == 5 and nhis.count == 5
        assert his.count + nhis.count == len(ranks)

    def test_untagged_rank_rejected(self):
        with pytest.raises(ValueError):
            split_metrics(np.array([1.0, 2.0]), np.array([1, 2]))


class TestGateStatistics:
    def test_identical_weights_no_effect(self):
        stats = gate_statistics([0.5] * 10, [0.5] * 10)
        assert stats.mean_his == stats.mean_nhis
        assert stats.p_value >= 0.5

    def test_hand_computed_welch(self):
        a = [0.6, 0.8]
        b = [0.3, 0.5]
        stats = gate_statistics(a, b)
        m1, m2 = np.mean(a), np.mean(b)
        v1, v2 = np.var(a, ddof=1), np.var(b, ddof=1)
        expected_t = (m1 - m2) / np.sqrt(v1 / 2 + v2 / 2)
        assert stats.t_stat == pytest.approx(expected_t, abs=1e-12)
        t_manual, df_manual = welch_t(m1, v1, 2, m2, v2, 2)
        assert t_manual == pytest.approx(expected_t)
        assert 0.0 < stats.p_value < 0.5  # higher historical mean

    def test_separated_buckets_significant(self, np_gen):
        a = 0.55 + 0.01 * np_gen.standard_normal(200)
        b = 0.45 + 0.01 * np_gen.standard_normal(200)
        stats = gate_statistics(a, b)
        assert stats.p_value < 1e-6

    def test_small_bucket_unavailable(self):
        stats = gate_statistics([0.5], [0.4, 0.6])
        assert stats.t_stat is None
        assert "fewer than 2" in stats.note
        assert stats.std_his is None and stats.p_value is None

    def test_p_value_is_scipy_stats_t_sf_bit_for_bit(self):
        """`scipy.special.stdtr(df, -t)` is the upper tail that
        `scipy.stats.t.sf(t, df)` computes, on a grid of shifts and scales
        that reaches t = 0 and t = +-inf."""
        from scipy import stats as sps

        base = np.array([0.1, 0.4, 0.35, 0.8, 0.55, 0.3])
        cases = [(base, base), ([1.0] * 3, [0.5] * 3), ([0.5] * 3, [1.0] * 3)]
        cases += [(base + shift, base[::-1] * scale)
                  for shift in np.linspace(-2.0, 2.0, 17) for scale in (1e-3, 0.5, 1.0, 4.0)]
        seen = set()
        for a, b in cases:
            a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
            stats = gate_statistics(a, b)
            _, df = welch_t(a.mean(), a.var(ddof=1), a.size, b.mean(), b.var(ddof=1), b.size)
            assert stats.p_value == float(sps.t.sf(stats.t_stat, df))
            seen.add(stats.t_stat)
        assert {0.0, np.inf, -np.inf} <= seen


class TestFilterSets:
    def test_collects_same_timestamp_objects(self):
        known = group([(0, 0, 1, 3), (0, 0, 2, 3), (0, 0, 3, 4)]).snapshots()
        scores = np.array([[0.0, 5.0, 4.0, 3.0, 1.0]])
        # at t=3 the true objects 1 and 2 outrank object 3 and are filtered out
        raw, filtered = filtered_ranks(scores, np.array([[0, 0, 3, 3]]), known[3])
        assert (raw[0], filtered[0]) == (3.0, 1.0)
        # at t=4 object 3 is the only true object, so nothing is filtered
        raw, filtered = filtered_ranks(scores, np.array([[0, 0, 3, 4]]), known[4])
        assert (raw[0], filtered[0]) == (3.0, 3.0)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_snapshot_ranks_match_sort_oracle(self, data):
        """The per-snapshot kernel equals the sort oracle query by query,
        with quantised scores forcing ties and repeated (s, r, o) rows."""
        num_entities = data.draw(st.integers(1, 7))
        fact = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, num_entities - 1))
        known = data.draw(st.lists(fact, min_size=1, max_size=16))
        queries = data.draw(st.lists(st.sampled_from(known), min_size=1, max_size=10))
        levels = data.draw(st.lists(st.integers(0, 3), min_size=len(queries) * num_entities,
                                    max_size=len(queries) * num_entities))
        scores = np.array(levels, dtype=np.float32).reshape(len(queries), num_entities)
        rows = np.array([(*q, 5) for q in queries])
        raw, filtered = filtered_ranks(scores, rows, np.array([(*k, 5) for k in known]))
        for i, (s, r, o) in enumerate(queries):
            filter_out = sorted({ko for ks, kr, ko in known if (ks, kr) == (s, r)} - {o})
            assert (raw[i], filtered[i]) == (sort_oracle_rank(scores[i], o),
                                             sort_oracle_rank(scores[i], o, filter_out))


class TestEvaluate:
    def test_matches_scripted_per_query_oracle(self, trained):
        """Full evaluation equals a per-query recomputation from scratch."""
        from meshtkg.evaluation import model_scores, ranked_queries
        from meshtkg.history import build_index
        from meshtkg.tkg import merge

        result = evaluate(trained["result"].model, trained["vocab"], trained["train"],
                          trained["valid"], trained["test"], trained["sem"])

        num_relations = trained["vocab"].num_relations
        train_aug, valid_aug, test_aug = (add_inverse_relations(trained[split], num_relations)
                                          for split in ("train", "valid", "test"))
        known = merge(train_aug, valid_aug, test_aug)
        index = build_index(known.array)

        # one query at a time, in a different batching regime
        scripted = []
        for q in quads(test_aug):
            single = group([q], "test")
            _, filtered = ranked_queries(single, known, model_scores(
                trained["result"].model, trained["sem"], known, []))
            scripted.append((*q, float(filtered[0]), int(index.indicator(*q))))
        assert len(scripted) == len(result.results)
        got = sorted((r.s, r.r, r.o, r.t, r.filtered_rank, r.indicator) for r in result.results)
        assert got == sorted(scripted)
        mrr_oracle = sum(1.0 / q[4] for q in scripted) / len(scripted)
        assert result.overall.mrr == pytest.approx(mrr_oracle, abs=1e-12)

    def test_bucket_counts_sum(self, trained):
        result = evaluate(trained["result"].model, trained["vocab"], trained["train"],
                          trained["valid"], trained["test"], trained["sem"])
        assert result.historical.count + result.nonhistorical.count == result.overall.count

    def test_filtered_never_exceeds_raw(self, trained):
        result = evaluate(trained["result"].model, trained["vocab"], trained["train"],
                          trained["valid"], trained["test"], trained["sem"])
        assert all(r.filtered_rank <= r.raw_rank for r in result.results)

    def test_gate_stats_populated(self, trained):
        result = evaluate(trained["result"].model, trained["vocab"], trained["train"],
                          trained["valid"], trained["test"], trained["sem"])
        stats = result.gate_stats
        assert stats.n_his + stats.n_nhis == result.overall.count
        assert stats.t_stat is not None

    def test_no_gate_stats_without_prediction_expert(self, trained):
        result = evaluate(trained["result"].model, trained["vocab"], trained["train"],
                          trained["valid"], trained["test"], trained["sem"],
                          ablation=AblationConfig(disable_prediction_expert=True))
        stats = result.gate_stats
        assert stats.t_stat is None
        assert stats.mean_his is None and stats.mean_nhis is None and stats.p_value is None
        assert "disable_prediction_expert" in stats.note

    def test_ablation_flags_respected(self, trained):
        kwargs = dict(vocab=trained["vocab"], train=trained["train"], valid=trained["valid"],
                      test=trained["test"], sem=trained["sem"])
        model = trained["result"].model
        base = evaluate(model, **kwargs)
        no_sem = evaluate(model, ablation=AblationConfig(disable_semantic=True), **kwargs)
        no_struct = evaluate(model, ablation=AblationConfig(disable_structural=True), **kwargs)
        # ablated paths genuinely change the scores
        assert [r.filtered_rank for r in no_sem.results] != [r.filtered_rank for r in base.results]
        assert [r.filtered_rank for r in no_struct.results] != [r.filtered_rank for r in base.results]

    def test_mean_fusion_equals_prediction_expert_at_gate_zero(self, synth_dataset, trained):
        """With zero-initialized gates and M=N=1, averaging expert outputs and
        the prediction expert's weighted sum coincide exactly."""
        from meshtkg.model import ModelSpec, init_model
        import meshtkg.rng as rng

        vocab = synth_dataset["vocab"]
        model = init_model(ModelSpec(
            num_entities=vocab.num_entities, num_relations=vocab.num_relations,
            dim=8, llm_dim=trained["sem"].dim, adapter_hidden=8, channels=2,
            kernel_width=3, layers=1, window=2, dropout=0.0,
            num_historical=1, num_nonhistorical=1, gate_input="structural",
            dtype=np.float64,
        ), rng.stream(5, rng.INIT))
        kwargs = dict(vocab=vocab, train=synth_dataset["train"], valid=synth_dataset["valid"],
                      test=synth_dataset["test"], sem=trained["sem"])
        full = evaluate(model, **kwargs)
        mean = evaluate(model, ablation=AblationConfig(disable_prediction_expert=True), **kwargs)
        assert [r.filtered_rank for r in full.results] == [r.filtered_rank for r in mean.results]


class TestEvaluateNaive:
    def test_runs_and_partitions(self, synth_dataset):
        result = evaluate_naive(synth_dataset["vocab"], synth_dataset["train"],
                                synth_dataset["valid"], synth_dataset["test"])
        assert result.overall.count == 2 * synth_dataset["test"].num_facts
        assert result.historical.count + result.nonhistorical.count == result.overall.count
        # the repetitive generator makes the frequency baseline strong
        assert result.overall.hits10 > 0.5

    def test_filtered_never_exceeds_raw(self, synth_dataset):
        result = evaluate_naive(synth_dataset["vocab"], synth_dataset["train"],
                                synth_dataset["valid"], synth_dataset["test"])
        assert all(r.filtered_rank <= r.raw_rank for r in result.results)

    def test_matches_per_query_oracle(self, synth_dataset):
        """Every record equals a per-query recomputation: the query's
        baseline scores over the training facts, ranked by the sort oracle
        with the time-aware filter drawn from every split."""
        from meshtkg.history import build_index, naive_scores, seen_objects

        result = evaluate_naive(synth_dataset["vocab"], synth_dataset["train"],
                                synth_dataset["valid"], synth_dataset["test"])
        num_entities = synth_dataset["vocab"].num_entities
        num_relations = synth_dataset["vocab"].num_relations
        train_aug, valid_aug, test_aug = (add_inverse_relations(synth_dataset[split], num_relations)
                                          for split in ("train", "valid", "test"))
        known = quads(train_aug) + quads(valid_aug) + quads(test_aug)
        index = build_index(np.array(known))
        seen = seen_objects(train_aug.array)
        scripted = []
        for q in quads(test_aug):
            scores = naive_scores(seen, q.s, q.r, num_entities)[0]
            filter_out = {k.o for k in known if (k.s, k.r, k.t) == (q.s, q.r, q.t)} - {q.o}
            scripted.append((*q, sort_oracle_rank(scores, q.o),
                             sort_oracle_rank(scores, q.o, filter_out),
                             int(index.indicator(*q))))
        got = sorted((r.s, r.r, r.o, r.t, r.raw_rank, r.filtered_rank, r.indicator)
                     for r in result.results)
        assert got == sorted(scripted)
        assert result.overall.mrr == pytest.approx(
            sum(1.0 / q[5] for q in scripted) / len(scripted), abs=1e-12)
