import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtkg.cli import run, write_results
from meshtkg.evaluation import filtered_ranks
from meshtkg.history import (
    build_index,
    dataset_stats,
    naive_scores,
    seen_objects,
)
from meshtkg.tkg import Quadruple, write_dataset

from conftest import group, make_vocab, quads, random_facts


def brute_historical(facts, s, r, o, t):
    """1 if (s, r, o) occurs in `facts` at any timestamp below t, else 0."""
    return int(any(q.s == s and q.r == r and q.o == o and q.t < t for q in facts))


class TestFrequencyIndex:
    def test_empty(self):
        index = build_index([])
        assert index.indicator(0, 0, 0, 10) == 0

    def test_strict_inequality(self):
        index = build_index([Quadruple(1, 2, 3, 4), Quadruple(1, 2, 3, 0)])
        assert index.indicator(1, 2, 3, 5) == 1
        assert index.indicator(1, 2, 3, 1) == 1
        assert index.indicator(1, 2, 3, 0) == 0

    def test_same_timestamp_not_historical(self):
        index = build_index([Quadruple(0, 0, 1, 3)])
        assert index.indicator(0, 0, 1, 3) == 0
        assert index.indicator(0, 0, 1, 4) == 1

    def test_against_brute_force_scan(self, np_gen):
        facts = random_facts(np_gen, 200, 10, 4, 15)
        index = build_index(facts)
        for _ in range(1000):
            s, r, o, t = (
                int(np_gen.integers(10)),
                int(np_gen.integers(4)),
                int(np_gen.integers(10)),
                int(np_gen.integers(16)),
            )
            assert index.indicator(s, r, o, t) == brute_historical(facts, s, r, o, t)

    @given(st.lists(st.integers(0, 9), min_size=0, max_size=20), st.data())
    @settings(max_examples=50, deadline=None)
    def test_indicator_monotone_in_t(self, times, data):
        facts = [Quadruple(0, 0, 0, t) for t in times]
        index = build_index(facts)
        flags = [index.indicator(0, 0, 0, t) for t in range(12)]
        assert flags == [brute_historical(facts, 0, 0, 0, t) for t in range(12)]
        assert all(a <= b for a, b in zip(flags, flags[1:]))

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2),
                              st.integers(0, 5)), max_size=30),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2),
                              st.integers(0, 6)), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_indicator_matches_brute_force(self, facts, queries):
        """One vectorised call equals "any occurrence at an earlier t"."""
        index = build_index(facts)
        got = index.indicator(*np.array(queries).T)
        want = [int(any(f[:3] == q[:3] and f[3] < q[3] for f in facts)) for q in queries]
        assert got.tolist() == want

    def test_keeps_only_the_first_occurrences(self, np_gen):
        index = build_index(random_facts(np_gen, 40, 6, 3, 9))
        assert sorted(vars(index)) == ["first", "triples"]


def naive_rank(seen, s, r, o, filter_out=()):
    """The baseline's filtered rank of o as `evaluate_naive` computes it."""
    known = np.array([(s, r, e, 0) for e in filter_out], dtype=np.int64).reshape(-1, 4)
    _, filtered = filtered_ranks(naive_scores(seen, s, r, 8), np.array([[s, r, o, 0]]), known)
    return filtered[0]


def naive_predict(seen, s, r, num_entities):
    """The baseline's full candidate ranking for (s, r, ?): descending
    count, then id."""
    return np.argsort(-naive_scores(seen, s, r, num_entities)[0])


def oracle_naive_order(facts, s, r, num_entities):
    """Independent counting oracle for the frequency baseline's ordering."""
    pair = Counter(q.o for q in facts if q.s == s and q.r == r)
    subj = Counter(q.o for q in facts if q.s == s)
    counts = pair if pair else subj
    return sorted(range(num_entities), key=lambda e: (-counts.get(e, 0), e))


class TestNaiveBaseline:
    def test_counters_sum_to_corpus(self, np_gen):
        facts = random_facts(np_gen, 157, 6, 3, 9)
        seen = seen_objects(facts)
        pairs = np.array(sorted({(q.s, q.r) for q in facts}))
        subjects = np.unique(pairs[:, 0])

        def counts(s, r):
            # scores are count * |E| - id
            return (naive_scores(seen, s, r, 6) + np.arange(6)) // 6

        assert counts(pairs[:, 0], pairs[:, 1]).sum() == 157
        # relation 3 never occurs, so every subject falls back to its own counts
        assert counts(subjects, np.full(len(subjects), 3)).sum() == 157

    def test_count_order_forced(self):
        facts = [Quadruple(0, 0, 5, 0), Quadruple(0, 0, 5, 1), Quadruple(0, 0, 6, 2)]
        seen = seen_objects(facts)
        ranking = naive_predict(seen, 0, 0, num_entities=8)
        assert list(ranking[:2]) == [5, 6]

    def test_subject_fallback(self):
        facts = [Quadruple(0, 1, 4, 0), Quadruple(0, 1, 4, 1), Quadruple(0, 2, 3, 0)]
        seen = seen_objects(facts)
        # relation 0 never seen with subject 0: falls back to subject counts
        ranking = naive_predict(seen, 0, 0, num_entities=6)
        assert list(ranking[:2]) == [4, 3]

    def test_matches_counting_oracle(self, np_gen):
        facts = random_facts(np_gen, 50, 7, 3, 6)
        seen = seen_objects(facts)
        for _ in range(20):
            s, r = int(np_gen.integers(7)), int(np_gen.integers(3))
            got = list(naive_predict(seen, s, r, num_entities=7))
            assert got == oracle_naive_order(facts, s, r, 7)

    def test_ranking_is_permutation(self, np_gen):
        facts = random_facts(np_gen, 30, 9, 2, 4)
        seen = seen_objects(facts)
        ranking = naive_predict(seen, 3, 1, num_entities=9)
        assert sorted(ranking) == list(range(9))

    def test_naive_rank_agrees_with_full_ranking(self, np_gen):
        facts = random_facts(np_gen, 80, 8, 3, 7)
        seen = seen_objects(facts)
        for _ in range(40):
            s, r, o = (int(np_gen.integers(8)), int(np_gen.integers(3)), int(np_gen.integers(8)))
            order = oracle_naive_order(facts, s, r, 8)
            assert naive_rank(seen, s, r, o) == order.index(o) + 1

    def test_naive_rank_filtering(self, np_gen):
        facts = random_facts(np_gen, 80, 8, 3, 7)
        seen = seen_objects(facts)
        for _ in range(40):
            s, r, o = (int(np_gen.integers(8)), int(np_gen.integers(3)), int(np_gen.integers(8)))
            filter_out = {int(e) for e in np_gen.integers(8, size=3)} - {o}
            order = [e for e in oracle_naive_order(facts, s, r, 8) if e not in filter_out]
            assert naive_rank(seen, s, r, o, filter_out) == order.index(o) + 1


class TestDatasetStats:
    def test_single_fact_no_history(self):
        vocab = make_vocab(4, 2, 1)
        train = group([], "train")
        valid = group([], "valid")
        test = group([(0, 0, 1, 0)], "test")
        report = dataset_stats(vocab, train, valid, test)
        assert report.historical_test == 0
        assert report.historical_rate == 0.0

    def test_matches_hand_labels(self, np_gen):
        vocab = make_vocab(5, 2, 10)
        train = group(random_facts(np_gen, 20, 5, 2, 6), "train")
        valid = group(random_facts(np_gen, 5, 5, 2, 8), "valid")
        test = group(random_facts(np_gen, 30, 5, 2, 10), "test")
        report = dataset_stats(vocab, train, valid, test)
        everything = quads(train) + quads(valid) + quads(test)
        expected = sum(
            1
            for q in quads(test)
            if any(
                p.s == q.s and p.r == q.r and p.o == q.o and p.t < q.t for p in everything
            )
        )
        assert report.historical_test == expected
        assert report.num_train == 20 and report.num_valid == 5 and report.num_test == 30

    def test_report_formats(self, tmp_path, capsys):
        vocab = make_vocab(3, 1, 2)
        splits = group([(0, 0, 1, 0)], "train"), group([], "valid"), group([(0, 0, 1, 1)], "test")
        report = dataset_stats(vocab, *splits)
        write_results(str(tmp_path), report)
        with open(tmp_path / "results.json", encoding="utf-8") as fh:
            assert json.load(fh)["historical_test"] == 1
        write_dataset(str(tmp_path / "ds"), vocab, *splits)
        assert run(["stats", str(tmp_path / "ds"), "--out", str(tmp_path / "o")]) == 0
        printed = capsys.readouterr().out
        assert "Rate_his" in printed
        assert "100.0%" in printed
