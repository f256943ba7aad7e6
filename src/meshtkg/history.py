"""Fact-occurrence bookkeeping and the frequency-ranking baseline.

The frequency index answers, for any (s, r, o, t), how many times the
triple (s, r, o) occurred strictly before t, and the derived binary
indicator (1 iff that count is positive) that classifies events as
historical or non-historical.

The naive baseline ranks candidate objects for a query (s, r, ?, t) by
how often they were seen with (s, r) in training; if the pair was never
seen, by how often they were seen with s under any relation. It needs no
training and is surprisingly competitive on repetitive event streams.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .tkg import Quadruple, TemporalKG, Vocabulary


class FrequencyIndex:
    """Occurrence lists per triple plus object counters for ranking.

    Immutable after :func:`build_index`; queries are O(log occurrences).
    """

    def __init__(self):
        self.triple_times: dict[tuple[int, int, int], list[int]] = defaultdict(list)
        self.pair_counts: dict[tuple[int, int], Counter] = defaultdict(Counter)
        self.subject_counts: dict[int, Counter] = defaultdict(Counter)
        self.num_facts = 0

    def frequency(self, s: int, r: int, o: int, t: int) -> int:
        """Occurrences of (s, r, o) at timestamps strictly below t."""
        times = self.triple_times.get((s, r, o))
        if not times:
            return 0
        return bisect_left(times, t)

    def indicator(self, s: int, r: int, o: int, t: int) -> int:
        return 1 if self.frequency(s, r, o, t) > 0 else 0


def build_index(facts) -> FrequencyIndex:
    index = FrequencyIndex()
    for q in facts:
        insort(index.triple_times[(q.s, q.r, q.o)], q.t)
        index.pair_counts[(q.s, q.r)][q.o] += 1
        index.subject_counts[q.s][q.o] += 1
        index.num_facts += 1
    return index


def _query_counts(index: FrequencyIndex, s: int, r: int) -> Counter:
    # Pair counters win whenever any training fact carries (s, r);
    # otherwise fall back to subject-only interaction counts.
    counts = index.pair_counts.get((s, r))
    if counts:
        return counts
    return index.subject_counts.get(s, Counter())


def naive_predict(index: FrequencyIndex, s: int, r: int, num_entities: int) -> np.ndarray:
    """Full candidate ranking for (s, r, ?): descending count, then id."""
    counts = _query_counts(index, s, r)
    scores = np.zeros(num_entities, dtype=np.int64)
    for o, c in counts.items():
        scores[o] = c
    order = np.lexsort((np.arange(num_entities), -scores))
    return order


def naive_rank(index: FrequencyIndex, s: int, r: int, o: int, filter_out=()) -> int:
    """Rank of ``o`` in the naive ordering without materializing it.

    ``filter_out`` entities (other known true objects) are deleted from
    the candidate list before ranking. Runs in O(nonzero counts) instead
    of O(|E| log |E|), which matters on the larger benchmarks.
    """
    counts = _query_counts(index, s, r)
    c_o = counts.get(o, 0)
    ahead = 0
    if c_o > 0:
        for e, c in counts.items():
            if c > c_o or (c == c_o and e < o):
                ahead += 1
    else:
        # zero-count candidates sit after every positive count, ordered by id
        positive = 0
        positive_below = 0
        for e, c in counts.items():
            if c > 0:
                positive += 1
                if e < o:
                    positive_below += 1
        ahead = positive + (o - positive_below)
    for e in filter_out:
        if e == o:
            continue
        c_e = counts.get(e, 0)
        if c_e > c_o or (c_e == c_o and e < o):
            ahead -= 1
    return ahead + 1


@dataclass
class StatsReport:
    num_entities: int
    num_relations: int
    num_train: int
    num_valid: int
    num_test: int
    num_timestamps: int
    historical_test: int
    historical_rate: float

    def to_kv(self) -> str:
        lines = [
            f"entities\t{self.num_entities}",
            f"relations\t{self.num_relations}",
            f"train\t{self.num_train}",
            f"valid\t{self.num_valid}",
            f"test\t{self.num_test}",
            f"timestamps\t{self.num_timestamps}",
            f"historical_test\t{self.historical_test}",
            f"historical_rate\t{self.historical_rate:.4f}",
        ]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        rows = [
            ("|E|", str(self.num_entities)),
            ("|R|", str(self.num_relations)),
            ("train", str(self.num_train)),
            ("valid", str(self.num_valid)),
            ("test", str(self.num_test)),
            ("|T|", str(self.num_timestamps)),
            ("|F_his|", str(self.historical_test)),
            ("Rate_his", f"{100.0 * self.historical_rate:.1f}%"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows) + "\n"


def dataset_stats(vocab: Vocabulary, train: TemporalKG, valid: TemporalKG, test: TemporalKG) -> StatsReport:
    """Split sizes plus the historical share of the test set.

    A test fact counts as historical when its triple occurred at any
    earlier timestamp in any split.
    """
    index = build_index(
        q for tkg in (train, valid, test) for q in tkg.facts()
    )
    historical = sum(index.indicator(q.s, q.r, q.o, q.t) for q in test.facts())
    n_test = test.num_facts
    return StatsReport(
        num_entities=vocab.num_entities,
        num_relations=vocab.num_relations,
        num_train=train.num_facts,
        num_valid=valid.num_facts,
        num_test=n_test,
        num_timestamps=vocab.num_timestamps,
        historical_test=historical,
        historical_rate=historical / n_test if n_test else 0.0,
    )
