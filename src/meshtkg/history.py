"""Fact-occurrence bookkeeping and the frequency-ranking baseline.

The frequency index answers, for any (s, r, o, t), whether the triple
(s, r, o) occurred strictly before t: the binary indicator that
classifies events as historical or non-historical. Only a triple's
first occurrence decides it, so that is all the index keeps per triple:
sorted packed (s, r, o) keys with each one's first time. Callers ask it
once per split, with arrays.

The naive baseline ranks candidate objects for a query (s, r, ?, t) by
how often they were seen with (s, r) in training; if the pair was never
seen, by how often they were seen with s under any relation. It needs no
training and is surprisingly competitive on repetitive event streams.
Its sorted (s, r) pairs and subjects (`seen_objects`) are built by
`evaluation.evaluate_naive` alone. `dataset_stats` gives the split sizes
and the historical share of the test set (`StatsReport`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tkg import ID_BITS, TemporalKG, Vocabulary

NO_KEY = np.iinfo(np.int64).max        # above every packed key


def pack(*columns) -> np.ndarray:
    """One int64 key per row from up to three id columns (scalars or arrays)."""
    key = np.int64(0)
    for col in np.broadcast_arrays(*columns):
        col = col.astype(np.int64)
        if col.size and (col.min() < 0 or col.max() >= 1 << ID_BITS):
            raise ValueError(f"ids must lie in 0..{(1 << ID_BITS) - 1} to be packed")
        key = (key << ID_BITS) | col
    return key


def matching(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with sorted_keys[j] == keys[i], grouped by i."""
    lo = np.searchsorted(sorted_keys, keys, "left")
    n = np.searchsorted(sorted_keys, keys, "right") - lo
    i = np.repeat(np.arange(len(keys)), n)
    return i, np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


class FrequencyIndex:
    """Sorted packed keys over a fact array: per triple, the time of its
    first occurrence.

    Immutable after :func:`build_index`; every query takes arrays (or
    scalars) and costs O(log N) per element.
    """

    def __init__(self, facts):
        facts = np.asarray(facts, dtype=np.int64).reshape(-1, 4)
        s, r, o, t = facts.T
        triples, run = np.unique(pack(s, r, o), return_inverse=True)
        self.triples = np.append(triples, NO_KEY)
        # the NO_KEY entry never occurs, so it keeps the largest time
        self.first = np.full(len(self.triples), np.iinfo(np.int64).max)
        np.minimum.at(self.first, run.reshape(-1), t)

    def indicator(self, s, r, o, t):
        """1 where (s, r, o) occurred before t (a historical event), else 0."""
        key = pack(s, r, o)
        run = np.searchsorted(self.triples, key)
        return ((self.triples[run] == key) & (self.first[run] < t)).astype(np.int64)


def build_index(facts) -> FrequencyIndex:
    return FrequencyIndex(facts)


def seen_objects(facts) -> tuple:
    """The naive baseline's sorted packed (s, r) pairs, their objects, the
    sorted subjects and their objects, over a fact array; ties keep the
    facts' order."""
    facts = np.asarray(facts, dtype=np.int64).reshape(-1, 4)
    s, r, o, _ = facts.T
    pairs = pack(s, r)
    pair_order = np.argsort(pairs, kind="stable")
    subject_order = np.argsort(s, kind="stable")
    return pairs[pair_order], o[pair_order], s[subject_order], o[subject_order]


def _object_counts(sorted_keys, objects, keys, num_entities: int) -> np.ndarray:
    i, j = matching(sorted_keys, keys)
    flat = np.bincount(i * num_entities + objects[j], minlength=len(keys) * num_entities)
    return flat.reshape(len(keys), num_entities)


def naive_scores(seen: tuple, s, r, num_entities: int) -> np.ndarray:
    """(B, |E|) frequency-baseline scores for the queries (s_b, r_b, ?),
    from the `seen_objects` of the training facts.

    Candidates order by how often they were seen with (s, r); if the pair
    was never seen, by how often with s under any relation; ties by id.
    Every score in a row is distinct, so ranks have no ties.
    """
    pairs, pair_objects, subjects, subject_objects = seen
    s, r = np.atleast_1d(s, r)
    counts = _object_counts(pairs, pair_objects, pack(s, r), num_entities)
    unseen = ~counts.any(axis=1)
    counts[unseen] = _object_counts(subjects, subject_objects, s[unseen], num_entities)
    return counts * num_entities - np.arange(num_entities)


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


def dataset_stats(vocab: Vocabulary, train: TemporalKG, valid: TemporalKG, test: TemporalKG) -> StatsReport:
    """Split sizes plus the historical share of the test set.

    A test fact counts as historical when its triple occurred at any
    earlier timestamp in any split.
    """
    index = build_index(np.concatenate([tkg.array for tkg in (train, valid, test)]))
    historical = int(index.indicator(*test.array.T).sum())
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
