"""Seeded event stream with the shape of ICEWS14.

ICEWS14 has 7,128 entities, 230 relations and 365 daily timestamps with
about 246 facts per day. The stream below keeps that shape, with exactly
246 facts at every timestamp so that runs on different seeds do the same
amount of work. Like the repetitive generator the tests use, each
(subject, relation) pair mostly repeats one favourite object, but subjects
are drawn over every entity with Zipf-skewed popularity (as in the real
news-event data, a few actors dominate), so only popular pairs recur often.
"""

from __future__ import annotations

import numpy as np

ICEWS14 = dict(num_entities=7128, num_relations=230, num_timestamps=365, facts_per_step=246)
TINY = dict(num_entities=60, num_relations=6, num_timestamps=40, facts_per_step=12)
REPEAT_PROB = 0.7   # share of facts that repeat their pair's favourite object
SKEW = 1.1          # Zipf exponent of entity and relation popularity


def _zipf(gen: np.random.Generator, n: int) -> np.ndarray:
    """Popularity over n ids: Zipf weights assigned to a random permutation."""
    weights = 1.0 / np.arange(1, n + 1) ** SKEW
    return (weights / weights.sum())[gen.permutation(n)]


def generate(seed: int, num_entities: int, num_relations: int, num_timestamps: int,
             facts_per_step: int) -> np.ndarray:
    """(N, 4) int64 array of (s, r, o, t) facts, sorted by t."""
    gen = np.random.default_rng([seed, 0x7EA])
    ent_pop = _zipf(gen, num_entities)
    rel_pop = _zipf(gen, num_relations)
    total = num_timestamps * facts_per_step
    t = np.repeat(np.arange(num_timestamps, dtype=np.int64), facts_per_step)
    s = gen.choice(num_entities, size=total, p=ent_pop)
    r = gen.choice(num_relations, size=total, p=rel_pop)
    # favourite object of each pair, drawn from the same popularity, by hash
    # so no |E| x |R| table is needed
    fav_draw = np.random.default_rng([seed, 0xFA]).choice(num_entities, size=1 << 20, p=ent_pop)
    fav = fav_draw[(s * num_relations + r) * 2654435761 % (1 << 20)]
    novel = gen.choice(num_entities, size=total, p=ent_pop)
    o = np.where(gen.random(total) < REPEAT_PROB, fav, novel)
    # a fact never links an entity to itself
    o = np.where(o == s, (o + 1) % num_entities, o)
    return np.stack([s, r, o, t], axis=1).astype(np.int64)


def window(facts: np.ndarray, start: int, n_train: int, n_valid: int, n_test: int) -> dict:
    """Three consecutive temporal splits cut from the stream at `start`,
    with timestamps shifted so the window begins at 0."""
    bounds = np.cumsum([start, n_train, n_valid, n_test])
    out = {}
    for name, lo, hi in zip(("train", "valid", "test"), bounds[:-1], bounds[1:]):
        sel = facts[(facts[:, 3] >= lo) & (facts[:, 3] < hi)].copy()
        sel[:, 3] -= start
        out[name] = sel
    return out


def write(directory: str, splits: dict, num_entities: int, num_relations: int) -> None:
    """Write the splits in the dataset text format through `tkg.write_dataset`."""
    from meshtkg.tkg import Quadruple, TemporalKG, Vocabulary, write_dataset

    def grouped(name):
        arr = splits[name]
        snapshots = [[] for _ in range(int(arr[:, 3].max()) + 1 if len(arr) else 0)]
        for s, r, o, t in arr.tolist():
            snapshots[t].append(Quadruple(s, r, o, t))
        return TemporalKG(snapshots, name)

    vocab = Vocabulary([f"entity{i}" for i in range(num_entities)],
                       [f"relation{i}" for i in range(num_relations)], 0)
    write_dataset(directory, vocab, grouped("train"), grouped("valid"), grouped("test"))


def descriptors(splits: dict) -> dict:
    """Facts and timestamps per split, facts per timestamp, and the share of
    test facts whose (s, r, o) triple occurred at an earlier timestamp in any
    split (the historical share, as `meshtkg stats` defines it)."""
    facts = np.concatenate([splits[n] for n in ("train", "valid", "test")])
    out = {}
    for name in ("train", "valid", "test"):
        arr = splits[name]
        steps = len(np.unique(arr[:, 3]))
        out[f"{name}_facts"] = int(len(arr))
        out[f"{name}_timestamps"] = steps
    steps = len(np.unique(facts[:, 3]))
    out["facts_per_timestamp"] = round(len(facts) / max(steps, 1), 2)
    keys, inverse = np.unique(facts[:, :3], axis=0, return_inverse=True)
    first = np.full(len(keys), np.iinfo(np.int64).max)
    np.minimum.at(first, inverse.ravel(), facts[:, 3])
    n_test = len(splits["test"])
    test_inverse = inverse.ravel()[len(facts) - n_test:]
    historical = int(np.count_nonzero(first[test_inverse] < splits["test"][:, 3]))
    out["test_historical_share"] = round(historical / n_test, 4) if n_test else 0.0
    return out
