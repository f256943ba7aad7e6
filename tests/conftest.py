import warnings

import numpy as np
import pytest

from meshtkg import autodiff as ad
from meshtkg.tkg import Quadruple, TemporalKG, Vocabulary, write_dataset

# Hypothesis reports a falsifying example through hypothesis.extra._patching,
# whose import of libcst warns (a DeprecationWarning from mypy_extensions);
# under `-W error` that import fails and pytest prints INTERNALERROR instead
# of the example. Importing the module once here, with that warning ignored,
# leaves it cached for the report; every other warning still raises.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # an install without libcst reports without patches
        pass


def make_vocab(num_entities, num_relations, num_timestamps=0):
    return Vocabulary(
        entity_names=[f"e{i}" for i in range(num_entities)],
        relation_names=[f"rel{i}" for i in range(num_relations)],
        num_timestamps=num_timestamps,
    )


def group(facts, split="train"):
    """Pack (s, r, o, t) tuples into a TemporalKG (facts need not be sorted)."""
    return TemporalKG(np.array(facts, dtype=np.int64).reshape(-1, 4), split)


def quads(tkg):
    """The facts of a TemporalKG as quadruples, in row order."""
    return [Quadruple(*row) for row in tkg.array.tolist()]


def random_facts(gen, n, num_entities, num_relations, num_timestamps):
    return [
        Quadruple(
            int(gen.integers(num_entities)),
            int(gen.integers(num_relations)),
            int(gen.integers(num_entities)),
            int(gen.integers(num_timestamps)),
        )
        for _ in range(n)
    ]


def sort_oracle_rank(scores, o, filter_out=()):
    """Sort-based oracle: mean rank of o over all orderings of tied
    candidates, the entities of `filter_out` other than o deleted."""
    keep = [e for e in range(len(scores)) if e == o or e not in filter_out]
    ordered = sorted(keep, key=lambda e: -scores[e])
    better = sum(1 for e in ordered if scores[e] > scores[o])
    tied = sum(1 for e in ordered if e != o and scores[e] == scores[o])
    # positions better+1 .. better+tied+1 are equally likely: mid-rank
    return better + 1 + tied / 2.0


@pytest.fixture
def tiny_dataset_dir(tmp_path):
    """A 5-entity, 2-relation dataset with temporally split facts on disk."""
    vocab = make_vocab(5, 2)
    train = group(
        [(0, 0, 1, 0), (1, 0, 2, 0), (0, 0, 1, 1), (2, 1, 3, 1), (3, 1, 4, 2), (0, 0, 1, 2)],
        "train",
    )
    valid = group([(0, 0, 1, 3), (4, 1, 0, 3)], "valid")
    test = group([(0, 0, 1, 4), (2, 1, 3, 4)], "test")
    path = tmp_path / "tiny"
    write_dataset(str(path), vocab, train, valid, test)
    return str(path)


@pytest.fixture
def recorded(monkeypatch):
    """Tensor key -> (output Tensor, operand Tensors) of every autodiff op
    run while the fixture is active, read through a spy on
    `autodiff._record`: tape nodes hold keys, not tensors."""
    seen = {}
    record = ad._record

    def spy(op, inputs, out_values, backward_fn):
        out = record(op, inputs, out_values, backward_fn)
        seen[out.key] = (out, tuple(inputs))
        return out

    monkeypatch.setattr(ad, "_record", spy)
    return seen


@pytest.fixture(scope="session")
def np_gen():
    return np.random.default_rng(20240811)


def synth_repetitive_facts(seed=0, num_entities=30, num_relations=4, num_timestamps=20,
                           per_step=16, repeat_prob=0.9, num_subjects=12):
    """Event stream with learnable structure: each (subject, relation) pair
    mostly repeats one favorite object. Restricting the subject pool keeps
    per-pair occurrence counts high enough for quick micro training runs."""
    gen = np.random.default_rng(seed)
    fav = gen.integers(num_entities, size=(num_subjects, num_relations))
    facts = []
    for t in range(num_timestamps):
        for _ in range(per_step):
            s = int(gen.integers(num_subjects))
            r = int(gen.integers(num_relations))
            if gen.random() < repeat_prob:
                o = int(fav[s, r])
            else:
                o = int(gen.integers(num_entities))
            facts.append(Quadruple(s, r, o, t))
    return facts


def temporal_split(facts, train_hi, valid_hi):
    def sel(lo, hi, split):
        chosen = [f for f in facts if lo <= f.t < hi]
        return group(chosen, split)

    top = max(f.t for f in facts) + 1
    return sel(0, train_hi, "train"), sel(train_hi, valid_hi, "valid"), sel(valid_hi, top, "test")


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory):
    """A 20-timestamp repetitive synthetic dataset, on disk and in memory."""
    facts = synth_repetitive_facts(seed=3, num_timestamps=20)
    train, valid, test = temporal_split(facts, 14, 17)
    vocab = make_vocab(30, 4, 20)
    path = tmp_path_factory.mktemp("synth") / "ds"
    write_dataset(str(path), vocab, train, valid, test)
    return {"dir": str(path), "vocab": vocab, "train": train, "valid": valid, "test": test}


def micro_config(dataset_dir, out_dir, **overrides):
    from meshtkg.config import resolve

    values = dict(
        dataset=dataset_dir, out=out_dir, profile="desk", seed=1,
        dim=16, llm_dim=16, adapter_hidden=16, channels=3,
        epochs_stage0=25, epochs_stage1=8, learning_rate=0.01, dropout=0.1,
    )
    values.update(overrides)
    return resolve(values)


@pytest.fixture(scope="session")
def trained(synth_dataset, tmp_path_factory):
    """One shared micro training run (seconds) for downstream tests."""
    from meshtkg.encoders import synthetic_embeddings
    from meshtkg.training import train_model

    out = str(tmp_path_factory.mktemp("train"))
    config = micro_config(synth_dataset["dir"], out)
    sem = synthetic_embeddings(synth_dataset["vocab"], config.llm_dim, config.synthetic_seed)
    result = train_model(
        config, synth_dataset["vocab"], synth_dataset["train"], synth_dataset["valid"], sem
    )
    return {"config": config, "result": result, "sem": sem, **synth_dataset}


def dense_gather(table, index):
    """`autodiff.gather_rows` with a dense backward: a zero table of the
    operand's shape with the rows added at their indices (np.add.at); the
    oracle of the row-sparse one."""
    index = np.asarray(index, dtype=np.int64)
    shape, dtype = table.shape, table.dtype

    def backward_fn(g):
        out = np.zeros(shape, dtype)
        np.add.at(out, index, g)
        return (out,)

    return ad._record("gather_rows", (table,), table.values[index], backward_fn)
