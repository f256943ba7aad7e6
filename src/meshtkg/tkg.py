"""Temporal knowledge graph data model and ICEWS-format ingestion.

A dataset directory holds five UTF-8 text files:

    train.txt / valid.txt / test.txt   one fact per line, `s<TAB>r<TAB>o<TAB>t`
                                       (extra trailing columns are ignored)
    entity2id.txt / relation2id.txt    `name<TAB>id`, ids dense from 0

Raw timestamps (day indices or hours since epoch, depending on the
distribution) are re-indexed to their dense rank over the union of all
splits: the k-th smallest distinct raw time becomes k, for 0..T-1.

A split is one `TemporalKG`, a time-sorted (N, 4) int64 array cut into
per-timestamp blocks by `snapshots`. Around it: loading, inverse
augmentation, merging (concatenate, then stable sort), temporal
resplitting and history dropping.

`read_file` is the one reader of every input file (dataset, config,
embedding and checkpoint files), each read whole, and `write_files` the
one writer of every output file, each written to `<path>.tmp` and
renamed over its path once every file of its set is written (a
dataset's five files are one set). `read_text` and `text_lines` decode
the bytes of every text input. A fact file is parsed in one `np.loadtxt`
pass, then range-, sign- and order-checked as arrays; only when that
fails is the first refused line searched for, by the same field rule
(`_FIELD`) and the same row checks. A vocabulary beyond `history`'s packed-key range
(2**ID_BITS entities, 2**(ID_BITS-1) relations, since inverse relations
double their ids) is refused at load.
"""

from __future__ import annotations

import contextlib
import errno
import io
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, takewhile
from typing import NamedTuple

import numpy as np

from . import rng

# facts are stored as int64: a larger raw timestamp cannot be held
INT64_MAX = int(np.iinfo(np.int64).max)
# `history` packs ids below 2**ID_BITS; inverse relation ids run to 2|R| - 1
ID_BITS = 20


class DatasetError(Exception):
    """Input that cannot be used: a file that cannot be read, or a malformed
    or inconsistent dataset, embedding or checkpoint file."""


class WriteError(OSError):
    """An output file that cannot be written; the message names it."""


class ParseError(DatasetError, ValueError):
    """A file has malformed content; message carries file and line. As a
    ValueError, a bad configuration file is a configuration error."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class Quadruple(NamedTuple):
    s: int
    r: int
    o: int
    t: int


@dataclass(frozen=True)
class Vocabulary:
    entity_names: list[str]
    relation_names: list[str]
    num_timestamps: int

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)


class TemporalKG:
    """One split's facts as a single (N, 4) int64 array of (s, r, o, t) rows
    sorted by t.

    The sort is stable: within a timestamp, rows keep the order in which
    they were given. That order fixes the batches, and so every dropout
    draw, loss and rank downstream. ``facts`` is either such an array, in
    any row order, or per-timestamp lists of quadruples (``facts[k]``
    holding those with t = k), which are packed once.
    """

    def __init__(self, facts=(), split: str = "merged"):
        if not isinstance(facts, np.ndarray):
            facts = list(chain.from_iterable(facts))
        facts = np.asarray(facts, dtype=np.int64).reshape(-1, 4)
        self.array = facts[np.argsort(facts[:, 3], kind="stable")]
        self.split = split

    @property
    def num_facts(self) -> int:
        return len(self.array)

    def snapshots(self, rows: np.ndarray | None = None) -> list[np.ndarray]:
        """Per-timestamp blocks of the facts, or of any per-fact array
        aligned with them: element k holds the rows with t = k (empty where
        the split has no facts), up to the last populated timestamp."""
        rows = self.array if rows is None else rows
        t = self.array[:, 3]
        if not len(t):
            return []
        return np.split(rows, np.searchsorted(t, np.arange(1, t[-1] + 1)))


def read_text(path: str, data: bytes, start: int = 1) -> str:
    """The text of `data`, the UTF-8 bytes of `path` from line `start` on,
    each line break (`\\r\\n`, `\\r` or `\\n`) read as `\\n`. A byte that
    is not UTF-8 is a ParseError at its line."""
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + start,
                         f"byte {data[exc.start]:#04x} is not UTF-8") from None


def read_file(path: str) -> bytes:
    """The whole content of the input file `path`. An OSError is a
    DatasetError naming `path`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DatasetError(f"cannot read {path} ({exc.strerror})") from None


def write_files(files: dict) -> None:
    """Write each `path: chunks` of `files` (str chunks as UTF-8, or bytes)
    to `<path>.tmp`, making its directory, and only once every file is
    written rename each over its path, so the paths hold their old content
    or the whole new set. A path that is a directory, where a rename within
    one directory fails, is refused before the first rename. An OSError is
    a WriteError naming the path, and leaves no `<path>.tmp`."""
    path = None
    try:
        for path, chunks in files.items():
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path + ".tmp", "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        for path in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path in files:
            os.replace(path + ".tmp", path)
    except OSError as exc:
        raise WriteError(f"cannot write {path} ({exc.strerror})") from None
    finally:
        for written in files:
            with contextlib.suppress(OSError):
                os.remove(written + ".tmp")


def write_file(path: str, chunks) -> None:
    """`write_files` of the one file `path`."""
    write_files({path: chunks})


def text_lines(path: str, data: bytes, start: int = 1):
    """(line number, line) for every non-empty line of `read_text`'s text,
    newline stripped, numbered from `start`."""
    for lineno, line in enumerate(read_text(path, data, start).split("\n"), start=start):
        if line:
            yield lineno, line


# An integer field of a fact or id line: ASCII digits with an optional sign,
# padded by any whitespace but a tab (int() also reads `1_0` and other
# scripts' digits; this does not).
_FIELD = r"[^\S\t\n]*[+-]?[0-9]+[^\S\t\n]*"
_ID = re.compile(_FIELD)


def _read_id_file(path: str) -> list[str]:
    pairs = []
    for lineno, line in text_lines(path, read_file(path)):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected `name<TAB>id`, got {line!r}")
        if not _ID.fullmatch(parts[-1]):
            raise ParseError(path, lineno, f"id is not an integer: {parts[-1]!r}")
        pairs.append((int(parts[-1]), parts[0]))
    pairs.sort()
    if [idx for idx, _ in pairs] != list(range(len(pairs))):
        raise DatasetError(f"{path}: ids are not dense integers 0..{len(pairs) - 1}")
    names = [name for _, name in pairs]
    if len(set(names)) != len(names):
        dupes = sorted(name for name, count in Counter(names).items() if count > 1)
        raise DatasetError(f"{path}: duplicate names {dupes[:5]}")
    return names


# A fact line: four tab-separated integer fields, then any further columns.
_FACT_LINE = re.compile(rf"(?:{_FIELD}\t){{3}}{_FIELD}(?:\t.*)?")
# the first line of a text that is neither blank nor a fact line
_BAD_FACT_LINE = re.compile(rf"^(?!(?:{_FACT_LINE.pattern})?$)", re.M)
# numpy's int64 parser reads fields made of these characters as _FIELD does;
# it misreads some others (the letter `\u01fe` as 462), hence the search
_PLAIN = b"0123456789+- \t\n"


def _int_rows(text: str) -> np.ndarray | None:
    """Columns 0-3 of the non-blank lines as (N, 4) int64, in one pass; None
    when numpy cannot read a field as an int64."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a text with no rows
            # numpy 1.x reads an integer beyond int64 through a float, warning
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(io.StringIO(text), dtype=np.int64, delimiter="\t",
                              comments=None, usecols=range(4), ndmin=2)
    except (ValueError, DeprecationWarning):
        return None


def _first_refusal(rows: np.ndarray, num_entities: int, num_relations: int):
    """(row, message) of the first row that breaks a range, sign or order
    rule, the earliest rule first within a row; None if none does. `rows`
    is int64, or Python ints where one is beyond int64."""
    s, r, o, t = rows.T
    rules = (
        ((s < 0) | (s >= num_entities),
         lambda i: f"subject id {s[i]} outside 0..{num_entities - 1}"),
        ((o < 0) | (o >= num_entities),
         lambda i: f"object id {o[i]} outside 0..{num_entities - 1}"),
        ((r < 0) | (r >= num_relations),
         lambda i: f"relation id {r[i]} outside 0..{num_relations - 1}"),
        (t < 0, lambda i: f"negative timestamp {t[i]}"),
        (t > INT64_MAX, lambda i: f"timestamp {t[i]} above the int64 maximum {INT64_MAX}"),
        (np.r_[False, t[1:] < t[:-1]], lambda i: f"timestamp {t[i]} decreases after {t[i - 1]}"),
    )
    broken = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(rules) if mask.any()]
    if not broken:
        return None
    row, k = min(broken)
    return row, rules[k][1](row)


def _read_fact_file(path: str, num_entities: int, num_relations: int) -> np.ndarray:
    data = read_file(path)
    text = read_text(path, data)
    rows = None
    # only a text with other characters needs the (slower) search first
    if not text.encode().translate(None, _PLAIN) or not _BAD_FACT_LINE.search(text):
        rows = _int_rows(text)
    if rows is not None and _first_refusal(rows, num_entities, num_relations) is None:
        return rows
    raise _refusal(path, data, num_entities, num_relations)


def _refusal(path: str, data: bytes, num_entities: int, num_relations: int) -> ParseError:
    """The error naming the first line that `_FACT_LINE` or a row rule of
    `_first_refusal` refuses; built only when the one-pass read fails."""
    lines = list(text_lines(path, data))
    good = list(takewhile(lambda item: _FACT_LINE.fullmatch(item[1]), lines))
    rows = np.array([[int(field) for field in line.split("\t")[:4]] for _, line in good],
                    dtype=object).reshape(-1, 4)
    refused = _first_refusal(rows, num_entities, num_relations)
    if refused is not None:
        row, message = refused
        return ParseError(path, good[row][0], message)
    lineno, line = lines[len(good)]
    fields = line.split("\t")
    if len(fields) < 4:
        return ParseError(path, lineno, f"expected 4 tab-separated fields, got {len(fields)}")
    return ParseError(path, lineno, f"non-integer field in {fields[:4]!r}")


def _normalize_timestamps(splits: dict[str, np.ndarray]) -> int:
    """Map raw timestamps to their dense rank 0..T-1 over the union of all
    splits, in place; returns T."""
    levels = np.unique(np.concatenate([rows[:, 3] for rows in splits.values()]))
    for rows in splits.values():
        rows[:, 3] = np.searchsorted(levels, rows[:, 3])
    return len(levels)


# the fact files of a dataset directory, `<split>.txt`, in argument order
SPLITS = ("train", "valid", "test")


def load_dataset(directory: str):
    """Load a dataset directory.

    Returns (vocabulary, train, valid, test); timestamps are shared dense
    indices across the three splits.
    """
    names = {}
    for kind, limit in (("entity", 1 << ID_BITS), ("relation", 1 << (ID_BITS - 1))):
        path = os.path.join(directory, f"{kind}2id.txt")
        names[kind] = _read_id_file(path)
        if len(names[kind]) > limit:
            raise DatasetError(f"{path}: {len(names[kind])} {kind} ids, above the limit of {limit}")
    splits = {
        split: _read_fact_file(
            os.path.join(directory, f"{split}.txt"), len(names["entity"]), len(names["relation"])
        )
        for split in SPLITS
    }
    num_timestamps = _normalize_timestamps(splits)
    vocab = Vocabulary(names["entity"], names["relation"], num_timestamps)
    return (vocab, *(TemporalKG(rows, split) for split, rows in splits.items()))


def write_dataset(directory: str, vocab: Vocabulary, train, valid, test) -> None:
    """Write a normalized dataset back to the text format, its five files
    replaced as one set (`write_files`). Each graph's fact file is named by
    its argument's role, whatever the graph's `split` label. A name that
    `load_dataset` would misread or refuse, or that UTF-8 cannot encode, is
    a ValueError before any file is written: one holding a tab, `\\n`,
    `\\r` or a lone surrogate, or one repeated within its kind."""
    kinds = (("entity", vocab.entity_names), ("relation", vocab.relation_names))
    for kind, names in kinds:
        seen = set()
        for name in names:
            if any(c in "\t\n\r" or "\ud800" <= c <= "\udfff" for c in name):
                raise ValueError(f"{kind} name {name!r} holds a tab, a line break or a surrogate")
            if name in seen:
                raise ValueError(f"{kind} name {name!r} is repeated")
            seen.add(name)
    files = {os.path.join(directory, f"{kind}2id.txt"):
             (f"{name}\t{i}\n" for i, name in enumerate(names)) for kind, names in kinds}
    files.update((os.path.join(directory, f"{split}.txt"),
                  (f"{s}\t{r}\t{o}\t{t}\n" for s, r, o, t in tkg.array.tolist()))
                 for split, tkg in zip(SPLITS, (train, valid, test)))
    write_files(files)


def merge(*tkgs: TemporalKG) -> TemporalKG:
    """Union of several splits as one graph; within a timestamp, rows
    follow the argument order."""
    return TemporalKG(np.concatenate([tkg.array for tkg in tkgs]), "merged")


def add_inverse_relations(tkg: TemporalKG, num_relations: int) -> TemporalKG:
    """Add the mirror (o, r + num_relations, s, t) of every fact; within a
    timestamp the originals come first, then their mirrors in the same
    order. Calling this on an already-augmented graph is an error.
    """
    if np.any(tkg.array[:, 1] >= num_relations):
        raise ValueError("graph already contains inverse relation ids; cannot augment twice")
    mirrors = tkg.array[:, [2, 1, 0, 3]] + np.array([0, num_relations, 0, 0])
    return TemporalKG(np.concatenate([tkg.array, mirrors]), tkg.split)


TRAIN_FRAC, VALID_FRAC = 0.8, 0.1


def truncate_and_resplit(vocab: Vocabulary, train, valid, test, max_timestamps: int):
    """Keep only the first `max_timestamps` snapshots of the merged dataset
    and re-split temporally (80/10/10); for capped desk-scale runs.
    """
    if max_timestamps < 3:
        raise ValueError("need at least 3 timestamps to form three splits")
    merged = merge(train, valid, test)
    total = min(max_timestamps, len(merged.snapshots()))
    if total < 3:
        raise DatasetError(f"need at least 3 timestamps to form three splits, the data has {total}")
    # each split keeps at least one timestamp
    train_end = min(max(1, int(total * TRAIN_FRAC)), total - 2)
    valid_end = min(max(train_end + 1, int(total * (TRAIN_FRAC + VALID_FRAC))), total - 1)
    t = merged.array[:, 3]

    def cut(start, stop, split):
        return TemporalKG(merged.array[(t >= start) & (t < stop)], split)

    new_vocab = replace(vocab, num_timestamps=total)
    return (
        new_vocab,
        cut(0, train_end, "train"),
        cut(train_end, valid_end, "valid"),
        cut(valid_end, total, "test"),
    )


def drop_history_fraction(tkg: TemporalKG, fraction: float, seed: int) -> TemporalKG:
    """Remove floor(fraction * |F|) facts uniformly at random (seeded)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    keep = np.ones(tkg.num_facts, dtype=bool)
    n_drop = int(fraction * tkg.num_facts)
    if n_drop:
        gen = rng.stream(seed, rng.DROP_HISTORY)
        keep[gen.choice(tkg.num_facts, size=n_drop, replace=False)] = False
    return TemporalKG(tkg.array[keep], tkg.split)
