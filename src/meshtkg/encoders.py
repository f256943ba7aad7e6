"""Feature encoders: the structural path and the semantic path.

Structural path: a recurrent relational graph encoder. For each snapshot
in a sliding history window, entity rows aggregate incoming-edge messages
(neighbor plus relation embedding, mean over in-edges, learned transform
plus self-loop transform) through L layers, then entity and relation
tables evolve via gated recurrent cells. The learned transform runs only
on the rows with an in-edge in the snapshot (a few hundred of ICEWS14's
7,128 entities); every other row gets its self-loop transform alone.
Encoding at time t reads only snapshots strictly before t. The frozen
encoder's tables are cached per timestamp in one place,
`frozen_encoding`, which stage 1 and evaluation read as constants.

Semantic path: prompts rendered per entity/relation name are handed to an
external text encoder offline; its output embeddings come back through a
small file format ingested here (or a deterministic synthetic stand-in
for tests), then two adapter perceptrons compress the wide rows down to
the working dimension.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import autodiff as ad
from . import rng
from .autodiff import Tensor
from .tkg import _ID, DatasetError, ParseError, Vocabulary, text_lines, write_file


# ---------------------------------------------------------------------------
# gated recurrent cell

@dataclass
class GruParams:
    """Packed cell weights; gate order along the last axis: update, reset, candidate.

    Candidate uses the reset gate on the hidden contribution:
    n = tanh(x W_n + z_r * (h U_n) + b_n).
    """

    wx: Tensor  # (in_dim, 3*hidden)
    wh: Tensor  # (hidden, 3*hidden)
    b: Tensor   # (3*hidden,)


def init_gru(in_dim: int, hidden: int, gen: np.random.Generator, dtype=np.float32) -> GruParams:
    bx = (6.0 / (in_dim + 3 * hidden)) ** 0.5
    bh = (6.0 / (hidden + 3 * hidden)) ** 0.5
    return GruParams(
        wx=Tensor(gen.uniform(-bx, bx, (in_dim, 3 * hidden)), dtype=dtype),
        wh=Tensor(gen.uniform(-bh, bh, (hidden, 3 * hidden)), dtype=dtype),
        b=Tensor(np.zeros(3 * hidden, dtype=dtype)),
    )


def gru_cell(params: GruParams, x: Tensor, h: Tensor) -> Tensor:
    return ad.gru(x, h, params.wx, params.wh, params.b)


# ---------------------------------------------------------------------------
# structural encoder

@dataclass
class LayerParams:
    """One aggregation layer: mean in-edge message @ agg + rows @ self."""

    agg: Tensor   # (d, d)
    self: Tensor  # (d, d)


@dataclass
class StructuralEncoderParams:
    entity_emb: Tensor    # (|E|, d)
    relation_emb: Tensor  # (2|R|, d)
    layer: list           # L x LayerParams
    ent_cell: GruParams   # input d, hidden d
    rel_cell: GruParams   # input 2d, hidden d
    window: int = 3
    dropout: float = 0.2


def init_structural_encoder(num_entities: int, num_relations_aug: int, dim: int,
                            layers: int, window: int, dropout: float,
                            gen: np.random.Generator, dtype=np.float32) -> StructuralEncoderParams:
    emb_bound = (1.0 / dim) ** 0.5
    w_bound = (6.0 / (2 * dim)) ** 0.5

    def square():
        return Tensor(gen.uniform(-w_bound, w_bound, (dim, dim)), dtype=dtype)

    return StructuralEncoderParams(
        entity_emb=Tensor(gen.uniform(-emb_bound, emb_bound, (num_entities, dim)), dtype=dtype),
        relation_emb=Tensor(gen.uniform(-emb_bound, emb_bound, (num_relations_aug, dim)), dtype=dtype),
        # every agg matrix is drawn before every self matrix
        layer=[LayerParams(agg, square()) for agg in [square() for _ in range(layers)]],
        ent_cell=init_gru(dim, dim, gen, dtype),
        rel_cell=init_gru(2 * dim, dim, gen, dtype),
        window=window,
        dropout=dropout,
    )


def aggregate(layer: LayerParams, X: Tensor, R: Tensor, rows: np.ndarray) -> Tensor:
    """One aggregation layer over a snapshot's fact rows (s, r, o, ...):
    X[o] @ self plus, for each o with an in-edge, the mean of X[s] + R[r]
    over its in-edges @ agg. The agg transform runs only on those rows and
    is added into them in place, so a row with no in-edge gets X @ self
    alone and no (|E|, d) zero table is built."""
    s_idx, r_idx, o_idx = rows[:, 0], rows[:, 1], rows[:, 2]
    dst, slot, in_deg = np.unique(o_idx, return_inverse=True, return_counts=True)
    inv_deg = Tensor(np.divide(1.0, in_deg.astype(X.dtype))[:, None])
    msg = ad.add(ad.gather_rows(X, s_idx), ad.gather_rows(R, r_idx))
    agg = ad.mul(ad.scatter_add_rows(msg, slot, len(dst)), inv_deg)
    return ad.add_rows(ad.matmul(X, layer.self), ad.matmul(agg, layer.agg), dst)


def encode_structural(params: StructuralEncoderParams, snapshots: list, t: int, *,
                      gen: np.random.Generator | None = None):
    """Entity and relation tables conditioned on the last `params.window`
    blocks of `snapshots` (a graph's `snapshots()`) strictly before t.

    With no history (t = 0 or window 0) the initial embedding tables are
    returned as-is.
    """
    if t < 0 or t > len(snapshots):
        raise ValueError(f"timestamp {t} outside the available history (0..{len(snapshots)})")
    num_relations = params.relation_emb.shape[0]
    dtype = params.entity_emb.dtype

    H = params.entity_emb
    R = params.relation_emb
    for rows in snapshots[max(0, t - params.window):t]:
        s_idx, r_idx, o_idx = rows[:, 0], rows[:, 1], rows[:, 2]

        # relation evolution: previous rows joined with the mean embedding of
        # entities adjacent to each relation in this snapshot (zero if unused)
        both_ends = ad.concat([ad.gather_rows(H, s_idx), ad.gather_rows(H, o_idx)], axis=0)
        rel_idx2 = np.concatenate([r_idx, r_idx])
        pooled_sum = ad.scatter_add_rows(both_ends, rel_idx2, num_relations)
        rel_deg = np.bincount(rel_idx2, minlength=num_relations).astype(dtype)
        rel_inv = np.divide(1.0, rel_deg, out=np.zeros_like(rel_deg), where=rel_deg > 0)
        pooled = ad.mul(pooled_sum, Tensor(rel_inv[:, None]))
        R_new = gru_cell(params.rel_cell, ad.concat([R, pooled], axis=1), R)

        # L aggregation layers over the snapshot, messages use the tables as
        # they stood at the start of this step
        X = H
        for layer in params.layer:
            X = ad.dropout(ad.rrelu(aggregate(layer, X, R, rows)), params.dropout, gen)

        H = gru_cell(params.ent_cell, X, H)
        R = R_new
    return H, R


def frozen_encoding(params: StructuralEncoderParams, snapshots: list, t: int,
                    cache: dict) -> tuple[Tensor, Tensor]:
    """The frozen, dropout-free encoder's (H, R) at t as constant Tensors; a
    miss encodes them, recording nothing on a tape that is not given the
    encoder's parameters, and stores the arrays under t. The one cache of
    the frozen tables, for stage 1 and evaluation alike."""
    if t not in cache:
        cache[t] = tuple(x.values for x in encode_structural(params, snapshots, t))
    return tuple(Tensor(v) for v in cache[t])


# ---------------------------------------------------------------------------
# prompt emission

ENTITY_TEMPLATE = (
    "In the context of <DATA DOMAIN>, please provide <DATA TYPE> background about <ENTITY>."
)
RELATION_TEMPLATE = (
    "In the context of <DATA DOMAIN>, what are the <DATA TYPE> perspectives "
    "through which we can understand the <RELATION>?"
)


def emit_prompts(vocab: Vocabulary, domain: str, datatype: str, path: str) -> int:
    """Write `kind<TAB>id<TAB>prompt` lines, entities first. Returns line count."""
    lines = []
    for kind, template, hole, names in (
        ("E", ENTITY_TEMPLATE, "<ENTITY>", vocab.entity_names),
        ("R", RELATION_TEMPLATE, "<RELATION>", vocab.relation_names),
    ):
        filled = template.replace("<DATA DOMAIN>", domain).replace("<DATA TYPE>", datatype)
        lines += [f"{kind}\t{i}\t{filled.replace(hole, name)}\n" for i, name in enumerate(names)]
    write_file(path, lines)
    return len(lines)


# ---------------------------------------------------------------------------
# semantic embedding tables

MAGIC = "tkg-emb"
# the header's version names the body's layout
TEXT_VERSION = 1    # `E|R<TAB>id<TAB>values` lines
PACKED_VERSION = 2  # little-endian float32 rows, entities then relations


@dataclass
class SemanticEmbeddingTable:
    entity: np.ndarray    # (|E|, dim) float32
    relation: np.ndarray  # (|R|, dim) float32
    dim: int
    source: str


# Rows at least this wide are drawn on every core the process may use (numpy
# fills an array without holding the GIL). Median of 5 calls over 7,358 rows
# on 2 vCPUs, one thread against two: 0.045 s / 0.060 s at width 64, 0.106 s /
# 0.162 s at 512, 0.188 s / 0.145 s at 768 and 0.836 s / 0.478 s at 4,096.
THREADED_WIDTH = 768


def _usable_cores() -> int:
    """The cores this process may run on; all of them where the OS cannot
    say (no `os.sched_getaffinity`, as on macOS and Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def synthetic_embeddings(vocab: Vocabulary, dim: int, seed: int) -> SemanticEmbeddingTable:
    """Unit-variance pseudo-normal rows, each determined solely by
    (seed, kind, id); a stand-in for text-encoder hidden states. Row i is
    the float64 `standard_normal(dim)` draw of `rng.stream(seed, kind, i)`,
    rounded to float32. Rows THREADED_WIDTH or wider are drawn on every
    core the process may use, by one re-keyed bit generator and row buffer
    per worker; the rows do not depend on the worker count."""
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    entity = np.empty((vocab.num_entities, dim), dtype=np.float32)
    relation = np.empty((vocab.num_relations, dim), dtype=np.float32)
    blocks = ((entity, rng.SYNTH_ENTITY), (relation, rng.SYNTH_RELATION))
    workers = _usable_cores() if dim >= THREADED_WIDTH else 1

    def draw(part: int) -> None:
        """Share `part` of `workers` of each block's rows, drawn through one
        re-keyed bit generator into one float64 row buffer."""
        gen = rng.stream(seed, rng.SYNTH_ENTITY)
        row = np.empty(dim)
        for table, domain in blocks:
            for i in range(len(table) * part // workers, len(table) * (part + 1) // workers):
                rng.rekey(gen.bit_generator, seed, domain, i)
                gen.standard_normal(out=row)
                table[i] = row

    with ThreadPoolExecutor(workers) as pool:
        # reading each result raises a worker's exception here
        list(pool.map(draw, range(workers)))
    return SemanticEmbeddingTable(entity=entity, relation=relation, dim=dim,
                                  source=f"synthetic:{seed}")


def _nonfinite_row(entity: np.ndarray, relation: np.ndarray) -> str | None:
    """`E id` or `R id` of the first row holding a non-finite value, or None."""
    for kind, block in (("E", entity), ("R", relation)):
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if len(bad):
            return f"{kind} {bad[0]}"
    return None


def save_semantic_embeddings(path: str, table: SemanticEmbeddingTable, binary: bool = False) -> None:
    """Write the table in the text or the packed layout; a row holding a
    non-finite value, which the reader refuses, is a ValueError before the
    file is opened."""
    bad = _nonfinite_row(table.entity, table.relation)
    if bad:
        raise ValueError(f"non-finite embedding value in row {bad}")
    rows = table.entity.shape[0] + table.relation.shape[0]
    version = PACKED_VERSION if binary else TEXT_VERSION
    header = f"{MAGIC} {version} {rows} {table.dim}\n"
    blocks = (("E", table.entity), ("R", table.relation))
    if binary:
        body = (np.ascontiguousarray(block, dtype="<f4").tobytes() for _, block in blocks)
    else:
        # 9 significant digits round-trip binary32 exactly
        body = (f"{kind}\t{i}\t" + " ".join(f"{v:.9g}" for v in row) + "\n"
                for kind, block in blocks for i, row in enumerate(block))
    write_file(path, chain([header], body))


def load_semantic_embeddings(path: str, vocab: Vocabulary) -> SemanticEmbeddingTable:
    """Read a table in the layout its header's version names; every id must
    be covered.

    A header whose version, row count or width is not an integer by the id
    and fact files' field rule is refused, and so is one declaring more
    values than the body can hold (at least 2 bytes per text value, exactly
    4 per packed one), before any table is allocated. Each text row is
    checked where it is parsed, and refused at its `path:line`: an id that
    is not an integer by the id and fact files' field rule, a value that is
    not a number, beyond the float32 range, `inf` or `nan`, a byte that is
    not UTF-8, and a kind and id an earlier row gave. An id that no row
    gives leaves its row NaN, and the file is refused naming the first ten
    such ids per kind. Packed rows are checked once, and the first
    non-finite one is named by kind and id."""
    if not os.path.isfile(path):
        raise DatasetError(f"missing embedding file: {path}")
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        parts = header.split()
        try:
            magic, version, rows, dim = parts[0], *map(int, parts[1:])
        except (IndexError, ValueError):
            magic = None
        if magic != MAGIC or not all(map(_ID.fullmatch, parts[1:])):
            raise DatasetError(f"{path}: bad header {header!r}")
        if dim < 1:
            raise DatasetError(f"{path}: header declares width {dim}, need at least 1")
        if version not in (TEXT_VERSION, PACKED_VERSION):
            raise DatasetError(f"{path}: unsupported format version {version}")
        body = fh.read()

    expected_rows = vocab.num_entities + vocab.num_relations
    if rows != expected_rows:
        raise DatasetError(
            f"{path}: header declares {rows} rows, vocabulary needs {expected_rows}"
        )
    # binary rows take exactly 4 bytes per value, text rows at least 2 (a
    # digit and a separator): refuse a body too short for the header's
    # sizes before allocating the tables
    if len(body) < 2 * rows * dim:
        raise DatasetError(f"{path}: header declares {rows} x {dim} values, "
                           f"the body holds only {len(body)} bytes")
    if version == PACKED_VERSION:
        if len(body) != rows * dim * 4:
            raise DatasetError(f"{path}: header declares {rows} x {dim} packed values "
                               f"({rows * dim * 4} bytes), the body holds {len(body)}")
        flat = np.frombuffer(body, dtype="<f4").reshape(rows, dim)
        entity, relation = flat[:vocab.num_entities], flat[vocab.num_entities:]
        bad = _nonfinite_row(entity, relation)
        if bad:
            raise DatasetError(f"{path}: non-finite embedding value in binary row {bad}")
        return SemanticEmbeddingTable(entity.copy(), relation.copy(), dim, source=path)

    # a row never given stays NaN, which no parsed row can be
    tables = {"E": np.full((vocab.num_entities, dim), np.nan, dtype=np.float32),
              "R": np.full((vocab.num_relations, dim), np.nan, dtype=np.float32)}
    for lineno, line in text_lines(path, body, start=2):
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] not in tables:
            raise ParseError(path, lineno, "expected `E|R<TAB>id<TAB>values`")
        kind, idx_s, vals = fields
        if not _ID.fullmatch(idx_s):
            raise ParseError(path, lineno, f"id is not an integer: {idx_s!r}")
        idx = int(idx_s)
        try:
            with np.errstate(over="raise"):
                row = np.array(vals.split(), dtype=np.float32)
        except ValueError:
            raise ParseError(path, lineno, "non-numeric embedding value")
        except FloatingPointError:
            raise ParseError(path, lineno, "embedding value beyond the float32 range")
        if row.shape[0] != dim:
            raise ParseError(path, lineno,
                             f"row has {row.shape[0]} values, header declares {dim}")
        if not np.isfinite(row).all():
            raise ParseError(path, lineno, "non-finite embedding value")
        target = tables[kind]
        if idx < 0 or idx >= target.shape[0]:
            raise ParseError(path, lineno, f"{kind} id {idx} outside vocabulary")
        if not np.isnan(target[idx, 0]):
            raise ParseError(path, lineno, f"{kind} id {idx} given twice")
        target[idx] = row
    missing_e, missing_r = (np.flatnonzero(np.isnan(t[:, 0]))[:10].tolist()
                            for t in tables.values())
    if missing_e or missing_r:
        raise DatasetError(
            f"{path}: missing entity ids {missing_e} and relation ids {missing_r}"
        )
    return SemanticEmbeddingTable(tables["E"], tables["R"], dim, source=path)


# ---------------------------------------------------------------------------
# adapters

@dataclass
class MlpParams:
    w1: Tensor  # (in_dim, mid)
    b1: Tensor  # (mid,)
    w2: Tensor  # (mid, out_dim)
    b2: Tensor  # (out_dim,)


@dataclass
class AdapterParams:
    f_h: MlpParams
    f_r: MlpParams


def _init_mlp(in_dim, mid, out_dim, gen, dtype) -> MlpParams:
    b1 = (6.0 / (in_dim + mid)) ** 0.5
    b2 = (6.0 / (mid + out_dim)) ** 0.5
    return MlpParams(
        w1=Tensor(gen.uniform(-b1, b1, (in_dim, mid)), dtype=dtype),
        b1=Tensor(np.zeros(mid, dtype=dtype)),
        w2=Tensor(gen.uniform(-b2, b2, (mid, out_dim)), dtype=dtype),
        b2=Tensor(np.zeros(out_dim, dtype=dtype)),
    )


def init_adapters(llm_dim: int, mid: int, dim: int, gen: np.random.Generator,
                  dtype=np.float32) -> AdapterParams:
    return AdapterParams(
        f_h=_init_mlp(llm_dim, mid, dim, gen, dtype),
        f_r=_init_mlp(llm_dim, mid, dim, gen, dtype),
    )


def adapt_rows(mlp: MlpParams, rows: np.ndarray) -> Tensor:
    """Compress embedding rows to the working dimension through one adapter
    (`f_h` for entities, `f_r` for relations), in the adapter's dtype;
    differentiable. Rows already in that dtype are used without a copy."""
    in_dim = mlp.w1.shape[0]
    if rows.shape[-1] != in_dim:
        raise ValueError(f"adapter expects input dim {in_dim}, rows have {rows.shape[-1]}")
    hidden = ad.relu(ad.add(ad.matmul(Tensor(rows, dtype=mlp.w1.dtype), mlp.w1), mlp.b1))
    return ad.add(ad.matmul(hidden, mlp.w2), mlp.b2)
