"""Loss functions, the two-stage training procedure, and checkpoints.

Stage 0 pre-trains the structural encoder (with its query decoder) on the
link-prediction objective alone, then freezes every encoder parameter.
Stage 1 trains the adapters, both decoders, the event-aware gates, and
the prediction expert on the combined loss: the major prediction loss
plus omega times the two event-type expert losses, which exist when the
forward pass runs the experts (both paths on) and omega > 0. Each step
runs on an `autodiff.Tape` of its stage's parameters, and `backward`
returns their gradients for the Adam update: anything else, such as the
frozen encoder in stage 1, is a constant that records nothing. Because the
encoder is frozen, its per-timestamp output is cached and reused across
stage-1 epochs (numerically identical to re-encoding, just cheaper).
After each stage-1 epoch, `evaluation.evaluate(split="valid")` measures
the validation MRR, and the best epoch's parameters are kept.

Every loss scores a query batch against the entity table. Two loss modes
exist. `literal` reads each target's logit through a sigmoid and sums:
L = -sum sigmoid(logit[o]) (and the expert terms gated by the historical
indicator). It is exact but saturates easily, so the default
`cross_entropy` mode applies the usual log-softmax objective to the same
scores, through `autodiff.pick_log_softmax`: it scores the whole batch
in one (batch, |E|) buffer and, against stage 1's constant table, keeps
only a (batch, d) array for backward. Both share every other moving part.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import rng
from .autodiff import NumericError, Tensor
from .config import RunConfig
from .encoders import SemanticEmbeddingTable, encode_structural, frozen_encoding
from .evaluation import evaluate
from .history import build_index
from .model import (
    AblationConfig,
    MeshModel,
    ModelSpec,
    QueryBundle,
    forward_queries,
    init_model,
    score_logits,
)
from .tkg import DatasetError, TemporalKG, Vocabulary, add_inverse_relations, write_file


# stage 0 trains the structural encoder and its decoder on their own
STRUCTURAL_ONLY = AblationConfig(disable_semantic=True)


def _picked(q: Tensor, table: Tensor, targets, mode: str) -> Tensor:
    """Per event, the score of its target when query b is scored against
    the table: sigmoid(q_b . table[o_b]) (literal, read from the logits) or
    log_softmax(q @ table.T)[b, o_b] (cross_entropy, fused)."""
    if mode == "literal":
        return ad.sigmoid(ad.pick_last(score_logits(q, table), targets))
    if mode == "cross_entropy":
        return ad.pick_log_softmax(q, table, targets)
    raise ValueError(f"unknown loss mode {mode!r}")


def major_loss(q: Tensor, table: Tensor, targets, mode: str) -> Tensor:
    """Eventwise prediction loss of a query batch scored against the entity
    table: -sum_b of each event's picked target score (`_picked`)."""
    return ad.neg(ad.tensor_sum(_picked(q, table, targets, mode)))


def expert_losses(q_e: Tensor, table: Tensor, targets, indicators,
                  mode: str) -> tuple[Tensor, Tensor]:
    """Auxiliary specialization losses; each event feeds exactly one term.

    Row b of `q_e` is event b's own expert query
    (`QueryBundle.expert_query`): historical events (indicator 1) feed
    only the historical expert's loss, the rest only the non-historical
    one.
    """
    ind = np.asarray(indicators, dtype=q_e.dtype)
    picked = _picked(q_e, table, targets, mode)
    l_his = ad.neg(ad.tensor_sum(ad.mul(picked, Tensor(ind))))
    l_nhis = ad.neg(ad.tensor_sum(ad.mul(picked, Tensor(1.0 - ind))))
    return l_his, l_nhis


def stage1_losses(bundle: QueryBundle, targets, indicators, mode: str):
    """The stage-1 terms of one batch: (major, historical, non-historical).

    Each event scores only its own expert's query, so a batch of B events
    does |E|-wide work on 2B rows. The expert terms come back as None when
    the forward pass ran no experts (`bundle.q_his` is None) or no
    indicators are given.
    """
    table = bundle.score_table
    l_major = major_loss(bundle.q, table, targets, mode)
    if indicators is None or bundle.q_his is None:
        return l_major, None, None
    return (l_major, *expert_losses(bundle.expert_query(indicators), table, targets,
                                    indicators, mode))


def total_loss(l_major: Tensor, l_his: Tensor, l_nhis: Tensor, omega: float) -> Tensor:
    """Weighted sum: major + omega * (historical + non-historical)."""
    return ad.add(l_major, ad.scale(ad.add(l_his, l_nhis), omega))


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    model: MeshModel
    log_lines: list
    frozen_names: list
    frozen_values: dict                # name -> array copied at freeze time
    stage0_losses: list
    best_valid_mrr: float | None


def _train_epoch(batches, batch_loss, params: list, adam: ad.AdamState,
                 stage: str, epoch: int) -> float:
    """One pass over the (t, snapshot block) batches with one Adam step per
    batch.

    `batch_loss(t, rows)` builds the summed loss of the block's (s, r, o, t)
    rows on the step's `Tape(params)`; only `params` receive gradients and move.
    Returns the mean loss per query. An overflow or invalid operation in the
    forward, the backward or the Adam update raises NumericError naming the
    step: a weight whose moment is inf would stop moving.
    """
    total, count = 0.0, 0
    for t, rows in batches:
        where = f"{stage}, epoch {epoch}, timestamp {t}"
        with np.errstate(over="raise", invalid="raise"):
            try:
                with ad.Tape(params) as tape:
                    loss = batch_loss(t, rows)
                    if not np.isfinite(loss.values):
                        raise NumericError(f"non-finite loss in {where}")
                    grads = ad.backward(loss, tape)
            except FloatingPointError as exc:
                raise NumericError(f"non-finite value in {where}: {exc}") from None
            try:
                ad.adam_step(params, grads, adam)
            except FloatingPointError as exc:
                raise NumericError(f"Adam update failed in {where}: {exc}") from None
            del grads  # not held through the next step's forward and backward
        total += loss.item()
        count += len(rows)
    return total / max(count, 1)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_heap() -> None:
    """Let each training step reuse the memory the previous step freed:
    arrays below 64 MiB come from the heap instead of their own mappings,
    and the heap keeps up to 1 GiB of free top space instead of returning
    it to the kernel, so a step's arrays do not fault their pages in again.
    Set once per process, through glibc's mallopt; without it (another C
    library) nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 64 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def train_model(config: RunConfig, vocab: Vocabulary, train_tkg: TemporalKG,
                valid_tkg: TemporalKG, sem: SemanticEmbeddingTable,
                verbose=None) -> TrainResult:
    """Run both training stages and keep the parameters of the stage-1
    epoch with the best validation MRR, as `evaluate(split="valid")`
    measures it.

    The process's heap policy is set first (`_keep_freed_heap`). Stage 0
    trains the parameters under the field paths "encoder." and
    "decoder_g." through `forward_queries` with the semantic path off;
    stage 1 trains every parameter but the frozen "encoder." group. Stage
    1's tape never names the encoder, so `frozen_encoding` fills its cache
    inside the first epoch's steps and records nothing."""
    _keep_freed_heap()
    ablation = AblationConfig.from_config(config)

    if config.epochs_stage1 > 0 and not valid_tkg.num_facts:
        raise DatasetError("the valid split has no facts; stage 1 keeps the epoch "
                           "with the best validation MRR")

    train_aug = add_inverse_relations(train_tkg, vocab.num_relations)
    snapshots = train_aug.snapshots()
    batches = [(t, rows) for t, rows in enumerate(snapshots) if len(rows)]

    spec = ModelSpec.from_config(config, vocab.num_entities, vocab.num_relations, sem.dim)
    model = init_model(spec, rng.stream(config.seed, rng.INIT))

    named = model.named_parameters()

    def group(*prefixes) -> dict[str, Tensor]:
        """The parameters under the field paths `prefixes`, by name in model order."""
        return {n: t for n, t in named.items() if n.startswith(prefixes)}

    stage0_losses: list[float] = []

    # stage 0: structural encoder (plus its decoder) on link prediction
    if not ablation.disable_structural and config.epochs_stage0 > 0:
        params0 = list(group("encoder.", "decoder_g.").values())
        adam0 = ad.init_adam(params0, lr=config.learning_rate)
        gen0 = rng.stream(config.seed, rng.DROPOUT, 0)

        def stage0_loss(t, rows):
            H, R = encode_structural(model.encoder, snapshots, t, gen=gen0)
            bundle = forward_queries(model, H, R, sem, rows[:, 0], rows[:, 1],
                                     gen=gen0, ablation=STRUCTURAL_ONLY)
            return major_loss(bundle.q, bundle.score_table, rows[:, 2], "cross_entropy")

        for epoch in range(1, config.epochs_stage0 + 1):
            stage0_losses.append(_train_epoch(batches, stage0_loss, params0, adam0,
                                              "stage 0", epoch))
            if verbose:
                verbose(f"stage0 epoch {epoch}: loss {stage0_losses[-1]:.6f}")

    # freeze the structural encoder
    frozen = group("encoder.")
    frozen_names = sorted(frozen)
    frozen_values = {n: frozen[n].values.copy() for n in frozen_names}

    # stage 1: adapters, both decoders, gates, prediction expert
    trained = {n: t for n, t in named.items() if n not in frozen}
    params1 = list(trained.values())
    adam1 = ad.init_adam(params1, lr=config.learning_rate)
    gen1 = rng.stream(config.seed, rng.DROPOUT, 1)

    # the frozen encoder and the fixed training facts make each timestamp's
    # encoding and historical indicators constants: compute them once and
    # read them as constants, since with no history (t = 0, window 0) they
    # are the frozen embedding tables themselves
    encoded: dict[int, tuple] = {}
    historical: list = []
    if config.epochs_stage1 > 0:
        historical = train_aug.snapshots(
            build_index(train_aug.array).indicator(*train_aug.array.T))
    valid_cache: dict[int, tuple] = {}

    def stage1_loss(t, rows):
        H = R = None
        if not ablation.disable_structural:
            H, R = frozen_encoding(model.encoder, snapshots, t, encoded)
        bundle = forward_queries(model, H, R, sem, rows[:, 0], rows[:, 1],
                                 gen=gen1, ablation=ablation)
        l_major, l_his, l_nhis = stage1_losses(bundle, rows[:, 2],
                                               historical[t] if config.omega > 0 else None,
                                               config.loss_mode)
        return l_major if l_his is None else total_loss(l_major, l_his, l_nhis, config.omega)

    log_lines: list[str] = []
    best_mrr: float | None = None
    best_state: dict | None = None

    for epoch in range(1, config.epochs_stage1 + 1):
        train_loss = _train_epoch(batches, stage1_loss, params1, adam1, "stage 1", epoch)
        valid_mrr = evaluate(model, vocab, train_tkg, valid_tkg, TemporalKG(split="test"), sem,
                             ablation=ablation, split="valid",
                             encode_cache=valid_cache).overall.mrr
        log_lines.append(f"{epoch}\t{train_loss:.6f}\t{valid_mrr:.6f}")
        if verbose:
            verbose(f"stage1 epoch {epoch}: loss {train_loss:.6f} valid MRR {valid_mrr:.6f}")
        if best_mrr is None or valid_mrr > best_mrr:
            best_mrr = valid_mrr
            best_state = {n: t.values.copy() for n, t in trained.items()}

    if best_state is not None:
        for n, values in best_state.items():
            named[n].values = values

    for n in frozen_names:
        if not np.array_equal(frozen[n].values, frozen_values[n]):
            raise AssertionError(f"frozen parameter {n} changed during stage 1")

    return TrainResult(
        model=model,
        log_lines=log_lines,
        frozen_names=frozen_names,
        frozen_values=frozen_values,
        stage0_losses=stage0_losses,
        best_valid_mrr=best_mrr,
    )


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = "meshckpt"
# version 2 kept one gate tensor per expert and version 3 had no checksum;
# a file of another version is refused and must be retrained
CHECKPOINT_VERSION = 4


def save_checkpoint(path: str, model: MeshModel, config: RunConfig,
                    frozen_names: list, seed: int) -> None:
    """Versioned container: JSON header line (model spec, run configuration,
    parameter manifest, SHA-256 of the parameter bytes), then little-endian
    parameter blobs in the spec's dtype, in manifest order.

    The file is written by `tkg.write_file`, so `path` holds either its old
    content or the whole new checkpoint. A non-finite parameter, which
    `load_checkpoint` refuses, is a ValueError before anything is written."""
    named = model.named_parameters()
    for name, t in named.items():
        if not np.isfinite(t.values).all():
            raise ValueError(f"parameter {name} holds a non-finite value")
    blob_dtype = np.dtype(model.spec.dtype).newbyteorder("<")
    blob = b"".join(np.ascontiguousarray(t.values, dtype=blob_dtype).tobytes()
                    for t in named.values())
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "spec": asdict(model.spec),
        "config": asdict(config),
        "seed": seed,
        "frozen": list(frozen_names),
        "params": [{"name": n, "shape": list(t.values.shape)} for n, t in named.items()],
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    write_file(path, [json.dumps(header) + "\n", blob])


class _Placeholders:
    """Stands in for `init_model`'s generator and draws nothing: each draw
    is a read-only zero-stride view of one zero, so the model built from it
    has the spec's parameter names and shapes without their memory."""

    def __init__(self, dtype):
        self.zero = np.zeros((), dtype)

    def uniform(self, low, high, size):
        return np.broadcast_to(self.zero, size)


def load_checkpoint(path: str):
    """Rebuild the model from a checkpoint's spec and blobs; returns
    (model, header), the header's stored run configuration rebuilt as a
    RunConfig. Raises DatasetError for anything unreadable.

    The header is checked first: the stored spec against the one its run
    configuration gives (with the stored vocabulary sizes and semantic
    width), then the manifest against the (name, shape) list of the spec's
    model built from placeholders, then the blob against that model's size
    and last against its checksum. Only then is any parameter allocated,
    each filled from the blob in model order and refused if non-finite."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            blob = fh.read()
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read the checkpoint ({exc.strerror})") from None
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"{path}: unreadable checkpoint header ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise DatasetError(f"{path} is not a model checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise DatasetError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
    try:
        missing = set(RunConfig.__dataclass_fields__) - set(header["config"])
        if missing:
            raise KeyError(f"run configuration lacks {sorted(missing)}")
        header["config"] = RunConfig(**header["config"])
        stored = header["spec"]
        spec = ModelSpec.from_config(header["config"], stored["num_entities"],
                                     stored["num_relations"], stored["llm_dim"])
        manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["params"]]
        checksum = header["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: bad checkpoint header ({exc!r})") from None
    if asdict(spec) != stored:
        raise DatasetError(f"{path}: the header's model spec is not the one its config gives")
    try:
        model = init_model(spec, _Placeholders(spec.dtype))
    except (MemoryError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: cannot build the header's model spec ({exc})") from None
    named = model.named_parameters()
    if manifest != [(name, t.shape) for name, t in named.items()]:
        raise DatasetError(f"{path}: the parameter manifest is not the spec's parameters, "
                           f"names and shapes, in model order")
    blob_dtype = np.dtype(spec.dtype).newbyteorder("<")
    expected = blob_dtype.itemsize * sum(t.values.size for t in named.values())
    if len(blob) != expected:
        raise DatasetError(f"{path}: {len(blob)} parameter bytes, "
                           f"the spec's model has {expected}")
    if hashlib.sha256(blob).hexdigest() != checksum:
        raise DatasetError(f"{path}: the parameter bytes do not match the header's "
                           f"SHA-256 (corrupted file)")
    offset = 0
    for name, t in named.items():
        raw = np.frombuffer(blob, dtype=blob_dtype, count=t.values.size, offset=offset)
        if not np.isfinite(raw).all():
            raise DatasetError(f"{path}: parameter {name} holds a non-finite value")
        t.values = raw.reshape(t.shape).astype(spec.dtype)
        offset += raw.nbytes
    return model, header
