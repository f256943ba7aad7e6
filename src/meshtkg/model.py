"""Event-aware experts, prediction expert, and entity scoring.

Each of the M+N event-aware experts blends the structural query q_g and
the semantic query q_s through its own sigmoid gate; the first M experts
are trained toward recurring events, the next N toward novel ones. The
prediction expert assigns every expert an independent sigmoid weight
(driven by q_g, which carries the evolving graph context) and sums the
expert outputs into the final query vector. The gates and the weights
are one column per expert of two matrices, so the layer is one pass for
any expert count. Entities are scored by their logits against the
entity table: ranking reads `score_logits` directly, which gives the same
ranks as probabilities would, and so does the literal loss. The losses
take the query and the table that `forward_queries` returns and score
them themselves (see `training`), so the forward pass builds no
(batch, |E|) array. `forward_queries` is the one forward path of stage 0,
stage 1 and evaluation. `MeshModel`'s fields are the parameter schema:
every parameter name, training group and checkpoint blob comes from one
`named_tensors` walk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from . import encoders as enc
from .autodiff import Tensor


@dataclass(frozen=True)
class ModelSpec:
    """The architecture: every size and switch that fixes the parameter
    shapes. Derived once per run from its RunConfig, which checks the
    values, and stored in checkpoints beside that configuration, which
    must give the same spec when the model is rebuilt."""

    num_entities: int
    num_relations: int       # before inverse augmentation
    dim: int
    llm_dim: int             # width of the semantic embedding rows
    adapter_hidden: int
    channels: int
    kernel_width: int
    layers: int
    window: int
    dropout: float
    num_historical: int      # M
    num_nonhistorical: int   # N
    gate_input: str
    dtype: str               # "float32" or "float64"

    def __post_init__(self):
        # numpy dtypes are accepted; the record keeps the JSON-friendly name
        object.__setattr__(self, "dtype", np.dtype(self.dtype).name)

    @classmethod
    def from_config(cls, config, num_entities: int, num_relations: int,
                    llm_dim: int) -> "ModelSpec":
        """Sizes from the run configuration (fields of the same name), the
        vocabulary, and the width of the semantic table actually loaded."""
        shared = {f.name: getattr(config, f.name) for f in fields(cls) if hasattr(config, f.name)}
        shared.update(num_entities=num_entities, num_relations=num_relations, llm_dim=llm_dim)
        return cls(**shared)

    @property
    def num_experts(self) -> int:
        return self.num_historical + self.num_nonhistorical

    @property
    def gate_dim(self) -> int:
        return 2 * self.dim if self.gate_input == "concatenated" else self.dim


@dataclass(frozen=True)
class AblationConfig:
    """Forward-pass switches for the ablation grid."""

    disable_semantic: bool = False
    disable_structural: bool = False
    disable_prediction_expert: bool = False  # final query = plain mean of expert outputs

    @classmethod
    def from_config(cls, config) -> "AblationConfig":
        """The switches of a run configuration (fields of the same name)."""
        return cls(**{f.name: getattr(config, f.name) for f in fields(cls)})


@dataclass
class ExpertParams:
    """The M+N event-aware experts and the prediction expert, one column
    per expert: expert i's gate is sigmoid(gate . gate_w[:, i] + gate_b[i])
    and its prediction weight sigmoid(gate . pred_w[:, i] + pred_b[i])."""

    gate_w: Tensor  # (gate_dim, M+N)
    gate_b: Tensor  # (M+N,)
    pred_w: Tensor  # (gate_dim, M+N)
    pred_b: Tensor  # (M+N,)

    @classmethod
    def zeros(cls, gate_dim: int, num_experts: int, dtype) -> "ExpertParams":
        # zero init puts every gate and weight at 0.5: both information
        # sources and all experts start symmetric, so nothing collapses
        # before training speaks
        shapes = [(gate_dim, num_experts), (num_experts,)] * 2
        return cls(*(Tensor(np.zeros(shape, dtype=dtype)) for shape in shapes))


def expert_mix(experts: ExpertParams, gate: Tensor, q_g: Tensor, q_s: Tensor,
               num_historical: int, uniform: bool = False):
    """All M+N experts and the prediction expert in one pass.

    Expert i blends the two queries by its gate a_i, q_i = a_i q_g +
    (1 - a_i) q_s, and the prediction expert weighs q_i by p_i, an
    independent sigmoid per expert (deliberately not softmax-normalized),
    or by the fixed 1/(M+N) when `uniform`. Summed over the historical
    (i <= M) and non-historical (i > M) blocks, each block is
    (sum p_i a_i) q_g + (sum p_i (1 - a_i)) q_s.

    Returns (p, q_his, q_nhis); p has shape (batch, M+N).
    """
    a = ad.sigmoid(ad.add(ad.matmul(gate, experts.gate_w), experts.gate_b))
    if uniform:
        p = Tensor(np.full(a.shape, 1.0 / a.shape[-1], dtype=a.dtype))
    else:
        p = ad.sigmoid(ad.add(ad.matmul(gate, experts.pred_w), experts.pred_b))
    # (M+N, 2) 0/1 block membership: a product with it sums each block's columns
    in_nhis = (np.arange(a.shape[-1]) >= num_historical).astype(int)
    blocks = Tensor(np.eye(2, dtype=a.dtype)[in_nhis])
    w_g = ad.matmul(ad.mul(p, a), blocks)
    w_s = ad.matmul(ad.mul(p, ad.shift(ad.neg(a), 1.0)), blocks)
    q_his, q_nhis = (
        ad.add(ad.mul(ad.slice_last(w_g, k, k + 1), q_g), ad.mul(ad.slice_last(w_s, k, k + 1), q_s))
        for k in (0, 1)
    )
    return p, q_his, q_nhis


def score_logits(q: Tensor, entity_table: Tensor) -> Tensor:
    """Pre-sigmoid scores of every entity: q . H^T, shape (batch, |E|)."""
    if q.shape[-1] != entity_table.shape[-1]:
        raise ValueError(f"query dim {q.shape[-1]} vs entity table dim {entity_table.shape[-1]}")
    return ad.matmul(q, ad.transpose(entity_table))


# ---------------------------------------------------------------------------
# the full model

@dataclass
class MeshModel:
    """The whole model; its fields are the parameter schema. Every tensor is
    named by its field path (`encoder.layer0.agg`, `experts.gate_w`), in
    field order, which is also the checkpoint's blob order."""

    spec: ModelSpec
    encoder: enc.StructuralEncoderParams
    adapter: enc.AdapterParams
    decoder_g: dec.ConvTransEParams
    decoder_l: dec.ConvTransEParams
    experts: ExpertParams

    def named_parameters(self) -> dict[str, Tensor]:
        return ad.named_tensors(self)


def init_model(spec: ModelSpec, gen: np.random.Generator) -> MeshModel:
    """A freshly initialised model for `spec`."""
    s, dtype = spec, spec.dtype
    return MeshModel(
        spec=spec,
        encoder=enc.init_structural_encoder(
            s.num_entities, 2 * s.num_relations, s.dim, s.layers, s.window, s.dropout, gen, dtype
        ),
        adapter=enc.init_adapters(s.llm_dim, s.adapter_hidden, s.dim, gen, dtype),
        decoder_g=dec.init_conv_transe(s.dim, s.channels, s.kernel_width, s.dropout, gen, dtype),
        decoder_l=dec.init_conv_transe(s.dim, s.channels, s.kernel_width, s.dropout, gen, dtype),
        experts=ExpertParams.zeros(s.gate_dim, s.num_experts, dtype),
    )


@dataclass
class QueryBundle:
    """Everything the losses and the evaluator need for one query batch.
    The expert queries q_his and q_nhis, and the weights, are None when the
    forward pass ran no experts (a path disabled)."""

    q: Tensor
    score_table: Tensor            # entity table the queries are scored against
    q_his: Tensor | None = None
    q_nhis: Tensor | None = None
    alphas: Tensor | None = None   # prediction-expert weights (batch, M+N)

    def expert_query(self, indicators) -> Tensor:
        """Each event's own expert query: q_his on historical rows
        (indicator 1), q_nhis on the rest. Multiplying finite queries by
        exactly 1 or 0 selects rows without rounding, so scoring it gives
        each row the values that scoring q_his or q_nhis on its own would."""
        ind = np.asarray(indicators, dtype=self.q_his.dtype)[:, None]
        return ad.add(ad.mul(self.q_his, Tensor(ind)), ad.mul(self.q_nhis, Tensor(1.0 - ind)))


def forward_queries(model: MeshModel, H_g, R_g, sem: enc.SemanticEmbeddingTable,
                    s_idx: np.ndarray, r_idx: np.ndarray, *,
                    gen: np.random.Generator | None = None,
                    ablation: AblationConfig | None = None,
                    semantic_entity_table: Tensor | None = None) -> QueryBundle:
    """Run a batch of (s, r, ?) queries through the configured pipeline.

    r_idx may contain inverse relation ids (>= |R|); the semantic path maps
    them onto their base relation rows, since prompts exist only for the
    original relations. When the structural path is disabled the scores are
    taken against the adapted semantic entity table (pass it precomputed via
    `semantic_entity_table` to share work across batches).

    The bundle carries the expert queries (q_his, q_nhis) exactly when both
    paths are on; with either path disabled there are no experts, and so
    no expert loss terms.
    """
    ablation = ablation or AblationConfig()

    q_g = None
    if not ablation.disable_structural:
        h_g = ad.gather_rows(H_g, s_idx)
        r_g = ad.gather_rows(R_g, r_idx)
        q_g = dec.decode(model.decoder_g, h_g, r_g, gen=gen)

    if ablation.disable_semantic:
        return QueryBundle(q_g, H_g)

    spec = model.spec
    base_rel = np.asarray(r_idx) % spec.num_relations
    h_l = enc.adapt_rows(model.adapter.f_h, sem.entity[np.asarray(s_idx)])
    r_l = enc.adapt_rows(model.adapter.f_r, sem.relation[base_rel])
    q_s = dec.decode(model.decoder_l, h_l, r_l, gen=gen)

    if ablation.disable_structural:
        table = semantic_entity_table
        if table is None:
            table = enc.adapt_rows(model.adapter.f_h, sem.entity)
        return QueryBundle(q_s, table)

    if spec.gate_input == "structural":
        gate = q_g
    elif spec.gate_input == "semantic":
        gate = q_s
    else:
        gate = ad.concat([q_g, q_s], axis=-1)

    p, q_his, q_nhis = expert_mix(model.experts, gate, q_g, q_s, spec.num_historical,
                                  uniform=ablation.disable_prediction_expert)
    return QueryBundle(
        ad.add(q_his, q_nhis), H_g, q_his, q_nhis,
        alphas=None if ablation.disable_prediction_expert else p,
    )
