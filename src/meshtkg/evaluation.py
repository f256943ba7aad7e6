"""Time-aware ranking evaluation and gate-weight analysis.

Protocol: every fact of the evaluated split is queried in both directions
(direct and inverse). Candidates that are other true objects of the same
(s, r, t) anywhere in the dataset are deleted before ranking ("time-aware
filtering"). Ties get the mid-rank, so the outcome does not depend on
candidate enumeration order, and any strictly monotone transform of the
scores (logits vs probabilities) yields identical metrics.

`filtered_ranks` is the one ranking kernel, called once per snapshot by
`ranked_queries`, the one loop over a split, whose scorer is the model's
(`evaluate`, for `eval`, `analyze` and stage-1 validation) or the naive
baseline's (`evaluate_naive`). A split's ranks become one per-query
record array (`EvalResult.results`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from . import history
from .autodiff import NumericError
from .encoders import SemanticEmbeddingTable, adapt_rows, frozen_encoding
from .model import AblationConfig, MeshModel, forward_queries, score_logits
from .tkg import DatasetError, TemporalKG, Vocabulary, add_inverse_relations, merge


@dataclass
class MetricsReport:
    mrr: float | None
    hits1: float | None
    hits3: float | None
    hits10: float | None
    count: int


def compute_metrics(ranks) -> MetricsReport:
    """MRR and Hits@1/3/10 of a rank list; an empty list has none of them."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return MetricsReport(None, None, None, None, 0)
    return MetricsReport(
        mrr=float(np.mean(1.0 / ranks)),
        hits1=float(np.mean(ranks <= 1)),
        hits3=float(np.mean(ranks <= 3)),
        hits10=float(np.mean(ranks <= 10)),
        count=int(ranks.size),
    )


def split_metrics(filtered, indicators) -> tuple[MetricsReport, MetricsReport]:
    """Metrics of the historical (indicator 1) and non-historical
    (indicator 0) filtered ranks."""
    filtered, indicators = np.asarray(filtered), np.asarray(indicators)
    if not np.all((indicators == 0) | (indicators == 1)):
        raise ValueError("every rank needs a 0/1 indicator tag for split metrics")
    return compute_metrics(filtered[indicators == 1]), compute_metrics(filtered[indicators == 0])


@dataclass
class GateStats:
    """Historical-expert weight, summarized per event type, with a one-sided
    Welch t-test of mean(historical) > mean(non-historical)."""

    mean_his: float | None = None
    std_his: float | None = None
    n_his: int = 0
    mean_nhis: float | None = None
    std_nhis: float | None = None
    n_nhis: int = 0
    t_stat: float | None = None
    p_value: float | None = None
    note: str = ""


def welch_t(mean1, var1, n1, mean2, var2, n2) -> tuple[float, float]:
    """Unequal-variance t statistic and its degrees of freedom."""
    se2 = var1 / n1 + var2 / n2
    if se2 == 0.0:
        return 0.0 if mean1 == mean2 else float("inf") * np.sign(mean1 - mean2), float(n1 + n2 - 2)
    t = (mean1 - mean2) / np.sqrt(se2)
    df_den = (var1 / n1) ** 2 / (n1 - 1) + (var2 / n2) ** 2 / (n2 - 1)
    df = se2**2 / df_den if df_den > 0 else float(n1 + n2 - 2)
    return float(t), float(df)


def gate_statistics(alpha_his, alpha_nhis) -> GateStats:
    """One-sided two-sample comparison of the first expert's weight."""
    a1 = np.asarray(alpha_his, dtype=np.float64)
    a2 = np.asarray(alpha_nhis, dtype=np.float64)
    out = GateStats(n_his=a1.size, n_nhis=a2.size)
    if a1.size:
        out.mean_his = float(a1.mean())
        out.std_his = float(a1.std(ddof=1)) if a1.size > 1 else None
    if a2.size:
        out.mean_nhis = float(a2.mean())
        out.std_nhis = float(a2.std(ddof=1)) if a2.size > 1 else None
    if a1.size < 2 or a2.size < 2:
        out.note = "statistics unavailable: a bucket has fewer than 2 samples"
        return out
    t, df = welch_t(out.mean_his, np.var(a1, ddof=1), a1.size,
                    out.mean_nhis, np.var(a2, ddof=1), a2.size)
    out.t_stat = t
    out.p_value = float(stdtr(df, -t))   # the upper tail, as scipy.stats.t.sf(t, df)
    return out


# ---------------------------------------------------------------------------
# full-split evaluation

def filtered_ranks(scores: np.ndarray, queries: np.ndarray, known: np.ndarray):
    """Raw and time-aware-filtered ranks of one snapshot's true objects.

    `scores` is (B, |E|) for the B (s, r, o, t) rows of `queries`; `known`
    holds every true fact at their timestamp. Rank = 1 + (strictly better
    candidates) + (ties with others) / 2; the filtered rank first deletes
    the query's filter: the distinct objects of the known rows that share
    its (s, r), its own object left out.
    """
    batch, num_entities = scores.shape
    s_o = scores[np.arange(batch), queries[:, 2]][:, None]
    greater = np.count_nonzero(scores > s_o, axis=1)
    ties = np.count_nonzero(scores == s_o, axis=1) - 1
    known_pairs = history.pack(known[:, 0], known[:, 1])
    order = np.argsort(known_pairs)
    i, j = history.matching(known_pairs[order], history.pack(queries[:, 0], queries[:, 1]))
    i, other = np.divmod(np.unique(i * num_entities + known[order[j], 2]), num_entities)
    keep = other != queries[i, 2]
    i, f_scores = i[keep], scores[i[keep], other[keep]]
    greater_f = np.bincount(i[f_scores > s_o[i, 0]], minlength=batch)
    ties_f = np.bincount(i[f_scores == s_o[i, 0]], minlength=batch)
    raw = 1.0 + greater + 0.5 * ties
    filtered = 1.0 + (greater - greater_f) + 0.5 * (ties - ties_f)
    return raw, filtered


RESULT_FIELDS = "s,r,o,t,raw_rank,filtered_rank,indicator"


@dataclass
class EvalResult:
    overall: MetricsReport
    historical: MetricsReport
    nonhistorical: MetricsReport
    gate_stats: GateStats
    results: np.recarray   # one RESULT_FIELDS record per query

    def named_reports(self):
        return [
            ("all", self.overall),
            ("historical", self.historical),
            ("non-historical", self.nonhistorical),
        ]


def _eval_result(query: TemporalKG, indicators: np.ndarray, raw: np.ndarray,
                 filtered: np.ndarray, gates: GateStats) -> EvalResult:
    results = np.rec.fromarrays([*query.array.T, raw, filtered, indicators], names=RESULT_FIELDS)
    return EvalResult(compute_metrics(filtered), *split_metrics(filtered, indicators), gates,
                      results)


def ranked_queries(query: TemporalKG, known: TemporalKG, scores):
    """Rank every query of `query` (already inverse-augmented), each query's
    filter taken from `known`'s facts at its timestamp, by the scorer
    `scores(t, rows)`: the (B, |E|) scores of one snapshot's rows.

    Returns the (raw, filtered) ranks aligned with `query.array`. An
    overflow or invalid operation while a snapshot is scored raises
    NumericError naming the split and timestamp; with finite parameters and
    rows, that is the only way a model score can turn non-finite.
    """
    known_at = known.snapshots()
    ranks = []
    for t, rows in enumerate(query.snapshots()):
        if not len(rows):
            continue
        try:
            with np.errstate(over="raise", invalid="raise"):
                ranks.append(filtered_ranks(scores(t, rows), rows, known_at[t]))
        except FloatingPointError as exc:
            raise NumericError(f"non-finite scores in the {query.split} split, "
                               f"timestamp {t}: {exc}") from None
    return tuple(np.concatenate(column) for column in zip(*ranks))


def model_scores(model: MeshModel, sem: SemanticEmbeddingTable, cond: TemporalKG,
                 alphas: list, ablation: AblationConfig | None = None,
                 encode_cache: dict | None = None):
    """The model's scorer for `ranked_queries`, the encoder conditioned on
    `cond`, which holds the queried timestamps; each call appends the
    prediction expert's weight on the first expert to `alphas`, if the
    ablation runs that expert. `encode_cache` keeps each timestamp's
    encoding across calls (the evaluation-mode encoder is a pure function
    of its frozen parameters); without one, it is dropped once scored."""
    ablation = ablation or AblationConfig()
    cond_at = cond.snapshots()
    sem_table = None

    def scores(t, rows):
        nonlocal sem_table
        H = R = None
        if not ablation.disable_structural:
            H, R = frozen_encoding(model.encoder, cond_at, t,
                                   {} if encode_cache is None else encode_cache)
        elif sem_table is None:
            sem_table = adapt_rows(model.adapter.f_h, sem.entity)
        bundle = forward_queries(model, H, R, sem, rows[:, 0], rows[:, 1],
                                 ablation=ablation, semantic_entity_table=sem_table)
        if bundle.alphas is not None:
            alphas.append(bundle.alphas.values[:, 0])
        return score_logits(bundle.q, bundle.score_table).values

    return scores


def _query_split(train: TemporalKG, valid: TemporalKG, test: TemporalKG, num_relations: int,
                 split: str):
    """The three splits inverse-augmented, their union (which supplies every
    filter), the queried split and its historical indicators."""
    if split not in ("valid", "test"):
        raise ValueError(f"split must be 'valid' or 'test', got {split!r}")
    augmented = [add_inverse_relations(tkg, num_relations) for tkg in (train, valid, test)]
    query = augmented[2 if split == "test" else 1]
    if not query.num_facts:
        raise DatasetError(f"the {split} split has no facts to rank")
    known = merge(*augmented)
    indicators = history.build_index(known.array).indicator(*query.array.T)
    return augmented, known, query, indicators


def evaluate(model: MeshModel, vocab: Vocabulary, train: TemporalKG, valid: TemporalKG,
             test: TemporalKG, sem: SemanticEmbeddingTable,
             ablation: AblationConfig | None = None, split: str = "test",
             encode_cache: dict | None = None) -> EvalResult:
    """Evaluate one split with time-aware filtering, split metrics, and gate
    statistics. The encoder conditions on every fact that precedes each
    query timestamp, across all splits."""
    augmented, known, query, indicators = _query_split(train, valid, test, vocab.num_relations,
                                                       split)
    cond = known if split == "test" else merge(*augmented[:2])
    alphas = []
    raw, filtered = ranked_queries(query, known, model_scores(model, sem, cond, alphas, ablation,
                                                              encode_cache))
    if not alphas:
        off = [name for name, on in vars(ablation).items() if on]
        gates = GateStats(note=f"no prediction-expert weights under {', '.join(off)}")
    else:
        alpha = np.concatenate(alphas)
        gates = gate_statistics(alpha[indicators == 1], alpha[indicators == 0])
    return _eval_result(query, indicators, raw, filtered, gates)


def evaluate_naive(vocab: Vocabulary, train: TemporalKG, valid: TemporalKG,
                   test: TemporalKG, split: str = "test") -> EvalResult:
    """Frequency-ranking baseline under the same filtered protocol. It
    counts training facts only, while the historical indicator and the
    model's encoder read every fact before the query time, across splits;
    the filter still takes every split's facts."""
    augmented, known, query, indicators = _query_split(train, valid, test, vocab.num_relations,
                                                       split)
    seen = history.seen_objects(augmented[0].array)
    raw, filtered = ranked_queries(query, known, lambda t, rows: history.naive_scores(
        seen, rows[:, 0], rows[:, 1], vocab.num_entities))
    return _eval_result(query, indicators, raw, filtered, GateStats())
