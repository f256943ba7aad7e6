"""Time-aware ranking evaluation and gate-weight analysis.

Protocol: every fact of the evaluated split is queried in both directions
(direct and inverse). Candidates that are other true objects of the same
(s, r, t) anywhere in the dataset are deleted before ranking ("time-aware
filtering"). Ties get the mid-rank, so the outcome does not depend on
candidate enumeration order, and any strictly monotone transform of the
scores (logits vs probabilities) yields identical metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

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

    @property
    def empty(self) -> bool:
        return self.count == 0

    def row(self, bucket: str) -> list[str]:
        def fmt(v):
            return "n/a" if v is None else f"{100.0 * v:.2f}"

        return [bucket, str(self.count), fmt(self.mrr), fmt(self.hits1), fmt(self.hits3), fmt(self.hits10)]


def format_reports(named_reports: list[tuple[str, "MetricsReport"]]) -> str:
    header = ["bucket", "queries", "MRR", "H@1", "H@3", "H@10"]
    rows = [header] + [report.row(name) for name, report in named_reports]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    empties = [name for name, report in named_reports if report.empty]
    if empties:
        lines.append(f"(empty bucket: {', '.join(empties)})")
    return "\n".join(lines) + "\n"


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

    def to_text(self) -> str:
        def fmt(v, digits=4):
            return "n/a" if v is None else f"{v:.{digits}f}"

        lines = [
            "alpha_1      Historical  Non-Historical",
            f"Mean         {fmt(self.mean_his)}      {fmt(self.mean_nhis)}",
            f"Std          {fmt(self.std_his)}      {fmt(self.std_nhis)}",
            f"n            {self.n_his}           {self.n_nhis}",
            f"p-value      {fmt(self.p_value, 6)}" + (f"  ({self.note})" if self.note else ""),
        ]
        return "\n".join(lines) + "\n"


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
    out.p_value = float(sps.t.sf(t, df))
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


def ranked_queries(model: MeshModel, sem: SemanticEmbeddingTable, cond: TemporalKG,
                   query: TemporalKG, known: TemporalKG,
                   ablation: AblationConfig | None = None,
                   encode_cache: dict | None = None):
    """Rank every query of `query` (already inverse-augmented) with the
    encoder conditioned on `cond`, which holds the queried timestamps, and
    each query's filter taken from `known`'s facts at its timestamp.

    Returns (raw, filtered, alpha) aligned with `query.array`: the ranks
    and the prediction expert's weight on the first expert, or None for
    alpha when the ablation runs no prediction expert. The encoder output
    per timestamp can be cached across calls via `encode_cache` because
    the evaluation-mode encoder is a pure function of its frozen parameters;
    without one, each timestamp's encoding is dropped once it is ranked.
    With finite parameters and rows, a score can only turn non-finite by an
    overflow or invalid operation, which raises NumericError.
    """
    ablation = ablation or AblationConfig()
    sem_table = None
    known_at, cond_at = known.snapshots(), cond.snapshots()
    ranks, alphas = [], []
    for t, rows in enumerate(query.snapshots()):
        if not len(rows):
            continue
        H = R = None
        try:
            with np.errstate(over="raise", invalid="raise"):
                if not ablation.disable_structural:
                    H, R = frozen_encoding(model.encoder, cond_at, t,
                                           {} if encode_cache is None else encode_cache)
                elif sem_table is None:
                    sem_table = adapt_rows(model.adapter.f_h, sem.entity)
                bundle = forward_queries(
                    model, H, R, sem, rows[:, 0], rows[:, 1],
                    ablation=ablation, semantic_entity_table=sem_table,
                )
                ranks.append(filtered_ranks(score_logits(bundle.q, bundle.score_table).values,
                                            rows, known_at[t]))
        except FloatingPointError as exc:
            raise NumericError(f"non-finite scores in the {query.split} split, "
                               f"timestamp {t}: {exc}") from None
        if bundle.alphas is not None:
            alphas.append(bundle.alphas.values[:, 0])
    raw, filtered = (np.concatenate(column) for column in zip(*ranks))
    return raw, filtered, np.concatenate(alphas) if alphas else None


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
    raw, filtered, alpha = ranked_queries(model, sem, cond, query, known,
                                          ablation=ablation, encode_cache=encode_cache)
    if alpha is None:
        off = [name for name, on in vars(ablation).items() if on]
        gates = GateStats(note=f"no prediction-expert weights under {', '.join(off)}")
    else:
        gates = gate_statistics(alpha[indicators == 1], alpha[indicators == 0])
    return _eval_result(query, indicators, raw, filtered, gates)


def evaluate_naive(vocab: Vocabulary, train: TemporalKG, valid: TemporalKG,
                   test: TemporalKG, split: str = "test") -> EvalResult:
    """Frequency-ranking baseline under the same filtered protocol."""
    augmented, known, query, indicators = _query_split(train, valid, test, vocab.num_relations,
                                                       split)
    seen = history.seen_objects(augmented[0].array)
    ranks = [
        filtered_ranks(history.naive_scores(seen, rows[:, 0], rows[:, 1], vocab.num_entities),
                       rows, known_rows)
        for rows, known_rows in zip(query.snapshots(), known.snapshots())
    ]
    raw, filtered = (np.concatenate(column) for column in zip(*ranks))
    return _eval_result(query, indicators, raw, filtered, GateStats())
