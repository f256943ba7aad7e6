"""Time-aware ranking evaluation and gate-weight analysis.

Protocol: every fact of the evaluated split is queried in both directions
(direct and inverse). Candidates that are other true objects of the same
(s, r, t) anywhere in the dataset are deleted before ranking ("time-aware
filtering"). Ties get the mid-rank, so the outcome does not depend on
candidate enumeration order, and any strictly monotone transform of the
scores (logits vs probabilities) yields identical metrics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from . import history
from .autodiff import Tensor
from .encoders import SemanticEmbeddingTable, adapt, encode_structural, snapshot_edges
from .model import AblationConfig, MeshModel, forward_queries
from .tkg import TemporalKG, Vocabulary, add_inverse_relations, merge


@dataclass
class RankResult:
    s: int
    r: int
    t: int
    o: int
    raw_rank: float
    filtered_rank: float
    indicator: int | None = None


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


def reports_to_kv(named_reports: list[tuple[str, "MetricsReport"]]) -> str:
    lines = []
    for name, report in named_reports:
        lines.append(f"count\t{name}\t{report.count}")
        for metric in ("mrr", "hits1", "hits3", "hits10"):
            value = getattr(report, metric)
            lines.append(f"{metric}\t{name}\t" + ("n/a" if value is None else f"{value:.6f}"))
    return "\n".join(lines) + "\n"


def rank_query(scores: np.ndarray, o: int, filter_out=()) -> tuple[float, float]:
    """Raw and time-aware-filtered rank of the true object.

    Rank = 1 + (strictly better candidates) + (ties with others) / 2; the
    filtered rank deletes `filter_out` entities from the candidate list.
    """
    s_o = scores[o]
    greater = int(np.count_nonzero(scores > s_o))
    ties = int(np.count_nonzero(scores == s_o)) - 1
    raw = 1.0 + greater + 0.5 * ties
    if len(filter_out) == 0:
        return raw, raw
    f_idx = np.fromiter(filter_out, dtype=np.int64)
    if np.any(f_idx == o):
        raise ValueError("the true object must not be in its own filter set")
    f_scores = scores[f_idx]
    greater_f = int(np.count_nonzero(f_scores > s_o))
    ties_f = int(np.count_nonzero(f_scores == s_o))
    filtered = 1.0 + (greater - greater_f) + 0.5 * (ties - ties_f)
    return raw, filtered


def compute_metrics(ranks) -> MetricsReport:
    ranks = np.asarray(list(ranks), dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("cannot compute metrics over an empty rank list")
    return MetricsReport(
        mrr=float(np.mean(1.0 / ranks)),
        hits1=float(np.mean(ranks <= 1)),
        hits3=float(np.mean(ranks <= 3)),
        hits10=float(np.mean(ranks <= 10)),
        count=int(ranks.size),
    )


def _maybe_metrics(ranks) -> MetricsReport:
    ranks = list(ranks)
    if not ranks:
        return MetricsReport(None, None, None, None, 0)
    return compute_metrics(ranks)


def split_metrics(results: list[RankResult]) -> tuple[MetricsReport, MetricsReport]:
    """Partition filtered ranks via the historical indicator."""
    his = [r.filtered_rank for r in results if r.indicator == 1]
    nhis = [r.filtered_rank for r in results if r.indicator == 0]
    if len(his) + len(nhis) != len(results):
        raise ValueError("every rank needs a 0/1 indicator tag for split metrics")
    return _maybe_metrics(his), _maybe_metrics(nhis)


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

    @property
    def available(self) -> bool:
        return self.t_stat is not None

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
    a1 = np.asarray(list(alpha_his), dtype=np.float64)
    a2 = np.asarray(list(alpha_nhis), dtype=np.float64)
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

def build_filter_sets(*tkgs: TemporalKG) -> dict:
    """(s, r, t) -> set of true objects, over the given (augmented) graphs."""
    filters: dict = defaultdict(set)
    for tkg in tkgs:
        for q in tkg.facts():
            filters[(q.s, q.r, q.t)].add(q.o)
    return filters


@dataclass
class EvalResult:
    overall: MetricsReport
    historical: MetricsReport
    nonhistorical: MetricsReport
    gate_stats: GateStats
    results: list

    def named_reports(self):
        return [
            ("all", self.overall),
            ("historical", self.historical),
            ("non-historical", self.nonhistorical),
        ]


def ranked_queries(model: MeshModel, sem: SemanticEmbeddingTable, cond_edges: list,
                   query_tkg: TemporalKG, filters: dict,
                   index: history.FrequencyIndex | None = None,
                   ablation: AblationConfig | None = None,
                   encode_cache: dict | None = None,
                   collect_alpha: bool = False):
    """Rank every query of `query_tkg` (already inverse-augmented).

    Returns (results, alpha_his, alpha_nhis). The encoder output per
    timestamp can be cached across calls via `encode_cache` because the
    evaluation-mode encoder is a pure function of its frozen parameters.
    """
    ablation = ablation or AblationConfig()
    ablation.validate()
    dtype = model.encoder.entity_emb.dtype
    results: list[RankResult] = []
    alpha_his: list[float] = []
    alpha_nhis: list[float] = []

    sem_table = None
    if ablation.disable_structural:
        h_l, _ = adapt(sem, model.adapters, dtype)
        sem_table = Tensor(h_l.values)

    for t in query_tkg.timestamps():
        snap = query_tkg.snapshots[t]
        s_idx = np.fromiter((q.s for q in snap), dtype=np.int64)
        r_idx = np.fromiter((q.r for q in snap), dtype=np.int64)
        o_idx = [q.o for q in snap]
        if ablation.disable_structural:
            H = R = None
        elif encode_cache is not None and t in encode_cache:
            H, R = (Tensor(v) for v in encode_cache[t])
        else:
            H, R = encode_structural(model.encoder, cond_edges, min(t, len(cond_edges)))
            if encode_cache is not None:
                encode_cache[t] = (H.values, R.values)
        bundle = forward_queries(
            model, H, R, sem, s_idx, r_idx,
            train=False, ablation=ablation, semantic_entity_table=sem_table,
        )
        scores = bundle.logits.values
        alphas = bundle.alphas.values if (collect_alpha and bundle.alphas is not None) else None
        for i, q in enumerate(snap):
            filter_out = filters.get((q.s, q.r, q.t), ()) if filters else ()
            filter_out = [e for e in filter_out if e != q.o]
            raw, filtered = rank_query(scores[i], q.o, filter_out)
            ind = index.indicator(q.s, q.r, q.o, q.t) if index is not None else None
            results.append(RankResult(q.s, q.r, q.t, q.o, raw, filtered, ind))
            if alphas is not None and ind is not None:
                (alpha_his if ind == 1 else alpha_nhis).append(float(alphas[i, 0]))
    return results, alpha_his, alpha_nhis


def evaluate(model: MeshModel, vocab: Vocabulary, train: TemporalKG, valid: TemporalKG,
             test: TemporalKG, sem: SemanticEmbeddingTable,
             ablation: AblationConfig | None = None, split: str = "test",
             encode_cache: dict | None = None) -> EvalResult:
    """Evaluate one split with time-aware filtering, split metrics, and gate
    statistics. The encoder conditions on every fact that precedes each
    query timestamp, across all splits."""
    ablation = ablation or AblationConfig()
    train_aug, vocab_aug = add_inverse_relations(train, vocab)
    valid_aug, _ = add_inverse_relations(valid, vocab)
    test_aug, _ = add_inverse_relations(test, vocab)
    if split == "test":
        cond = merge(train_aug, valid_aug, test_aug)
        query_tkg = test_aug
    elif split == "valid":
        cond = merge(train_aug, valid_aug)
        query_tkg = valid_aug
    else:
        raise ValueError(f"split must be 'valid' or 'test', got {split!r}")
    filters = build_filter_sets(train_aug, valid_aug, test_aug)
    index = history.build_index(merge(train_aug, valid_aug, test_aug).facts())
    results, a_his, a_nhis = ranked_queries(
        model, sem, snapshot_edges(cond), query_tkg, filters, index,
        ablation=ablation, encode_cache=encode_cache, collect_alpha=True,
    )
    overall = compute_metrics([r.filtered_rank for r in results])
    his_report, nhis_report = split_metrics(results)
    gates = gate_statistics(a_his, a_nhis)
    return EvalResult(overall, his_report, nhis_report, gates, results)


def evaluate_naive(vocab: Vocabulary, train: TemporalKG, valid: TemporalKG,
                   test: TemporalKG, split: str = "test") -> EvalResult:
    """Frequency-ranking baseline under the same filtered protocol."""
    train_aug, _ = add_inverse_relations(train, vocab)
    valid_aug, _ = add_inverse_relations(valid, vocab)
    test_aug, _ = add_inverse_relations(test, vocab)
    query_tkg = test_aug if split == "test" else valid_aug
    index = history.build_index(train_aug.facts())
    classify = history.build_index(merge(train_aug, valid_aug, test_aug).facts())
    filters = build_filter_sets(train_aug, valid_aug, test_aug)
    results = []
    for q in query_tkg.facts():
        filter_out = [e for e in filters.get((q.s, q.r, q.t), ()) if e != q.o]
        rank = history.naive_rank(index, q.s, q.r, q.o, filter_out)
        raw = history.naive_rank(index, q.s, q.r, q.o)
        results.append(
            RankResult(q.s, q.r, q.t, q.o, float(raw), float(rank),
                       classify.indicator(q.s, q.r, q.o, q.t))
        )
    overall = compute_metrics([r.filtered_rank for r in results])
    his_report, nhis_report = split_metrics(results)
    return EvalResult(overall, his_report, nhis_report, GateStats(), results)
