"""The three benchmark workloads, their output checks and their metrics.

Each workload is a closed loop in one process: a unit of work runs, is
checked, and only then does the next one start. Every unit starts from the
written files, so every unit repeats the same seeded computation; units
after the first must reproduce its quality figures bit for bit.

    pretrain-full  stage 0 only, published `full` widths (d=100, 50
                   channels, 4096-wide semantic rows). Encoder, ConvTransE,
                   |E|-wide log-softmax and backward on large arrays. Never
                   touches the historical indicator, ranking or the
                   semantic path.
    finetune-desk  stage 1 only, 2 epochs each with validation, `desk`
                   widths. Adapters, both decoders, gates, three |E|-wide
                   losses per batch, the per-query indicator loop and
                   validation ranking; the frozen encoder fills its cache in
                   epoch 1. Per-op Python overhead dominates.
    eval-desk      `evaluate(split="test")` of a seeded desk checkpoint read
                   through `load_checkpoint`, as `meshtkg eval` does, over
                   the whole stream. Forward only: index and filter sets
                   over all splits, then the per-query filtered-rank loop.

The training workloads run on a window of the stream: every timestamp keeps
the ICEWS14 width (7,128 entities, 230 relations, 246 facts), but a full
292-timestamp epoch (about 6 minutes at `full` widths) does not fit a run.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import stream
import tracer
from meshtkg import config as cfg
from meshtkg import encoders, evaluation, tkg, training
from meshtkg.autodiff import NumericError

clock = time.perf_counter
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SHAPES = {"icews14": stream.ICEWS14, "tiny": stream.TINY}
# Timed set-ups before each timed unit of an untraced run; setup_s is the
# median of all of them. Spread over the run, they see the same drift in host
# speed as the units do.
SETUPS_PER_UNIT = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "eval"
    profile: str
    epochs_stage0: int   # eval-desk: epochs of its checkpoint
    epochs_stage1: int
    windows: dict        # shape -> (start, train, valid, test) timestamps; None = whole stream


FINETUNE_WINDOWS = {"icews14": (0, 12, 3, 1), "tiny": (0, 6, 2, 1)}
# The eval checkpoint is trained (untimed) on this window with eval-desk's
# epochs: stage 0 teaches the entity table which entities are popular, so
# test ranks sit well above chance and vary little between seeds.
CHECKPOINT_WINDOWS = {"icews14": (0, 8, 2, 1), "tiny": (0, 6, 2, 1)}

WORKLOADS = {
    w.name: w for w in (
        Workload("pretrain-full", "train", "full", 2, 0,
                 {"icews14": (0, 6, 1, 1), "tiny": (0, 4, 1, 1)}),
        Workload("finetune-desk", "train", "desk", 0, 2, FINETUNE_WINDOWS),
        Workload("eval-desk", "eval", "desk", 2, 1, {"icews14": None, "tiny": None}),
    )
}

# Per-layer metrics of the traced run: name -> (span, statistic, unit).
# Spans are named <defining module>.<function>; self time excludes traced
# children.
AUTODIFF_OPS = ("matmul", "add", "mul", "sigmoid", "tanh", "gather_rows",
                "scatter_add_rows", "slice_last", "concat", "conv1d", "dropout",
                "log_softmax", "pick_last")
PER_LAYER = {
    "tkg.load_dataset_s": ("tkg.load_dataset", "total_s", "s"),
    "tkg.add_inverse_relations_s": ("tkg.add_inverse_relations", "total_s", "s"),
    "tkg.merge_s": ("tkg.merge", "total_s", "s"),
    "history.build_index_s": ("history.build_index", "total_s", "s"),
    "history.indicator_calls": ("history.FrequencyIndex.indicator", "calls", "count"),
    "history.indicator_s": ("history.FrequencyIndex.indicator", "total_s", "s"),
    "evaluation.build_filter_sets_s": ("evaluation.build_filter_sets", "total_s", "s"),
    "evaluation.ranked_queries_s": ("evaluation.ranked_queries", "self_s", "s"),
    "evaluation.rank_query_calls": ("evaluation.rank_query", "calls", "count"),
    "evaluation.rank_query_s": ("evaluation.rank_query", "total_s", "s"),
    "encoders.snapshot_edges_s": ("encoders.snapshot_edges", "total_s", "s"),
    "encoders.synthetic_embeddings_s": ("encoders.synthetic_embeddings", "total_s", "s"),
    "encoders.encode_structural_calls": ("encoders.encode_structural", "calls", "count"),
    "encoders.encode_structural_s": ("encoders.encode_structural", "self_s", "s"),
    "encoders.gru_cell_calls": ("encoders.gru_cell", "calls", "count"),
    "encoders.gru_cell_s": ("encoders.gru_cell", "total_s", "s"),
    "encoders.adapt_rows_s": ("encoders.adapt_rows", "total_s", "s"),
    "decoder.decode_calls": ("decoder.decode", "calls", "count"),
    "decoder.decode_s": ("decoder.decode", "total_s", "s"),
    "model.init_model_s": ("model.init_model", "total_s", "s"),
    "model.forward_queries_s": ("model.forward_queries", "self_s", "s"),
    "model.expert_mix_s": ("model.expert_mix", "total_s", "s"),
    "model.score_logits_calls": ("model.score_logits", "calls", "count"),
    "model.score_logits_s": ("model.score_logits", "total_s", "s"),
    "training.major_loss_s": ("training.major_loss", "total_s", "s"),
    "training.expert_losses_s": ("training.expert_losses", "total_s", "s"),
    "training.load_checkpoint_s": ("training.load_checkpoint", "total_s", "s"),
    "autodiff.backward_s": ("autodiff.backward", "total_s", "s"),
    "autodiff.adam_step_s": ("autodiff.adam_step", "total_s", "s"),
}
for _op in AUTODIFF_OPS:
    PER_LAYER[f"autodiff.{_op}.calls"] = (f"autodiff.{_op}", "calls", "count")
    PER_LAYER[f"autodiff.{_op}.fwd_s"] = (f"autodiff.{_op}", "total_s", "s")


class Checks:
    """Named pass/fail outcomes; each failed check is one failed operation."""

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, unit: int, name: str, ok: bool, detail: str = "") -> bool:
        self.rows.append({"unit": unit, "check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.rows)


class _SetupDone(Exception):
    """Raised by `_StopAtFirstLookup` where `evaluate`'s set-up ends."""


class _StopAtFirstLookup:
    """An `encode_cache` for `evaluate` that stops the call at its first
    lookup and stores nothing. The evaluator consults the cache for its first
    query timestamp right after building its indexes and filter sets, so the
    call ends exactly where set-up ends."""

    def __contains__(self, key):
        raise _SetupDone


def _load(data_dir: str, config: cfg.RunConfig):
    vocab, train, valid, test = tkg.load_dataset(data_dir)
    sem = encoders.synthetic_embeddings(vocab, config.llm_dim, config.synthetic_seed)
    return vocab, train, valid, test, sem


def _config(workload: Workload, seed: int, data_dir: str, epochs0: int, epochs1: int):
    return cfg.resolve({"profile": workload.profile, "seed": seed, "dataset": data_dir,
                        "epochs_stage0": epochs0, "epochs_stage1": epochs1})


def _stage1_losses(result) -> list[float]:
    return [float(line.split("\t")[1]) for line in result.log_lines]


class TrainUnit:
    """`setup` loads the files and calls `train_model` with no epochs; `work`
    loads the files and trains.

    Set-up time is loading, the semantic table and the no-epoch call. `work`
    times the training call up to the last epoch-end callback (`span_s`),
    so it covers the stage-1 cache fill and every validation pass. That span
    also holds the call's set-up, which the run takes out as the median time
    of the no-epoch call (the overlap `setup` returns).
    """

    def __init__(self, workload: Workload, seed: int, data_dir: str, n_train_facts: int):
        self.data_dir = data_dir
        self.setup_config = _config(workload, seed, data_dir, 0, 0)
        self.config = _config(workload, seed, data_dir, workload.epochs_stage0,
                              workload.epochs_stage1)
        epochs = workload.epochs_stage0 + workload.epochs_stage1
        self.queries = 2 * n_train_facts * epochs   # inverse-augmented
        self.quality_name = "stage0_loss" if workload.epochs_stage0 else "valid_mrr"

    def setup(self, unit: int, checks: Checks) -> tuple[float, float]:
        t0 = clock()
        vocab, train, valid, _test, sem = _load(self.data_dir, self.setup_config)
        t1 = clock()
        training.train_model(self.setup_config, vocab, train, valid, sem)
        t2 = clock()
        return t2 - t0, t2 - t1

    def work(self, unit: int, checks: Checks) -> dict | None:
        marks: list[float] = []
        try:
            t0 = clock()
            vocab, train, valid, _test, sem = _load(self.data_dir, self.config)
            t1 = clock()
            result = training.train_model(self.config, vocab, train, valid, sem,
                                          verbose=lambda _msg: marks.append(clock()))
            t2 = clock()
        except NumericError as exc:
            checks.add(unit, "losses_finite", False, str(exc))
            return None
        except AssertionError as exc:   # train_model's frozen-parameter check
            checks.add(unit, "frozen_unchanged", False, str(exc))
            return None
        epochs = self.config.epochs_stage0 + self.config.epochs_stage1
        if not checks.add(unit, "epoch_callbacks", len(marks) == epochs,
                          f"{len(marks)} of {epochs}"):
            return None
        losses = result.stage0_losses + _stage1_losses(result)
        checks.add(unit, "losses_finite", all(map(math.isfinite, losses)), repr(losses))
        named = result.model.named_parameters()
        changed = [n for n in result.frozen_names
                   if not np.array_equal(named[n].values, result.frozen_values[n])]
        checks.add(unit, "frozen_unchanged", not changed, ", ".join(changed))
        chance = math.log(vocab.num_entities)
        if self.quality_name == "stage0_loss":
            quality = result.stage0_losses[-1]
            error = quality / chance
        else:
            quality = result.best_valid_mrr
            checks.add(unit, "valid_mrr_in_range", quality is not None and 0.0 < quality <= 1.0,
                       repr(quality))
            # each query adds one major and one (omega-weighted) expert term
            error = losses[-1] / ((1.0 + self.config.omega) * chance)
        return {"span_s": marks[-1] - t1, "wall_s": t2 - t0, "queries": self.queries,
                "quality": quality, "error_vs_chance": error}


class EvalUnit:
    """`setup` loads the files and the checkpoint and runs `evaluate` up to
    its first query timestamp; `work` loads them and runs all of
    `evaluate(split="test")`, as `meshtkg eval` does.

    Eval time (`span_s`) is the whole `evaluate` call, which is what a user of
    `meshtkg eval` waits for, so no part of set-up is taken out of it.
    """

    quality_name = "test_mrr"

    def __init__(self, workload: Workload, seed: int, data_dir: str, checkpoint: str,
                 n_test_facts: int):
        self.config = _config(workload, seed, data_dir, 0, 0)
        self.data_dir = data_dir
        self.checkpoint = checkpoint
        self.expected_queries = 2 * n_test_facts

    def setup(self, unit: int, checks: Checks) -> tuple[float, float] | None:
        t0 = clock()
        vocab, train, valid, test, sem = _load(self.data_dir, self.config)
        model, _header = training.load_checkpoint(self.checkpoint)
        try:
            evaluation.evaluate(model, vocab, train, valid, test, sem, split="test",
                                encode_cache=_StopAtFirstLookup())
        except _SetupDone:
            return clock() - t0, 0.0
        checks.add(unit, "setup_marker", False, "evaluate never consulted its encode_cache")
        return None

    def work(self, unit: int, checks: Checks) -> dict | None:
        t0 = clock()
        vocab, train, valid, test, sem = _load(self.data_dir, self.config)
        model, _header = training.load_checkpoint(self.checkpoint)
        t1 = clock()
        try:
            res = evaluation.evaluate(model, vocab, train, valid, test, sem, split="test")
        except NumericError as exc:
            checks.add(unit, "scores_finite", False, str(exc))
            return None
        t2 = clock()
        n = vocab.num_entities
        filtered = np.array([r.filtered_rank for r in res.results])
        raw = np.array([r.raw_rank for r in res.results])
        checks.add(unit, "query_count", len(res.results) == self.expected_queries,
                   f"{len(res.results)} ranked, {self.expected_queries} expected")
        in_range = bool(np.all((filtered >= 1) & (filtered <= raw) & (raw <= n)))
        checks.add(unit, "ranks_in_range", in_range, f"filtered ranks within [1, {n}]")
        redo = {"mrr": float(np.mean(1.0 / filtered)),
                "hits1": float(np.mean(filtered <= 1)),
                "hits3": float(np.mean(filtered <= 3)),
                "hits10": float(np.mean(filtered <= 10))}
        mismatched = [k for k, v in redo.items()
                      if not math.isclose(v, getattr(res.overall, k), rel_tol=1e-12)]
        checks.add(unit, "metrics_recomputed", not mismatched, ", ".join(mismatched))
        error = float(np.mean(np.log(filtered))) / math.log(n)
        return {"span_s": t2 - t1, "wall_s": t2 - t0, "queries": len(res.results),
                "quality": res.overall.mrr, "error_vs_chance": error}


def _train_checkpoint(name: str, seed: int, shape: str, path: str) -> None:
    """Train and save the seeded checkpoint that eval-desk evaluates."""
    workload, dims = WORKLOADS[name], SHAPES[shape]
    facts = stream.generate(seed, **dims)
    data_dir = os.path.join(os.path.dirname(path), "checkpoint-data")
    stream.write(data_dir, stream.window(facts, *CHECKPOINT_WINDOWS[shape]),
                 dims["num_entities"], dims["num_relations"])
    config = _config(workload, seed, data_dir, workload.epochs_stage0, workload.epochs_stage1)
    vocab, train, valid, _test, sem = _load(data_dir, config)
    result = training.train_model(config, vocab, train, valid, sem)
    training.save_checkpoint(path, result.model, config, result.frozen_names, seed)


def _build_checkpoint(name: str, seed: int, shape: str, tmp: str) -> str:
    """Untimed, in a child process, so its memory stays out of peak_rss_mib."""
    path = os.path.join(tmp, "checkpoint.mesh")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.abspath(__file__), name, str(seed), shape, path],
                   env=env, check=True, timeout=600)
    return path


def _per_layer(spans, n_units: int, untraced_s: float, traced_s: float) -> dict:
    rows = tracer.layer_totals(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for name, (span, stat, unit) in PER_LAYER.items():
        out[name] = {"value": rows.get(span, empty)[stat] / n_units, "unit": unit}
    lookups = rows.get("model.forward_queries", empty)["calls"]
    misses = rows.get("encoders.encode_structural", empty)["calls"]
    hits = 1.0 - min(misses, lookups) / lookups if lookups else 0.0
    out["encoders.cache_hit_ratio"] = {"value": hits, "unit": "ratio"}
    out["trace_overhead"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    return out


def run(name: str, seed: int, seconds: float, trace: bool, shape: str, out_dir: str,
        nproc: int) -> dict:
    workload = WORKLOADS[name]
    dims = SHAPES[shape]
    sizes = {"num_entities": dims["num_entities"], "num_relations": dims["num_relations"]}
    facts = stream.generate(seed, **dims)
    window = workload.windows[shape]
    if window is None:
        t = dims["num_timestamps"]
        window = (0, int(0.8 * t), int(0.9 * t) - int(0.8 * t), t - int(0.9 * t))
    splits = stream.window(facts, *window)
    checks = Checks()
    setups: list[tuple[float, float]] = []
    units: list[dict] = []
    traced_units: list[dict] = []
    spans = []

    def step(call, *args):
        """One checked call, numbered in run order, after a full collection
        so that the garbage of earlier calls is not collected inside it."""
        gc.collect()
        return call(len(setups) + len(units) + len(traced_units), checks, *args)

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        data_dir = os.path.join(tmp, "data")
        stream.write(data_dir, splits, **sizes)
        if workload.kind == "train":
            unit_fn = TrainUnit(workload, seed, data_dir, len(splits["train"]))
        else:
            ckpt = _build_checkpoint(name, seed, shape, tmp)
            unit_fn = EvalUnit(workload, seed, data_dir, ckpt, len(splits["test"]))
        # The first unit warms the process up (imports, first-touch memory)
        # on every path set-up takes too, and is checked but left out of the
        # timings: a real run spends hundreds of epochs past that point.
        start = clock()
        units.append(step(unit_fn.work))
        if not trace:
            while len(units) < 3 or clock() - start < seconds:
                for _ in range(SETUPS_PER_UNIT):
                    timed = step(unit_fn.setup)
                    if timed is not None:
                        setups.append(timed)
                units.append(step(unit_fn.work))
        else:
            run_tracer = tracer.Tracer(f"{name}-{shape}-seed{seed}-pid{os.getpid()}")
            while not traced_units or clock() - start < seconds:
                units.append(step(unit_fn.work))
                with run_tracer:
                    traced_units.append(step(unit_fn.work))
            spans = run_tracer.spans
            trace_path = os.path.join(out_dir, f"trace-{name}-{shape}-seed{seed}.jsonl")
            run_tracer.write(trace_path)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done = [u for u in units + traced_units if u is not None]
    for i, u in enumerate(done[1:], start=1):
        for key in ("quality", "error_vs_chance"):
            checks.add(i, f"repeatable_{key}", u[key] == done[0][key],
                       f"{u[key]!r} vs {done[0][key]!r}")
    report = {
        "workload": name,
        "shape": shape,
        "seconds": seconds,
        "trace": trace,
        "stream": {**dims, "seed": seed, "window": list(window), **stream.descriptors(splits)},
        "provenance": provenance(nproc, seed),
        "setups": [{"setup_s": a, "overlap_s": b} for a, b in setups],
        "units": units,
        "traced_units": traced_units,
        "checks": checks.rows,
    }
    result = {"correct": checks.failed == 0 and bool(done), "attempted": len(checks.rows),
              "failed": checks.failed}
    if trace:
        ok_plain = [u for u in units[1:] if u is not None]
        ok_traced = [u for u in traced_units if u is not None]
        result["metrics"] = (_per_layer(spans, len(traced_units),
                                        sum(u["wall_s"] for u in ok_plain),
                                        sum(u["wall_s"] for u in ok_traced))
                             if ok_plain and ok_traced else {})
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        report["named_metrics"] = _named_metrics(workload, unit_fn, setups, units[1:],
                                                 peak_rss_mib)
        result["metrics"] = _end_to_end(report["named_metrics"])
    report["result"] = result
    return report


def _named_metrics(workload, unit_fn, setups, units, peak_rss_mib) -> dict:
    """The workload's metrics under their descriptive names (see README)."""
    ok = [u for u in units if u is not None]
    if not ok or not setups:
        return {}
    setup_s = statistics.median(s for s, _ in setups)
    overlap_s = statistics.median(o for _, o in setups)
    rate = "train_queries_per_s" if workload.kind == "train" else "eval_queries_per_s"
    quality_unit = "nats" if unit_fn.quality_name == "stage0_loss" else "ratio"
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        rate: {"value": statistics.median(u["queries"] / (u["span_s"] - overlap_s) for u in ok),
               "unit": "queries/s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        unit_fn.quality_name: {"value": ok[0]["quality"], "unit": quality_unit},
        "error_vs_chance": {"value": ok[0]["error_vs_chance"], "unit": "ratio"},
    }


def _end_to_end(named: dict) -> dict:
    """The BENCHMARK.json end-to-end set, which every workload reports.

    `queries_per_s` is the workload's train or eval rate. `error_vs_chance`
    is a per-query log-scale error over a uniform guess among |E| entities
    (1 is chance, 0 is perfect): the last epoch's mean loss over its chance
    value on the training workloads, mean ln(filtered rank) / ln|E| on
    eval-desk. Unlike MRR after a few epochs, it varies little between seeds.
    """
    if not named:
        return {}
    rate = next(v for k, v in named.items() if k.endswith("_queries_per_s"))
    return {"setup_s": named["setup_s"], "queries_per_s": rate,
            "peak_rss_mib": named["peak_rss_mib"],
            "error_vs_chance": named["error_vs_chance"]}


def summary_lines(report: dict) -> list[str]:
    lines = [f"workload {report['workload']} (shape {report['shape']}, "
             f"seed {report['stream']['seed']}, trace {int(report['trace'])}, "
             f"{len(report['setups'])} timed set-ups, {len(report['units']) - 1} timed and "
             f"{len(report['traced_units'])} traced units after one warm-up)"]
    lines.append("stream " + " ".join(f"{k}={v}" for k, v in report["stream"].items()))
    metrics = report.get("named_metrics") or report["result"]["metrics"]
    for k, v in metrics.items():
        lines.append(f"  {k:<36} {v['value']:>14.6g} {v['unit']}")
    for row in report["checks"]:
        if not row["ok"]:
            lines.append(f"  FAILED unit {row['unit']} {row['check']}: {row['detail']}")
    return lines


def _source_sha256(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "meshtkg")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(nproc: int, seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_sha256(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,   # stream, run config and synthetic embeddings
    }


if __name__ == "__main__":
    _train_checkpoint(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
