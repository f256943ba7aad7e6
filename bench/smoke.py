"""Smoke check of the benchmark at a tiny stream shape; takes seconds.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced on the `tiny`
shape and checks: the last stdout line's schema; metric names and units
against BENCHMARK.json; that every end-to-end value is positive; that no
check failed; the trace file's span schema; that the traced run shows
each workload's bypassed layers as zero; that the trace reader runs; and
that the benchmark fails without printing a result in a directory holding
only BENCHMARK.json and the benchmark's files. Not part of the test suite.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(BENCH, "out")

# layer metrics that must read zero because the workload bypasses the layer
BYPASSED = {
    "pretrain-full": ("history.indicator_calls", "evaluation.rank_query_calls",
                      "encoders.adapt_rows_s"),
    "finetune-desk": (),
    "eval-desk": ("autodiff.backward_s", "autodiff.adam_step_s"),
}


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--shape", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(line: str, spec: list[dict], positive: bool) -> list[str]:
    errors = []
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"attempted={result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if sorted(entry) != ["unit", "value"] or entry["unit"] != want.get(name):
            errors.append(f"{name}: bad entry {entry}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            errors.append(f"{name}: value {entry['value']!r}")
        elif positive and entry["value"] <= 0:
            errors.append(f"{name}: end-to-end value {entry['value']} is not positive")
    return errors


def _check_trace(path: str) -> list[str]:
    errors = []
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            spans.append(json.loads(line))
    if not spans:
        return [f"{path}: no spans"]
    runs = {s["run"] for s in spans}
    if len(runs) != 1:
        errors.append(f"{path}: {len(runs)} run ids")
    for i, s in enumerate(spans):
        if sorted(s) != ["end", "id", "name", "parent", "run", "start"] or s["id"] != i:
            errors.append(f"{path}: span {i} schema {sorted(s)}")
            break
        if s["end"] < s["start"] or not -1 <= s["parent"] < i:
            errors.append(f"{path}: span {i} times or parent out of order")
            break
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if not p["start"] <= s["start"] <= s["end"] <= p["end"]:
                errors.append(f"{path}: span {i} lies outside its parent")
                break
    return errors


def _bare_directory_fails() -> list[str]:
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(tmp, "eval-desk", 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    errors = []
    traces = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            where = f"{workload} trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            last = proc.stdout.strip().splitlines()[-1]
            spec = bench["per_layer"] if trace else bench["end_to_end"]
            errors += [f"{where}: {e}" for e in _check_result(last, spec, not trace)]
            if trace:
                with open(os.path.join(OUT_DIR, f"{workload}-tiny-seed1-trace1.json"),
                          encoding="utf-8") as fh:
                    path = os.path.join(ROOT, json.load(fh)["trace_file"])
                traces.append(path)
                errors += [f"{where}: {e}" for e in _check_trace(path)]
                metrics = json.loads(last)["metrics"]
                errors += [f"{where}: {name} = {metrics[name]['value']}, expected 0"
                           for name in BYPASSED[workload] if metrics[name]["value"] != 0]
    reader = subprocess.run([sys.executable, os.path.join(BENCH, "trace_report.py"), *traces],
                            capture_output=True, text=True, timeout=60)
    if reader.returncode != 0:
        errors.append(f"trace_report: exit {reader.returncode}: {reader.stderr[-400:]}")
    errors += _bare_directory_fails()
    for e in errors:
        print(f"FAIL {e}")
    print("smoke check " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
