"""Print where the time goes in traced benchmark runs.

    python3 bench/trace_report.py [TRACE.jsonl ...]

With no files, reads every `bench/out/trace-*.jsonl`. For each run it
prints every span name's calls, total seconds and self seconds (total minus
traced children), sorted by self time, so a perf change can cite the
layers that dominate a workload.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def report(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    run_id = json.loads(first)["run"] if first.strip() else "(empty)"
    spans = tracer.read(path)
    rows = sorted(tracer.layer_totals(spans).items(), key=lambda kv: -kv[1]["self_s"])
    roots = sum(end - start for _name, start, end, parent in spans if parent < 0)
    lines = [f"{run_id}: {len(spans)} spans, {roots:.3f} s in top-level calls",
             f"  {'span':<40} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
    for name, row in rows:
        share = 100.0 * row["self_s"] / roots if roots else 0.0
        lines.append(f"  {name:<40} {row['calls']:>9} {row['total_s']:>10.4f} "
                     f"{row['self_s']:>10.4f} {share:>6.1f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("traces", nargs="*")
    args = parser.parse_args(argv)
    paths = args.traces or sorted(glob.glob(os.path.join(OUT_DIR, "trace-*.jsonl")))
    if not paths:
        print("no trace files; run bench/run.py with --trace 1 first", file=sys.stderr)
        return 1
    for path in paths:
        print("\n".join(report(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
