"""Alternating benchmark pairs: a git revision against the working tree.

    python3 tools/bench_pairs.py --base HEAD~1 --workload pretrain-full --seed 1 --pairs 10
    python3 tools/bench_pairs.py --base HEAD --shape tiny --pairs 1

Exports `--base` with `git archive` into a temporary directory (the
repository's `.git` is only read), then runs `bench/run.py` of that tree and
of the working tree one after the other, `--pairs` times per workload: odd
pairs run the base first, even pairs the working tree first. Each run is a
fresh process. The host's speed drifts by tens of percent over seconds, so
only runs made next to each other are compared.

Prints one row per pair and end-to-end metric (the metrics, their
directions and bounds are read from BENCHMARK.json), then per metric the
pairs won by the working tree, the medians with their quartiles, the ratio
of the medians (working tree over base) and two verdicts:

- gain: the working tree won at least nine tenths of the pairs (an equal
  pair counts for neither side), and its median is better than the base's by
  more than the base's quartile distance;
- bound: the working tree's median is no worse than the base's by more than
  the metric's relative bound.

Exits 1 if any run fails or reports a failed operation. On SIGTERM it kills
the running bench, deletes the exported tree and exits 143.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's run_seconds, "
                             "1 at the tiny shape)")
    parser.add_argument("--shape", choices=("icews14", "tiny"), default="icews14")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.workload = args.workload or [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = 1.0 if args.shape == "tiny" else float(spec["run_seconds"])
    return args, spec["end_to_end"]


def export(rev: str, dest: str) -> None:
    """Write the files of `rev` into dest."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: git archive {rev}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree: str, workload: str, args) -> dict | None:
    """The last stdout line of one bench run, or None if it failed."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--shape", args.shape]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed in {tree} (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {result['failed']} of {result['attempted']} operations failed in {tree}")
    return result


def spread(values: list) -> str:
    """Median, with the quartiles when there are at least two values."""
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.10g}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.10g} [{q1:.10g}-{q3:.10g}]"


def quartile_distance(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdicts(pairs: list, better: str, bound: float) -> tuple[int, bool, bool]:
    """(pairs won by the working tree, gain, within bound) of one metric's
    (base, here) pairs; see the module docstring."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (here - base) > 0 for base, here in pairs)
    base_med = statistics.median(b for b, _ in pairs)
    gain = sign * (statistics.median(h for _, h in pairs) - base_med)
    return (wins,
            10 * wins >= 9 * len(pairs) and gain > quartile_distance([b for b, _ in pairs]),
            gain >= -bound * abs(base_med))


def compare(workload: str, base_tree: str, args, metrics: list) -> bool:
    print(f"workload {workload} (shape {args.shape}, seed {args.seed}, "
          f"{args.seconds:g} s per run, base {args.base} -> working tree)")
    rows = {m["name"]: [] for m in metrics}
    ok = True
    for pair in range(1, args.pairs + 1):
        order = [("base", base_tree), ("here", ROOT)]
        results = {}
        for name, tree in order if pair % 2 else order[::-1]:
            results[name] = run_bench(tree, workload, args)
        if None in results.values():
            ok = False
            continue
        ok &= all(r["correct"] and not r["failed"] for r in results.values())
        for m in metrics:
            base, here = (results[k]["metrics"][m["name"]]["value"] for k in ("base", "here"))
            rows[m["name"]].append((base, here))
            print(f"  pair {pair:>2} {m['name']:<16} {base:>16.10g} -> {here:<16.10g} "
                  f"{m['unit']}  ({here / base if base else float('nan'):.3f}x)")
    for m in metrics:
        pairs = rows[m["name"]]
        if not pairs:
            continue
        wins, gain, within = verdicts(pairs, m["better"], m["bound"])
        ties = sum(here == base for base, here in pairs)
        base_med = statistics.median(b for b, _ in pairs)
        here_med = statistics.median(h for _, h in pairs)
        ratio = here_med / base_med if base_med else float("nan")
        print(f"  {m['name']:<16} ({m['better']} is better) won {wins} of {len(pairs)}"
              f"{f', {ties} equal' if ties else ''}; median {spread([b for b, _ in pairs])}"
              f" -> {spread([h for _, h in pairs])} {m['unit']}; ratio {ratio:.4f}; "
              f"gain rule {'holds' if gain else 'fails'}; "
              f"{'within' if within else 'beyond'} its {m['bound']:g} bound")
    return ok


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args, metrics = parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # rows appear as pairs finish
    # SIGTERM unwinds like Ctrl-C: subprocess.run kills the running bench and
    # the exported tree is deleted
    signal.signal(signal.SIGTERM, _exit_on_signal)
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as base_tree:
        export(args.base, base_tree)
        for workload in args.workload:
            ok &= compare(workload, base_tree, args, metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
