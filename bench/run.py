"""Benchmark entry point: one workload, one seed, one process, closed loop.

    python3 bench/run.py --workload pretrain-full --seed 1 --seconds 25 --trace 0

Generates a seeded ICEWS14-shaped stream, writes the workload's dataset
with `tkg.write_dataset` (outside every timed region), then repeats the
workload's unit of work until `--seconds` have passed: one warm-up unit
and at least two timed ones, and every repeat of the seed must match the
first bit for bit. The program sees only the written files, through
`tkg.load_dataset`, `training.train_model`, `training.load_checkpoint` and
`evaluation.evaluate`.

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` the run alternates untraced and traced units after the
warm-up, and the last line holds the per-layer metrics. Either way a
result file with every metric, every check, the stream descriptors and
provenance goes to `bench/out/`. See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")


def _limit_blas_threads() -> int:
    """Pin BLAS to the cores this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("icews14", "tiny"), default="icews14",
                        help="stream shape; `tiny` is for the smoke check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = _limit_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import meshtkg
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 1
    if not os.path.abspath(meshtkg.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: imported meshtkg from {meshtkg.__file__}, not from this checkout",
              file=sys.stderr)
        return 1
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.shape, OUT_DIR, nproc)
    tag = f"{args.workload}-{args.shape}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for line in workloads.summary_lines(report):
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
