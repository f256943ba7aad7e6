"""The verdicts `tools/bench_pairs.py` prints per metric, on hand-made pairs,
and its clean-up on SIGTERM."""

import importlib.util
import os
import signal
import time

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# base values with quartiles 99.625 and 100.375: a quartile distance of 0.75
BASE = [98.0, 99.0, 99.5, 100.0, 100.0, 100.0, 100.0, 100.5, 101.0, 102.0]


def pairs(here):
    return list(zip(BASE, here))


@pytest.mark.parametrize("here, gain", [
    ([b + 2.0 for b in BASE], True),                     # 10 of 10, median +2
    ([b + 2.0 for b in BASE[:9]] + [BASE[9] - 1], True),  # 9 of 10
    ([b + 2.0 for b in BASE[:8]] + [b - 1 for b in BASE[8:]], False),  # 8 of 10
    ([b + 2.0 for b in BASE[:9]] + [BASE[9]], True),      # 9 of 10, one equal
    ([b + 2.0 for b in BASE[:8]] + BASE[8:], False),      # 8 of 10, two equal
    ([b + 0.5 for b in BASE], False),                     # 10 of 10, median +0.5 < 0.75
    (BASE, False),                                        # every pair equal
], ids=["all_won", "nine_won", "eight_won", "one_equal", "two_equal", "within_quartiles",
        "all_equal"])
def test_gain_rule_higher_is_better(here, gain):
    assert bench_pairs.verdicts(pairs(here), "higher", 0.25)[1] is gain


def test_gain_rule_lower_is_better():
    lower = [b - 2.0 for b in BASE]
    assert bench_pairs.verdicts(pairs(lower), "lower", 0.25)[:2] == (10, True)
    assert bench_pairs.verdicts(pairs(lower), "higher", 0.25)[:2] == (0, False)


@pytest.mark.parametrize("better, factor, within", [
    ("higher", 0.8, True), ("higher", 0.7, False), ("higher", 1.5, True),
    ("lower", 1.2, True), ("lower", 1.3, False), ("lower", 0.5, True),
])
def test_median_within_bound(better, factor, within):
    here = [b * factor for b in BASE]
    assert bench_pairs.verdicts(pairs(here), better, 0.25)[2] is within


def test_one_pair_has_no_quartile_distance():
    assert bench_pairs.verdicts([(1.0, 1.1)], "higher", 0.1) == (1, True, True)


def test_sigterm_deletes_the_exported_tree(monkeypatch):
    trees = []

    def export(rev, dest):
        trees.append(dest)
        open(os.path.join(dest, "marker"), "w").close()

    def compare(workload, base_tree, args, metrics):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(10)   # the handler interrupts this at once
        raise AssertionError("SIGTERM was not turned into SystemExit")

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "compare", compare)
    def default_action(signum, frame):
        raise AssertionError("SIGTERM kept its default action, which ends the process "
                             "and leaves the tree behind")

    # stands in for the default action, so that a failure does not end pytest
    previous = signal.signal(signal.SIGTERM, default_action)
    try:
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--base", "HEAD", "--shape", "tiny", "--pairs", "1"])
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert exc.value.code == 128 + signal.SIGTERM
    assert len(trees) == 1 and not os.path.exists(trees[0])
