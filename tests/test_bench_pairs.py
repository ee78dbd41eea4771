"""The four verdicts of ``tools/bench_pairs.judge``, for a metric where
higher is better and for one where lower is better.

The tool is a script, not a package module, so it is imported by path.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5, median 104.5
# each case: the change's runs where higher is better, paired with PARENT or
# with the parent runs given, and the verdict they earn
CASES = {
    # won 10 of 10 pairs, median 10 past the parent's, beyond its IQR of 4.5
    "better": (PARENT, [x + 10 for x in PARENT], "better"),
    # won 9 of 10 pairs: still nine tenths
    "better, one pair lost": (PARENT, [x + 10 for x in PARENT[:9]] + [100], "better"),
    # won 8 of 10 pairs: short of nine tenths, however far the median moved
    "two pairs lost": (PARENT, [x + 10 for x in PARENT[:8]] + [100, 100], "within bound"),
    # won 10 of 10 pairs, but the median moved 3, inside the parent's IQR
    "inside the IQR": (PARENT, [x + 3 for x in PARENT], "within bound"),
    # the median 30 % worse, past the bound of 25 %
    "worse": (PARENT, [x - 32 for x in PARENT], "worse"),
    # the median 20 % worse, inside the bound
    "worse, inside the bound": (PARENT, [x - 21 for x in PARENT], "within bound"),
    # the parent's own IQR (55) wider than the bound (25 % of its median, 100)
    "unresolved": ([50, 150, 60, 140, 70, 130, 80, 120, 90, 110],
                   [55, 145, 65, 135, 75, 125, 85, 115, 95, 105], "unresolved"),
    # as wide (IQR 90), and the median moved only 50.5, but every change run
    # beats every parent run
    "wide, every run better": ([10, 100, 10, 100, 10, 100, 10, 100, 10, 100],
                               [101, 102, 103, 104, 105, 106, 107, 108, 109, 110],
                               "within bound"),
    # as wide, with one change run below a parent run
    "wide, one run worse": ([10, 100, 10, 100, 10, 100, 10, 100, 10, 100],
                            [101, 102, 103, 104, 105, 106, 107, 108, 109, 99],
                            "unresolved"),
}


def _judge(better, parent, change):
    gate = {"name": "m", "unit": "1/s", "better": better, "bound": 0.25}
    return bench_pairs.judge(gate, parent, change)


@pytest.mark.parametrize("case", sorted(CASES))
def test_judge_verdicts_where_higher_is_better(case):
    parent, change, verdict = CASES[case]
    assert _judge("higher", parent, change)["verdict"] == verdict


@pytest.mark.parametrize("case", sorted(CASES))
def test_judge_verdicts_where_lower_is_better(case):
    # mirrored about 200: a rise where higher is better is a fall here, by
    # the same amount, so every median and IQR stays near the same size
    parent, change, verdict = CASES[case]
    mirrored = _judge("lower", [200 - x for x in parent], [200 - x for x in change])
    assert mirrored["verdict"] == verdict


def test_judge_summary_counts_pairs_and_quartiles():
    out = _judge("higher", PARENT, [x + 10 for x in PARENT[:9]] + [100])
    assert (out["pairs_won"], out["pairs"]) == (9, 10)
    assert (out["parent"]["q1"], out["parent"]["median"], out["parent"]["q3"]) == \
        (102.25, 104.5, 106.75)
    assert out["change_over_parent"] == out["change"]["median"] / 104.5
    out = _judge("lower", [200 - x for x in PARENT], [190 - x for x in PARENT])
    assert (out["pairs_won"], out["verdict"]) == (10, "better")
