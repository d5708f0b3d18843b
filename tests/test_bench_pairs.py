"""The summary of ``tools/bench_pairs.py`` on canned result lines: no
subprocess, no timing."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(ops, p50, correct=True, failed=0):
    """A result line of ``perfbench/run.py``, parsed as the tool parses it."""
    return json.loads(json.dumps({
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                    "op_p50_ms": {"value": p50, "unit": "ms"}},
    }))


SPEC = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def test_quartiles_of_one_value_and_of_five():
    quartiles = _bench_pairs().quartiles
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_in_each_metric_direction():
    # the change is faster in four pairs of five; its p50 is lower in two
    parent = [(100.0, 1.0), (102.0, 1.1), (98.0, 0.9), (101.0, 1.0), (99.0, 1.2)]
    change = [(120.0, 1.1), (118.0, 1.0), (121.0, 1.0), (97.0, 1.0), (119.0, 1.1)]
    pairs = [(_result(*p), _result(*c)) for p, c in zip(parent, change)]
    lines = _bench_pairs().summarize(pairs, SPEC)
    assert lines == [
        "ops_per_s (1/s, higher is better): parent 100 [99, 101], "
        "change 119 [118, 120] (+19.0%), wins 4/5, median gain exceeds parent IQR",
        "op_p50_ms (ms, lower is better): parent 1 [1, 1.1], "
        "change 1 [1, 1.1] (+0.0%), wins 2/5, median gain within parent IQR",
    ]


def test_summary_names_a_run_that_is_not_correct():
    pairs = [(_result(100.0, 1.0), _result(90.0, 1.0, correct=False, failed=3))]
    lines = _bench_pairs().summarize(pairs, SPEC)
    assert lines[0] == "pair 0 change: correct False, failed 3"
    assert lines[1].endswith("wins 0/1, median gain within parent IQR")
