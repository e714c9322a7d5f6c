"""The gain rule of scripts/bench_pairs.py, which judges alternating benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# quartiles 99.25 and 100.75 (inclusive method), so an IQR of 1.5 around a median of 100
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def shifted(by, ties=0):
    """PARENT moved by ``by``, except its first ``ties`` runs."""
    return PARENT[:ties] + [v + by for v in PARENT[ties:]]


@pytest.mark.parametrize(
    "change, direction, want",
    [
        (shifted(+10), "higher", (10, True)),
        (shifted(-10), "higher", (0, False)),
        (shifted(-10), "lower", (10, True)),
        (shifted(+10), "lower", (0, False)),
        # every pair won, but the medians sit within the parent's interquartile range
        (shifted(+1), "higher", (10, False)),
        (shifted(-1), "lower", (10, False)),
        # ties count for neither side: 9 wins of 10 pass, 8 do not
        (shifted(+10, ties=1), "higher", (9, True)),
        (shifted(+10, ties=2), "higher", (8, False)),
        (shifted(-10, ties=1), "lower", (9, True)),
        (shifted(-10, ties=2), "lower", (8, False)),
        (list(PARENT), "higher", (0, False)),
    ],
    ids=["higher-up", "higher-down", "lower-down", "lower-up", "higher-in-iqr", "lower-in-iqr",
         "higher-1-tie", "higher-2-ties", "lower-1-tie", "lower-2-ties", "all-ties"],
)
def test_verdict_counts_wins_and_needs_nine_tenths_beyond_the_parent_iqr(change, direction, want):
    assert bench_pairs.verdict(PARENT, change, direction) == want


def test_directions_come_from_benchmark_json_with_or_without_a_workload_prefix():
    table = bench_pairs.directions()
    assert bench_pairs.better("adaptive_scan.reps_per_s", table) == "higher"
    assert bench_pairs.better("peak_rss_mb", table) == "lower"
    assert bench_pairs.better("paper_grid.estimators.block_summaries.calls", table) == "lower"
    assert bench_pairs.better("no_such_metric", table) is None
