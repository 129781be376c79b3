"""The verdicts tests/paired_bench.py prints from each side's benchmark records."""

import pytest

from paired_bench import pairs_won

SPEC = {"end_to_end": [{"name": "docs_per_s", "better": "higher", "bound": 0.25},
                       {"name": "doc_ms_p50", "better": "lower", "bound": 0.25}]}


def _records(workload, rows):
    """One record per seed of (docs_per_s, doc_ms_p50) rows, seeds from 1."""
    return [{"workload": workload, "seed": seed,
             "end_to_end": {"docs_per_s": {"value": rate}, "doc_ms_p50": {"value": ms}}}
            for seed, (rate, ms) in enumerate(rows, 1)]


def _lines(base_rows, new_rows, workload="w"):
    lines = pairs_won(_records(workload, base_rows), _records(workload, new_rows), SPEC)
    return {line.split()[1]: line for line in lines}


def test_ties_count_for_neither_side():
    lines = _lines([(10.0, 5.0)] * 4, [(10.0, 5.0), (11.0, 4.0), (9.0, 6.0), (10.0, 5.0)])
    assert " won 1 lost 1 of 4 " in lines["docs_per_s"]
    assert " won 1 lost 1 of 4 " in lines["doc_ms_p50"]


def test_a_lower_metric_is_won_by_the_lower_value():
    lines = _lines([(10.0, 5.0), (10.0, 6.0), (10.0, 7.0)], [(9.0, 4.0), (9.0, 5.0), (9.0, 8.0)])
    assert " won 0 lost 3 of 3 " in lines["docs_per_s"]
    assert " won 2 lost 1 of 3 " in lines["doc_ms_p50"]


# base docs_per_s 10 to 14: median 12, quartiles [10.5, 13.5]
_BASE = [(10.0, 1.0), (11.0, 1.0), (12.0, 1.0), (13.0, 1.0), (14.0, 1.0)]


@pytest.mark.parametrize("rate, side, bound", [
    (8.5, "below", "worse than"), (9.0, "below", "within"), (9.5, "below", "within"),
    (10.5, "inside", "within"), (12.0, "inside", "within"), (14.0, "above", "within"),
])
def test_each_label_of_a_higher_metric(rate, side, bound):
    # 25 % below the median 12 is 9: only a median under 9 is worse than the bound
    line = _lines(_BASE, [(rate, 1.0)] * 5)["docs_per_s"]
    assert line.startswith("w ") and "base 12 [10.5, 13.5] -> new" in line
    assert line.endswith(f"  {side} the quartiles, {bound} the bound 0.25")


@pytest.mark.parametrize("ms, side, bound", [
    (1.3, "above", "worse than"), (1.2, "above", "within"), (0.5, "below", "within"),
    (1.0, "inside", "within"),
])
def test_each_label_of_a_lower_metric(ms, side, bound):
    # every base p50 is 1.0: 25 % above it is 1.25
    line = _lines(_BASE, [(12.0, ms)] * 5)["doc_ms_p50"]
    assert line.endswith(f"  {side} the quartiles, {bound} the bound 0.25")


def test_only_workloads_on_both_sides_and_shared_seeds_are_compared():
    base = _records("a", [(10.0, 1.0)] * 3) + _records("b", [(10.0, 1.0)] * 3)
    new = _records("a", [(11.0, 1.0)] * 2)
    lines = pairs_won(base, new, SPEC)
    assert len(lines) == 2 and all(line.startswith("a ") for line in lines)
    assert " won 2 lost 0 of 2 " in lines[0]
