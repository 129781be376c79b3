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


@pytest.mark.parametrize("rates, verdict", [
    # won 5 of 5 and the median 16 beats 12 by more than the range 3
    ([16.0] * 5, "gain holds"),
    # a median 3 above is not more than the range
    ([15.0] * 5, "gain not shown"),
    # a tie with 14 leaves 4 of 5 won, under 9 of 10, though the median is 8 above
    ([20.0, 20.0, 20.0, 20.0, 14.0], "gain not shown"),
])
def test_a_gain_holds_only_on_nine_tenths_of_the_pairs_and_beyond_the_range(rates, verdict):
    line = _lines(_BASE, [(rate, 1.0) for rate in rates])["docs_per_s"]
    assert f" of 5 ({verdict})  base 12 [10.5, 13.5] -> new " in line


def test_nine_of_ten_pairs_won_suffice_and_ties_count_for_neither_side():
    base = [(10.0 + i % 2, 1.0) for i in range(10)]  # range 1 about the median 10.5
    for rates, verdict in (([20.0] * 9 + [11.0], "gain holds"),
                           ([20.0] * 9 + [10.0], "gain holds"),
                           ([20.0] * 8 + [10.0] * 2, "gain not shown")):
        line = _lines(base, [(rate, 1.0) for rate in rates])["docs_per_s"]
        assert f" of 10 ({verdict})  " in line


# base docs_per_s 5 to 19: median 12, quartiles [6.5, 17.5], a range of 11 over the bound's 3
_WIDE = [(5.0, 1.0), (8.0, 1.0), (12.0, 1.0), (16.0, 1.0), (19.0, 1.0)]


@pytest.mark.parametrize("rates, verdict", [
    ([13.0] * 5, "unresolved"),
    ([30.0, 30.0, 30.0, 30.0, 18.0], "unresolved"),  # one new run under the best base run
    # every new run beats every base run: resolved, and 8 above is not beyond the range
    ([20.0] * 5, "gain not shown"),
    ([30.0] * 5, "gain holds"),
])
def test_a_range_wider_than_the_bound_is_unresolved(rates, verdict):
    line = _lines(_WIDE, [(rate, 1.0) for rate in rates])["docs_per_s"]
    assert f" ({verdict})  base 12 [6.5, 17.5] -> new " in line


def test_a_lower_metric_gains_by_the_lower_value():
    lines = _lines(_BASE, [(12.0, 0.5)] * 5)
    assert " won 5 lost 0 of 5 (gain holds) " in lines["doc_ms_p50"]
    lines = _lines(_BASE, [(12.0, 1.5)] * 5)
    assert " won 0 lost 5 of 5 (gain not shown) " in lines["doc_ms_p50"]
