"""The tail rule: the highest percentile with at least ten samples beyond."""

import math

import pytest

from perfbench.stats import log_loss, qerror, tail, windowed_tail


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 41))            # 40 samples, 1..40
    value, percentile = tail(values)
    assert value == 30
    assert sum(1 for v in values if v > value) == 10
    assert percentile == 75.0


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20   # 100 samples
    assert tail(values) == tail(sorted(values))
    assert tail(values)[1] == 90.0


def test_tail_of_minimum_sample_is_the_smallest_value():
    value, percentile = tail(list(range(11)))
    assert value == 0
    assert percentile == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_windowed_tail_takes_median_of_block_tails_and_drops_partial():
    window = 20                              # p50 of each block
    blocks = [[b * 100 + i for i in range(window)] for b in range(3)]
    values = [v for block in blocks for v in block] + [10**6] * 7
    value, percentile, count = windowed_tail(values, window)
    assert count == 3
    assert percentile == 50.0
    assert value == 100 + 9                 # the middle block's tail


def test_windowed_tail_with_stride_overlaps_windows():
    values = list(range(30))                 # windows of 20 every 5
    value, percentile, count = windowed_tail(values, 20, stride=5)
    assert count == 3                        # starts 0, 5, 10
    assert percentile == 50.0
    assert value == 5 + 9                    # middle window [5, 25)


def test_windowed_tail_needs_one_full_window():
    with pytest.raises(ValueError):
        windowed_tail(list(range(39)), 40)


def test_qerror_is_symmetric_and_floored_at_one_row():
    assert qerror(4989, 8) == pytest.approx(4989 / 8)
    assert qerror(8, 4989) == qerror(4989, 8)
    assert qerror(0, 0) == 1.0


def test_log_loss_of_confident_right_and_wrong_predictions():
    assert log_loss([0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2))
    assert log_loss([1.0], [1.0]) < 1e-6
    assert log_loss([0.0], [1.0]) == pytest.approx(-math.log(1e-7))
