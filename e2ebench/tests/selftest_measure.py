"""Nearest-rank percentiles and the tail report."""

import _paths  # noqa: F401
import pytest

from measure import nearest_rank, spread, tail


def test_nearest_rank_picks_the_ceiling_rank():
    sample = list(range(1, 21))  # 1..20, shuffled order must not matter
    sample.reverse()
    assert nearest_rank(sample, 50) == 10
    assert nearest_rank(sample, 95) == 19  # ceil(0.95 * 20) = 19, not 20
    assert nearest_rank(sample, 100) == 20
    assert nearest_rank(sample, 5) == 1
    assert nearest_rank([1, 2, 3, 4], 50) == 2
    assert nearest_rank([7.5], 99.9) == 7.5


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(19))) is None  # p50 leaves only 9 beyond
    report = tail(list(range(1, 21)))
    assert report == {"percentile": 50, "value": 10, "n": 20, "beyond": 10}
    report = tail(list(range(1, 1001)))
    assert report["percentile"] == 99  # 99.9 leaves only 1 beyond
    assert report["value"] == 990 and report["beyond"] == 10


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 5) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)
