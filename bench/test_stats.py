import statistics

import pytest

from bench import spec, stats


def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == statistics.median(values)
    assert stats.percentile(values, 75) == pytest.approx(3.25)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, q, beyond", [
    (200, 95, 10), (199, 95, 9), (280, 95, 14), (40, 75, 10), (20, 50, 10),
])
def test_samples_beyond(n, q, beyond):
    assert stats.samples_beyond(n, q) == beyond


@pytest.mark.parametrize("n, tail", [
    (5000, 95),   # capped at p95 however many samples
    (200, 95),    # exactly ten beyond p95
    (199, 90),    # nine beyond p95: step down
    (100, 90),
    (99, 75),
    (40, 75),
    (39, 50),
    (20, 50),
    (19, None),   # no percentile has ten samples beyond it
    (3, None),
])
def test_tail_percentile_rule(n, tail):
    assert stats.tail_percentile(n) == tail


def test_workload_tails_are_on_the_ladder():
    for workload in spec.WORKLOADS:
        assert workload.tail in stats.TAIL_LADDER


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
