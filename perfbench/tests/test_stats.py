"""Percentile and failure accounting."""

import math

from perfbench.stats import (
    INF,
    Tally,
    finite,
    percentile,
)


def test_nearest_rank_percentile():
    samples = [float(x) for x in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 100) == 100.0
    assert math.isnan(percentile([], 50))


def test_refused_request_misses_every_latency_limit():
    # 98 fast answers and 2 refusals: the refusals sit above any limit,
    # so p99 is infinite rather than the slowest answered request.
    samples = [0.001] * 98 + [INF, INF]
    assert percentile(samples, 50) == 0.001
    assert math.isinf(percentile(samples, 99))
    assert finite(percentile(samples, 99), cap=5.0) == 5.0


def test_failed_frac_counts_against_attempted():
    tally = Tally()
    for ok in [True] * 7 + [False] * 3:
        tally.add(ok)
    assert (tally.attempted, tally.failed) == (10, 3)
    assert tally.failed_frac == 0.3
    assert Tally().failed_frac == 0.0


def test_slices_add_up_with_their_failures():
    from perfbench.loadgen import PhaseResult

    total = PhaseResult()
    for seconds, latency, ok in ((1.5, 0.002, True), (2.5, INF, False)):
        piece = PhaseResult(seconds=seconds, sent=3)
        piece.tally.add(ok)
        piece.get_latency.append(latency)
        total.absorb(piece)
    assert (total.seconds, total.sent) == (4.0, 6)
    assert (total.tally.attempted, total.tally.failed) == (2, 1)
    assert math.isinf(percentile(total.get_latency, 99))
