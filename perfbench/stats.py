"""Latency percentiles and failure accounting.

A refused, timed-out or lost request is recorded as an infinitely late
sample, so it lands above every latency limit and pulls a percentile up
instead of silently dropping out of the distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

INF = math.inf


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100); NaN when empty."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def finite(value: float, cap: float) -> float:
    """JSON-safe value: an infinite (failed) percentile reports ``cap``."""
    return cap if math.isinf(value) or math.isnan(value) else value


@dataclass
class Tally:
    """Requests attempted and failed (refused, timed out, or lost)."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

