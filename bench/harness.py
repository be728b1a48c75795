"""Pieces shared by the workloads: the operation record, the statistics, a
random signature generator and the machine-speed calibration."""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Any, Callable, NamedTuple


class Op(NamedTuple):
    """One timed operation: ``run()`` is timed, ``check(output)`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# Candidate tail percentiles, highest first.  The reported tail is the first
# one with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def tail_percentile(n: int) -> float | None:
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The value at rank ceil(p/100 * n), so ``n - rank`` values lie beyond it."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def rounds_for(seconds: int, round_seconds: float) -> int:
    """Whole rounds a run makes: a fixed count for a given ``--seconds``."""
    return max(1, round(seconds / round_seconds))


def random_signature(rng: random.Random, g: int, poles: int, length: int) -> tuple[int, ...]:
    """Orders (descending) of a genus-g signature with ``length`` entries,
    ``poles`` of them -1 and the rest a random composition of 4g - 4 + poles."""
    total, parts = 4 * g - 4 + poles, length - poles
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    zeros = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return tuple(sorted(zeros + [-1] * poles, reverse=True))


# --- machine speed ------------------------------------------------------------
#
# The benchmark runs on shared hosts whose speed drifts by 20-50 % within
# seconds, as other tenants load the same cores.  Every timing is therefore
# given at a reference speed: a fixed probe that does not call the package
# (so no change to the package moves it) is timed between operations, and
# each raw time is multiplied by the probe's reference time over the median
# of the probe times nearest to it.  Each workload names its probe, reference
# time and cadence in CALIBRATION; PYTHON_PROBE serves in-process work.

PROBE_REF_MS = 1.5  # fixed; near the probe's median on the machine the benchmark was written on
CAL_EVERY_S = 0.1  # a probe at least this often (between operations)


def probe() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores.  Of the
    probes tried, this one followed the package's slowdowns most closely."""
    acc, table = 0, {}
    for i in range(10000):
        acc += i * i % 7
        table[i % 97] = acc
    return acc


PYTHON_PROBE = (probe, PROBE_REF_MS, CAL_EVERY_S)


class Calibration:
    """Bursts of probe timings; segment k lies between bursts k and k + 1.

    ``probe`` is timed, ``ref_ms`` is its fixed reference time and
    ``every_s`` the least time between two bursts in a batch.
    """

    def __init__(self, probe: Callable[[], Any], ref_ms: float, every_s: float) -> None:
        self.probe, self.ref_ms, self.every_s = probe, ref_ms, every_s
        self.bursts: list[list[float]] = []
        self._last = -math.inf

    def burst(self, probes: int = 1) -> int:
        """Time one burst and return the segment that starts after it."""
        timings = []
        for _ in range(probes):
            start = time.perf_counter()
            self.probe()
            timings.append(time.perf_counter() - start)
        self.bursts.append(timings)
        self._last = time.perf_counter()
        return len(self.bursts) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.every_s

    def scale(self, segment: int, reach: int = 2) -> float:
        """Factor from raw to reference time in one segment, from the
        ``reach`` bursts on either side of it."""
        around = self.bursts[max(0, segment + 1 - reach) : segment + 1 + reach]
        return self.ref_ms / 1e3 / statistics.median(t for b in around for t in b)

    def run_scale(self) -> float:
        """The same factor over the whole run."""
        return self.ref_ms / 1e3 / statistics.median(t for b in self.bursts for t in b)
