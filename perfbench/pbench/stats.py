"""Statistics helpers shared by every workload.

Pure python (no numpy) so the unit tests stay instant and the helpers
cannot drift with a numpy upgrade.

- :func:`percentile` — linear-interpolated percentile (numpy's default
  ``linear`` method).
- :func:`tail_percentile` — the reporting rule for latency tails: the
  requested percentile when at least ``min_beyond`` samples lie beyond
  it, otherwise the highest percentile that has that support.
- :func:`backlog_growing` / :func:`max_rate` — open-loop ladder
  analysis: a rate step passes when its tail latency meets the SLO, few
  enough requests fail, and the backlog does not grow over the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Samples a reported tail percentile must have strictly beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    if frac == 0.0 or data[lo] == data[hi]:
        return float(data[lo])
    return float(data[lo] + (data[hi] - data[lo]) * frac)


def median(values) -> float:
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Tail:
    """A tail percentile as reported: which percentile, its value, support."""

    q: float
    value: float
    samples: int

    def as_dict(self) -> dict:
        return {"percentile": self.q, "value": self.value, "samples": self.samples}


def supported_q(n: int, q: float = 99.0, min_beyond: int = MIN_BEYOND) -> float:
    """Highest percentile <= ``q`` with ``min_beyond`` samples beyond it.

    ``n * (1 - p/100)`` samples lie beyond percentile ``p``; the result is
    floored to one decimal so the support condition holds exactly. Never
    below the median: with fewer than ``2 * min_beyond`` samples the
    median is the best-supported statistic there is.
    """
    if n <= 0:
        raise ValueError("no samples")
    limit = 100.0 * (1.0 - min_beyond / n)
    return max(50.0, min(q, math.floor(limit * 10.0) / 10.0))


def tail_percentile(values, q: float = 99.0, min_beyond: int = MIN_BEYOND) -> Tail:
    """``q``-th percentile, or the highest one with ``min_beyond`` support."""
    data = list(values)
    used = supported_q(len(data), q, min_beyond)
    return Tail(used, percentile(data, used), len(data))


# -- open-loop ladder -------------------------------------------------------


def backlog_series(due: list[float], resolved: list[float]) -> list[int]:
    """Backlog (due but unresolved requests) sampled at each due time.

    ``due`` are the scheduled send times, ascending; ``resolved`` the
    resolution times of every request of the step (failed ones included,
    at the moment they were known to fail). A request sheds or lags in
    the generator, waits in the server queue, or sits in a batch — each
    of these keeps it in the backlog.
    """
    done = sorted(resolved)
    out: list[int] = []
    cursor = 0
    for index, t in enumerate(due):
        while cursor < len(done) and done[cursor] <= t:
            cursor += 1
        out.append(index + 1 - cursor)
    return out


def backlog_growing(
    backlog: list[int], min_growth: float = 8.0, rel_growth: float = 0.05
) -> bool:
    """Whether the backlog grows over the step.

    Compares the mean of the last third of the samples with the mean of
    the first third. A stable queue fluctuates around a constant depth
    (Little's law); an overloaded one grows linearly. The threshold is
    ``max(min_growth, rel_growth * len(backlog))`` requests: one heavy
    request stalls the submitting thread for a few request slots, and
    that transient must not read as growth in a short step.
    """
    if len(backlog) < 3:
        return False
    third = len(backlog) // 3
    head = sum(backlog[:third]) / third
    tail = sum(backlog[-third:]) / third
    return tail - head > max(min_growth, rel_growth * len(backlog))


@dataclass
class StepResult:
    """One rate step of an open-loop ladder."""

    rate: float
    latencies_ms: list[float]  # per attempted request; failures as math.inf
    backlog: list[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return sum(1 for value in self.latencies_ms if math.isinf(value))

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def tail(self, q: float = 99.0) -> Tail:
        return tail_percentile(self.latencies_ms, q)

    def meets(
        self, slo_ms: float, max_fail_share: float = 0.01, q: float = 99.0
    ) -> bool:
        """SLO on the tail, failure share below the limit, no backlog growth."""
        if not self.attempted:
            return False
        return (
            self.tail(q).value <= slo_ms
            and self.fail_share < max_fail_share
            and not backlog_growing(self.backlog)
        )


def max_rate(
    steps: list[StepResult], slo_ms: float, max_fail_share: float = 0.01
) -> float | None:
    """Highest ladder rate meeting all three conditions, walking up the
    ladder and stopping at the first rate that misses them: a pass above
    a failing rate is noise, not capacity. None if the lowest rate fails."""
    best = None
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.meets(slo_ms, max_fail_share):
            break
        best = step.rate
    return best
