"""The benchmark's own arithmetic: percentiles, span self time, model error.

Pure functions with no dependency on ``repro`` so that the tests in
``test_metrics.py`` pin them down on hand-built inputs.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Mapping, Sequence

#: samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: fewest samples in one round of :func:`round_tail`; its tail is then at
#: least the 75th percentile.
ROUND_MIN = 40


def tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it, as ``(value, percentile, n)``.

    With nearest-rank percentiles the p-th percentile of ``n`` sorted
    samples is the ``ceil(p*n/100)``-th one, so ten samples lie beyond it
    while ``p <= 100*(n-10)/n``: the value is the 11th-largest sample.  With
    ten samples or fewer no percentile qualifies and the maximum is
    reported as p100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def round_tail(samples: Sequence[float],
               round_min: int = ROUND_MIN) -> tuple[float, str]:
    """The median over rounds of each round's :func:`tail`, with its label.

    ``samples`` are in the order they were taken.  They are cut into as
    many consecutive rounds of at least ``round_min`` samples as they fill
    (one round when there are fewer than ``2 * round_min``), so a burst of
    host noise that covers less than half of a run moves no more than a
    minority of rounds and leaves the median where it was.
    """
    n = len(samples)
    rounds = max(1, n // round_min)
    cuts = [n * k // rounds for k in range(rounds + 1)]
    tails = [tail(samples[a:b]) for a, b in zip(cuts, cuts[1:])]
    pcts = "-".join(f"p{pct:.1f}"
                    for pct in sorted({round(pct, 1) for _, pct, _ in tails}))
    if rounds == 1:
        return tails[0][0], f"{pcts} of n={n}"
    return (statistics.median(value for value, _, _ in tails),
            f"median of {rounds} rounds' {pcts}, n={n}")


def _union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> dict[str, float]:
    """Seconds per span name of time not covered by the span's children.

    ``spans`` are ``(name, start_ns, end_ns, parent_index, ...)`` records;
    a parent index of -1 marks a root.  Child intervals are clipped to the
    parent and merged, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children.setdefault(parent, []).append(
                (max(start, p_start), min(end, p_end))
            )
    out: dict[str, float] = {}
    for i, (name, start, end, parent, *_) in enumerate(spans):
        own = (end - start) - _union_ns(children.get(i, ()))
        out[name] = out.get(name, 0.0) + own / 1e9
    return out


def uncovered_s(spans: Sequence[Sequence], wall_s: float) -> float:
    """Seconds of ``wall_s`` that no root span covers."""
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    return max(0.0, wall_s - _union_ns(roots) / 1e9)


def speedup_err(
    makespans: Mapping[tuple[str, str], float], paper: Mapping[str, float]
) -> float:
    """Mean over the paper's benchmarks of
    ``abs(S-NUCA makespan / TD-NUCA makespan - paper speedup)``.

    Every benchmark in ``paper`` must have both cells; a missing one raises
    rather than silently shrinking the mean.
    """
    errors = []
    for bench, expected in paper.items():
        snuca = makespans.get((bench, "snuca"))
        tdnuca = makespans.get((bench, "tdnuca"))
        if not snuca or not tdnuca:
            raise KeyError(f"speedup_err needs {bench}/snuca and {bench}/tdnuca")
        errors.append(abs(snuca / tdnuca - expected))
    return sum(errors) / len(errors)


class OpLog:
    """Every attempted operation with its outcome; nothing is dropped.

    An operation is one simulation or one service request.  A wrong
    output, an exception, a timeout or a service error all mark it failed.
    """

    def __init__(self) -> None:
        self.ops: list[tuple[str, bool, str]] = []
        #: failed operations that returned an output, and a wrong one.
        self.wrong = 0

    def record(self, label: str, ok: bool, why: str = "",
               wrong: bool = False) -> None:
        self.ops.append((label, ok, why))
        self.wrong += wrong

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.ops else 0.0

    def failures(self) -> list[tuple[str, str]]:
        return [(label, why) for label, ok, why in self.ops if not ok]
