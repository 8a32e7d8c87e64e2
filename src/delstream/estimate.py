"""Deletion-count estimators from tweet-count differences, and their scoring.

A decrease in an account's total tweet count between two observations is a
lower bound on the tweets it deleted in between: deletions offset by new
posts are invisible, and a flat or rising count supports no inference at all.
These estimators quantify that bound and compare it against actual per-day
deletions, taken as (account_id, day, deletion_count) triples, which a
timeline's ``deletion_days`` and ``deletion_counts`` columns give.

The means, medians, CCDFs and KS statistic are computed in pure Python with
numpy's float64 arithmetic, operation for operation, so they equal what
``numpy.mean``, ``numpy.median`` and the former numpy code give, to the bit.
Only the permutation significance estimate of ``ks_two_sample`` imports numpy,
inside the function, so ``estimate`` without ``--permutations`` and ``stats``
start without loading it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from operator import attrgetter
from typing import Iterable, Sequence

from .ingest import AccountTimeline

#: Estimate/actual pairs with an estimate below this are dropped before scoring.
DEFAULT_ESTIMATE_FLOOR = 10

#: Label permutations used for a significance estimate unless overridden.
DEFAULT_PERMUTATIONS = 10_000


def estimate_consecutive(count_start: int, count_end: int) -> int | None:
    """Estimated deletions between two consecutive-day tweet counts.

    Returns the count decrease, or None when the count held or rose
    (no deletions can be inferred then).
    """
    diff = count_start - count_end
    return diff if diff > 0 else None


@dataclass(frozen=True, slots=True)
class DeletionEstimate:
    """Estimated per-day deletions for one account over one interval.

    The interval is half-open on the left: it covers the days after
    ``interval_start`` up to and including ``interval_end``. ``is_gap`` marks
    intervals longer than one day, where the total count decrease is spread
    uniformly across the covered days.
    """

    account_id: int
    interval_start: date
    interval_end: date
    estimated_daily: float

    def __post_init__(self):
        if (self.interval_end - self.interval_start).days < 1:
            raise ValueError("interval_end must be after interval_start")
        if self.estimated_daily <= 0:
            raise ValueError("estimated_daily must be positive")

    @property
    def is_gap(self) -> bool:
        return (self.interval_end - self.interval_start).days > 1


def estimate_gap(
    count_start: int,
    count_end: int,
    start: date,
    end: date,
    account_id: int = 0,
) -> DeletionEstimate | None:
    """Per-day deletion estimate across a multi-day observation gap.

    ``start`` is the last day a count was available and ``end`` the next day
    one was; the count decrease is averaged over the days in between. A
    one-day span reduces exactly to the consecutive-day estimate.
    """
    span = (end - start).days
    if span < 1:
        raise ValueError(f"end must be after start, got {start} .. {end}")
    diff = count_start - count_end
    if diff <= 0:
        return None
    return DeletionEstimate(account_id, start, end, diff / span)


def estimate_timeline(timeline: AccountTimeline) -> list[DeletionEstimate]:
    """All count-decrease estimates derivable from one account's snapshots.

    Adjacent days with observable counts yield consecutive-day estimates;
    longer spans (suspensions, missing queries) yield gap estimates.
    """
    counts = timeline.available_counts()
    estimates = []
    for (day_a, count_a), (day_b, count_b) in zip(counts, counts[1:]):
        estimate = estimate_gap(count_a, count_b, day_a, day_b, timeline.account_id)
        if estimate is not None:
            estimates.append(estimate)
    return estimates


def estimate_from_sampled_tweets(observations: Iterable[tuple]) -> int | None:
    """Count-difference estimate from sampled tweets of one account.

    Each observation is a (timestamp, tweet count) pair as carried on the
    sampled tweets. Requires at least two observations; applies the
    consecutive-day rule to the chronologically first and last counts.
    """
    ordered = sorted(observations, key=lambda pair: pair[0])
    if len(ordered) < 2:
        return None
    return estimate_consecutive(ordered[0][1], ordered[-1][1])


def ccdf(samples: Iterable[float]) -> list[tuple[float, float]]:
    """Complementary cumulative distribution as (value, fraction >= value).

    Evaluated at each distinct sample value, ascending; the fractions are
    monotone non-increasing and start at 1.0. Samples are compared as floats;
    a NaN sample raises ``ValueError``, since it has no place in the order.
    """
    values = sorted(map(float, samples))
    if not values:
        raise ValueError("ccdf requires a non-empty sample")
    if any(value != value for value in values):
        raise ValueError("ccdf is undefined for NaN samples")
    n = len(values)
    rows = []
    previous = None
    for index, value in enumerate(values):
        if value != previous:  # the first of a run of equal values
            rows.append((value, (n - index) / n))
            previous = value
    return rows


def _pairwise_sum(values: list[float], start: int, stop: int) -> float:
    """``values[start:stop]`` summed in numpy's pairwise order.

    Under 8 items a running sum; up to 128, eight running sums over the items
    a multiple of 8 apart, combined in pairs, then the remainder in order;
    above that, the halves split at a multiple of 8.
    """
    n = stop - start
    if n < 8:
        total = -0.0
        for index in range(start, stop):
            total += values[index]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start : start + 8]
        end = stop - n % 8
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for index in range(end, stop):
            total += values[index]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, start + half) + _pairwise_sum(
        values, start + half, stop
    )


def _mean(values: Sequence[float]) -> float:
    """Mean of a non-empty sample of floats, as ``numpy.mean`` gives it.

    numpy adds the pairwise sum to its identity, +0.0, before dividing, so a
    sample of negative zeros has mean 0.0, not -0.0.
    """
    floats = [float(value) for value in values]
    return (0.0 + _pairwise_sum(floats, 0, len(floats))) / len(floats)


def _median(values: Sequence[float]) -> float:
    """Median of a non-empty sample of floats, as ``numpy.median`` gives it.

    numpy takes the mean of the middle item, or of the middle two, so the
    odd case also goes through ``_mean`` (the median of ``[-0.0]`` is 0.0).
    A NaN in the sample gives NaN, as in numpy.
    """
    ordered = sorted(map(float, values))
    if any(value != value for value in ordered):
        return math.nan
    middle = len(ordered) // 2
    return _mean(ordered[middle - 1 + len(ordered) % 2 : middle + 1])


#: Pooled elements per block of permutations in ``ks_two_sample``; bounds the
#: block's arrays to a few hundred kilobytes whatever the sample sizes.
_PERMUTATION_BLOCK = 8192


def _ks_statistics(labels, ranks, run_ends, m: int):
    """KS D for each row of ``labels``, the pooled positions of sample one.

    The other ``ranks.size - m`` positions form sample two. ``ranks`` maps a
    pooled position to its place in the stably sorted pooled sample, and
    ``run_ends`` lists the last place of each run of equal values, where the
    empirical CDFs are compared.
    """
    import numpy as np

    rows = labels.shape[0]
    in_first = np.zeros((rows, ranks.size), dtype=np.intp)
    in_first[np.arange(rows)[:, None], ranks[labels]] = 1
    count_first = in_first.cumsum(axis=1)[:, run_ends]
    count_second = (run_ends + 1) - count_first
    n_second = ranks.size - m
    return np.abs(count_first / m - count_second / n_second).max(axis=1)


@dataclass(frozen=True, slots=True)
class KsResult:
    statistic: float
    p_value: float | None


def ks_two_sample(
    a: Sequence[float],
    b: Sequence[float],
    permutations: int | None = None,
    seed: int | None = None,
) -> KsResult:
    """Two-sided two-sample Kolmogorov-Smirnov statistic D.

    D is the supremum of the absolute difference between the two empirical
    CDFs. When ``permutations`` is given, a significance level is estimated
    by label-permutation resampling with a seeded generator (the +1 adjusted
    count, so p is never exactly zero). A NaN in either sample raises
    ``ValueError``.

    The pooled sample is stably sorted once, in pure Python, and D is taken
    from integer counts at the end of each run of equal values; the counts
    convert to float64 exactly, so D equals numpy's. Only the permutations
    use numpy: each only relabels the sorted sample, and they are drawn as
    ``rng.permutation(n)``, which shuffles exactly as
    ``rng.permutation(pooled)`` does, and evaluated in blocks.
    """
    pooled = [float(value) for value in a]
    m = len(pooled)
    pooled += map(float, b)
    n = len(pooled)
    if m == 0 or m == n:
        raise ValueError("both samples must be non-empty")
    if any(value != value for value in pooled):
        raise ValueError("the KS statistic is undefined for NaN samples")
    if permutations is not None and permutations < 1:
        raise ValueError("permutations must be >= 1")
    order = sorted(range(n), key=pooled.__getitem__)
    run_ends = []
    statistic = 0.0
    count_first = 0
    for place, index in enumerate(order):
        if index < m:
            count_first += 1
        if place + 1 == n or pooled[order[place + 1]] != pooled[index]:
            run_ends.append(place)
            count_second = place + 1 - count_first
            statistic = max(statistic, abs(count_first / m - count_second / (n - m)))
    if permutations is None:
        return KsResult(statistic, None)

    import numpy as np

    ranks = np.empty(n, dtype=np.intp)
    ranks[order] = np.arange(n)
    ends = np.asarray(run_ends, dtype=np.intp)
    rng = np.random.default_rng(seed)
    block = max(1, _PERMUTATION_BLOCK // n)
    at_least = 0
    for start in range(0, permutations, block):
        rows = min(block, permutations - start)
        labels = np.stack([rng.permutation(n)[:m] for _ in range(rows)])
        at_least += int((_ks_statistics(labels, ranks, ends, m) >= statistic).sum())
    return KsResult(statistic, (at_least + 1) / (permutations + 1))


@dataclass(frozen=True, slots=True)
class PairedDeletion:
    """One estimated/actual pair; ``day`` is None for per-account medians."""

    account_id: int
    day: date | None
    estimated: float
    actual: float


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    """Estimated-vs-actual deletion comparison over paired account/days."""

    paired: tuple[PairedDeletion, ...]
    mean_estimated: float | None
    mean_actual: float | None
    ks_statistic: float | None
    ccdf_estimated: tuple[tuple[float, float], ...]
    ccdf_actual: tuple[tuple[float, float], ...]

    @property
    def is_empty(self) -> bool:
        return not self.paired

    @property
    def underestimation_fraction(self) -> float | None:
        """The share of the mean actual that the mean estimate misses; None
        without pairs or for a mean actual of 0."""
        if not self.mean_actual:
            return None
        return (self.mean_actual - self.mean_estimated) / self.mean_actual

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[PairedDeletion],
        floor: int = DEFAULT_ESTIMATE_FLOOR,
        per_account_median: bool = False,
    ) -> "ComparisonReport":
        """Score pre-paired observations.

        Pairs whose estimate is below ``floor`` are dropped first; with
        ``per_account_median`` the surviving pairs are then reduced to one
        median pair per account.
        """
        kept = [p for p in pairs if p.estimated >= floor]
        if per_account_median:
            kept = _account_medians(kept)
        if not kept:
            return cls((), None, None, None, (), ())
        estimated = [p.estimated for p in kept]
        actual = [p.actual for p in kept]
        return cls(
            tuple(kept),
            _mean(estimated),
            _mean(actual),
            ks_two_sample(estimated, actual).statistic,
            tuple(ccdf(estimated)),
            tuple(ccdf(actual)),
        )


def _account_medians(pairs: list[PairedDeletion]) -> list[PairedDeletion]:
    grouped: dict[int, list[PairedDeletion]] = {}
    for pair in pairs:
        grouped.setdefault(pair.account_id, []).append(pair)
    return [
        PairedDeletion(
            account_id,
            None,
            _median([p.estimated for p in group]),
            _median([p.actual for p in group]),
        )
        for account_id, group in sorted(grouped.items())
    ]


def pair_observations(
    estimates: Iterable[DeletionEstimate],
    actuals: Iterable[tuple[int, date, int]],
    include_gaps: bool = True,
) -> list[PairedDeletion]:
    """Pair each actual deletion day with its enclosing estimate interval.

    ``actuals`` are (account_id, day, deletion_count) triples, such as a
    timeline's ``deletion_days`` and ``deletion_counts`` with its account.

    A day pairs with the interval (start, end] that contains it; when
    hand-built intervals overlap, the one starting latest (then ending
    earliest, then the later of exact duplicates) wins. Days outside every
    interval produce no pair.
    """
    by_account: dict[int, list[DeletionEstimate]] = {}
    for estimate in estimates:
        if not include_gaps and estimate.is_gap:
            continue
        by_account.setdefault(estimate.account_id, []).append(estimate)
    for candidates in by_account.values():
        candidates.sort(key=lambda e: (e.interval_start, e.interval_end))

    start_of = attrgetter("interval_start")
    pairs = []
    for account_id, day, deletion_count in actuals:
        candidates = by_account.get(account_id)
        if not candidates:
            continue
        best: DeletionEstimate | None = None
        # Back from the last start before the day: starts fall, and within a
        # start ends fall and exact duplicates run from the later input.
        for index in range(bisect_left(candidates, day, key=start_of) - 1, -1, -1):
            estimate = candidates[index]
            if best is not None and estimate.interval_start < best.interval_start:
                break
            if day <= estimate.interval_end and (
                best is None or estimate.interval_end < best.interval_end
            ):
                best = estimate
        if best is not None:
            pairs.append(
                PairedDeletion(
                    account_id, day, best.estimated_daily, float(deletion_count)
                )
            )
    return pairs


def compare(
    estimates: Iterable[DeletionEstimate],
    actuals: Iterable[tuple[int, date, int]],
    floor: int = DEFAULT_ESTIMATE_FLOOR,
    include_gaps: bool = True,
    per_account_median: bool = False,
) -> ComparisonReport:
    """Pair estimates with actual (account_id, day, deletion_count) triples
    and score the agreement."""
    pairs = pair_observations(estimates, actuals, include_gaps=include_gaps)
    return ComparisonReport.from_pairs(
        pairs, floor=floor, per_account_median=per_account_median
    )
