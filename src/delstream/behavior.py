"""Per-account behavioral characterization: volume, frequency, age, labels.

Accounts are bucketed by how many days they deleted on, labeled into
frequency categories, and profiled by deleted-content age, suspension
outcome, and profile-description vocabulary.

The module is pure Python: its quantiles and CCDFs reproduce numpy's float64
arithmetic exactly, so ``stats`` starts without loading numpy.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Mapping

from .estimate import ccdf
from .flooding import FloodingViolation
from .ingest import AccountTimeline
from .records import AccountStatus, check_at_least

DEFAULT_WINDOW_DAYS = 30


class Category(str, Enum):
    ONE_DAY = "one_day"
    THIRTY_DAY = "thirty_day"
    SUSPICIOUS = "suspicious"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class AccountBehaviorSummary:
    """Deletion-behavior profile of one account over the collection window."""

    account_id: int
    deleting_days: int
    mean_daily_deletions: float
    median_deleted_age_days: float | None
    category: Category
    bot_score: float | None = None

    def __post_init__(self):
        if self.deleting_days < 1:
            raise ValueError("deleting_days must be >= 1")
        if self.bot_score is not None and not 0.0 <= self.bot_score <= 1.0:
            raise ValueError("bot_score must be within [0, 1]")


def categorize(deleting_days: int, violated: bool, window_days: int) -> Category:
    """Frequency category with limit violation taking precedence."""
    if violated:
        return Category.SUSPICIOUS
    if deleting_days == 1:
        return Category.ONE_DAY
    if deleting_days == window_days:
        return Category.THIRTY_DAY
    return Category.OTHER


def summarize(
    timelines: Iterable[AccountTimeline],
    violations: Iterable[FloodingViolation],
    window_days: int = DEFAULT_WINDOW_DAYS,
    bot_scores: Mapping[int, float] | None = None,
) -> list[AccountBehaviorSummary]:
    """One behavior summary per account that deleted on at least one day.

    An account with any flooding violation is suspicious regardless of its
    deletion frequency; the remaining accounts split by deleting-day count.
    Bot scores are externally supplied and joined as-is, never computed.
    """
    check_at_least("window_days", window_days, 1)
    violators = {violation.account_id for violation in violations}
    scores = bot_scores or {}
    summaries = []
    for timeline in timelines:
        counts = timeline.deletion_counts
        if not counts:
            continue
        deleting_days = len(counts)
        median_age = timeline.median_deleted_age_days
        summaries.append(
            AccountBehaviorSummary(
                timeline.account_id,
                deleting_days,
                sum(counts) / deleting_days,
                None if median_age is None else float(median_age),
                categorize(deleting_days, timeline.account_id in violators, window_days),
                scores.get(timeline.account_id),
            )
        )
    summaries.sort(key=lambda s: s.account_id)
    return summaries


@dataclass(frozen=True, slots=True)
class FrequencyBucket:
    """Distribution of mean daily deletions among accounts deleting on N days."""

    deleting_days: int
    count: int
    minimum: float | None
    q1: float | None
    median: float | None
    q3: float | None
    maximum: float | None


def frequency_buckets(
    summaries: Iterable[AccountBehaviorSummary],
    window_days: int = DEFAULT_WINDOW_DAYS,
) -> list[FrequencyBucket]:
    """Quartile summaries of mean daily deletions per deleting-day bucket.

    Every bucket from 1 to ``window_days`` is reported, empty ones with no
    distribution. Quantiles interpolate linearly between order statistics, as
    numpy's default ``linear`` method does, to the bit. A NaN mean, and an
    account that deleted on more days than the window holds, raise
    ``ValueError``.
    """
    check_at_least("window_days", window_days, 1)
    grouped: dict[int, list[float]] = {}
    for summary in summaries:
        if summary.deleting_days > window_days:
            raise ValueError(
                f"account {summary.account_id} deleted on {summary.deleting_days} "
                f"days, more than the window of {window_days}"
            )
        grouped.setdefault(summary.deleting_days, []).append(
            summary.mean_daily_deletions
        )
    buckets = []
    for deleting_days in range(1, window_days + 1):
        values = grouped.get(deleting_days)
        if not values:
            buckets.append(FrequencyBucket(deleting_days, 0, None, None, None, None, None))
            continue
        quantiles = _linear_quantiles(values, (0.0, 0.25, 0.5, 0.75, 1.0))
        buckets.append(FrequencyBucket(deleting_days, len(values), *quantiles))
    return buckets


def _linear_quantiles(values: list[float], qs: Iterable[float]) -> list[float]:
    """Quantiles of a non-empty sample, as ``numpy.quantile`` gives them.

    The steps are numpy's for its ``linear`` method, operation for operation,
    so each float64 result is the same: the lower of the two neighbouring
    order statistics plus a share of their difference or, from halfway on,
    the upper one minus the rest. A NaN value raises ``ValueError``.
    """
    ordered = sorted(map(float, values))
    if any(value != value for value in ordered):
        raise ValueError("quantiles are undefined for NaN values")
    n = len(ordered)
    quantiles = []
    for q in qs:
        virtual = (n - 1) * q
        below = math.floor(virtual)
        a = ordered[below]
        b = ordered[min(below + 1, n - 1)]
        t = virtual - below
        d = b - a
        quantiles.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return quantiles


def daily_volume_ccdf(counts: Iterable[int]) -> list[tuple[float, float]]:
    """CCDF of per-account-day deletion counts (heavy-tailed in the wild)."""
    counts = list(counts)
    return ccdf(counts) if counts else []


def median_age_ccdf(
    summaries: Iterable[AccountBehaviorSummary], category: Category
) -> list[tuple[float, float]]:
    """CCDF of per-account median deleted-content age within one category.

    Accounts without a decodable age median are excluded; an empty category
    yields an empty CCDF.
    """
    category = Category(category)
    ages = [
        summary.median_deleted_age_days
        for summary in summaries
        if summary.category is category and summary.median_deleted_age_days is not None
    ]
    return ccdf(ages) if ages else []


@dataclass(frozen=True, slots=True)
class SuspensionRow:
    category: Category
    suspended: int
    total: int
    unknown: int

    @property
    def fraction(self) -> float:
        """The suspended share of the category's accounts; 0.0 for none."""
        return self.suspended / self.total if self.total else 0.0


def suspension_stats(
    summaries: Iterable[AccountBehaviorSummary],
    final_statuses: Mapping[int, AccountStatus],
) -> tuple[SuspensionRow, ...]:
    """Suspension counts and fractions per category at the follow-up check,
    one row per ``Category``, in its order.

    Accounts missing from ``final_statuses`` still count toward the category
    total but are reported in the ``unknown`` residual column.
    """
    suspended: Counter = Counter()
    total: Counter = Counter()
    unknown: Counter = Counter()
    for summary in summaries:
        total[summary.category] += 1
        status = final_statuses.get(summary.account_id)
        if status is None:
            unknown[summary.category] += 1
        elif AccountStatus(status) is AccountStatus.SUSPENDED:
            suspended[summary.category] += 1
    return tuple(
        SuspensionRow(category, suspended[category], total[category], unknown[category])
        for category in Category
    )


#: Minimal English stopword list for profile-term ranking; callers with other
#: corpora pass their own.
DEFAULT_STOPWORDS = frozenset(
    """
    a about after all also an and any are as at be been but by can could do
    for from get got had has have he her his i if in into is it its just me
    my no not now of on or our out she so some than that the their them then
    there they this to up us was we were what when who will with you your
    """.split()
)

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def profile_terms(
    descriptions: Iterable[str],
    top_k: int,
    stopwords: Collection[str] = DEFAULT_STOPWORDS,
) -> list[tuple[str, int]]:
    """Most frequent profile-description terms after stopword removal.

    Tokens are lowercased runs of word characters; ranking is by descending
    count with lexicographic tie-breaks.
    """
    check_at_least("top_k", top_k, 1)
    stop = set(stopwords)
    counts: Counter = Counter()
    for text in descriptions:
        counts.update(
            token for token in _TOKEN.findall(text.lower()) if token not in stop
        )
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_k]


def volume_slices(
    summaries: Iterable[AccountBehaviorSummary],
    category: Category,
    fraction: float = 0.1,
) -> tuple[list[AccountBehaviorSummary], list[AccountBehaviorSummary]]:
    """Top and bottom slices of a category ranked by mean daily deletions."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be within (0, 1]")
    members = sorted(
        (s for s in summaries if s.category is Category(category)),
        key=lambda s: (-s.mean_daily_deletions, s.account_id),
    )
    if not members:
        return [], []
    size = max(1, int(len(members) * fraction))
    return members[:size], members[-size:]
