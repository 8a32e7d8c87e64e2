"""Detection of daily tweet-limit circumvention via mass deletion.

The count difference between consecutive-day snapshots plus the deletions
actually observed in that interval equals the number of tweets posted that
day, regardless of how old the deleted tweets were. Days where that total
exceeds the platform limit are violations: the account posted more than the
limit and hid the overflow by deleting.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Collection, Iterable

from .ingest import AccountTimeline
from .records import (
    check_at_least, date_field, day_field, int_field, int_text_field, parse_account_id,
    read_csv, write_csv,
)

#: Platform cap on tweets posted per account per day.
DEFAULT_DAILY_LIMIT = 2400


def total_posted(n_prev: int, n_curr: int, deletions: int) -> int:
    """Tweets posted in a day, from consecutive counts and same-day deletions.

    The count difference may be negative (more deleted than posted); adding
    the deletions back recovers the posted total exactly.
    """
    return (n_curr - n_prev) + deletions


@dataclass(frozen=True, slots=True)
class FloodingViolation:
    """One account/day whose reconstructed posted total exceeds the limit.

    ``stale_suspect`` flags days where the evidence is a huge deletion volume
    with no matching count decrease, a pattern consistent with the count
    source lagging behind the deletion stream. Flagged rows are kept, not
    dropped: they may be real, and the analyst adjudicates.
    """

    account_id: int
    day: date
    count_diff: int
    deletions: int
    stale_suspect: bool

    def __post_init__(self):
        int_field(self.account_id, "account_id", 1)
        date_field(self.day, "day")
        int_field(self.count_diff, "count_diff")
        int_field(self.deletions, "deletions", 0)
        if type(self.stale_suspect) is not bool:
            raise ValueError(f"'stale_suspect' must be a bool, got {self.stale_suspect!r:.40}")

    @property
    def total_posted(self) -> int:
        """The tweets posted that day, ``total_posted(n_prev, n_curr, deletions)``."""
        return self.count_diff + self.deletions


@dataclass(frozen=True, slots=True)
class ViolatorProfile:
    account_id: int
    violation_days: tuple[date, ...]

    @property
    def repeat(self) -> bool:
        """Whether the account violated the limit on two days or more."""
        return len(self.violation_days) >= 2


def detect(
    timelines: Iterable[AccountTimeline],
    limit: int = DEFAULT_DAILY_LIMIT,
    allowlist: Collection[int] = (),
    exclude_stale: bool = False,
) -> list[FloodingViolation]:
    """Find account/days posting over the limit, strict inequality.

    Only day pairs with observable counts on both consecutive days are
    checked; gaps are never extrapolated. Days with no deletion record (the
    account deleted below the inclusion threshold) contribute zero deletions.
    Allow-listed accounts (e.g. partners sanctioned to exceed the limit) are
    suppressed. Output is ordered by (account_id, day).
    """
    check_at_least("limit", limit, 1)
    allowed = set(allowlist)
    violations = []
    for timeline in timelines:
        if timeline.account_id in allowed:
            continue
        deletions = dict(zip(timeline.deletion_days, timeline.deletion_counts))
        counts = timeline.available_counts()
        for (day_prev, n_prev), (day_curr, n_curr) in zip(counts, counts[1:]):
            if (day_curr - day_prev).days != 1:
                continue
            deleted = deletions.get(day_curr, 0)
            total = total_posted(n_prev, n_curr, deleted)
            if total <= limit:
                continue
            diff = n_curr - n_prev
            stale = deleted > limit and diff >= 0
            if exclude_stale and stale:
                continue
            violations.append(
                FloodingViolation(timeline.account_id, day_curr, diff, deleted, stale)
            )
    violations.sort(key=lambda v: (v.account_id, v.day))
    return violations


def profile_violators(
    violations: Iterable[FloodingViolation],
) -> list[ViolatorProfile]:
    """Group violations per account, flagging repeat offenders."""
    days: dict[int, list[date]] = {}
    for violation in violations:
        days.setdefault(violation.account_id, []).append(violation.day)
    return [
        ViolatorProfile(account_id, tuple(sorted(violation_days)))
        for account_id, violation_days in sorted(days.items())
    ]


_CSV_FIELDS = (
    "account_id",
    "day",
    "count_diff",
    "deletions",
    "total_posted",
    "stale_suspect",
)


def write_violations(path, violations: Iterable[FloodingViolation]) -> int:
    rows = ((v.account_id, v.day, v.count_diff, v.deletions, v.total_posted,
             int(v.stale_suspect)) for v in violations)
    return write_csv(path, _CSV_FIELDS, rows)


def _violation_from_row(row: dict[str, str]) -> FloodingViolation:
    stale = row["stale_suspect"]
    if stale not in ("0", "1"):
        raise ValueError(f"'stale_suspect' must be 0 or 1, got {stale!r}")
    account_id = parse_account_id(row["account_id"])
    day = day_field(row["day"], "day")
    count_diff = int_text_field(row["count_diff"], "count_diff")
    deletions = int_text_field(row["deletions"], "deletions")
    total = int_text_field(row["total_posted"], "total_posted")
    violation = FloodingViolation(account_id, day, count_diff, deletions, stale == "1")
    if total != violation.total_posted:
        raise ValueError("total_posted must equal count_diff + deletions")
    return violation


def read_violations(path) -> list[FloodingViolation]:
    return list(read_csv(path, _CSV_FIELDS, _violation_from_row))
