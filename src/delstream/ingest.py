"""Aggregation of raw notices into per-account per-day records and timelines.

Day boundaries are UTC midnight. Account-days below the inclusion threshold
are dropped, not zero-filled: downstream estimators treat the resulting holes
as gap intervals. Aggregation output is deterministic regardless of input
order, so sharded runs merge reproducibly.

``aggregate_events``, ``aggregate_daily``, ``aggregate_unlikes`` and the
workers of ``aggregate_daily_sharded`` group (kind, actor_id, object_id, UTC
day ordinal) rows in one loop: from ``records.notice_rows`` for an event
file, from notices otherwise. One builder thresholds and sorts the deletion
groups, so a sharded run equals a single one for any partition.

The records' wire forms are the ``*_to_dict``/``*_from_dict`` pairs below.
Each ``*_from_dict`` converts only what JSON cannot hold (a day's text to a
``date``, a status to its enum) and passes every other value to the
record's constructor, which checks each field with the ``records`` field
checks (every ID positive, every age at least 0); the decoder raises without
a line number, which the file framing, ``records.read_ndjson``, adds. As
every record's constructor refuses what its reader refuses, any record built
is written in a line its reader accepts. A daily deletion record holds its
account, day and tweet IDs, which coordination reads; only
``build_timelines`` derives tweet ages from the IDs, by
``records.ages_in_days``. A timeline keeps only what ``estimate``,
``detect-flooding`` and ``stats`` read, built or read back: each snapshot's
day, status and count as three parallel columns, the account's description,
and each deletion day's day, count and ages as three more. The intermediate
files are sorted: timelines by account, daily records by (account, day),
unlike records by (liker, tweet). Each reader refuses a repeated or
out-of-order line, and each writer refuses, before it opens its file, a
list its reader would refuse, with the reader's message and line.
``build_timelines`` raises ValueError for a repeated snapshot or deletion
record of one (account, day).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterable, Iterator, Sequence

from .records import (
    AccountSnapshot,
    AccountStatus,
    ComplianceNotice,
    NoticeKind,
    RecordParseError,
    ages_in_days,
    check_at_least,
    check_order,
    date_field,
    day_field,
    int_field,
    int_list_field,
    json_object,
    notice_rows,
    read_ndjson,
    snapshot_row,
    status_field,
    str_field,
    write_ndjson,
)

#: Account-days with fewer deletions than this are out of scope.
DEFAULT_INCLUSION_THRESHOLD = 10


@dataclass(frozen=True, slots=True)
class DailyDeletionRecord:
    """The tweets one account deleted on one UTC day, by ID, sorted.

    ``tweet_ids`` serves the coordination graph; ``build_timelines`` turns
    the record into a timeline's deletion count and ages.
    """

    account_id: int
    day: date
    tweet_ids: tuple[int, ...]

    def __post_init__(self):
        int_field(self.account_id, "account_id", 1)
        date_field(self.day, "day")
        ids = int_list_field(self.tweet_ids, "tweet_ids", 1)
        if not ids:
            raise ValueError("tweet_ids must not be empty")
        object.__setattr__(self, "tweet_ids", ids)

    @property
    def deletion_count(self) -> int:
        return len(self.tweet_ids)


@dataclass(frozen=True, slots=True)
class UnlikeRecord:
    """Total unlike notices for one (liker, tweet) pair over the collection."""

    liker_id: int
    tweet_id: int
    unlike_count: int

    def __post_init__(self):
        int_field(self.liker_id, "liker_id", 1)
        int_field(self.tweet_id, "tweet_id", 1)
        int_field(self.unlike_count, "unlike_count", 1)


@dataclass(frozen=True, slots=True)
class AccountTimeline:
    """One account's snapshots and deletion days, each in day order.

    The snapshots are three parallel columns: ``snapshot_days``, ``statuses``
    and ``statuses_counts``. ``description`` is the last snapshot's, so it is
    empty without snapshots. The deletion days are three more:
    ``deletion_days``, ``deletion_counts`` (each at least 1) and
    ``deleted_ages_days``, one tuple per day of the whole-day age of each
    deleted tweet whose ID carries a decodable creation time. Undecodable IDs
    have no age, so a day may hold fewer ages than deletions, never more.
    ``build_timelines`` sorts each day's ages; the reader does not check
    their order, and no analysis relies on it.
    """

    account_id: int
    snapshot_days: tuple[date, ...] = ()
    statuses: tuple[AccountStatus, ...] = ()
    statuses_counts: tuple[int | None, ...] = ()
    deletion_days: tuple[date, ...] = ()
    deletion_counts: tuple[int, ...] = ()
    deleted_ages_days: tuple[tuple[int, ...], ...] = ()
    description: str = ""

    def __post_init__(self):
        for name in ("snapshot_days", "statuses", "statuses_counts", "deletion_days",
                     "deletion_counts", "deleted_ages_days"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        int_field(self.account_id, "account_id", 1)
        if not len(self.snapshot_days) == len(self.statuses) == len(self.statuses_counts):
            raise ValueError("the snapshot columns differ in length")
        deletions = (self.deletion_days, self.deletion_counts, self.deleted_ages_days)
        if len(set(map(len, deletions))) > 1:
            raise ValueError("the deletion columns differ in length")
        ages = []
        for day, count, day_ages in zip(*deletions):
            date_field(day, "day")
            int_field(count, "deletion_count", 1)
            day_ages = int_list_field(day_ages, "deleted_ages_days", 0)
            if len(day_ages) > count:
                raise ValueError("more ages than deletions")
            ages.append(day_ages)
        object.__setattr__(self, "deleted_ages_days", tuple(ages))
        if str_field(self.description, "description") and not self.snapshot_days:
            raise ValueError("a description without snapshots")
        for row in zip(self.snapshot_days, self.statuses, self.statuses_counts):
            snapshot_row(*row)
        for days in (self.snapshot_days, self.deletion_days):
            if any(b <= a for a, b in zip(days, days[1:])):
                raise ValueError("timeline days must be strictly increasing")

    def available_counts(self) -> tuple[tuple[date, int], ...]:
        """(day, tweet count) pairs for days the count was observable."""
        return tuple(
            (day, count)
            for day, status, count in zip(self.snapshot_days, self.statuses, self.statuses_counts)
            if status is AccountStatus.ACTIVE
        )

    def final_status(self) -> AccountStatus | None:
        return self.statuses[-1] if self.statuses else None


def _group(
    rows: Iterable[tuple[NoticeKind, int, int, int]],
) -> tuple[dict[tuple[int, int], list[int]], dict[tuple[int, int], int]]:
    """Deleted tweet IDs by (account, UTC day ordinal) and unlike counts by
    (liker, tweet) of (kind, actor_id, object_id, day ordinal) rows."""
    groups: dict[tuple[int, int], list[int]] = {}
    counts: dict[tuple[int, int], int] = {}
    tweet_delete = NoticeKind.TWEET_DELETE
    unlike = NoticeKind.UNLIKE
    for kind, actor_id, object_id, ordinal in rows:
        if kind is tweet_delete:
            key = (actor_id, ordinal)
            ids = groups.get(key)
            if ids is None:
                groups[key] = [object_id]
            else:
                ids.append(object_id)
        elif kind is unlike:
            key = (actor_id, object_id)
            counts[key] = counts.get(key, 0) + 1
    return groups, counts


def _notice_rows(
    notices: Iterable[ComplianceNotice],
) -> Iterator[tuple[NoticeKind, int, int, int]]:
    return ((n.kind, n.actor_id, n.object_id, n.observed_at.toordinal()) for n in notices)


def _daily_records(
    groups: dict[tuple[int, int], list[int]], threshold: int
) -> list[DailyDeletionRecord]:
    """Records for the groups of at least ``threshold`` deletions, sorted;
    sorts the ID lists of the kept groups in place."""
    records = []
    for (account_id, ordinal), ids in groups.items():
        if len(ids) >= threshold:
            ids.sort()
            records.append(
                DailyDeletionRecord(account_id, date.fromordinal(ordinal), tuple(ids))
            )
    records.sort(key=lambda r: (r.account_id, r.day))
    return records


def _unlike_records(counts: dict[tuple[int, int], int]) -> list[UnlikeRecord]:
    return [
        UnlikeRecord(liker_id, tweet_id, count)
        for (liker_id, tweet_id), count in sorted(counts.items())
    ]


def aggregate_daily(
    notices: Iterable[ComplianceNotice],
    threshold: int = DEFAULT_INCLUSION_THRESHOLD,
) -> list[DailyDeletionRecord]:
    """Group deletion notices by (account, UTC day), keeping days >= threshold.

    Output is sorted by (account_id, day) and independent of input order.
    """
    check_at_least("threshold", threshold, 1)
    return _daily_records(_group(_notice_rows(notices))[0], threshold)


def aggregate_daily_sharded(
    shard_sources: Sequence[Callable[[], Iterable[ComplianceNotice]]],
    threshold: int = DEFAULT_INCLUSION_THRESHOLD,
    processes: int | None = None,
) -> list[DailyDeletionRecord]:
    """Group shards in worker processes, merge, then threshold.

    Each source is a picklable zero-argument callable returning an iterable
    of notices, split from the others in any way. Workers group without a
    threshold and the parent concatenates each account-day's IDs, so the
    result equals ``aggregate_daily`` over all the notices.
    """
    from multiprocessing import get_context

    check_at_least("threshold", threshold, 1)
    sources = list(shard_sources)
    if not sources:
        return []
    if processes is None:
        processes = min(len(sources), os.cpu_count() or 1)
    if processes <= 1 or len(sources) == 1:
        groups = _merge(map(_group_shard, sources))
    else:
        # imap so the parent merges finished shards while others run
        with get_context().Pool(processes) as pool:
            groups = _merge(pool.imap(_group_shard, sources))
    return _daily_records(groups, threshold)


def _group_shard(source) -> dict[tuple[int, int], list[int]]:
    return _group(_notice_rows(source()))[0]


def _merge(
    parts: Iterable[dict[tuple[int, int], list[int]]],
) -> dict[tuple[int, int], list[int]]:
    """Each account-day's deleted tweet IDs from every part, concatenated."""
    groups: dict[tuple[int, int], list[int]] = {}
    for part in parts:
        for key, ids in part.items():
            groups.setdefault(key, []).extend(ids)
    return groups


def aggregate_unlikes(notices: Iterable[ComplianceNotice]) -> list[UnlikeRecord]:
    """Total unlike count per (liker, tweet) pair, sorted by the pair."""
    return _unlike_records(_group(_notice_rows(notices))[1])


def aggregate_events(
    path, threshold: int = DEFAULT_INCLUSION_THRESHOLD
) -> tuple[list[DailyDeletionRecord], list[UnlikeRecord]]:
    """``aggregate_daily`` and ``aggregate_unlikes`` over an event file, in one pass.

    Equal to ``(aggregate_daily(read_notices(path), threshold),
    aggregate_unlikes(read_notices(path)))``, with the same errors, but
    builds no notice objects: it groups ``records.notice_rows(path)``.
    """
    check_at_least("threshold", threshold, 1)
    groups, counts = _group(notice_rows(path))
    return _daily_records(groups, threshold), _unlike_records(counts)


def build_timelines(
    snapshots: Iterable[AccountSnapshot],
    daily_records: Iterable[DailyDeletionRecord],
) -> list[AccountTimeline]:
    """Outer-join snapshots and deletion records into per-account timelines.

    A record's ages are ``records.ages_in_days`` of its day and tweet IDs.
    Accounts with any deleted-status snapshot are excluded entirely (their
    deletions are platform-driven teardown, not behavior). Duplicate
    (account, day) snapshots or records are corrupt input and raise.
    """
    snaps_by_account: dict[int, dict[date, AccountSnapshot]] = {}
    removed: set[int] = set()
    for snapshot in snapshots:
        per_account = snaps_by_account.setdefault(snapshot.account_id, {})
        if snapshot.snapshot_day in per_account:
            raise ValueError(
                f"duplicate snapshot for account {snapshot.account_id} "
                f"on {snapshot.snapshot_day}"
            )
        per_account[snapshot.snapshot_day] = snapshot
        if snapshot.status is AccountStatus.DELETED:
            removed.add(snapshot.account_id)

    ids_by_account: dict[int, dict[date, tuple[int, ...]]] = {}
    for record in daily_records:
        per_account = ids_by_account.setdefault(record.account_id, {})
        if record.day in per_account:
            raise ValueError(
                f"duplicate deletion record for account {record.account_id} on {record.day}"
            )
        per_account[record.day] = record.tweet_ids

    timelines = []
    for account_id in sorted(set(snaps_by_account) | set(ids_by_account)):
        if account_id in removed:
            continue
        # popped, so each account's day dicts are freed as its timeline is built
        snaps = snaps_by_account.pop(account_id, {})
        ids = ids_by_account.pop(account_id, {})
        snapshot_days = sorted(snaps)
        ordered = [snaps[d] for d in snapshot_days]
        deletion_days = sorted(ids)
        timelines.append(
            AccountTimeline(
                account_id,
                snapshot_days,
                [s.status for s in ordered],
                [s.statuses_count for s in ordered],
                deletion_days,
                [len(ids[d]) for d in deletion_days],
                [ages_in_days(d, ids[d]) for d in deletion_days],
                ordered[-1].description if ordered else "",
            )
        )
    return timelines


# -- wire forms -------------------------------------------------------------


def daily_record_to_dict(record: DailyDeletionRecord) -> dict:
    return {
        "account_id": record.account_id,
        "day": record.day.isoformat(),
        "tweet_ids": list(record.tweet_ids),
    }


def daily_record_from_dict(raw: dict) -> DailyDeletionRecord:
    """Read ``daily_record_to_dict``'s form back, ignoring other keys, such
    as the ``deletion_count`` and ``deleted_ages_days`` earlier runs wrote."""
    try:
        raw = json_object(raw)
        return DailyDeletionRecord(
            raw.get("account_id"), day_field(raw.get("day"), "day"), raw.get("tweet_ids")
        )
    except ValueError as err:
        raise RecordParseError(f"bad deletion record: {err}") from None


def unlike_record_to_dict(record: UnlikeRecord) -> dict:
    return {
        "liker_id": record.liker_id,
        "tweet_id": record.tweet_id,
        "unlike_count": record.unlike_count,
    }


def unlike_record_from_dict(raw: dict) -> UnlikeRecord:
    try:
        raw = json_object(raw)
        return UnlikeRecord(raw.get("liker_id"), raw.get("tweet_id"), raw.get("unlike_count"))
    except ValueError as err:
        raise RecordParseError(f"bad unlike record: {err}") from None


def timeline_to_dict(timeline: AccountTimeline) -> dict:
    """The timeline as the analysis stages read it.

    ``snapshots`` rows are ``[day, status, statuses_count]`` and
    ``deletion_days`` rows are ``[day, deletion_count, deleted_ages_days]``,
    each row one day of the columns.
    """
    return {
        "account_id": timeline.account_id,
        "snapshots": [
            [day.isoformat(), status.value, count] for day, status, count
            in zip(timeline.snapshot_days, timeline.statuses, timeline.statuses_counts)
        ],
        "description": timeline.description,
        "deletion_days": [
            [day.isoformat(), count, ages] for day, count, ages
            in zip(timeline.deletion_days, timeline.deletion_counts, timeline.deleted_ages_days)
        ],
    }


def _rows(raw: dict, key: str) -> list[list]:
    rows = raw.get(key)
    if type(rows) is not list or not all(
        type(row) is list and len(row) == 3 for row in rows
    ):
        raise RecordParseError(f"{key!r} must be a list of three-item lists")
    return rows


def timeline_from_dict(raw: dict) -> AccountTimeline:
    """Read ``timeline_to_dict``'s form back, the rows as columns."""
    try:
        raw = json_object(raw)
        snapshots = _rows(raw, "snapshots")
        deletions = _rows(raw, "deletion_days")
        deletion_days = [day_field(row[0], "day") for row in deletions]
        return AccountTimeline(
            raw.get("account_id"),
            [day_field(row[0], "snapshot_day") for row in snapshots],
            [status_field(row[1]) for row in snapshots],
            [row[2] for row in snapshots],
            deletion_days,
            [row[1] for row in deletions],
            [row[2] for row in deletions],
            raw.get("description", ""),
        )
    except ValueError as err:
        raise RecordParseError(f"bad timeline: {err}") from None


#: The sort key of each intermediate file, by field name.
_DAILY_KEY = ("account_id", "day")
_UNLIKE_KEY = ("liker_id", "tweet_id")
_TIMELINE_KEY = ("account_id",)


def write_daily_records(path, records) -> int:
    return write_ndjson(path, check_order(records, _DAILY_KEY), daily_record_to_dict)


def read_daily_records(path) -> Iterator[DailyDeletionRecord]:
    return read_ndjson(path, daily_record_from_dict, _DAILY_KEY)


def write_unlike_records(path, records) -> int:
    return write_ndjson(path, check_order(records, _UNLIKE_KEY), unlike_record_to_dict)


def read_unlike_records(path) -> Iterator[UnlikeRecord]:
    return read_ndjson(path, unlike_record_from_dict, _UNLIKE_KEY)


def write_timelines(path, timelines) -> int:
    return write_ndjson(path, check_order(timelines, _TIMELINE_KEY), timeline_to_dict)


def read_timelines(path) -> Iterator[AccountTimeline]:
    return read_ndjson(path, timeline_from_dict, _TIMELINE_KEY)
