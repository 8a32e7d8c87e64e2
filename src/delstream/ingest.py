"""Aggregation of raw notices into per-account per-day records and timelines.

Day boundaries are UTC midnight. Account-days below the inclusion threshold
are dropped, not zero-filled: downstream estimators treat the resulting holes
as gap intervals. Aggregation output is deterministic regardless of input
order, so sharded runs merge reproducibly.

``aggregate_events`` reads an event file once and builds both the daily
deletion records and the unlike records from the validated fields of each
line, without building notice objects. Only a line in the exact form
``serialize_notice`` writes (``records.NOTICE_LINE``) is read without a full
parse: its fields come from the regex groups and its day from the day group.
Any other line goes through ``parse_notice_fields`` and
``parse_observed_at``, with the same results and errors.
``aggregate_daily`` and ``aggregate_unlikes`` take notices from
``read_notices`` and give the same results; all of them, and
``aggregate_daily_sharded``, threshold their groups through one builder.

The records' wire forms are the ``*_to_dict``/``*_from_dict`` pairs below;
the file framing around them (lines, blank lines, JSON errors with line
numbers) is ``records.read_ndjson`` and ``records.write_ndjson``. A daily
deletion record keeps its tweet IDs, which coordination reads. A timeline
keeps only what ``estimate``, ``detect-flooding`` and ``stats`` read: each
snapshot's day, status and count (``records.SnapshotDay``), the account's
description, and each deletion day's count and ages (``DeletionDay``), and
it reads back as exactly that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterable, Iterator, Sequence

from .records import (
    MIN_TIME_ENCODED_ID,
    SNOWFLAKE_EPOCH_MS,
    AccountSnapshot,
    AccountStatus,
    ComplianceNotice,
    NOTICE_LINE,
    NoticeKind,
    RecordParseError,
    SnapshotDay,
    _NOTICE_KINDS,
    _STATUSES,
    _lines,
    _notice_fields,
    parse_observed_at,
    read_ndjson,
    write_ndjson,
)

#: Account-days with fewer deletions than this are out of scope.
DEFAULT_INCLUSION_THRESHOLD = 10

_DAY_MS = 86_400_000
_UNIX_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


class DuplicateSnapshotError(ValueError):
    """Two snapshots for the same (account, day): corrupt input."""


@dataclass(frozen=True, slots=True)
class DeletionDay:
    """Actual deletions by one account on one UTC day, without the tweet IDs.

    ``deleted_ages_days`` holds the whole-day age of each deleted tweet whose
    ID carries a decodable creation time; undecodable IDs are excluded, so it
    may be shorter than ``deletion_count``. It is sorted.
    """

    account_id: int
    day: date
    deletion_count: int
    deleted_ages_days: tuple[int, ...]

    def __post_init__(self):
        if self.deletion_count < 1:
            raise ValueError("deletion_count must be >= 1")
        if len(self.deleted_ages_days) > self.deletion_count:
            raise ValueError("more ages than deletions")


@dataclass(frozen=True, slots=True)
class DailyDeletionRecord(DeletionDay):
    """A ``DeletionDay`` that keeps the deleted tweet IDs, sorted.

    ``tweet_ids`` serves the coordination graph; the timeline analyses read
    only the ``DeletionDay`` fields.
    """

    tweet_ids: tuple[int, ...]

    def __post_init__(self):
        # Zero-argument super() fails in slots dataclasses before Python 3.14.
        DeletionDay.__post_init__(self)
        if len(self.tweet_ids) != self.deletion_count:
            raise ValueError("tweet_ids must list exactly deletion_count IDs")


@dataclass(frozen=True, slots=True)
class UnlikeRecord:
    """Total unlike notices for one (liker, tweet) pair over the collection."""

    liker_id: int
    tweet_id: int
    unlike_count: int

    def __post_init__(self):
        if self.unlike_count < 1:
            raise ValueError("unlike_count must be >= 1")


@dataclass(frozen=True, slots=True)
class AccountTimeline:
    """Day-ordered snapshots and deletion days for one account.

    ``description`` is the profile description of the last snapshot. Read
    back from ``timelines.ndjson``, the rows are ``SnapshotDay``s and
    ``DeletionDay``s; ``build_timelines`` keeps the full records.
    """

    account_id: int
    snapshots: tuple[SnapshotDay, ...]
    deletion_days: tuple[DeletionDay, ...]
    description: str = ""

    def __post_init__(self):
        for seq, day_of in (
            (self.snapshots, lambda s: s.snapshot_day),
            (self.deletion_days, lambda r: r.day),
        ):
            days = [day_of(item) for item in seq]
            if any(b <= a for a, b in zip(days, days[1:])):
                raise ValueError("timeline days must be strictly increasing")

    def available_counts(self) -> tuple[tuple[date, int], ...]:
        """(day, tweet count) pairs for days the count was observable."""
        return tuple(
            (s.snapshot_day, s.statuses_count)
            for s in self.snapshots
            if s.status is AccountStatus.ACTIVE and s.statuses_count is not None
        )

    def deletions_by_day(self) -> dict[date, int]:
        return {r.day: r.deletion_count for r in self.deletion_days}

    def final_status(self) -> AccountStatus | None:
        return self.snapshots[-1].status if self.snapshots else None


def _check_threshold(threshold: int) -> None:
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")


def _group_deletions(
    notices: Iterable[ComplianceNotice],
) -> dict[tuple[int, int], list[int]]:
    """Deleted tweet IDs by (account, UTC day ordinal), before any threshold."""
    groups: dict[tuple[int, int], list[int]] = {}
    tweet_delete = NoticeKind.TWEET_DELETE
    for notice in notices:
        if notice.kind is not tweet_delete:
            continue
        key = (notice.actor_id, notice.observed_at.toordinal())
        ids = groups.get(key)
        if ids is None:
            groups[key] = [notice.object_id]
        else:
            ids.append(notice.object_id)
    return groups


def _daily_records(
    groups: dict[tuple[int, int], list[int]], threshold: int
) -> list[DailyDeletionRecord]:
    """Records for the groups of at least ``threshold`` deletions, sorted.

    Sorts the ID lists of the kept groups in place.
    """
    records = []
    for (account_id, ordinal), ids in groups.items():
        if len(ids) < threshold:
            continue
        day_start_ms = (ordinal - _UNIX_EPOCH_ORDINAL) * _DAY_MS
        ages = []
        for tweet_id in ids:
            if tweet_id < MIN_TIME_ENCODED_ID:
                continue
            age = (day_start_ms - SNOWFLAKE_EPOCH_MS - (tweet_id >> 22)) // _DAY_MS
            ages.append(age if age > 0 else 0)
        ids.sort()
        ages.sort()
        records.append(
            DailyDeletionRecord(
                account_id,
                date.fromordinal(ordinal),
                len(ids),
                tuple(ages),
                tuple(ids),
            )
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

    Tweet ages are measured in whole days from the start of the deletion day
    to the ID-encoded creation time, clamped at zero; undecodable IDs
    contribute to the count but not to the age multiset. Output is sorted by
    (account_id, day) and independent of input order.
    """
    _check_threshold(threshold)
    return _daily_records(_group_deletions(notices), threshold)


def aggregate_daily_sharded(
    shard_sources: Sequence[Callable[[], Iterable[ComplianceNotice]]],
    threshold: int = DEFAULT_INCLUSION_THRESHOLD,
    processes: int | None = None,
) -> list[DailyDeletionRecord]:
    """Group account-disjoint shards in worker processes, merge, then threshold.

    Each source is a picklable zero-argument callable returning an iterable
    of notices. All notices for a given account-day must come from a single
    source (shard by account_id hash). Workers return their groups before
    any threshold is applied, so the parent sees every account-day of every
    shard: one found in more than one shard raises ValueError, whatever its
    counts. The result equals ``aggregate_daily`` over all the notices.
    """
    from multiprocessing import get_context

    _check_threshold(threshold)
    sources = list(shard_sources)
    if not sources:
        return []
    if processes is None:
        processes = min(len(sources), os.cpu_count() or 1)
    if processes <= 1 or len(sources) == 1:
        groups = _merge_disjoint(map(_group_shard, sources))
    else:
        # imap so the parent merges finished shards while others run
        with get_context().Pool(processes) as pool:
            groups = _merge_disjoint(pool.imap(_group_shard, sources))
    return _daily_records(groups, threshold)


def _group_shard(source) -> dict[tuple[int, int], list[int]]:
    return _group_deletions(source())


def _merge_disjoint(
    parts: Iterable[dict[tuple[int, int], list[int]]],
) -> dict[tuple[int, int], list[int]]:
    groups: dict[tuple[int, int], list[int]] = {}
    for part in parts:
        for key, ids in part.items():
            if key in groups:
                account_id, ordinal = key
                raise ValueError(
                    f"shards are not account-disjoint: account {account_id} "
                    f"day {date.fromordinal(ordinal)}"
                )
            groups[key] = ids
    return groups


def aggregate_unlikes(notices: Iterable[ComplianceNotice]) -> list[UnlikeRecord]:
    """Total unlike count per (liker, tweet) pair, sorted by the pair."""
    counts: dict[tuple[int, int], int] = {}
    unlike = NoticeKind.UNLIKE
    for notice in notices:
        if notice.kind is not unlike:
            continue
        key = (notice.actor_id, notice.object_id)
        counts[key] = counts.get(key, 0) + 1
    return _unlike_records(counts)


def aggregate_events(
    path, threshold: int = DEFAULT_INCLUSION_THRESHOLD
) -> tuple[list[DailyDeletionRecord], list[UnlikeRecord]]:
    """``aggregate_daily`` and ``aggregate_unlikes`` over an event file, in one pass.

    Equal to ``(aggregate_daily(read_notices(path), threshold),
    aggregate_unlikes(read_notices(path)))``, with the same errors, but
    builds no notice objects. A line that fully matches ``NOTICE_LINE`` is
    read from its groups without a JSON decode and bucketed by its day group,
    the first stamp of each distinct day parsed in full; any other line goes
    through ``parse_notice_fields`` and ``parse_observed_at``.
    """
    _check_threshold(threshold)
    groups: dict[tuple[int, int], list[int]] = {}
    counts: dict[tuple[int, int], int] = {}
    day_ordinals: dict[str, int] = {}
    exact = NOTICE_LINE.fullmatch
    kinds = _NOTICE_KINDS
    tweet_delete = NoticeKind.TWEET_DELETE
    unlike = NoticeKind.UNLIKE
    for number, line in _lines(path):
        match = exact(line)
        if match is not None:
            kind, actor_id, object_id, observed, day = match.groups()
            kind = kinds[kind]
            actor_id = int(actor_id)
            object_id = int(object_id)
            ordinal = day_ordinals.get(day)
            if ordinal is None:
                ordinal = parse_observed_at(observed, number).toordinal()
                day_ordinals[day] = ordinal
        else:
            fields = _notice_fields(line, number)
            if fields is None:
                continue
            kind, actor_id, object_id, observed = fields
            ordinal = parse_observed_at(observed, number).toordinal()
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
    return _daily_records(groups, threshold), _unlike_records(counts)


def build_timelines(
    snapshots: Iterable[AccountSnapshot],
    daily_records: Iterable[DailyDeletionRecord],
) -> list[AccountTimeline]:
    """Outer-join snapshots and deletion records into per-account timelines.

    Accounts with any deleted-status snapshot are excluded entirely (their
    deletions are platform-driven teardown, not behavior). Duplicate
    (account, day) snapshots are corrupt input and raise.
    """
    snaps_by_account: dict[int, dict[date, AccountSnapshot]] = {}
    removed: set[int] = set()
    for snapshot in snapshots:
        per_account = snaps_by_account.setdefault(snapshot.account_id, {})
        if snapshot.snapshot_day in per_account:
            raise DuplicateSnapshotError(
                f"duplicate snapshot for account {snapshot.account_id} "
                f"on {snapshot.snapshot_day}"
            )
        per_account[snapshot.snapshot_day] = snapshot
        if snapshot.status is AccountStatus.DELETED:
            removed.add(snapshot.account_id)

    records_by_account: dict[int, dict[date, DailyDeletionRecord]] = {}
    for record in daily_records:
        per_account = records_by_account.setdefault(record.account_id, {})
        if record.day in per_account:
            raise ValueError(
                f"duplicate deletion record for account {record.account_id} "
                f"on {record.day}"
            )
        per_account[record.day] = record

    timelines = []
    for account_id in sorted(set(snaps_by_account) | set(records_by_account)):
        if account_id in removed:
            continue
        snaps = snaps_by_account.get(account_id, {})
        records = records_by_account.get(account_id, {})
        ordered = tuple(snaps[d] for d in sorted(snaps))
        timelines.append(
            AccountTimeline(
                account_id,
                ordered,
                tuple(records[d] for d in sorted(records)),
                ordered[-1].description if ordered else "",
            )
        )
    return timelines


# -- wire forms -------------------------------------------------------------


def daily_record_to_dict(record: DailyDeletionRecord) -> dict:
    return {
        "account_id": record.account_id,
        "day": record.day.isoformat(),
        "deletion_count": record.deletion_count,
        "deleted_ages_days": list(record.deleted_ages_days),
        "tweet_ids": list(record.tweet_ids),
    }


def _int(raw: dict, key: str) -> int:
    value = raw[key]
    if type(value) is not int:  # JSON true/false load as bool
        raise TypeError(f"{key!r} must be an integer, got {type(value).__name__}")
    return value


def _ints(raw: dict, key: str) -> tuple[int, ...]:
    values = tuple(raw[key])
    if not set(map(type, values)) <= {int}:
        raise TypeError(f"{key!r} must hold only integers")
    return values


def daily_record_from_dict(raw: dict, line_number: int = 0) -> DailyDeletionRecord:
    try:
        return DailyDeletionRecord(
            _int(raw, "account_id"),
            date.fromisoformat(raw["day"]),
            _int(raw, "deletion_count"),
            _ints(raw, "deleted_ages_days"),
            _ints(raw, "tweet_ids"),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise RecordParseError(f"bad deletion record: {err}", line_number) from None


def unlike_record_to_dict(record: UnlikeRecord) -> dict:
    return {
        "liker_id": record.liker_id,
        "tweet_id": record.tweet_id,
        "unlike_count": record.unlike_count,
    }


def unlike_record_from_dict(raw: dict, line_number: int = 0) -> UnlikeRecord:
    try:
        return UnlikeRecord(
            _int(raw, "liker_id"), _int(raw, "tweet_id"), _int(raw, "unlike_count")
        )
    except (KeyError, TypeError, ValueError) as err:
        raise RecordParseError(f"bad unlike record: {err}", line_number) from None


def timeline_to_dict(timeline: AccountTimeline) -> dict:
    """The timeline as the analysis stages read it.

    ``snapshots`` rows are ``[day, status, statuses_count]`` and
    ``deletion_days`` rows are ``[day, deletion_count, deleted_ages_days]``.
    Tweet IDs, snapshot timestamps and earlier descriptions are not written.
    """
    return {
        "account_id": timeline.account_id,
        "snapshots": [
            [s.snapshot_day.isoformat(), s.status.value, s.statuses_count]
            for s in timeline.snapshots
        ],
        "description": timeline.description,
        "deletion_days": [
            [r.day.isoformat(), r.deletion_count, r.deleted_ages_days]
            for r in timeline.deletion_days
        ],
    }


def _rows(raw: dict, key: str) -> list[list]:
    rows = raw[key]
    if type(rows) is not list or not all(
        type(row) is list and len(row) == 3 for row in rows
    ):
        raise TypeError(f"{key!r} must be a list of three-item lists")
    return rows


def timeline_from_dict(raw: dict, line_number: int = 0) -> AccountTimeline:
    """Read ``timeline_to_dict``'s form back.

    Snapshots are ``SnapshotDay`` rows and deletion days ``DeletionDay``s,
    without tweet IDs; the description is the timeline's.
    """
    try:
        if type(raw) is not dict:
            raise TypeError("record must be a JSON object")
        account_id = _int(raw, "account_id")
        snapshot_rows = _rows(raw, "snapshots")
        description = raw.get("description", "")
        if type(description) is not str:
            raise TypeError("'description' must be a string")
        if description and not snapshot_rows:
            raise ValueError("a description without snapshots")
        snapshots = []
        for day, status_raw, count in snapshot_rows:
            if count is not None and type(count) is not int:
                raise TypeError("'statuses_count' must be an integer or null")
            status = _STATUSES.get(status_raw) if type(status_raw) is str else None
            if status is None:
                raise ValueError(f"unknown status {status_raw!r}")
            snapshots.append(
                SnapshotDay(account_id, date.fromisoformat(day), count, status)
            )
        deletion_days = []
        for day, count, ages in _rows(raw, "deletion_days"):
            if type(count) is not int:
                raise TypeError("'deletion_count' must be an integer")
            if type(ages) is not list or not set(map(type, ages)) <= {int}:
                raise TypeError("'deleted_ages_days' must be a list of integers")
            deletion_days.append(
                DeletionDay(account_id, date.fromisoformat(day), count, tuple(ages))
            )
        return AccountTimeline(
            account_id, tuple(snapshots), tuple(deletion_days), description
        )
    except (KeyError, TypeError, ValueError) as err:
        raise RecordParseError(f"bad timeline: {err}", line_number) from None


def write_daily_records(path, records) -> int:
    return write_ndjson(path, records, daily_record_to_dict)


def read_daily_records(path) -> Iterator[DailyDeletionRecord]:
    return read_ndjson(path, daily_record_from_dict)


def write_unlike_records(path, records) -> int:
    return write_ndjson(path, records, unlike_record_to_dict)


def read_unlike_records(path) -> Iterator[UnlikeRecord]:
    return read_ndjson(path, unlike_record_from_dict)


def write_timelines(path, timelines) -> int:
    return write_ndjson(path, timelines, timeline_to_dict)


def read_timelines(path) -> Iterator[AccountTimeline]:
    return read_ndjson(path, timeline_from_dict)
