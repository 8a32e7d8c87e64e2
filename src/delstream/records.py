"""Canonical event and snapshot records, their wire forms, and ID-to-time decoding.

All timestamps are normalized to UTC at parse time; day arithmetic elsewhere
in the package assumes UTC calendar days. Records are immutable once built and
safe to share across threads.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import Iterable, Iterator

logger = logging.getLogger(__name__)

#: Millisecond epoch base of the time-encoding tweet ID scheme
#: (2010-11-04T01:42:54.657Z).
SNOWFLAKE_EPOCH_MS = 1288834974657

#: Smallest ID carrying a usable timestamp field. Values below this sit in the
#: range used by the older sequential scheme and are reported undecodable.
MIN_TIME_ENCODED_ID = 1 << 22

_UTC = timezone.utc
_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=_UTC)
_ONE_MS = timedelta(milliseconds=1)


class NoticeKind(str, Enum):
    TWEET_DELETE = "tweet_delete"
    UNLIKE = "unlike"


#: NoticeKind by value; a dict lookup is several times cheaper per line than
#: the enum's constructor.
_NOTICE_KINDS = {kind.value: kind for kind in NoticeKind}


class AccountStatus(str, Enum):
    ACTIVE = "active"
    SUSPENDED = "suspended"
    DELETED = "deleted"


class RecordParseError(ValueError):
    """A malformed input record; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int = 0):
        super().__init__(message)
        self.line_number = line_number

    def __str__(self) -> str:
        base = super().__str__()
        if self.line_number:
            return f"line {self.line_number}: {base}"
        return base


class UnknownKindError(RecordParseError):
    """Event kind outside the supported set; readers skip these with a warning."""


def ms_to_datetime(ms: int) -> datetime:
    """UTC datetime for a millisecond Unix timestamp (exact, no float round-off)."""
    return _UNIX_EPOCH + timedelta(milliseconds=ms)


def datetime_to_ms(dt: datetime) -> int:
    return (dt - _UNIX_EPOCH) // _ONE_MS


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC.

    Raises ValueError for a malformed value and for one whose UTC time falls
    outside the datetime range (``0001-01-01T00:30:00+01:00``).
    """
    dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        return dt.replace(tzinfo=_UTC)
    try:
        return dt.astimezone(_UTC)
    except OverflowError:
        raise ValueError(f"timestamp out of range in UTC: {value!r}") from None


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(_UTC).isoformat().replace("+00:00", "Z")


#: The form ``format_timestamp`` writes: a UTC time with an optional
#: microsecond fraction. Its UTC day is its first ten characters.
CANONICAL_TIMESTAMP = re.compile(
    r"\d{4}-\d\d-\d\dT(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d(?:\.\d{6})?Z", re.ASCII
)


@dataclass(frozen=True, slots=True)
class ComplianceNotice:
    """One deletion or unlike event as carried on the stream.

    For tweet deletions the actor is the tweet's author; for unlikes it is
    the account that had liked the tweet.
    """

    kind: NoticeKind
    actor_id: int
    object_id: int
    observed_at: datetime

    def __post_init__(self):
        if not isinstance(self.kind, NoticeKind):
            object.__setattr__(self, "kind", NoticeKind(self.kind))
        if self.actor_id <= 0:
            raise ValueError(f"actor_id must be positive, got {self.actor_id}")
        if self.object_id <= 0:
            raise ValueError(f"object_id must be positive, got {self.object_id}")
        ts = self.observed_at
        if ts.tzinfo is None:
            raise ValueError("observed_at must be timezone-aware")
        if ts.utcoffset():
            object.__setattr__(self, "observed_at", ts.astimezone(_UTC))


@dataclass(frozen=True, slots=True)
class AccountSnapshot:
    """Daily user-object observation joined to the deletion stream.

    ``statuses_count`` may be None only for accounts that were not active at
    query time (the count is then unavailable, not zero). ``queried_at``
    records when the user object was actually fetched; it can trail the
    snapshot day by a few hours, so downstream count arithmetic is
    approximate by construction.
    """

    account_id: int
    snapshot_day: date
    statuses_count: int | None
    status: AccountStatus
    description: str = ""
    created_at: datetime | None = None
    queried_at: datetime | None = None

    def __post_init__(self):
        if not isinstance(self.status, AccountStatus):
            object.__setattr__(self, "status", AccountStatus(self.status))
        if self.account_id <= 0:
            raise ValueError(f"account_id must be positive, got {self.account_id}")
        if self.statuses_count is None:
            if self.status is AccountStatus.ACTIVE:
                raise ValueError("active snapshots must carry a tweet count")
        elif self.statuses_count < 0:
            raise ValueError(f"statuses_count must be >= 0, got {self.statuses_count}")


@dataclass(frozen=True, slots=True)
class TweetCreationTime:
    tweet_id: int
    created_at: datetime | None

    @property
    def decodable(self) -> bool:
        return self.created_at is not None


def creation_ms(tweet_id: int) -> int | None:
    """Millisecond creation time encoded in a tweet ID, or None if undecodable."""
    if tweet_id < MIN_TIME_ENCODED_ID:
        return None
    return SNOWFLAKE_EPOCH_MS + (tweet_id >> 22)


def decode_creation_time(tweet_id: int) -> TweetCreationTime:
    """Decode the creation timestamp embedded in a time-encoded tweet ID.

    The top bits hold a millisecond offset from the scheme's epoch base,
    shifted left by 22 bits of worker/sequence data. IDs below the scheme's
    range decode to an undecodable result, never an error.
    """
    ms = creation_ms(tweet_id)
    return TweetCreationTime(tweet_id, None if ms is None else ms_to_datetime(ms))


def _require_id(raw: dict, key: str, line_number: int) -> int:
    value = raw.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecordParseError(f"missing or non-integer {key!r}", line_number)
    if value <= 0:
        raise RecordParseError(f"{key!r} must be positive, got {value}", line_number)
    return value


def parse_notice_fields(
    line: str, line_number: int = 0
) -> tuple[NoticeKind, int, int, str]:
    """Decode and check one serialized event record, all but its timestamp.

    Returns (kind, actor_id, object_id, observed_at text); pass the text to
    ``parse_observed_at``. Unknown extra fields are ignored. Raises
    RecordParseError for malformed records and UnknownKindError (a subclass)
    for records whose kind is outside the supported set.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as err:
        raise RecordParseError(f"invalid JSON: {err}", line_number) from None
    if not isinstance(raw, dict):
        raise RecordParseError("record must be a JSON object", line_number)

    kind_raw = raw.get("kind")
    if not isinstance(kind_raw, str):
        raise RecordParseError("missing or non-string 'kind'", line_number)
    kind = _NOTICE_KINDS.get(kind_raw)
    if kind is None:
        raise UnknownKindError(f"unknown kind {kind_raw!r}", line_number)

    actor_id = _require_id(raw, "actor_id", line_number)
    object_id = _require_id(raw, "object_id", line_number)

    observed_raw = raw.get("observed_at")
    if not isinstance(observed_raw, str):
        raise RecordParseError("missing or non-string 'observed_at'", line_number)
    return kind, actor_id, object_id, observed_raw


def parse_observed_at(value: str, line_number: int = 0) -> datetime:
    """``parse_timestamp`` for an event's ``observed_at``, as a RecordParseError."""
    try:
        return parse_timestamp(value)
    except ValueError:
        raise RecordParseError(f"bad timestamp {value!r}", line_number) from None


def parse_notice(line: str, line_number: int = 0) -> ComplianceNotice:
    """Parse one serialized event record. Unknown extra fields are ignored.

    Raises RecordParseError for malformed records and UnknownKindError
    (a subclass) for records whose kind is outside the supported set.
    """
    kind, actor_id, object_id, observed_raw = parse_notice_fields(line, line_number)
    return ComplianceNotice(
        kind, actor_id, object_id, parse_observed_at(observed_raw, line_number)
    )


def serialize_notice(notice: ComplianceNotice) -> str:
    return json.dumps(
        {
            "kind": notice.kind.value,
            "actor_id": notice.actor_id,
            "object_id": notice.object_id,
            "observed_at": format_timestamp(notice.observed_at),
        },
        separators=(",", ":"),
    )


def snapshot_to_dict(snapshot: AccountSnapshot) -> dict:
    return {
        "account_id": snapshot.account_id,
        "snapshot_day": snapshot.snapshot_day.isoformat(),
        "statuses_count": snapshot.statuses_count,
        "status": snapshot.status.value,
        "description": snapshot.description,
        "created_at": None
        if snapshot.created_at is None
        else format_timestamp(snapshot.created_at),
        "queried_at": None
        if snapshot.queried_at is None
        else format_timestamp(snapshot.queried_at),
    }


def snapshot_from_dict(raw: dict, line_number: int = 0) -> AccountSnapshot:
    if not isinstance(raw, dict):
        raise RecordParseError("record must be a JSON object", line_number)
    account_id = _require_id(raw, "account_id", line_number)

    day_raw = raw.get("snapshot_day")
    if not isinstance(day_raw, str):
        raise RecordParseError("missing or non-string 'snapshot_day'", line_number)
    try:
        snapshot_day = date.fromisoformat(day_raw)
    except ValueError:
        raise RecordParseError(f"bad date {day_raw!r}", line_number) from None

    count = raw.get("statuses_count")
    if count is not None and (isinstance(count, bool) or not isinstance(count, int)):
        raise RecordParseError("'statuses_count' must be an integer or null", line_number)

    status_raw = raw.get("status")
    if not isinstance(status_raw, str):
        raise RecordParseError("missing or non-string 'status'", line_number)
    try:
        status = AccountStatus(status_raw)
    except ValueError:
        raise RecordParseError(f"unknown status {status_raw!r}", line_number) from None

    description = raw.get("description", "")
    if not isinstance(description, str):
        raise RecordParseError("'description' must be a string", line_number)

    timestamps: dict[str, datetime | None] = {}
    for key in ("created_at", "queried_at"):
        value = raw.get(key)
        if value is None:
            timestamps[key] = None
        elif isinstance(value, str):
            try:
                timestamps[key] = parse_timestamp(value)
            except ValueError:
                raise RecordParseError(f"bad timestamp {value!r}", line_number) from None
        else:
            raise RecordParseError(f"{key!r} must be a string or null", line_number)

    try:
        return AccountSnapshot(
            account_id,
            snapshot_day,
            count,
            status,
            description,
            timestamps["created_at"],
            timestamps["queried_at"],
        )
    except ValueError as err:
        raise RecordParseError(str(err), line_number) from None


def parse_snapshot(line: str, line_number: int = 0) -> AccountSnapshot:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as err:
        raise RecordParseError(f"invalid JSON: {err}", line_number) from None
    return snapshot_from_dict(raw, line_number)


def serialize_snapshot(snapshot: AccountSnapshot) -> str:
    return json.dumps(snapshot_to_dict(snapshot), separators=(",", ":"))


def read_notice_fields(path) -> Iterator[tuple[int, NoticeKind, int, int, str]]:
    """Yield (line_number, *parse_notice_fields) per record of an event file.

    Blank lines are skipped, records of unknown kind are skipped with a
    warning, and malformed records raise RecordParseError with their line
    number.
    """
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = parse_notice_fields(line, number)
            except UnknownKindError as err:
                logger.warning("skipping event: %s", err)
                continue
            yield number, *fields


def read_notices(path) -> Iterator[ComplianceNotice]:
    """Yield notices from a newline-delimited event file.

    Records of unknown kind are skipped with a warning; malformed records
    raise RecordParseError with their line number.
    """
    for number, kind, actor_id, object_id, observed_raw in read_notice_fields(path):
        yield ComplianceNotice(
            kind, actor_id, object_id, parse_observed_at(observed_raw, number)
        )


def write_notices(path, notices: Iterable[ComplianceNotice]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for notice in notices:
            fh.write(serialize_notice(notice))
            fh.write("\n")
            count += 1
    return count


def read_snapshots(path) -> Iterator[AccountSnapshot]:
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield parse_snapshot(line, number)


def write_snapshots(path, snapshots: Iterable[AccountSnapshot]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for snapshot in snapshots:
            fh.write(serialize_snapshot(snapshot))
            fh.write("\n")
            count += 1
    return count
