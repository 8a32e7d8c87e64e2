"""Canonical event and snapshot records, their wire forms, and ID-to-time decoding.

Every file the package reads or writes is framed here (``read_ndjson``,
``write_ndjson``, ``read_csv``, ``write_csv``, ``write_json``); other modules
supply only the conversion of one record to and from a dict or a CSV row.
A line that is not valid UTF-8 is a RecordParseError naming its line.

The two inputs that grow with the collection, events and snapshots, have an
exact-form fast path: a line in the one form ``serialize_notice`` or
``serialize_snapshot`` writes (``NOTICE_LINE``, ``SNAPSHOT_LINE``) is read
from the regex groups, without a JSON decode. Any other line goes through
the general JSON path, which gives the same records and the same errors.

All timestamps are normalized to UTC at parse time; day arithmetic elsewhere
in the package assumes UTC calendar days. Records are immutable once built and
safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: Millisecond epoch base of the time-encoding tweet ID scheme
#: (2010-11-04T01:42:54.657Z).
SNOWFLAKE_EPOCH_MS = 1288834974657

#: Smallest ID carrying a usable timestamp field. Values below this sit in the
#: range used by the older sequential scheme and are reported undecodable.
MIN_TIME_ENCODED_ID = 1 << 22

_UTC = timezone.utc
_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=_UTC)


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


#: AccountStatus by value, for the same reason as ``_NOTICE_KINDS``.
_STATUSES = {status.value: status for status in AccountStatus}


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


# Pieces of the exact forms below, all compiled with re.ASCII: without it \d
# accepts non-ASCII digits, which int() reads and json.loads rejects.
_DAY = r"\d{4}-\d\d-\d\d"
_TIME_OF_DAY = r"T(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d(?:\.\d{6})?Z"
#: A positive integer without leading zeros, at most 19 digits.
_ID = r"[1-9]\d{0,18}"

#: The one line form ``serialize_notice`` writes. Groups: kind, actor_id,
#: object_id, observed_at and its day; the stamp is UTC, so the day group is
#: its UTC day.
NOTICE_LINE = re.compile(
    rf'\{{"kind":"(tweet_delete|unlike)","actor_id":({_ID}),"object_id":({_ID}),'
    rf'"observed_at":"(({_DAY}){_TIME_OF_DAY})"\}}',
    re.ASCII,
)

#: The form ``serialize_snapshot`` writes for a description that needs no
#: JSON escape. Groups: account_id, snapshot_day, statuses_count, status,
#: description, created_at and queried_at (None for ``null``).
SNAPSHOT_LINE = re.compile(
    rf'\{{"account_id":({_ID}),"snapshot_day":"({_DAY})",'
    rf'"statuses_count":(null|0|{_ID}),"status":"(active|suspended|deleted)",'
    r'"description":"([^"\\\x00-\x1f]*)",'
    rf'"created_at":(?:null|"({_DAY}{_TIME_OF_DAY})"),'
    rf'"queried_at":(?:null|"({_DAY}{_TIME_OF_DAY})")\}}',
    re.ASCII,
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
class SnapshotDay:
    """One account's status and tweet count on one snapshot day.

    ``statuses_count`` may be None only for accounts that were not active at
    query time (the count is then unavailable, not zero).
    """

    account_id: int
    snapshot_day: date
    statuses_count: int | None
    status: AccountStatus

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
class AccountSnapshot(SnapshotDay):
    """A ``SnapshotDay`` as the daily user-object query returns it.

    ``queried_at`` records when the user object was actually fetched; it can
    trail the snapshot day by a few hours, so downstream count arithmetic is
    approximate by construction. The timeline analyses read only the
    ``SnapshotDay`` fields and the last snapshot's description.
    """

    description: str = ""
    created_at: datetime | None = None
    queried_at: datetime | None = None


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


def _load(line: str, line_number: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as err:
        raise RecordParseError(f"invalid JSON: {err}", line_number) from None


def _dumps(raw: dict) -> str:
    return json.dumps(raw, separators=(",", ":"))


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
    raw = _load(line, line_number)
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
    """``parse_timestamp`` as a RecordParseError naming the line.

    Reads an event's ``observed_at`` and a snapshot's ``created_at`` and
    ``queried_at``.
    """
    try:
        return parse_timestamp(value)
    except ValueError:
        raise RecordParseError(f"bad timestamp {value!r}", line_number) from None


def _parse_day(value: str, line_number: int) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise RecordParseError(f"bad date {value!r}", line_number) from None


def parse_notice(line: str, line_number: int = 0) -> ComplianceNotice:
    """Parse one serialized event record. Unknown extra fields are ignored.

    Raises RecordParseError for malformed records and UnknownKindError
    (a subclass) for records whose kind is outside the supported set.
    """
    kind, actor_id, object_id, observed_raw = parse_notice_fields(line, line_number)
    return ComplianceNotice(
        kind, actor_id, object_id, parse_observed_at(observed_raw, line_number)
    )


def notice_to_dict(notice: ComplianceNotice) -> dict:
    return {
        "kind": notice.kind.value,
        "actor_id": notice.actor_id,
        "object_id": notice.object_id,
        "observed_at": format_timestamp(notice.observed_at),
    }


def serialize_notice(notice: ComplianceNotice) -> str:
    return _dumps(notice_to_dict(notice))


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
    snapshot_day = _parse_day(day_raw, line_number)

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
            timestamps[key] = parse_observed_at(value, line_number)
        else:
            raise RecordParseError(f"{key!r} must be a string or null", line_number)

    return _snapshot(
        line_number,
        account_id,
        snapshot_day,
        count,
        status,
        description,
        timestamps["created_at"],
        timestamps["queried_at"],
    )


def _snapshot(line_number: int, *fields) -> AccountSnapshot:
    try:
        return AccountSnapshot(*fields)
    except ValueError as err:
        raise RecordParseError(str(err), line_number) from None


def parse_snapshot(line: str, line_number: int = 0) -> AccountSnapshot:
    return snapshot_from_dict(_load(line, line_number), line_number)


def serialize_snapshot(snapshot: AccountSnapshot) -> str:
    return _dumps(snapshot_to_dict(snapshot))


def _notice_fields(line: str, line_number: int):
    """``parse_notice_fields``, or None with a warning for an unknown kind."""
    try:
        return parse_notice_fields(line, line_number)
    except UnknownKindError as err:
        logger.warning("skipping event: %s", err)
        return None


def read_notices(path) -> Iterator[ComplianceNotice]:
    """Yield notices from an event file.

    Blank lines are skipped, records of unknown kind are skipped with a
    warning, and malformed records raise RecordParseError with their line
    number.
    """
    for number, line in _lines(path):
        fields = _notice_fields(line, number)
        if fields is not None:
            kind, actor_id, object_id, observed_raw = fields
            yield ComplianceNotice(
                kind, actor_id, object_id, parse_observed_at(observed_raw, number)
            )


def write_notices(path, notices: Iterable[ComplianceNotice]) -> int:
    return write_ndjson(path, notices, notice_to_dict)


def read_snapshots(path) -> Iterator[AccountSnapshot]:
    """Yield snapshots from a snapshot file; equal to ``read_ndjson(path,
    snapshot_from_dict)``, with the same errors.

    A line that fully matches ``SNAPSHOT_LINE`` is read from its groups, each
    distinct day and timestamp string converted once per call; any other
    line is decoded as JSON.
    """
    days: dict[str, date] = {}
    stamps: dict[str, datetime] = {}

    def timestamp(value: str | None, number: int) -> datetime | None:
        if value is None:
            return None
        parsed = stamps.get(value)
        if parsed is None:
            parsed = stamps[value] = parse_observed_at(value, number)
        return parsed

    exact = SNAPSHOT_LINE.fullmatch
    for number, line in _lines(path):
        match = exact(line)
        if match is None:
            yield snapshot_from_dict(_load(line, number), number)
            continue
        account_id, day_raw, count, status, description, created, queried = (
            match.groups()
        )
        day = days.get(day_raw)
        if day is None:
            day = days[day_raw] = _parse_day(day_raw, number)
        yield _snapshot(
            number,
            int(account_id),
            day,
            None if count == "null" else int(count),
            _STATUSES[status],
            description,
            timestamp(created, number),
            timestamp(queried, number),
        )


def write_snapshots(path, snapshots: Iterable[AccountSnapshot]) -> int:
    return write_ndjson(path, snapshots, snapshot_to_dict)


def _lines(path) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for each non-blank line of a file.

    A line that is not valid UTF-8 raises RecordParseError with its number.
    """
    # surrogateescape defers the check to the line, so the error can name it
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise RecordParseError("invalid UTF-8", number) from None
                yield number, line


def read_ndjson(path, from_dict: Callable[[object, int], T]) -> Iterator[T]:
    """Yield ``from_dict(value, line_number)`` per non-blank line of an NDJSON file.

    A line that is not JSON raises RecordParseError with its line number.
    """
    for number, line in _lines(path):
        yield from_dict(_load(line, number), number)


def write_ndjson(path, items: Iterable[T], to_dict: Callable[[T], dict]) -> int:
    """Write each item as one compact JSON line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(_dumps(to_dict(item)))
            fh.write("\n")
            count += 1
    return count


def write_json(path, payload: dict) -> None:
    """Write one JSON document, indented and with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write a header line and one line per row; returns the number of rows.

    None is written as an empty cell, a float by its ``repr`` (the shortest
    form that reads back to the same value) and a date in ISO form.
    """
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(value) for value in row])
            count += 1
    return count


def read_csv(
    path, columns: Sequence[str], from_row: Callable[[dict[str, str]], T]
) -> Iterator[T]:
    """Yield ``from_row(row)`` for each row of a CSV file, a dict by header name.

    Blank lines are skipped. RecordParseError, with the line number, is
    raised for a header that lacks one of ``columns``, a row whose cell
    count differs from the header's, and a row ``from_row`` rejects with
    ValueError.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [name for name in columns if name not in header]
            if missing:
                raise RecordParseError(f"CSV header lacks {missing}", reader.line_num)
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(header):
                    message = f"row has {len(cells)} cells, the header {len(header)}"
                    raise RecordParseError(message, reader.line_num)
                try:
                    item = from_row(dict(zip(header, cells)))
                except ValueError as err:
                    raise RecordParseError(f"bad row: {err}", reader.line_num) from None
                yield item
        except csv.Error as err:
            raise RecordParseError(f"bad CSV: {err}", reader.line_num) from None
