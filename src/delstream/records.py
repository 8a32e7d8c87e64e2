"""Canonical event and snapshot records, their wire forms, and ID-to-time decoding.

Every file the package reads or writes is framed here (``read_ndjson``,
``write_ndjson``, ``read_csv``, ``write_csv``, ``read_account_ids``,
``read_json``, ``write_json``); other modules supply only the conversion of
one record to and from a dict or a CSV row. A decoder converts only what
JSON and CSV cannot hold (a day's text to a ``date``, a kind or status to
its enum, a stamp to a ``datetime``, a CSV cell to an int) and passes every
other value to the record's constructor, which checks each field with the
field checks here (``int_field`` and the rest): every ID in every input is
a positive integer, an enum field holds its enum and never text, and a
record built in memory holds only what its reader accepts. Decoders take no
line number: each reader here re-raises its decoder's ValueError as a
RecordParseError naming the line, as it does for a line that is not valid
UTF-8, and ``read_ndjson`` does the same for a record that repeats or
precedes the one before it in a sorted file. ``check_order`` raises that
same error for a list of records before it is written, naming the line the
record would go to.

The two inputs that grow with the collection, events and snapshots, have an
exact-form fast path: a line in the one form ``serialize_notice`` or
``serialize_snapshot`` writes (``NOTICE_LINE``, ``SNAPSHOT_LINE``) is read
from the regex groups, without a JSON decode. Any other line goes through
the general JSON path, which gives the same records and the same errors.
``records`` writes these forms as well as reading them: the two serializers
format the line directly, byte for byte the compact JSON of the record's
fields. They need no other path, because ``ComplianceNotice`` and
``AccountSnapshot`` refuse, when built, any field the form cannot hold: an
ID or count that is not exactly an int (a bool, a float), a ``datetime`` as
the snapshot day, a description that is not a string, or a naive timestamp.
The description, and every other line written (``write_ndjson``), goes
through one module-level JSON encoder. No other
module knows these forms: ``ingest`` reads events through ``notice_rows``
and snapshots through ``read_snapshots``, and ``synth`` writes them
through ``write_notice_rows`` and ``write_snapshots``. ``serialize_notice``
and ``write_notice_rows`` build the event line in one place,
``_notice_line``.

All timestamps are normalized to UTC at parse time; day arithmetic elsewhere
in the package assumes UTC calendar days. Records are immutable once built and
safe to share across threads.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: Millisecond epoch base of the time-encoding tweet ID scheme
#: (2010-11-04T01:42:54.657Z).
SNOWFLAKE_EPOCH_MS = 1288834974657

#: Smallest ID carrying a usable timestamp field. Values below this sit in the
#: range used by the older sequential scheme and are reported undecodable.
MIN_TIME_ENCODED_ID = 1 << 22

#: Milliseconds in one UTC calendar day.
DAY_MS = 86_400_000

#: ``date.toordinal()`` of the Unix epoch, 1970-01-01.
UNIX_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

_UTC = timezone.utc
_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=_UTC)


class NoticeKind(str, Enum):
    TWEET_DELETE = "tweet_delete"
    UNLIKE = "unlike"


#: NoticeKind by value; a dict lookup is several times cheaper per line than
#: the enum's constructor.
_NOTICE_KINDS = {kind.value: kind for kind in NoticeKind}

#: An event without its notice: (observed_at in Unix ms, kind value,
#: actor_id, object_id). Rows sort in the order of their notices'
#: (observed_at, kind, actor_id, object_id), as NoticeKind is a str enum.
NoticeRow = tuple[int, str, int, int]


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
    return _UNIX_EPOCH + timedelta(0, 0, 0, ms)


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC.

    Reads an event's ``observed_at`` and a snapshot's ``created_at`` and
    ``queried_at``, in ``_TIMESTAMP_FORM`` once each ``Z`` is read as
    ``+00:00``, on every Python. Raises RecordParseError for any other form
    and for one whose UTC time falls outside the datetime range
    (``0001-01-01T00:30:00+01:00``).
    """
    text = value.replace("Z", "+00:00")
    try:
        if _TIMESTAMP_FORM.fullmatch(text) is not None:
            dt = datetime.fromisoformat(text)
            return dt.replace(tzinfo=_UTC) if dt.tzinfo is None else dt.astimezone(_UTC)
    except (ValueError, OverflowError):
        pass
    raise RecordParseError(f"bad timestamp {value!r}")


def format_timestamp(dt: datetime) -> str:
    """``dt.astimezone(timezone.utc).isoformat()`` with ``Z`` for ``+00:00``.

    A naive ``dt`` is taken as local time, as ``astimezone`` takes it. The
    date and the time of day are formatted apart, which skips formatting
    the offset; a ``dt`` already in UTC skips ``astimezone`` too.
    """
    if dt.tzinfo is not _UTC:
        dt = dt.astimezone(_UTC)
    return f"{dt.date().isoformat()}T{dt.time().isoformat()}Z"


def _in_utc(value: object) -> bool:
    """Whether ``value`` is a datetime in UTC itself, as every parsed one is."""
    return type(value) is datetime and value.tzinfo is _UTC


def _check_aware(value: object, name: str) -> None:
    """Raise ValueError unless ``value`` is a timezone-aware datetime:
    ``format_timestamp`` takes a naive one as local time, which
    ``parse_timestamp`` reads back as UTC."""
    if not isinstance(value, datetime) or value.utcoffset() is None:
        raise ValueError(f"{name} must be a timezone-aware datetime, got {value!r:.40}")


# Pieces of the exact forms below, all compiled with re.ASCII: without it \d
# accepts non-ASCII digits, which int() reads and json.loads rejects.
_DAY = r"\d{4}-\d\d-\d\d"
_DAY_FORM = re.compile(_DAY, re.ASCII)
_TIME_OF_DAY = r"T(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d(?:\.\d{6})?Z"
#: A positive integer without leading zeros, at most 19 digits.
_ID = r"[1-9]\d{0,18}"

#: The timestamp forms Python 3.10's ``datetime.fromisoformat`` documents,
#: ``YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]]`` with ``*``
#: any one character: the forms every version reads alike. 3.11 also reads
#: the basic, week, comma-fraction and ``+HHMM`` forms.
_TIMESTAMP_FORM = re.compile(
    rf"{_DAY}(?:.(?:[01]\d|2[0-3])(?::[0-5]\d(?::[0-5]\d(?:\.\d{{3}}(?:\d{{3}})?)?)?)?"
    r"(?:[+-]\d\d:\d\d(?::\d\d(?:\.\d{6})?)?)?)?",
    re.ASCII | re.DOTALL,
)

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
        if type(self.kind) is not NoticeKind:
            raise RecordParseError(f"'kind' must be a NoticeKind, got {self.kind!r:.40}")
        int_field(self.actor_id, "actor_id", 1)
        int_field(self.object_id, "object_id", 1)
        ts = self.observed_at
        if not _in_utc(ts):
            _check_aware(ts, "observed_at")
            if ts.utcoffset():
                object.__setattr__(self, "observed_at", ts.astimezone(_UTC))


@dataclass(frozen=True, slots=True)
class AccountSnapshot:
    """One account's state on one snapshot day, as the daily user-object
    query returns it.

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
        int_field(self.account_id, "account_id", 1)
        snapshot_row(self.snapshot_day, self.status, self.statuses_count)
        str_field(self.description, "description")
        if not (self.created_at is None or _in_utc(self.created_at)):
            _check_aware(self.created_at, "created_at")
        if not (self.queried_at is None or _in_utc(self.queried_at)):
            _check_aware(self.queried_at, "queried_at")


def creation_ms(tweet_id: int) -> int | None:
    """Millisecond creation time encoded in a tweet ID, or None if undecodable."""
    if tweet_id < MIN_TIME_ENCODED_ID:
        return None
    return SNOWFLAKE_EPOCH_MS + (tweet_id >> 22)


def ages_in_days(day: date, tweet_ids: Iterable[int]) -> tuple[int, ...]:
    """The sorted whole-day ages of deleted tweets at the start of UTC ``day``.

    Each age is the whole days from the tweet's ``creation_ms`` to the day's
    start, clamped at 0 for a tweet created later; an undecodable ID has none.
    """
    start_ms = (day.toordinal() - UNIX_EPOCH_ORDINAL) * DAY_MS - SNOWFLAKE_EPOCH_MS
    ages = [(start_ms - (i >> 22)) // DAY_MS for i in tweet_ids if i >= MIN_TIME_ENCODED_ID]
    ages = [age if age > 0 else 0 for age in ages]
    ages.sort()
    return tuple(ages)


def decode_creation_time(tweet_id: int) -> datetime | None:
    """The UTC creation time embedded in a time-encoded tweet ID.

    The top bits hold a millisecond offset from the scheme's epoch base,
    shifted left by 22 bits of worker/sequence data. IDs below the scheme's
    range are undecodable and give None, never an error.
    """
    ms = creation_ms(tweet_id)
    return None if ms is None else ms_to_datetime(ms)


def _load(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as err:
        raise RecordParseError(f"invalid JSON: {err}") from None
    except RecursionError:
        raise RecordParseError("invalid JSON: nested too deeply") from None


#: The compact JSON text of a value; one encoder for every line written.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def check_at_least(name: str, value: int, minimum: int) -> None:
    """Raise ValueError unless a parameter ``value`` is at least ``minimum``."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


# Field checks: each raises RecordParseError naming the field, without a line.
# The record constructors call them, so a reader's message for a bad field is
# the constructor's.


def json_object(value: object) -> dict:
    """``value`` if it is a JSON object."""
    if type(value) is not dict:
        raise RecordParseError("record must be a JSON object")
    return value


def int_field(value: object, name: str, minimum: int | None = None) -> int:
    """``value`` if it is an int, not a bool, of at least ``minimum`` (1 for an
    ID) when one is given."""
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise RecordParseError(f"{name!r} must be an integer{bound}, got {value!r:.40}")
    return value


def int_list_field(value: object, name: str, minimum: int) -> tuple[int, ...]:
    """``value`` as a tuple if it is a list or tuple of integers, each at
    least ``minimum``."""
    if type(value) not in (list, tuple) or not set(map(type, value)) <= {int} or (
        value and min(value) < minimum
    ):
        raise RecordParseError(f"{name!r} must be a list of integers >= {minimum}")
    return tuple(value)


def str_field(value: object, name: str) -> str:
    """``value`` if it is a string."""
    if type(value) is not str:
        raise RecordParseError(f"{name!r} must be a string, got {value!r:.40}")
    return value


def date_field(value: object, name: str) -> date:
    """``value`` if it is exactly a date: a datetime would be written as a
    full stamp, which ``day_field`` rejects."""
    if type(value) is not date:
        raise RecordParseError(f"{name!r} must be a date, got {value!r:.40}")
    return value


@functools.lru_cache(maxsize=4096)
def _iso_day(text: str) -> date:
    if _DAY_FORM.fullmatch(text) is None:
        raise ValueError(text)
    return date.fromisoformat(text)


def day_field(value: object, name: str) -> date:
    """The date a ``YYYY-MM-DD`` string names, on every Python (3.11's
    ``date.fromisoformat`` also reads ``20210426``); recent ones are cached."""
    try:
        if type(value) is str:
            return _iso_day(value)
    except ValueError:
        pass
    raise RecordParseError(f"{name!r} must be an ISO day, got {value!r:.40}")


def timestamp_field(value: object, name: str) -> datetime | None:
    """None for null, else ``parse_timestamp`` of a string."""
    return None if value is None else parse_timestamp(str_field(value, name))


def status_field(value: object) -> AccountStatus:
    """The AccountStatus a status string names."""
    status = _STATUSES.get(value) if type(value) is str else None
    if status is None:
        raise RecordParseError(f"unknown status {value!r:.40}")
    return status


def snapshot_row(day: object, status: object, count: object) -> None:
    """Check a snapshot's day, status and count (None only off an active day)."""
    date_field(day, "snapshot_day")
    if type(status) is not AccountStatus:
        raise RecordParseError(f"'status' must be an AccountStatus, got {status!r:.40}")
    if count is not None:
        int_field(count, "statuses_count", 0)
    elif status is AccountStatus.ACTIVE:
        raise RecordParseError("active snapshots must carry a tweet count")


def parse_account_id(text: str) -> int:
    """A positive ASCII decimal account ID without leading zeros, sign or
    padding, as every text input (allowlist, CSV cells) takes it."""
    if not (text.isascii() and text.isdigit() and text[0] != "0"):
        raise RecordParseError(f"bad account ID {text!r}")
    return int(text)


#: The text ``str(int)`` writes: ASCII digits, no leading zero, and a ``-``
#: only before a nonzero value.
_INT_TEXT = re.compile(r"-?[1-9][0-9]*|0")


def int_text_field(text: str, name: str) -> int:
    """The integer ``text`` writes in the form ``str(int)`` gives, as a CSV
    cell holds it: no padding, ``+``, ``_``, leading zero or ``-0``."""
    if _INT_TEXT.fullmatch(text) is None:
        raise RecordParseError(f"{name!r} must be an integer, got {text!r:.40}")
    return int(text)


#: The text ``repr(float)`` writes, and plain decimals such as ``1`` and
#: ``0.5``: ASCII digits, an optional leading ``-``, fraction and exponent.
_FLOAT_TEXT = re.compile(r"-?(?:[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?|inf|nan)")


def float_text_field(text: str, name: str) -> float:
    """The float ``text`` writes in the form ``repr(float)`` gives, or as a
    plain decimal, as a CSV cell holds it: no padding, ``+``, ``_`` or
    non-ASCII digit."""
    if _FLOAT_TEXT.fullmatch(text) is None:
        raise RecordParseError(f"{name!r} must be a decimal number, got {text!r:.40}")
    return float(text)


def _at_line(err: ValueError, number: int) -> RecordParseError:
    """A decoder's error as a RecordParseError naming line ``number``."""
    if not isinstance(err, RecordParseError):
        err = RecordParseError(str(err))
    err.line_number = number
    return err


def parse_notice_fields(line: str) -> tuple[NoticeKind, int, int, str]:
    """Decode and check one serialized event record, all but its timestamp.

    Returns (kind, actor_id, object_id, observed_at text); pass the text to
    ``parse_timestamp``. Unknown extra fields are ignored. Raises
    RecordParseError for malformed records and UnknownKindError (a subclass)
    for records whose kind is outside the supported set.
    """
    raw = json_object(_load(line))
    kind_raw = str_field(raw.get("kind"), "kind")
    kind = _NOTICE_KINDS.get(kind_raw)
    if kind is None:
        raise UnknownKindError(f"unknown kind {kind_raw!r}")
    return (
        kind,
        int_field(raw.get("actor_id"), "actor_id", 1),
        int_field(raw.get("object_id"), "object_id", 1),
        str_field(raw.get("observed_at"), "observed_at"),
    )


def parse_notice(line: str) -> ComplianceNotice:
    """Parse one serialized event record. Unknown extra fields are ignored.

    Raises RecordParseError for malformed records and UnknownKindError
    (a subclass) for records whose kind is outside the supported set.
    """
    kind, actor_id, object_id, observed_raw = parse_notice_fields(line)
    return ComplianceNotice(kind, actor_id, object_id, parse_timestamp(observed_raw))


#: The start of a notice line, up to the actor ID, by kind value; NoticeKind
#: is a str enum, so a member finds its value's entry.
_NOTICE_HEADS = {kind.value: f'{{"kind":"{kind.value}","actor_id":' for kind in NoticeKind}


def _notice_line(kind: str, actor_id: int, object_id: int, stamp: str) -> str:
    """The ``NOTICE_LINE`` text of a notice, its ``observed_at`` formatted by
    ``format_timestamp``."""
    return (f'{_NOTICE_HEADS[kind]}{actor_id},"object_id":{object_id},'
            f'"observed_at":"{stamp}"}}')


def serialize_notice(notice: ComplianceNotice) -> str:
    """The notice in the form ``NOTICE_LINE`` reads: its fields as compact
    JSON, the stamp by ``format_timestamp``. ``ComplianceNotice`` holds only
    fields the form can write."""
    return _notice_line(notice.kind, notice.actor_id, notice.object_id,
                        format_timestamp(notice.observed_at))


def snapshot_from_dict(raw: dict) -> AccountSnapshot:
    raw = json_object(raw)
    return AccountSnapshot(
        raw.get("account_id"),
        day_field(raw.get("snapshot_day"), "snapshot_day"),
        raw.get("statuses_count"),
        status_field(raw.get("status")),
        raw.get("description", ""),
        timestamp_field(raw.get("created_at"), "created_at"),
        timestamp_field(raw.get("queried_at"), "queried_at"),
    )


def parse_snapshot(line: str) -> AccountSnapshot:
    return snapshot_from_dict(_load(line))


#: A status as its JSON text.
_STATUS_TEXTS = {status: f'"{status.value}"' for status in AccountStatus}


def _stamp_text(value: datetime | None) -> str:
    """A snapshot timestamp as its JSON text."""
    return "null" if value is None else f'"{format_timestamp(value)}"'


def _snapshot_line(snapshot: AccountSnapshot, stamp: Callable[[datetime | None], str]) -> str:
    """``serialize_snapshot``, with each timestamp's JSON text from ``stamp``."""
    count = snapshot.statuses_count
    return (f'{{"account_id":{snapshot.account_id},'
            f'"snapshot_day":"{snapshot.snapshot_day.isoformat()}",'
            f'"statuses_count":{"null" if count is None else count},'
            f'"status":{_STATUS_TEXTS[snapshot.status]},'
            f'"description":{_encode(snapshot.description)},'
            f'"created_at":{stamp(snapshot.created_at)},'
            f'"queried_at":{stamp(snapshot.queried_at)}}}')


def serialize_snapshot(snapshot: AccountSnapshot) -> str:
    """The snapshot as compact JSON, its fields in declaration order, formatted
    directly like ``serialize_notice`` and its description encoded as JSON:
    the form ``SNAPSHOT_LINE`` reads when the description needs no escape."""
    return _snapshot_line(snapshot, _stamp_text)


def read_notices(path) -> Iterator[ComplianceNotice]:
    """Yield notices from an event file.

    Blank lines are skipped, records of unknown kind are skipped with a
    warning, and malformed records raise RecordParseError with their line
    number.
    """
    for number, line in _lines(path):
        try:
            yield parse_notice(line)
        except UnknownKindError as err:
            logger.warning("skipping event: %s", _at_line(err, number))
        except ValueError as err:
            raise _at_line(err, number) from None


def notice_rows(path) -> Iterator[tuple[NoticeKind, int, int, int]]:
    """The (kind, actor_id, object_id, UTC day ordinal) of each notice
    ``read_notices`` yields, with the same skips and errors, but no notices.

    A line that fully matches ``NOTICE_LINE`` is read from its groups and
    dated by its day group, the first stamp of each day parsed in full.
    """
    day_ordinals: dict[str, int] = {}
    exact = NOTICE_LINE.fullmatch
    kinds = _NOTICE_KINDS
    for number, line in _lines(path):
        try:
            match = exact(line)
            if match is not None:
                kind, actor_id, object_id, observed, day = match.groups()
                ordinal = day_ordinals.get(day)
                if ordinal is None:
                    ordinal = day_ordinals[day] = parse_timestamp(observed).toordinal()
                yield kinds[kind], int(actor_id), int(object_id), ordinal
            else:
                kind, actor_id, object_id, observed = parse_notice_fields(line)
                yield kind, actor_id, object_id, parse_timestamp(observed).toordinal()
        except UnknownKindError as err:
            logger.warning("skipping event: %s", _at_line(err, number))
        except ValueError as err:
            raise _at_line(err, number) from None


def write_notices(path, notices: Iterable[ComplianceNotice]) -> int:
    """Write one ``serialize_notice`` line per notice; returns the number written."""
    return _write_lines(path, map(serialize_notice, notices))


def write_notice_rows(path, rows: Iterable[NoticeRow]) -> int:
    """Write, for each row, the ``serialize_notice`` line of its notice;
    returns the number written. Equal to ``write_notices`` over
    ``ComplianceNotice(kind, actor_id, object_id, ms_to_datetime(at_ms))``.

    Each row is ``(at_ms, kind value, actor_id, object_id)``, its IDs
    positive ints, as ``synth.generate`` builds it. The stamp is formatted
    once per run of rows with equal ``at_ms``, so sorted rows format each
    distinct stamp once, and no notice is built.
    """

    def lines() -> Iterator[str]:
        last_ms = stamp = None
        for at_ms, kind, actor_id, object_id in rows:
            if at_ms != last_ms:
                last_ms, stamp = at_ms, format_timestamp(ms_to_datetime(at_ms))
            yield _notice_line(kind, actor_id, object_id, stamp)

    return _write_lines(path, lines())


def read_snapshots(path) -> Iterator[AccountSnapshot]:
    """Yield snapshots from a snapshot file; equal to ``read_ndjson(path,
    snapshot_from_dict)``, with the same errors.

    A line that fully matches ``SNAPSHOT_LINE`` is read from its groups, each
    distinct timestamp string converted once per call (and each day once, by
    ``day_field``); any other line is decoded as JSON.
    """
    stamps: dict[str, datetime] = {}

    def timestamp(value: str | None) -> datetime | None:
        if value is None:
            return None
        parsed = stamps.get(value)
        if parsed is None:
            parsed = stamps[value] = parse_timestamp(value)
        return parsed

    exact = SNAPSHOT_LINE.fullmatch
    for number, line in _lines(path):
        try:
            match = exact(line)
            if match is None:
                yield snapshot_from_dict(_load(line))
            else:
                account_id, day_raw, count, status, description, created, queried = (
                    match.groups()
                )
                yield AccountSnapshot(
                    int(account_id),
                    day_field(day_raw, "snapshot_day"),
                    None if count == "null" else int(count),
                    _STATUSES[status],
                    description,
                    timestamp(created),
                    timestamp(queried),
                )
        except ValueError as err:
            raise _at_line(err, number) from None


def write_snapshots(path, snapshots: Iterable[AccountSnapshot]) -> int:
    """Write one ``serialize_snapshot`` line per snapshot; returns the number
    written. Each distinct timestamp is formatted once per call."""
    stamps: dict[datetime | None, str] = {}

    def stamp(value: datetime | None) -> str:
        text = stamps.get(value)
        if text is None:
            text = stamps[value] = _stamp_text(value)
        return text

    return _write_lines(path, (_snapshot_line(s, stamp) for s in snapshots))


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


def read_ndjson(
    path, from_dict: Callable[[object], T], order: Sequence[str] = ()
) -> Iterator[T]:
    """Yield ``from_dict(value)`` per non-blank line of an NDJSON file.

    A line that is not JSON, or whose value ``from_dict`` rejects with
    ValueError, raises RecordParseError with its line number. ``order``
    names the fields of the file's sort key: a record whose key is not
    greater than the one before it, repeated or out of order, raises
    RecordParseError with its line number too.
    """
    numbered = _decoded(path, from_dict)
    if order:
        numbered = _in_order(numbered, order)
    for _, item in numbered:
        yield item


def _decoded(path, from_dict: Callable[[object], T]) -> Iterator[tuple[int, T]]:
    """(line number, ``from_dict`` of the line's JSON) per non-blank line."""
    for number, line in _lines(path):
        try:
            yield number, from_dict(_load(line))
        except ValueError as err:
            raise _at_line(err, number) from None


def _in_order(
    numbered: Iterable[tuple[int, T]], order: Sequence[str]
) -> Iterator[tuple[int, T]]:
    """Each (line number, record), raising RecordParseError with the line
    number at the first record whose key, the fields ``order`` names, is not
    greater than the one before: repeated or out of order."""
    key = attrgetter(*order)
    last = None
    for number, item in numbered:
        this = key(item)
        if last is not None and this <= last:
            values = this if len(order) > 1 else (this,)
            shown = ", ".join(f"{name} {value}" for name, value in zip(order, values))
            raise RecordParseError(f"{shown} repeats or precedes the line before", number)
        last = this
        yield number, item


def check_order(items: Iterable[T], order: Sequence[str]) -> Sequence[T]:
    """``items`` as a sequence, if each record's key is greater than the one
    before, as ``read_ndjson(path, from_dict, order)`` requires; else the
    RecordParseError that reader would raise, naming the 1-based line the
    record would be written to."""
    items = items if isinstance(items, (list, tuple)) else list(items)
    for _ in _in_order(enumerate(items, start=1), order):
        pass
    return items


def read_account_ids(path) -> Iterator[int]:
    """Yield the account ID on each line of a text file (``parse_account_id``).

    Blank lines and lines that start with ``#`` are skipped; a bad ID raises
    RecordParseError with its line number.
    """
    for number, line in _lines(path):
        if not line.startswith("#"):
            try:
                yield parse_account_id(line)
            except ValueError as err:
                raise _at_line(err, number) from None


def write_ndjson(path, items: Iterable[T], to_dict: Callable[[T], dict]) -> int:
    """Write each item as one compact JSON line; returns the number written."""
    return _write_lines(path, (_encode(to_dict(item)) for item in items))


def _write_lines(path, lines: Iterable[str]) -> int:
    """Write each line and a newline; returns the number of lines."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(f"{line}\n")
            count += 1
    return count


def read_json(path, name: str):
    """The JSON document a whole file holds; ValueError naming ``name`` for
    one nested too deeply to decode."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{name} is nested too deeply") from None


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
