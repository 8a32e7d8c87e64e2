from __future__ import annotations

import json
import random
import re
import statistics
import tempfile
from dataclasses import fields, replace
from datetime import date, datetime, timedelta, timezone
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from delstream import behavior, estimate, flooding, ingest, synth
from delstream.records import (
    SNOWFLAKE_EPOCH_MS,
    AccountSnapshot,
    AccountStatus,
    ComplianceNotice,
    NOTICE_LINE,
    NoticeKind,
    RecordParseError,
    ages_in_days,
    format_timestamp,
    parse_timestamp,
    read_notices,
    write_ndjson,
)

UTC = timezone.utc
DAY0 = date(2021, 4, 26)


def at(day: date, hour=12, minute=0, second=0, microsecond=0) -> datetime:
    return datetime(
        day.year, day.month, day.day, hour, minute, second, microsecond, tzinfo=UTC
    )


def snowflake(created: datetime, low_bits: int = 1) -> int:
    ms = int((created - datetime(1970, 1, 1, tzinfo=UTC)).total_seconds() * 1000)
    return ((ms - SNOWFLAKE_EPOCH_MS) << 22) | low_bits


def deletions(account_id: int, day: date, count: int, start_id: int = 10**18):
    return [
        ComplianceNotice(NoticeKind.TWEET_DELETE, account_id, start_id + i, at(day))
        for i in range(count)
    ]


def snap(account_id, day, count, status=AccountStatus.ACTIVE, description=""):
    return AccountSnapshot(account_id, day, count, status, description)


class TestAggregateDaily:
    def test_below_threshold_dropped(self):
        assert ingest.aggregate_daily(deletions(1, DAY0, 9), threshold=10) == []

    def test_exact_threshold_kept(self):
        records = ingest.aggregate_daily(deletions(1, DAY0, 10), threshold=10)
        assert len(records) == 1
        assert records[0].deletion_count == 10

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ingest.aggregate_daily([], threshold=0)

    def test_unlike_notices_ignored(self):
        notices = deletions(1, DAY0, 10) + [
            ComplianceNotice(NoticeKind.UNLIKE, 1, 5, at(DAY0))
        ]
        records = ingest.aggregate_daily(notices)
        assert records[0].deletion_count == 10

    def test_day_boundary_splits_utc_midnight(self):
        before = [
            ComplianceNotice(
                NoticeKind.TWEET_DELETE, 1, 100 + i,
                at(DAY0, 23, 59, 59, 999000),
            )
            for i in range(10)
        ]
        after = [
            ComplianceNotice(
                NoticeKind.TWEET_DELETE, 1, 200 + i,
                at(DAY0 + timedelta(days=1), 0, 0, 0, 0),
            )
            for i in range(10)
        ]
        records = ingest.aggregate_daily(before + after)
        assert [(r.day, r.deletion_count) for r in records] == [
            (DAY0, 10),
            (DAY0 + timedelta(days=1), 10),
        ]

    def test_matches_group_by_oracle_and_order_independent(self):
        rng = random.Random(42)
        notices = []
        for _ in range(5000):
            kind = rng.choice(list(NoticeKind))
            day = DAY0 + timedelta(days=rng.randrange(5))
            notices.append(
                ComplianceNotice(
                    kind,
                    rng.randrange(1, 40),
                    rng.randrange(1, 10**15),
                    at(day, rng.randrange(24), rng.randrange(60)),
                )
            )
        expected = oracles.group_deletions_oracle(notices, threshold=10)
        records = ingest.aggregate_daily(notices, threshold=10)
        assert {
            (r.account_id, r.day): list(r.tweet_ids) for r in records
        } == expected

        shuffled = notices[:]
        rng.shuffle(shuffled)
        assert ingest.aggregate_daily(shuffled, threshold=10) == records

    def test_ages_from_decodable_ids(self):
        day = date(2021, 5, 10)
        ids = [
            snowflake(at(day - timedelta(days=5), 0, 0)),   # exactly 5 days old
            snowflake(at(day - timedelta(days=5), 18, 0)),  # 4.25 days -> 4
            snowflake(at(day, 8, 0)),                       # created same day -> 0
            123,                                            # undecodable
        ] + [
            snowflake(at(day - timedelta(days=400), 0, 0), low_bits=i)
            for i in range(2, 9)
        ]
        notices = [
            ComplianceNotice(NoticeKind.TWEET_DELETE, 1, tweet_id, at(day, 20))
            for tweet_id in ids
        ]
        [record] = ingest.aggregate_daily(notices, threshold=10)
        ages = ages_in_days(record.day, record.tweet_ids)
        assert len(ages) == 10  # undecodable ID excluded
        assert sorted(ages)[:3] == [0, 4, 5]
        assert ages.count(400) == 7
        for tweet_id in ids:
            expected = oracles.age_days_oracle(day, tweet_id)
            if expected is not None:
                assert expected in ages
        [timeline] = ingest.build_timelines([], [record])
        assert timeline.deletion_counts == (11,)
        assert timeline.median_deleted_age_days == 400

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 6),
                st.integers(0, 2),
                st.integers(1, 10**12),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_retained_total_never_exceeds_input(self, raw):
        notices = [
            ComplianceNotice(
                NoticeKind.TWEET_DELETE,
                account,
                tweet_id,
                at(DAY0 + timedelta(days=offset)),
            )
            for account, offset, tweet_id in raw
        ]
        records = ingest.aggregate_daily(notices, threshold=3)
        assert sum(r.deletion_count for r in records) <= len(notices)


class TestAggregateUnlikes:
    def test_repeated_pair_counted(self):
        notices = [
            ComplianceNotice(NoticeKind.UNLIKE, 9, 77, at(DAY0, h)) for h in range(5)
        ]
        records = ingest.aggregate_unlikes(notices)
        assert records == [ingest.UnlikeRecord(9, 77, 5)]

    def test_empty_input(self):
        assert ingest.aggregate_unlikes([]) == []

    def test_matches_pair_counting_oracle(self):
        rng = random.Random(7)
        notices = [
            ComplianceNotice(
                rng.choice(list(NoticeKind)),
                rng.randrange(1, 20),
                rng.randrange(1, 30),
                at(DAY0, rng.randrange(24)),
            )
            for _ in range(3000)
        ]
        expected = oracles.count_unlikes_oracle(notices)
        got = {
            (u.liker_id, u.tweet_id): u.unlike_count
            for u in ingest.aggregate_unlikes(notices)
        }
        assert got == expected


class TestBuildTimelines:
    def test_merge(self):
        days = [DAY0 + timedelta(days=i) for i in range(3)]
        snapshots = [snap(1, d, 100) for d in days]
        records = ingest.aggregate_daily(
            deletions(1, days[0], 10) + deletions(1, days[2], 12, start_id=10**17)
        )
        timelines = ingest.build_timelines(snapshots, records)
        assert len(timelines) == 1
        timeline = timelines[0]
        assert timeline.snapshot_days == tuple(days)
        assert timeline.statuses_counts == (100, 100, 100)
        assert timeline.deletion_days == (days[0], days[2])

    def test_deletion_only_account(self):
        records = ingest.aggregate_daily(deletions(5, DAY0, 10))
        timelines = ingest.build_timelines([], records)
        assert timelines[0].snapshot_days == ()
        age = oracles.age_days_oracle(DAY0, 10**18)
        assert timelines[0].deletion_days == (DAY0,)
        assert timelines[0].deletion_counts == (10,)
        assert timelines[0].median_deleted_age_days == age

    def test_snapshot_only_account(self):
        timelines = ingest.build_timelines([snap(3, DAY0, 50)], [])
        assert timelines[0].deletion_days == ()

    def test_duplicate_snapshot_is_hard_error(self):
        with pytest.raises(ValueError, match="^duplicate snapshot for account 1 on 2021-04-26$"):
            ingest.build_timelines([snap(1, DAY0, 5), snap(1, DAY0, 6)], [])

    def test_deleted_account_excluded_entirely(self):
        snapshots = [
            snap(1, DAY0, 100),
            AccountSnapshot(1, DAY0 + timedelta(days=1), None, AccountStatus.DELETED),
            snap(2, DAY0, 10),
        ]
        records = ingest.aggregate_daily(deletions(1, DAY0, 15))
        timelines = ingest.build_timelines(snapshots, records)
        assert [t.account_id for t in timelines] == [2]

    def test_matches_sort_merge_oracle(self):
        rng = random.Random(99)
        snapshots, records = [], []
        for account in range(1, 2001):
            for offset in sorted(rng.sample(range(10), rng.randrange(0, 5))):
                snapshots.append(snap(account, DAY0 + timedelta(days=offset), 1000))
            for offset in sorted(rng.sample(range(10), rng.randrange(0, 3))):
                records.append(
                    ingest.DailyDeletionRecord(
                        account, DAY0 + timedelta(days=offset), tuple(range(1, 11))
                    )
                )
        timelines = ingest.build_timelines(snapshots, records)

        # independent sort-merge join
        paired = {}
        for s in sorted(snapshots, key=lambda s: (s.account_id, s.snapshot_day)):
            paired.setdefault(s.account_id, ([], [], []))[0].append(s)
        for rec in sorted(records, key=lambda r: (r.account_id, r.day)):
            ages = [oracles.age_days_oracle(rec.day, i) for i in rec.tweet_ids]
            _, days, all_ages = paired.setdefault(rec.account_id, ([], [], []))
            days.append((rec.day, len(rec.tweet_ids)))
            all_ages += [a for a in ages if a is not None]
        assert len(timelines) == len(paired)
        for timeline in timelines:
            snaps, recs, ages = paired[timeline.account_id]
            assert timeline.snapshot_days == tuple(s.snapshot_day for s in snaps)
            assert timeline.statuses == tuple(s.status for s in snaps)
            assert timeline.statuses_counts == tuple(s.statuses_count for s in snaps)
            assert list(zip(timeline.deletion_days, timeline.deletion_counts)) == recs
            assert timeline.median_deleted_age_days == (
                statistics.median_low(ages) if ages else None
            )

    def test_median_age_is_lower_median(self):
        """Over all of an account's days, and the lower of the middle two."""
        def created(day, age_days):  # the ID of a tweet ``age_days`` old at ``day``
            return snowflake(at(day - timedelta(days=age_days), 0, 0))

        later = DAY0 + timedelta(days=2)
        records = [  # 123 is undecodable
            ingest.DailyDeletionRecord(1, DAY0, (123, created(DAY0, 40), created(DAY0, 3))),
            ingest.DailyDeletionRecord(1, later, (created(later, 100), created(later, 10))),
        ]
        assert [sorted(ages_in_days(r.day, r.tweet_ids)) for r in records] == [
            [3, 40], [10, 100]]
        [timeline] = ingest.build_timelines([], records)
        assert timeline.median_deleted_age_days == 10

    def test_timeline_day_ordering_enforced(self):
        with pytest.raises(ValueError):
            ingest.AccountTimeline(
                1,
                (DAY0 + timedelta(days=1), DAY0),
                (AccountStatus.ACTIVE, AccountStatus.ACTIVE),
                (5, 5),
            )

    def test_available_counts_excludes_suspended(self):
        [timeline] = ingest.build_timelines(
            [
                snap(1, DAY0, 100),
                snap(1, DAY0 + timedelta(days=1), 90, AccountStatus.SUSPENDED),
                snap(1, DAY0 + timedelta(days=2), 80),
            ],
            [],
        )
        assert timeline.available_counts() == (
            (DAY0, 100),
            (DAY0 + timedelta(days=2), 80),
        )


def _shard_notices(shard: int, shards: int, per_account: int):
    notices = []
    for account in range(1, 101):
        if account % shards != shard:
            continue
        for i in range(per_account):
            notices.append(
                ComplianceNotice(
                    NoticeKind.TWEET_DELETE, account, 10**16 + account * 1000 + i, at(DAY0)
                )
            )
    return notices


_any_notice = st.builds(
    ComplianceNotice,
    kind=st.sampled_from(list(NoticeKind)),
    actor_id=st.integers(1, 5),
    object_id=st.integers(1, 2**63),
    observed_at=st.builds(
        at,
        st.sampled_from([DAY0 + timedelta(days=i) for i in range(3)]),
        st.integers(0, 23),
    ),
)


class TestShardedAggregation:
    def test_matches_unsharded(self):
        sources = [partial(_shard_notices, shard, 4, 12) for shard in range(4)]
        expected = ingest.aggregate_daily(
            [n for source in sources for n in source()]
        )
        assert ingest.aggregate_daily_sharded(sources, processes=1) == expected
        assert ingest.aggregate_daily_sharded(sources, processes=2) == expected

    def test_overlapping_shards_equal_single(self):
        # the same notices in both shards: every account-day in both
        source = partial(_shard_notices, 0, 1, 12)
        expected = ingest.aggregate_daily(source() + source())
        assert ingest.aggregate_daily_sharded([source, source], processes=1) == expected
        assert ingest.aggregate_daily_sharded([source, source], processes=2) == expected

    def test_account_day_split_below_threshold_merged(self):
        # 8 + 8 notices of one account-day: each part alone is below the
        # threshold, together they are a record.
        notices = deletions(1, DAY0, 16)
        expected = ingest.aggregate_daily(notices, threshold=10)
        assert len(expected) == 1
        sources = [partial(list, notices[:8]), partial(list, notices[8:])]
        assert ingest.aggregate_daily_sharded(sources, 10, processes=1) == expected

    @given(
        notices=st.lists(_any_notice, max_size=60),
        shard_of_account=st.lists(st.integers(0, 3), min_size=5, max_size=5),
        threshold=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_account_disjoint_partition_equals_single(
        self, notices, shard_of_account, threshold
    ):
        parts = [[] for _ in range(4)]
        for notice in notices:
            parts[shard_of_account[notice.actor_id - 1]].append(notice)
        sources = [partial(list, part) for part in parts]
        assert ingest.aggregate_daily_sharded(
            sources, threshold, processes=1
        ) == ingest.aggregate_daily(notices, threshold)

    @given(
        assigned=st.lists(
            st.tuples(_any_notice, st.integers(0, 2)), max_size=60
        ),
        threshold=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_partition_equals_single(self, assigned, threshold):
        parts = [[] for _ in range(3)]
        for notice, shard in assigned:
            parts[shard].append(notice)
        sources = [partial(list, part) for part in parts]
        notices = [notice for notice, _ in assigned]
        assert ingest.aggregate_daily_sharded(
            sources, threshold, processes=1
        ) == ingest.aggregate_daily(notices, threshold)


# -- one-pass aggregation of an event file ----------------------------------

_MIDNIGHT = datetime(2021, 4, 27, tzinfo=UTC)

#: Instants from a day before to a day after one UTC midnight, half of them
#: within one second of it.
_instants = st.one_of(
    st.integers(-1_000_000, 1_000_000),
    st.integers(-86_400_000_000, 86_400_000_000),
).map(lambda us: _MIDNIGHT + timedelta(microseconds=us))

_offsets = st.integers(-14 * 60, 14 * 60).map(lambda m: timezone(timedelta(minutes=m)))

#: Timestamps every supported Python version parses, in every form.
_timestamps = st.one_of(
    # the canonical form, with and without a fraction
    _instants.map(format_timestamp),
    _instants.map(lambda t: format_timestamp(t.replace(microsecond=0))),
    # offsets and naive times
    st.builds(lambda t, tz: t.astimezone(tz).isoformat(), _instants, _offsets),
    _instants.map(lambda t: t.replace(tzinfo=None).isoformat()),
    _instants.map(lambda t: t.isoformat(timespec="milliseconds")),
)

#: Edits of a canonical timestamp into nearby forms, most of them invalid.
_EDITS = [
    lambda ts: ts[:11] + "24" + ts[13:],  # hour 24
    lambda ts: ts[:14] + "60" + ts[16:],  # minute 60
    lambda ts: ts[:17] + "60" + ts[19:],  # second 60
    lambda ts: ts[:8] + "31" + ts[10:],  # April 31
    lambda ts: ts[:12] + "\uff12" + ts[13:],  # fullwidth digit
    lambda ts: ts[:18] + "\u0660" + ts[19:],  # Arabic-Indic digit
    lambda ts: "\u0662" + ts[1:],
    lambda ts: ts[:19] + ".5Z",
    lambda ts: ts[:19] + ".1234567Z",
    lambda ts: ts[:-1] + "z",
    lambda ts: ts + "Z",
    lambda ts: ts[:-1],
    lambda ts: ts[:10] + " " + ts[11:],
    lambda ts: ts[:10],
]

#: Timestamps rejected by at least one supported Python version.
_odd_timestamps = st.one_of(
    st.builds(
        lambda ts, edit: edit(ts),
        _instants.map(format_timestamp),
        st.sampled_from(_EDITS),
    ),
    st.sampled_from(
        [
            "2021-02-30T12:00:00Z",  # Feb 30
            "2021-13-01T12:00:00Z",
            "0001-01-01T00:30:00+01:00",
            "",
            "not a time",
        ]
    ),
)

_odd_ids = st.one_of(
    st.integers(1, 2**64),
    st.sampled_from([0, -1, -(2**63), True, False, 1.0, "7", None]),
)


def _event(kind, actor_id, object_id, observed_at) -> str:
    return json.dumps(
        {
            "kind": kind,
            "actor_id": actor_id,
            "object_id": object_id,
            "observed_at": observed_at,
        }
    )


_kinds = st.sampled_from(["tweet_delete", "tweet_delete", "unlike"])
_object_ids = st.one_of(st.integers(1, 2**63), st.integers(1, 4))

#: Lines read without error: events, unknown kinds and blank lines.
_good_lines = st.one_of(
    st.builds(_event, _kinds, st.integers(1, 3), _object_ids, _timestamps),
    st.builds(_event, st.just("scrub_geo"), _odd_ids, _odd_ids, _odd_timestamps),
    st.sampled_from(["", "   ", "\t"]),
)

#: Lines that may fail: one odd field in an event, or not an event at all.
_odd_lines = st.one_of(
    st.builds(_event, _kinds, st.integers(1, 3), _object_ids, _odd_timestamps),
    st.builds(_event, _kinds, st.integers(1, 3), _object_ids, _odd_timestamps),
    st.builds(_event, _kinds, _odd_ids, _object_ids, _timestamps),
    st.builds(_event, _kinds, st.integers(1, 3), _odd_ids, _timestamps),
    st.builds(
        _event,
        st.sampled_from(["", 5, None, ["unlike"]]),
        st.integers(1, 3),
        _object_ids,
        _timestamps,
    ),
    st.builds(
        _event,
        _kinds,
        st.integers(1, 3),
        _object_ids,
        st.sampled_from([None, 1619395200, []]),
    ),
    st.sampled_from(
        [
            "{not json",
            "[1, 2]",
            "null",
            '"tweet_delete"',
            '{"kind": "tweet_delete"}',
            '{"kind":"unlike","actor_id":1,"object_id":2,'
            '"observed_at":"2021-04-26T01:00:00Z"} x',
        ]
    ),
)


@st.composite
def _event_files(draw) -> list[str]:
    lines = draw(st.lists(_good_lines, max_size=40))
    for odd in draw(st.lists(_odd_lines, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return lines


def _outcome(func):
    try:
        return func()
    except Exception as err:  # compare failures by type, message and line
        return type(err), str(err), getattr(err, "line_number", None)


class TestAggregateEvents:
    @given(lines=_event_files(), threshold=st.integers(1, 4))
    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_two_pass_reference(self, lines, threshold):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "events.ndjson"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected = _outcome(
                lambda: (
                    ingest.aggregate_daily(read_notices(path), threshold),
                    ingest.aggregate_unlikes(read_notices(path)),
                )
            )
            assert _outcome(lambda: ingest.aggregate_events(path, threshold)) == expected

    @given(st.dates(), st.from_regex(NOTICE_LINE, fullmatch=True))
    @settings(max_examples=300)
    def test_canonical_form_day_is_its_prefix(self, day, line):
        # the exact path buckets a line by its day group (5), parsing the stamp
        # (4) only for the first line of each day
        start, end = NOTICE_LINE.fullmatch(line).span(5)
        match = NOTICE_LINE.fullmatch(line[:start] + day.isoformat() + line[end:])
        assert match
        assert parse_timestamp(match.group(4)).date() == date.fromisoformat(
            match.group(5)
        )

    def test_midnight_offsets_bucket_by_utc_day(self, tmp_path):
        path = tmp_path / "events.ndjson"
        stamps = [
            "2021-04-26T23:59:59.999999Z",
            "2021-04-27T00:00:00Z",
            "2021-04-27T01:30:00+02:00",  # 2021-04-26T23:30:00Z
            "2021-04-26T23:30:00-01:00",  # 2021-04-27T00:30:00Z
            "2021-04-27T00:00:00",  # naive, taken as UTC
        ]
        path.write_text(
            "".join(
                _event("tweet_delete", 1, 10**18 + i, stamp) + "\n"
                for i, stamp in enumerate(stamps)
            )
        )
        daily, unlikes = ingest.aggregate_events(path, threshold=1)
        assert [(r.day, r.tweet_ids) for r in daily] == [
            (date(2021, 4, 26), (10**18, 10**18 + 2)),
            (date(2021, 4, 27), (10**18 + 1, 10**18 + 3, 10**18 + 4)),
        ]
        assert unlikes == []

    def test_unknown_kind_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "events.ndjson"
        path.write_text(
            _event("user_protect", 1, 2, "2021-04-26T01:00:00Z")
            + "\n"
            + _event("unlike", 1, 2, "2021-04-26T01:00:00Z")
            + "\n"
        )
        with caplog.at_level("WARNING"):
            daily, unlikes = ingest.aggregate_events(path)
        assert daily == [] and unlikes == [ingest.UnlikeRecord(1, 2, 1)]
        assert any("skipping event: line 1" in message for message in caplog.messages)

    def test_threshold_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ingest.aggregate_events(tmp_path / "missing.ndjson", threshold=0)

    def test_timestamp_outside_range_in_utc_is_parse_error(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text(
            _event("tweet_delete", 1, 2, "2021-04-26T01:00:00Z")
            + "\n"
            + _event("tweet_delete", 1, 3, "0001-01-01T00:30:00+01:00")
            + "\n"
        )
        with pytest.raises(RecordParseError, match="bad timestamp") as err:
            ingest.aggregate_events(path, threshold=1)
        assert err.value.line_number == 2


def _bare_timeline(account_id: int) -> dict:
    """The line of a timeline without snapshots or deletion days."""
    return {"account_id": account_id, "snapshots": [], "deletion_days": [],
            "median_deleted_age_days": None}


def _two_lines(tmp_path: Path, first: dict, second: dict) -> Path:
    path = tmp_path / "records.ndjson"
    path.write_text(f"{json.dumps(first)}\n{json.dumps(second)}\n")
    return path


class TestSerialization:
    def test_daily_record_roundtrip(self, tmp_path):
        records = ingest.aggregate_daily(deletions(4, DAY0, 11))
        path = tmp_path / "daily.ndjson"
        ingest.write_daily_records(path, records)
        assert list(ingest.read_daily_records(path)) == records

    def test_daily_record_form_holds_only_the_ids(self, tmp_path):
        record = ingest.DailyDeletionRecord(42, date(2021, 4, 27), (1234, 5 << 22))
        assert [f.name for f in fields(record)] == ["account_id", "day", "tweet_ids"]
        assert record.deletion_count == 2
        path = tmp_path / "daily.ndjson"
        ingest.write_daily_records(path, [record])
        assert path.read_text() == (
            '{"account_id":42,"day":"2021-04-27","tweet_ids":[1234,20971520]}\n'
        )

    def test_earlier_runs_daily_line_reads_to_the_same_record(self, tmp_path):
        current = {"account_id": 42, "day": "2021-04-27",
                   "tweet_ids": [1234, 1251442846725046277]}
        earlier = {"account_id": 42, "day": "2021-04-27", "deletion_count": 2,
                   "deleted_ages_days": [373], "tweet_ids": [1234, 1251442846725046277]}
        record = ingest.DailyDeletionRecord(
            42, date(2021, 4, 27), (1234, 1251442846725046277)
        )
        for raw in (earlier, current):
            path = tmp_path / "daily.ndjson"
            path.write_text(json.dumps(raw) + "\n")
            assert list(ingest.read_daily_records(path)) == [record]

    def test_daily_record_without_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="tweet_ids must not be empty"):
            ingest.DailyDeletionRecord(7, DAY0, ())
        raw = {"account_id": 7, "day": "2021-04-26", "tweet_ids": [5]}
        path = _two_lines(tmp_path, raw, {**raw, "tweet_ids": []})
        with pytest.raises(RecordParseError, match="tweet_ids must not be empty") as err:
            list(ingest.read_daily_records(path))
        assert err.value.line_number == 2

    def test_unlike_roundtrip(self, tmp_path):
        records = [ingest.UnlikeRecord(1, 2, 5), ingest.UnlikeRecord(3, 4, 1)]
        path = tmp_path / "unlikes.ndjson"
        ingest.write_unlike_records(path, records)
        assert list(ingest.read_unlike_records(path)) == records

    @pytest.mark.parametrize(
        "field, value",
        [
            ("account_id", "7"),
            ("account_id", True),
            ("tweet_ids", [[5]]),
            ("tweet_ids", ["5"]),
            ("tweet_ids", [False]),
        ],
    )
    def test_daily_record_non_integer_rejected(self, tmp_path, field, value):
        raw = {"account_id": 7, "day": "2021-04-26", "tweet_ids": [5]}
        path = _two_lines(tmp_path, raw, {**raw, field: value})
        with pytest.raises(RecordParseError, match=field) as err:
            list(ingest.read_daily_records(path))
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "field, value",
        [("liker_id", [1]), ("tweet_id", "5"), ("tweet_id", True), ("unlike_count", 5.0)],
    )
    def test_unlike_record_non_integer_rejected(self, tmp_path, field, value):
        raw = {"liker_id": 1, "tweet_id": 5, "unlike_count": 5}
        path = _two_lines(tmp_path, raw, {**raw, field: value})
        with pytest.raises(RecordParseError, match=field) as err:
            list(ingest.read_unlike_records(path))
        assert err.value.line_number == 2

    def test_timeline_non_integer_account_rejected(self, tmp_path):
        raw = _bare_timeline(1)
        path = _two_lines(tmp_path, raw, {**raw, "account_id": "1"})
        with pytest.raises(RecordParseError, match="account_id") as err:
            list(ingest.read_timelines(path))
        assert err.value.line_number == 2

    def test_timeline_roundtrip(self, tmp_path):
        records = ingest.aggregate_daily(deletions(1, DAY0, 10))
        timelines = ingest.build_timelines(
            [snap(1, DAY0, 500, description="hello world")], records
        )
        path = tmp_path / "timelines.ndjson"
        ingest.write_timelines(path, timelines)
        assert list(ingest.read_timelines(path)) == timelines

    @pytest.mark.parametrize("read, first, second, message", [
        (ingest.read_timelines,
         _bare_timeline(2),
         _bare_timeline(2),
         "account_id 2 repeats or precedes the line before"),
        (ingest.read_timelines,
         _bare_timeline(2),
         _bare_timeline(1),
         "account_id 1 repeats or precedes the line before"),
        (ingest.read_daily_records,
         {"account_id": 1, "day": "2021-04-27", "tweet_ids": [5]},
         {"account_id": 1, "day": "2021-04-27", "tweet_ids": [6]},
         "account_id 1, day 2021-04-27 repeats or precedes the line before"),
        (ingest.read_daily_records,
         {"account_id": 1, "day": "2021-04-27", "tweet_ids": [5]},
         {"account_id": 1, "day": "2021-04-26", "tweet_ids": [5]},
         "account_id 1, day 2021-04-26 repeats or precedes the line before"),
        (ingest.read_daily_records,
         {"account_id": 2, "day": "2021-04-26", "tweet_ids": [5]},
         {"account_id": 1, "day": "2021-04-27", "tweet_ids": [5]},
         "account_id 1, day 2021-04-27 repeats or precedes the line before"),
        (ingest.read_unlike_records,
         {"liker_id": 1, "tweet_id": 5, "unlike_count": 2},
         {"liker_id": 1, "tweet_id": 5, "unlike_count": 1},
         "liker_id 1, tweet_id 5 repeats or precedes the line before"),
        (ingest.read_unlike_records,
         {"liker_id": 2, "tweet_id": 5, "unlike_count": 2},
         {"liker_id": 1, "tweet_id": 9, "unlike_count": 1},
         "liker_id 1, tweet_id 9 repeats or precedes the line before"),
    ], ids=["timeline-repeated", "timeline-earlier", "daily-repeated", "daily-earlier-day",
            "daily-earlier-account", "unlike-repeated", "unlike-earlier"])
    def test_repeated_or_out_of_order_line_rejected(
        self, tmp_path, read, first, second, message
    ):
        path = _two_lines(tmp_path, first, second)
        with pytest.raises(RecordParseError) as err:
            list(read(path))
        assert str(err.value) == f"line 2: {message}"

    @pytest.mark.parametrize("read, first, second", [
        (ingest.read_timelines,
         _bare_timeline(9),
         _bare_timeline(10)),
        (ingest.read_daily_records,
         {"account_id": 1, "day": "2021-04-27", "tweet_ids": [5]},
         {"account_id": 2, "day": "2021-04-26", "tweet_ids": [5]}),
        (ingest.read_unlike_records,
         {"liker_id": 1, "tweet_id": 9, "unlike_count": 2},
         {"liker_id": 2, "tweet_id": 5, "unlike_count": 1}),
    ], ids=["timelines", "daily", "unlikes"])
    def test_keys_compare_as_numbers_and_days(self, tmp_path, read, first, second):
        assert len(list(read(_two_lines(tmp_path, first, second)))) == 2


#: Any ID, beyond int64 and the 19 digits of the exact line forms included.
_IDS = st.integers(1, 2**70)
_DESCRIPTIONS = st.sampled_from(
    ["", '"quoted" \\ back', "naïve ☕ 日本語", "line\nbreak", "tab\there"]
) | st.text(max_size=12)
_STAMPS = st.none() | st.datetimes(
    min_value=datetime(2010, 1, 1), max_value=datetime(2030, 1, 1), timezones=st.just(UTC)
)


@st.composite
def _timelines(draw, account_id: int) -> ingest.AccountTimeline:
    """Any valid timeline: every status, None counts off active days, empty
    snapshot or day lists, and deletion days with or without a median age."""
    offsets = sorted(draw(st.sets(st.integers(0, 40), max_size=8)))
    statuses = [draw(st.sampled_from(list(AccountStatus))) for _ in offsets]
    counts = st.integers(0, 10**6)
    deletion_days = sorted(draw(st.sets(st.integers(0, 40), max_size=5)))
    deletion_counts = [draw(st.integers(1, 30)) for _ in deletion_days]
    median_age = draw(st.none() | st.integers(0, 4000)) if deletion_days else None
    return ingest.AccountTimeline(
        account_id,
        tuple(DAY0 + timedelta(days=offset) for offset in offsets),
        tuple(statuses),
        tuple(
            draw(counts if status is AccountStatus.ACTIVE else st.none() | counts)
            for status in statuses
        ),
        tuple(DAY0 + timedelta(days=offset) for offset in deletion_days),
        tuple(deletion_counts),
        median_age,
        draw(_DESCRIPTIONS) if offsets else "",
    )


@st.composite
def _timeline_lists(draw) -> list[ingest.AccountTimeline]:
    accounts = sorted(draw(st.sets(_IDS, max_size=6)))
    return [draw(_timelines(account_id)) for account_id in accounts]


@st.composite
def _snapshots(draw, account_id: int) -> list[AccountSnapshot]:
    """Any snapshots of one account, in full, on distinct days."""
    snapshots = []
    for offset in draw(st.sets(st.integers(0, 40), max_size=8)):
        status = draw(st.sampled_from(list(AccountStatus)))
        counts = st.integers(0, 10**6)
        snapshots.append(AccountSnapshot(
            account_id, DAY0 + timedelta(days=offset),
            draw(counts if status is AccountStatus.ACTIVE else st.none() | counts),
            status, draw(_DESCRIPTIONS), draw(_STAMPS), draw(_STAMPS),
        ))
    return snapshots


@st.composite
def _built_timeline_lists(draw) -> list[ingest.AccountTimeline]:
    """What ``build_timelines`` returns for any snapshots, in any order, and
    any daily records."""
    snapshots = [s for account_id in draw(st.sets(_IDS, max_size=6))
                 for s in draw(_snapshots(account_id))]
    records = [
        ingest.DailyDeletionRecord(account_id, DAY0 + timedelta(days=offset), tuple(ids))
        for account_id in draw(st.sets(_IDS, max_size=4))
        for offset in draw(st.sets(st.integers(0, 40), max_size=3))
        for ids in [sorted(draw(st.lists(_IDS, min_size=1, max_size=4)))]
    ]
    return ingest.build_timelines(draw(st.permutations(snapshots)), records)


def _written_and_read(items, write=ingest.write_timelines, read=ingest.read_timelines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.ndjson"
        write(path, items)
        return list(read(path))


#: A few deleting accounts with a day without snapshots.
_SMALL_SPEC = synth.PopulationSpec(
    cohorts=(synth.Cohort(synth.BehaviorProfile(
        kind=synth.ProfileKind.NORMAL_DELETER, post_rate=4, delete_rate=18,
        delete_days=(1, 4), gap_days=(2,),
    ), 6),),
    days=6,
)


class TestTimelineForm:
    @settings(max_examples=200, deadline=None)
    @given(_timeline_lists() | _built_timeline_lists())
    @example([ingest.AccountTimeline(
        7, deletion_days=(DAY0, DAY0 + timedelta(days=2), DAY0 + timedelta(days=3)),
        deletion_counts=(3, 2, 12), median_deleted_age_days=5,
    )])
    def test_roundtrip_is_the_timeline(self, timelines):
        assert _written_and_read(timelines) == timelines

    def test_generated_timelines_read_back(self):
        dataset = synth.generate(_SMALL_SPEC, seed=3)
        built = ingest.build_timelines(
            dataset.snapshots, ingest.aggregate_daily(dataset.notices)
        )
        assert any(tl.snapshot_days and tl.deletion_days for tl in built)
        assert _written_and_read(built) == built

    @settings(max_examples=200, deadline=None)
    @given(_timeline_lists() | _built_timeline_lists(), st.integers(1, 40), st.booleans(),
           st.booleans())
    def test_analyses_agree_on_the_read_back_timelines(
        self, timelines, floor, include_gaps, per_account_median
    ):
        def results(tls):
            estimates = [e for tl in tls for e in estimate.estimate_timeline(tl)]
            actuals = [
                (tl.account_id, day, count)
                for tl in tls
                for day, count in zip(tl.deletion_days, tl.deletion_counts)
            ]
            violations = flooding.detect(tls, limit=100)
            return (
                estimates,
                estimate.compare(estimates, actuals, floor, include_gaps,
                                 per_account_median),
                violations,
                behavior.summarize(tls, violations, window_days=30),
                behavior.daily_volume_ccdf(count for _, _, count in actuals),
                [tl.final_status() for tl in tls],
                [tl.description for tl in tls],
            )

        assert results(_written_and_read(timelines)) == results(timelines)

    def test_form_holds_only_what_the_analysis_reads(self, tmp_path):
        [built] = ingest.build_timelines(
            [snap(7, DAY0, 5, description="old"),
             snap(7, DAY0 + timedelta(days=1), None, AccountStatus.SUSPENDED, "new")],
            [],
        )
        timeline = replace(
            built, deletion_days=(DAY0,), deletion_counts=(2,), median_deleted_age_days=3
        )
        path = tmp_path / "timelines.ndjson"
        ingest.write_timelines(path, [timeline])
        assert json.loads(path.read_text()) == {
            "account_id": 7,
            "snapshots": [["2021-04-26", "active", 5], ["2021-04-27", "suspended", None]],
            "description": "new",
            "deletion_days": [["2021-04-26", 2]],
            "median_deleted_age_days": 3,
        }

    def test_description_defaults_to_empty(self):
        raw = {"account_id": 7, "snapshots": [["2021-04-26", "active", 5]],
               "deletion_days": [], "median_deleted_age_days": None}
        assert ingest.timeline_from_dict(raw).description == ""


#: Often one of a few IDs or days, so that drawn lists repeat keys too.
_KEY_IDS = st.integers(1, 3) | _IDS
_KEY_DAYS = st.dates(DAY0, DAY0 + timedelta(days=2)) | st.dates()


class TestBuiltRecordsReadBack:
    """Whatever a record's constructor accepts, its reader reads back, and its
    writer refuses a list exactly when its reader would refuse the file:
    one out of key order or repeating a key."""

    def check(self, records, write, read, to_dict):
        with tempfile.TemporaryDirectory() as tmp:
            unchecked, path = Path(tmp) / "unchecked.ndjson", Path(tmp) / "records.ndjson"
            write_ndjson(unchecked, records, to_dict)
            path.write_text("earlier\n")
            read_back = _outcome(lambda: list(read(unchecked)))
            written = _outcome(lambda: write(path, records))
            if isinstance(read_back, list):
                assert written == len(records)
                assert list(read(path)) == read_back == records
            else:  # the reader's error, raised before the file is opened
                assert written == read_back
                assert path.read_text() == "earlier\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(
        ingest.DailyDeletionRecord, _KEY_IDS, _KEY_DAYS, st.lists(_IDS, min_size=1, max_size=6)
    ), max_size=4))
    def test_daily_records(self, records):
        self.check(records, ingest.write_daily_records, ingest.read_daily_records,
                   ingest.daily_record_to_dict)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(ingest.UnlikeRecord, _KEY_IDS, _KEY_IDS, _IDS), max_size=4))
    def test_unlike_records(self, records):
        self.check(records, ingest.write_unlike_records, ingest.read_unlike_records,
                   ingest.unlike_record_to_dict)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_KEY_IDS.flatmap(_timelines), max_size=4))
    def test_timelines(self, timelines):
        self.check(timelines, ingest.write_timelines, ingest.read_timelines,
                   ingest.timeline_to_dict)


_DAY_MS = 86_400_000


#: IDs below the time-encoding range, which carry no creation time.
_UNDECODABLE_IDS = st.integers(1, (1 << 22) - 1)


def _tweet_ids(day: date):
    """Undecodable IDs, IDs created up to 3,000 days before ``day`` or up to
    two days after its start (ages clamped at 0), and any other ID."""
    start_ms = (day - date(1970, 1, 1)).days * _DAY_MS - SNOWFLAKE_EPOCH_MS
    created = st.integers(-3000 * _DAY_MS, 2 * _DAY_MS).map(lambda ms: start_ms + ms)
    return st.one_of(
        _UNDECODABLE_IDS,
        st.builds(lambda ms, low: ms << 22 | low, created, st.integers(0, (1 << 22) - 1)),
        st.integers(1 << 22, 2**63 - 1),
    )


@st.composite
def _daily_record_lists(draw) -> list[ingest.DailyDeletionRecord]:
    """Records of up to four accounts, each day's IDs often all undecodable,
    so that some accounts have no age at all."""
    records = []
    for account_id in sorted(draw(st.sets(st.integers(1, 2**40), max_size=4))):
        for offset in sorted(draw(st.sets(st.integers(0, 400), min_size=1, max_size=3))):
            day = DAY0 + timedelta(days=offset)
            ids = draw(st.lists(_tweet_ids(day), min_size=1, max_size=12)
                       | st.lists(_UNDECODABLE_IDS, min_size=1, max_size=4))
            records.append(ingest.DailyDeletionRecord(account_id, day, tuple(sorted(ids))))
    return records


class TestBuiltTimelines:
    @settings(max_examples=300, deadline=None)
    @given(_daily_record_lists())
    @example([ingest.DailyDeletionRecord(
        42,
        date(2021, 4, 27),
        # undecodable, 373 days old, created 8 hours after the day's start
        (1234, 1251442846725046277, snowflake(at(date(2021, 4, 27), 8))),
    )])
    @example([  # no decodable ID on either day
        ingest.DailyDeletionRecord(42, date(2021, 4, 27), (1234, 5678)),
        ingest.DailyDeletionRecord(42, date(2021, 4, 29), ((1 << 22) - 1,)),
    ])
    def test_deletion_days_are_what_the_reader_returns(self, records):
        """Each account's deletion days and counts are its records', and its
        median deleted-tweet age is the lower median of every age of every
        day, by the oracle's decoding, or None without one."""
        built = ingest.build_timelines([], records)
        assert _written_and_read(built) == built
        ids = {(r.account_id, r.day): r.tweet_ids for r in records}
        assert [(tl.account_id, day) for tl in built for day in tl.deletion_days] == list(ids)
        for timeline in built:
            ages = []
            for day, count in zip(timeline.deletion_days, timeline.deletion_counts):
                day_ages = [oracles.age_days_oracle(day, i) for i in ids[timeline.account_id, day]]
                assert count == len(day_ages)
                ages += [age for age in day_ages if age is not None]
            assert timeline.median_deleted_age_days == (
                statistics.median_low(ages) if ages else None
            )


_README = Path(__file__).resolve().parents[1] / "README.md"
_FORMS = {
    "daily_deletions.ndjson": (ingest.read_daily_records, ingest.write_daily_records),
    "unlikes.ndjson": (ingest.read_unlike_records, ingest.write_unlike_records),
    "timelines.ndjson": (ingest.read_timelines, ingest.write_timelines),
}


def _readme_examples() -> dict[str, str]:
    """The example line of each file in README's "Intermediate files"
    section, by the file name that opens the paragraph before it."""
    text = _README.read_text(encoding="utf-8")
    section = text.split("\n## Intermediate files\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"\n`(\w+\.ndjson)`, read by .*?```json\n(.*?)\n```", section, re.S))


class TestReadmeExamples:
    def test_every_intermediate_file_has_an_example(self):
        assert sorted(_readme_examples()) == sorted(_FORMS)

    @pytest.mark.parametrize("name", sorted(_FORMS))
    def test_example_reads_back_and_rewrites_byte_for_byte(self, tmp_path, name):
        read, write = _FORMS[name]
        example = tmp_path / "example.ndjson"
        example.write_text(_readme_examples()[name] + "\n", encoding="utf-8")
        rewritten = tmp_path / name
        assert write(rewritten, list(read(example))) == 1
        assert rewritten.read_bytes() == example.read_bytes()

    def test_daily_example_builds_the_timeline_examples_deletion_day(self, tmp_path):
        examples = _readme_examples()
        path = tmp_path / "daily_deletions.ndjson"
        path.write_text(examples["daily_deletions.ndjson"] + "\n", encoding="utf-8")
        [timeline] = ingest.build_timelines([], ingest.read_daily_records(path))
        line = json.loads(json.dumps(ingest.timeline_to_dict(timeline)))
        example = json.loads(examples["timelines.ndjson"])
        assert line["deletion_days"] == [["2021-04-27", 2]] == example["deletion_days"]
        assert line["median_deleted_age_days"] == 373 == example["median_deleted_age_days"]
