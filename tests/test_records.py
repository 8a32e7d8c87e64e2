from __future__ import annotations

import random
from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from delstream import records as r
from delstream import synth

UTC = timezone.utc

SPEC_LINE = (
    '{"kind":"tweet_delete","actor_id":42,"object_id":9000000000000000000,'
    '"observed_at":"2021-04-26T00:00:01Z"}'
)


class TestParseNotice:
    def test_tweet_delete_fields(self):
        notice = r.parse_notice(SPEC_LINE)
        assert notice.kind is r.NoticeKind.TWEET_DELETE
        assert notice.actor_id == 42
        assert notice.object_id == 9000000000000000000
        assert notice.observed_at == datetime(2021, 4, 26, 0, 0, 1, tzinfo=UTC)

    def test_missing_object_id(self):
        line = '{"kind":"unlike","actor_id":1,"observed_at":"2021-04-26T00:00:01Z"}'
        with pytest.raises(r.RecordParseError) as err:
            r.parse_notice(line, line_number=7)
        assert err.value.line_number == 7
        assert not isinstance(err.value, r.UnknownKindError)

    def test_unknown_kind_is_skip_signal(self):
        line = '{"kind":"scrub_geo","actor_id":1,"object_id":2,"observed_at":"2021-04-26T00:00:01Z"}'
        with pytest.raises(r.UnknownKindError):
            r.parse_notice(line)

    def test_extra_fields_ignored(self):
        line = SPEC_LINE[:-1] + ',"extra":"whatever","nested":{"a":1}}'
        assert r.parse_notice(line) == r.parse_notice(SPEC_LINE)

    def test_invalid_json(self):
        with pytest.raises(r.RecordParseError):
            r.parse_notice("{not json", line_number=3)

    def test_bool_id_rejected(self):
        line = '{"kind":"unlike","actor_id":true,"object_id":2,"observed_at":"2021-04-26T00:00:01Z"}'
        with pytest.raises(r.RecordParseError):
            r.parse_notice(line)

    def test_nonpositive_id_rejected(self):
        line = '{"kind":"unlike","actor_id":0,"object_id":2,"observed_at":"2021-04-26T00:00:01Z"}'
        with pytest.raises(r.RecordParseError):
            r.parse_notice(line)

    @pytest.mark.parametrize(
        "stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_timestamp_outside_range_in_utc_rejected(self, stamp):
        line = f'{{"kind":"unlike","actor_id":1,"object_id":2,"observed_at":"{stamp}"}}'
        with pytest.raises(r.RecordParseError, match="bad timestamp") as err:
            r.parse_notice(line, line_number=4)
        assert err.value.line_number == 4
        with pytest.raises(ValueError):
            r.parse_timestamp(stamp)

    def test_offset_timestamp_normalized_to_utc(self):
        line = '{"kind":"unlike","actor_id":1,"object_id":2,"observed_at":"2021-04-26T02:00:01+02:00"}'
        notice = r.parse_notice(line)
        assert notice.observed_at == datetime(2021, 4, 26, 0, 0, 1, tzinfo=UTC)


class TestNoticeConstruction:
    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError):
            r.ComplianceNotice(r.NoticeKind.UNLIKE, 1, 2, datetime(2021, 4, 26))

    def test_string_kind_coerced(self):
        notice = r.ComplianceNotice(
            "unlike", 1, 2, datetime(2021, 4, 26, tzinfo=UTC)
        )
        assert notice.kind is r.NoticeKind.UNLIKE


notice_strategy = st.builds(
    r.ComplianceNotice,
    kind=st.sampled_from(list(r.NoticeKind)),
    actor_id=st.integers(1, 2**63 - 1),
    object_id=st.integers(1, 2**63 - 1),
    observed_at=st.datetimes(
        min_value=datetime(2006, 3, 21), max_value=datetime(2035, 1, 1)
    ).map(lambda dt: dt.replace(tzinfo=UTC)),
)


@st.composite
def snapshot_strategy(draw):
    status = draw(st.sampled_from(list(r.AccountStatus)))
    if status is r.AccountStatus.ACTIVE:
        count = draw(st.integers(0, 10**9))
    else:
        count = draw(st.one_of(st.none(), st.integers(0, 10**9)))
    maybe_ts = st.one_of(
        st.none(),
        st.datetimes(
            min_value=datetime(2006, 3, 21), max_value=datetime(2035, 1, 1)
        ).map(lambda dt: dt.replace(tzinfo=UTC)),
    )
    return r.AccountSnapshot(
        account_id=draw(st.integers(1, 2**63 - 1)),
        snapshot_day=draw(st.dates(date(2006, 1, 1), date(2035, 1, 1))),
        statuses_count=count,
        status=status,
        description=draw(st.text(max_size=60)),
        created_at=draw(maybe_ts),
        queried_at=draw(maybe_ts),
    )


class TestRoundTrip:
    @given(notice_strategy)
    @settings(max_examples=200)
    def test_notice_roundtrip(self, notice):
        assert r.parse_notice(r.serialize_notice(notice)) == notice

    @given(snapshot_strategy())
    @settings(max_examples=200)
    def test_snapshot_roundtrip(self, snapshot):
        assert r.parse_snapshot(r.serialize_snapshot(snapshot)) == snapshot

    def test_bulk_synthetic_roundtrip(self):
        # parse -> serialize -> parse over a generated corpus, field by field
        spec = synth.PopulationSpec(
            cohorts=(
                synth.Cohort(
                    synth.BehaviorProfile(
                        kind=synth.ProfileKind.FLOODER, flood_days=(1, 3, 5, 7)
                    ),
                    21,
                ),
                synth.Cohort(
                    synth.BehaviorProfile(
                        kind=synth.ProfileKind.NORMAL_DELETER,
                        post_rate=4,
                        delete_rate=25,
                        age_median_days=120,
                    ),
                    40,
                ),
                synth.Cohort(
                    synth.BehaviorProfile(
                        kind=synth.ProfileKind.LIKE_FARM_HUB,
                        farm_size=15,
                        spoke_unlikes=8,
                        farm_day=2,
                    ),
                    5,
                ),
            ),
            days=10,
        )
        dataset = synth.generate(spec, seed=11)
        assert len(dataset.notices) > 1_000_000
        for notice in dataset.notices:
            line = r.serialize_notice(notice)
            reparsed = r.parse_notice(line)
            assert reparsed == notice
            assert r.serialize_notice(reparsed) == line
        for snapshot in dataset.snapshots:
            assert r.parse_snapshot(r.serialize_snapshot(snapshot)) == snapshot


class TestDecodeCreationTime:
    def test_zero_is_undecodable(self):
        assert r.decode_creation_time(0).created_at is None

    def test_below_range_is_undecodable(self):
        assert not r.decode_creation_time(r.MIN_TIME_ENCODED_ID - 1).decodable

    def test_smallest_decodable_id(self):
        decoded = r.decode_creation_time(r.MIN_TIME_ENCODED_ID)
        assert decoded.created_at == r.ms_to_datetime(r.SNOWFLAKE_EPOCH_MS + 1)

    def test_against_independent_oracle(self):
        rng = random.Random(90210)
        for _ in range(100):
            tweet_id = rng.randrange(1, 2**63)
            decoded = r.decode_creation_time(tweet_id)
            assert decoded.created_at == oracles.decode_oracle(tweet_id)

    @given(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
    @settings(max_examples=300)
    def test_monotone(self, id_a, id_b):
        lo, hi = sorted((id_a, id_b))
        first = r.decode_creation_time(lo)
        second = r.decode_creation_time(hi)
        if first.decodable and second.decodable:
            assert first.created_at <= second.created_at


class TestStreamIO:
    def test_read_skips_unknown_kind_with_warning(self, tmp_path, caplog):
        path = tmp_path / "events.ndjson"
        path.write_text(
            SPEC_LINE
            + "\n"
            + '{"kind":"user_protect","actor_id":1,"object_id":2,"observed_at":"2021-04-26T01:00:00Z"}\n'
            + SPEC_LINE
            + "\n"
        )
        with caplog.at_level("WARNING"):
            notices = list(r.read_notices(path))
        assert len(notices) == 2
        assert any("skipping" in message for message in caplog.messages)

    def test_read_raises_on_malformed_with_line_number(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text(SPEC_LINE + "\nnot json\n")
        with pytest.raises(r.RecordParseError) as err:
            list(r.read_notices(path))
        assert err.value.line_number == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text("\n" + SPEC_LINE + "\n\n")
        assert len(list(r.read_notices(path))) == 1

    def test_write_read_notices(self, tmp_path):
        path = tmp_path / "events.ndjson"
        notices = [
            r.ComplianceNotice(
                r.NoticeKind.TWEET_DELETE, 5, 6, datetime(2021, 5, 1, tzinfo=UTC)
            ),
            r.ComplianceNotice(
                r.NoticeKind.UNLIKE, 7, 8, datetime(2021, 5, 2, 12, 30, tzinfo=UTC)
            ),
        ]
        assert r.write_notices(path, notices) == 2
        assert list(r.read_notices(path)) == notices


class TestSnapshotValidation:
    def test_active_requires_count(self):
        with pytest.raises(ValueError):
            r.AccountSnapshot(1, date(2021, 4, 26), None, r.AccountStatus.ACTIVE)

    def test_suspended_count_may_be_unavailable(self):
        snapshot = r.AccountSnapshot(
            1, date(2021, 4, 26), None, r.AccountStatus.SUSPENDED
        )
        assert snapshot.statuses_count is None

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            r.AccountSnapshot(1, date(2021, 4, 26), -1, r.AccountStatus.ACTIVE)
