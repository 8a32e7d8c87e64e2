from __future__ import annotations

import ast
import json
import random
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone, tzinfo
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from delstream import behavior, cli, coordination, flooding, ingest, synth
from delstream import records as r

UTC = timezone.utc

SPEC_LINE = (
    '{"kind":"tweet_delete","actor_id":42,"object_id":9000000000000000000,'
    '"observed_at":"2021-04-26T00:00:01Z"}'
)


def _read_second_line(tmp_path: Path, line: str) -> list:
    """``read_notices`` over a file of SPEC_LINE, then ``line``."""
    path = tmp_path / "events.ndjson"
    path.write_text(f"{SPEC_LINE}\n{line}\n", encoding="utf-8")
    return list(r.read_notices(path))


class TestParseNotice:
    def test_tweet_delete_fields(self):
        notice = r.parse_notice(SPEC_LINE)
        assert notice.kind is r.NoticeKind.TWEET_DELETE
        assert notice.actor_id == 42
        assert notice.object_id == 9000000000000000000
        assert notice.observed_at == datetime(2021, 4, 26, 0, 0, 1, tzinfo=UTC)

    def test_missing_object_id(self, tmp_path):
        line = '{"kind":"unlike","actor_id":1,"observed_at":"2021-04-26T00:00:01Z"}'
        with pytest.raises(r.RecordParseError) as err:
            _read_second_line(tmp_path, line)
        assert err.value.line_number == 2
        assert not isinstance(err.value, r.UnknownKindError)

    def test_unknown_kind_is_skip_signal(self):
        line = '{"kind":"scrub_geo","actor_id":1,"object_id":2,"observed_at":"2021-04-26T00:00:01Z"}'
        with pytest.raises(r.UnknownKindError):
            r.parse_notice(line)

    def test_extra_fields_ignored(self):
        line = SPEC_LINE[:-1] + ',"extra":"whatever","nested":{"a":1}}'
        assert r.parse_notice(line) == r.parse_notice(SPEC_LINE)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(r.RecordParseError, match="line 2: invalid JSON"):
            _read_second_line(tmp_path, "{not json")

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
    def test_timestamp_outside_range_in_utc_rejected(self, tmp_path, stamp):
        line = f'{{"kind":"unlike","actor_id":1,"object_id":2,"observed_at":"{stamp}"}}'
        with pytest.raises(r.RecordParseError, match="bad timestamp") as err:
            _read_second_line(tmp_path, line)
        assert err.value.line_number == 2
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

    def test_string_kind_refused(self):
        with pytest.raises(r.RecordParseError) as err:
            r.ComplianceNotice("unlike", 1, 2, datetime(2021, 4, 26, tzinfo=UTC))
        assert str(err.value) == "'kind' must be a NoticeKind, got 'unlike'"


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
        assert r.decode_creation_time(0) is None

    def test_below_range_is_undecodable(self):
        assert r.decode_creation_time(r.MIN_TIME_ENCODED_ID - 1) is None

    def test_smallest_decodable_id(self):
        decoded = r.decode_creation_time(r.MIN_TIME_ENCODED_ID)
        assert decoded == r.ms_to_datetime(r.SNOWFLAKE_EPOCH_MS + 1)

    def test_against_independent_oracle(self):
        rng = random.Random(90210)
        for _ in range(100):
            tweet_id = rng.randrange(1, 2**63)
            decoded = r.decode_creation_time(tweet_id)
            assert decoded == oracles.decode_oracle(tweet_id)

    @given(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
    @settings(max_examples=300)
    def test_monotone(self, id_a, id_b):
        lo, hi = sorted((id_a, id_b))
        first = r.decode_creation_time(lo)
        second = r.decode_creation_time(hi)
        if first is not None and second is not None:
            assert first <= second


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

    def test_write_csv_cell_forms(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(None, 0.1, 3, date(2021, 4, 26), 'x,"y"')]
        assert r.write_csv(path, ["a", "b", "c", "d", "e"], rows) == 1
        assert path.read_text() == 'a,b,c,d,e\n,0.1,3,2021-04-26,"x,""y"""\n'

    def test_read_csv_skips_blank_lines_and_numbers_bad_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("a,b\n1,2\n\n3,x\n")
        rows = r.read_csv(path, ("a",), lambda row: (int(row["a"]), int(row["b"])))
        assert next(rows) == (1, 2)
        with pytest.raises(r.RecordParseError, match="bad row") as err:
            next(rows)
        assert err.value.line_number == 4

    def test_read_csv_oversized_cell_is_a_parse_error(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("a\n1\n" + "x" * 200_000 + "\n")
        with pytest.raises(r.RecordParseError, match="bad CSV") as err:
            list(r.read_csv(path, ("a",), dict))
        assert err.value.line_number == 3


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


# -- exact-form fast paths -------------------------------------------------
#
# ``notice_rows`` (which ``ingest.aggregate_events`` groups) and
# ``read_snapshots`` read a line in the one form the package's writers
# produce from ``NOTICE_LINE``/``SNAPSHOT_LINE`` groups. The properties below
# hold them to the general JSON path on lines that almost match: any
# difference in records, errors or line numbers fails.


def _outcome(func):
    try:
        return func()
    except Exception as err:  # compare failures by type, message and line
        return type(err), str(err), getattr(err, "line_number", None)


_exact_ids = st.one_of(
    st.sampled_from(["1", "2", "3"]), st.from_regex(r"[1-9][0-9]{0,18}", fullmatch=True)
)
_odd_ids = st.sampled_from(
    [
        "0", "00", "007", "-0", "-5", "1" * 20, "9" * 19, "1_000", "1١", "١", "true",
        "false", "null", "1.0", "1e3", '"5"', " 5",
    ]
)
_canonical_stamps = st.one_of(
    # few values, so that stamps and days repeat within a file
    st.sampled_from(
        ["2021-04-26T00:00:00Z", "2021-04-26T12:30:00.123456Z", "2021-04-27T23:59:59Z"]
    ),
    st.builds(
        lambda day, hour, minute, second, fraction: (
            f"{day}T{hour:02d}:{minute:02d}:{second:02d}{fraction}Z"
        ),
        st.sampled_from(["2021-04-26", "2021-04-27", "2020-02-29", "9999-12-31"]),
        st.integers(0, 23),
        st.integers(0, 59),
        st.integers(0, 59),
        st.sampled_from(["", ".000000", ".123456"]),
    ),
)
_odd_stamps = st.sampled_from(
    [
        "2021-04-26T24:00:00Z", "2021-04-26T23:59:60Z", "2021-02-30T12:00:00Z",
        "2021-04-26T12:00:00.123Z", "2021-04-26T12:00:00z", "2021-04-26T12:00:00",
        "2021-04-26T12:00:00+00:00", "2021-04-27T01:30:00+02:00",
        "2021-04-26T23:30:00-01:00", "0001-01-01T00:30:00+01:00",
        "9999-12-31T23:30:00-01:00", "0000-01-01T00:00:00Z", "2021-04-26 12:00:00Z",
        "٢021-04-26T12:00:00Z", "",
    ]
)
_days = st.sampled_from(["2021-04-26", "2021-04-27", "2020-02-29"])
_odd_days = st.sampled_from(["2021-02-30", "2021-4-26", "20210426", "x", "٢021-04-26"])
_odd_counts = st.sampled_from(
    ["null", "0", "-3", "-0", "007", "1.5", "true", "1" * 20, "1١"]
)
_kind_values = st.sampled_from(["tweet_delete ", "Unlike", "scrub_geo", "unlike\\u0020"])
_layouts = st.sampled_from(["spaces", "order", "duplicate", "extra", "drop", "trailing"])


@st.composite
def _json_line(draw, pairs: list[tuple[str, str]], odd: dict | None) -> str:
    """An object line of ``pairs`` (key, raw JSON value) in the exact compact
    form of their order or, given the ``odd`` value strategies by key, with
    one value replaced by an odd one or its layout changed."""
    pairs = list(pairs)
    layout = None
    if odd is not None:
        change = draw(st.sampled_from([None, *odd]))
        if change is None:
            layout = draw(_layouts)
        else:
            pairs = [(key, draw(odd[key]) if key == change else value)
                     for key, value in pairs]
    if layout == "order":
        pairs = draw(st.permutations(pairs))
    elif layout == "duplicate":
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
    elif layout == "extra":
        pairs.insert(draw(st.integers(0, len(pairs))), ("extra", '"x"'))
    elif layout == "drop":
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    comma, colon = (", ", ": ") if layout == "spaces" else (",", ":")
    line = "{" + comma.join(f'"{key}"{colon}{value}' for key, value in pairs) + "}"
    return line + (draw(st.sampled_from([" x", "}", ","])) if layout == "trailing" else "")


def _quoted(strategy):
    return strategy.map(lambda text: f'"{text}"')


@st.composite
def _notice_lines(draw, exact: bool) -> str:
    """A line in the form ``serialize_notice`` writes or, unless ``exact``,
    one that differs from it in one value or in its layout."""
    pairs = [
        ("kind", f'"{draw(st.sampled_from(["tweet_delete", "tweet_delete", "unlike"]))}"'),
        ("actor_id", draw(_exact_ids)),
        ("object_id", draw(_exact_ids)),
        ("observed_at", f'"{draw(_canonical_stamps)}"'),
    ]
    odd = {
        "kind": _quoted(_kind_values),
        "actor_id": _odd_ids,
        "object_id": _odd_ids,
        "observed_at": _quoted(_odd_stamps),
    }
    return draw(_json_line(pairs, None if exact else odd))


_descriptions = st.one_of(
    st.sampled_from(['""', '"plain words"', '"del\x7f"', '"slash/"', '"café"']),
    _quoted(
        st.text(st.characters(max_codepoint=127, blacklist_characters='"\\'), max_size=8)
        .filter(str.isprintable)
    ),
)
_odd_descriptions = st.one_of(
    st.sampled_from(
        [
            '"say \\"hi\\""', '"back\\\\slash"', '"caf\\u00e9"', '"tab\there"',
            '"nul\x00"', '"\\ud83d\\ude00"', '"line\\nbreak"', "5", "null",
        ]
    ),
    _quoted(st.text(st.characters(codec="utf-8"), max_size=8)),
)


@st.composite
def _snapshot_lines(draw, exact: bool) -> str:
    """A line in the form ``serialize_snapshot`` writes or, unless ``exact``,
    one that differs from it in one value or in its layout."""
    status = draw(st.sampled_from(["active", "suspended", "deleted"]))
    counts = _exact_ids if status == "active" else st.one_of(st.just("null"), _exact_ids)
    stamps = st.one_of(st.just("null"), _quoted(_canonical_stamps))
    pairs = [
        ("account_id", draw(_exact_ids)),
        ("snapshot_day", f'"{draw(_days)}"'),
        ("statuses_count", draw(counts)),
        ("status", f'"{status}"'),
        ("description", draw(_descriptions)),
        ("created_at", draw(stamps)),
        ("queried_at", draw(stamps)),
    ]
    odd = {
        "account_id": _odd_ids,
        "snapshot_day": _quoted(_odd_days),
        "statuses_count": _odd_counts,
        "status": _quoted(st.sampled_from(["Active", "gone", "active "])),
        "description": _odd_descriptions,
        "created_at": _quoted(_odd_stamps),
        "queried_at": _quoted(_odd_stamps),
    }
    return draw(_json_line(pairs, None if exact else odd))


@st.composite
def _files(draw, lines) -> list[str]:
    """Mostly exact lines, so that records are compared, and up to two others."""
    drawn = draw(st.lists(lines(exact=True), max_size=8))
    for odd in draw(st.lists(lines(exact=False), min_size=1, max_size=2)):
        drawn.insert(draw(st.integers(0, len(drawn))), odd)
    return drawn


@contextmanager
def _file_of(lines: list[str], ending: str) -> Iterator[Path]:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.ndjson"
        path.write_text(ending.join(lines) + ending, encoding="utf-8", newline="")
        yield path


_endings = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n"])


class TestExactFormFastPath:
    @given(_files(_notice_lines), _endings, st.integers(1, 2))
    @settings(max_examples=600, deadline=None)
    def test_events_equal_the_general_path(self, lines, ending, threshold):
        with _file_of(lines, ending) as path:
            expected = _outcome(
                lambda: (
                    ingest.aggregate_daily(r.read_notices(path), threshold),
                    ingest.aggregate_unlikes(r.read_notices(path)),
                )
            )
            assert _outcome(lambda: ingest.aggregate_events(path, threshold)) == expected

    @given(_files(_snapshot_lines), _endings)
    @settings(max_examples=600, deadline=None)
    def test_snapshots_equal_the_general_path(self, lines, ending):
        with _file_of(lines, ending) as path:
            expected = _outcome(lambda: list(r.read_ndjson(path, r.snapshot_from_dict)))
            assert _outcome(lambda: list(r.read_snapshots(path))) == expected

    @given(notice_strategy)
    @settings(max_examples=300)
    def test_every_written_notice_takes_the_fast_path(self, notice):
        assert r.NOTICE_LINE.fullmatch(r.serialize_notice(notice))

    @given(
        snapshot_strategy(),
        st.one_of(st.text(max_size=20), st.text(st.characters(max_codepoint=127))),
    )
    @settings(max_examples=300)
    def test_written_snapshot_takes_the_fast_path_unless_escaped(
        self, snapshot, description
    ):
        snapshot = replace(snapshot, description=description)
        needs_escape = json.dumps(description) != f'"{description}"'
        match = r.SNAPSHOT_LINE.fullmatch(r.serialize_snapshot(snapshot))
        assert (match is None) == needs_escape


# -- writers against the json.dumps path they replaced -------------------------
#
# ``serialize_notice`` and ``serialize_snapshot`` format the line forms
# directly; every written byte must equal a fresh ``json.dumps`` of the old
# dicts (``oracles.line_oracle``), for every record the constructors accept:
# non-UTC zones, IDs and counts beyond the forms' 19 digits, and descriptions
# that need escapes.

_zones = st.one_of(
    st.just(UTC),
    st.just(timezone(timedelta(0), "GMT")),  # zero offset, but not UTC itself
    st.integers(-1439, 1439).map(lambda minutes: timezone(timedelta(minutes=minutes))),
)
_written_stamps = st.builds(
    lambda moment, zone, whole: moment.replace(
        tzinfo=zone, microsecond=0 if whole else moment.microsecond
    ),
    st.datetimes(min_value=datetime(2006, 3, 21), max_value=datetime(2035, 1, 1)),
    _zones,
    st.booleans(),
)
# few values as well, so that stamps repeat within one file
_maybe_stamps = st.one_of(
    st.none(),
    st.sampled_from([datetime(2021, 4, 27, 0, 35, tzinfo=UTC),
                     datetime(2021, 4, 27, 1, 35, tzinfo=timezone(timedelta(hours=1)))]),
    _written_stamps,
)
_written_ids = st.integers(1, 2**70)
_written_descriptions = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\xe9\u2028\ud800\U0001f600'),
        st.characters(),
    ),
    max_size=12,
)
_written_notices = st.builds(
    r.ComplianceNotice,
    st.sampled_from(list(r.NoticeKind)),
    _written_ids,
    _written_ids,
    _written_stamps,
)


@st.composite
def _written_snapshots(draw):
    status = draw(st.sampled_from(list(r.AccountStatus)))
    counts = st.integers(0, 2**70)
    if status is not r.AccountStatus.ACTIVE:
        counts = st.one_of(st.none(), counts)
    return r.AccountSnapshot(
        draw(_written_ids),
        draw(st.dates(date(1, 1, 1), date(9999, 12, 31))),
        draw(counts),
        status,
        draw(_written_descriptions),
        draw(_maybe_stamps),
        draw(_maybe_stamps),
    )


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _written_descriptions),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_written_descriptions, inner, max_size=3)),
    max_leaves=8,
)


def _written_bytes(write, items, *to_dict) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "out.ndjson"
        assert write(path, items, *to_dict) == len(items)
        return path.read_bytes()


class TestWritersEqualTheOracle:
    @given(_written_notices)
    @settings(max_examples=400)
    def test_serialize_notice(self, notice):
        assert r.serialize_notice(notice) == oracles.line_oracle(
            oracles.notice_to_dict_oracle(notice)
        )

    @given(_written_snapshots())
    @settings(max_examples=400)
    def test_serialize_snapshot(self, snapshot):
        assert r.serialize_snapshot(snapshot) == oracles.line_oracle(
            oracles.snapshot_to_dict_oracle(snapshot)
        )

    @given(
        st.lists(_written_notices, max_size=6),
        st.lists(_written_snapshots(), max_size=6),
        st.lists(_json_values, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_writers(self, notices, snapshots, values):
        oracle = oracles.write_ndjson_oracle
        assert _written_bytes(r.write_notices, notices) == (
            _written_bytes(oracle, notices, oracles.notice_to_dict_oracle)
        )
        assert _written_bytes(r.write_snapshots, snapshots) == (
            _written_bytes(oracle, snapshots, oracles.snapshot_to_dict_oracle)
        )
        same = lambda value: value  # noqa: E731
        assert _written_bytes(r.write_ndjson, values, same) == (
            _written_bytes(oracle, values, same)
        )

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from([k.value for k in r.NoticeKind]),
                           st.integers(1, 3), st.integers(1, 2**70)), max_size=12),
        st.integers(0, 253402300799999 - 3),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_notice_rows(self, rows, base_ms, ordered):
        """``write_notice_rows`` writes the oracle's lines for the rows'
        notices, in the rows' order, sorted or not; rows a few milliseconds
        apart, so that neighbours share a stamp or differ by 1 ms."""
        rows = [(base_ms + offset, kind, actor_id, object_id)
                for offset, kind, actor_id, object_id in rows]
        if ordered:
            rows.sort()
        notices = [
            r.ComplianceNotice(r.NoticeKind(kind), actor_id, object_id,
                               datetime(1970, 1, 1, tzinfo=UTC) + timedelta(milliseconds=ms))
            for ms, kind, actor_id, object_id in rows
        ]
        assert _written_bytes(r.write_notice_rows, rows) == oracles.notice_lines_oracle(notices)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_generated_files(self, tmp_path, seed):
        """``generate``'s event and snapshot files, byte for byte as the oracle
        writes the same dataset, and its notices in the order of the old sort
        key (``kind.value`` in place of the str enum)."""
        spec = synth.spec_from_dict({"days": 6, "cohorts": [
            {"kind": "normal_deleter", "count": 5, "post_rate": 4, "delete_rate": 15,
             "age_median_days": 120, "gap_days": [2], "stale_days": [3]},
            {"kind": "mass_deleter", "count": 1, "delete_rate": 400, "delete_days": [1],
             "age_median_days": 57, "initial_count": 20000},
            {"kind": "flooder", "count": 1, "flood_days": [4], "cycle_posts": 50},
            {"kind": "like_farm_hub", "count": 2, "farm_size": 4, "farm_day": 2},
            {"kind": "idle", "count": 3, "post_rate": 2},
        ]})
        dataset = synth.generate(spec, seed)
        kinds = {n.kind for n in dataset.notices}
        assert kinds == set(r.NoticeKind)
        assert list(dataset.notices) == sorted(
            dataset.notices,
            key=lambda n: (n.observed_at, n.kind.value, n.actor_id, n.object_id),
        )
        synth.write_dataset(dataset, tmp_path / "data")
        oracles.write_ndjson_oracle(
            tmp_path / "events", dataset.notices, oracles.notice_to_dict_oracle
        )
        oracles.write_ndjson_oracle(
            tmp_path / "snapshots", dataset.snapshots, oracles.snapshot_to_dict_oracle
        )
        for name in ("events", "snapshots"):
            written = (tmp_path / "data" / f"{name}.ndjson").read_bytes()
            assert written == (tmp_path / name).read_bytes()


class TestWrittenRecordsReadBack:
    """Every record the constructors accept reads back from what its writer
    writes, through the fast path or the general one."""

    @given(_written_notices)
    @settings(max_examples=300)
    def test_notice(self, notice):
        assert r.parse_notice(r.serialize_notice(notice)) == notice

    @given(_written_snapshots())
    @settings(max_examples=300)
    def test_snapshot(self, snapshot):
        assert r.parse_snapshot(r.serialize_snapshot(snapshot)) == snapshot

    @given(st.lists(_written_notices, max_size=6), st.lists(_written_snapshots(), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_files(self, notices, snapshots):
        with tempfile.TemporaryDirectory() as directory:
            events, snapshot_file = Path(directory) / "events", Path(directory) / "snapshots"
            r.write_notices(events, notices)
            r.write_snapshots(snapshot_file, snapshots)
            assert list(r.read_notices(events)) == notices
            assert list(r.read_snapshots(snapshot_file)) == snapshots


class _NoOffset(tzinfo):
    """A tzinfo that gives no offset: a datetime holding it is naive."""

    def utcoffset(self, dt):
        return None


_NOTICE = r.ComplianceNotice(r.NoticeKind.UNLIKE, 1, 5, datetime(2021, 4, 26, tzinfo=UTC))
_SNAPSHOT = r.AccountSnapshot(1, date(2021, 4, 26), 3, r.AccountStatus.ACTIVE)


@pytest.mark.parametrize("record, change", [
    (_NOTICE, {"actor_id": True}),
    (_NOTICE, {"actor_id": 1.0}),
    (_NOTICE, {"object_id": 5.0}),
    (_NOTICE, {"object_id": False}),
    (_NOTICE, {"observed_at": datetime(2021, 4, 26, tzinfo=_NoOffset())}),
    (_NOTICE, {"observed_at": "2021-04-26T00:00:00Z"}),
    (_NOTICE, {"observed_at": date(2021, 4, 26)}),
    (_SNAPSHOT, {"account_id": True}),
    (_SNAPSHOT, {"account_id": 1.0}),
    (_SNAPSHOT, {"statuses_count": True}),
    (_SNAPSHOT, {"statuses_count": False}),
    (_SNAPSHOT, {"statuses_count": 3.0}),
    (_SNAPSHOT, {"snapshot_day": datetime(2021, 4, 26)}),
    (_SNAPSHOT, {"snapshot_day": datetime(2021, 4, 26, tzinfo=UTC)}),
    (_SNAPSHOT, {"snapshot_day": "2021-04-26"}),
    (_SNAPSHOT, {"description": None}),
    (_SNAPSHOT, {"description": b"bio"}),
    (_SNAPSHOT, {"created_at": datetime(2021, 4, 26)}),
    (_SNAPSHOT, {"queried_at": datetime(2021, 4, 26)}),
    (_SNAPSHOT, {"created_at": datetime(2021, 4, 26, tzinfo=_NoOffset())}),
    (_SNAPSHOT, {"created_at": "2021-04-26T00:00:00Z"}),
    (_SNAPSHOT, {"queried_at": date(2021, 4, 26)}),
])
def test_constructor_refuses_a_field_its_line_cannot_write(record, change):
    with pytest.raises(ValueError):
        replace(record, **change)


_DAY = date(2021, 4, 26)
_MIDNIGHT = datetime(2021, 4, 26)
_DAILY = ingest.DailyDeletionRecord(7, _DAY, (5,))
_UNLIKE = ingest.UnlikeRecord(1, 5, 2)
_ACTIVE, _SUSPENDED = r.AccountStatus.ACTIVE, r.AccountStatus.SUSPENDED
_TIMELINE = ingest.AccountTimeline(7, (_DAY,), (_ACTIVE,), (5,), (_DAY,), (2,), ((1,),), "bio")
_NEXT_DAY = _DAY + timedelta(days=1)
_VIOLATION = flooding.FloodingViolation(1, _DAY, 10, 2500, True)


def _positive_int_error(name, value):
    return f"'{name}' must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize("record, change, message", [
    (_DAILY, {"account_id": True}, _positive_int_error("account_id", True)),
    (_DAILY, {"account_id": 5.0}, _positive_int_error("account_id", 5.0)),
    (_DAILY, {"account_id": 0}, _positive_int_error("account_id", 0)),
    (_DAILY, {"day": _MIDNIGHT}, f"'day' must be a date, got {_MIDNIGHT!r}"),
    (_DAILY, {"tweet_ids": ()}, "tweet_ids must not be empty"),
    (_DAILY, {"tweet_ids": (5, True)}, "'tweet_ids' must be a list of integers >= 1"),
    (_DAILY, {"tweet_ids": (5.0,)}, "'tweet_ids' must be a list of integers >= 1"),
    (_DAILY, {"tweet_ids": (0,)}, "'tweet_ids' must be a list of integers >= 1"),
    (_UNLIKE, {"liker_id": True}, _positive_int_error("liker_id", True)),
    (_UNLIKE, {"liker_id": 0}, _positive_int_error("liker_id", 0)),
    (_UNLIKE, {"tweet_id": 5.0}, _positive_int_error("tweet_id", 5.0)),
    (_UNLIKE, {"unlike_count": 0}, _positive_int_error("unlike_count", 0)),
    (_UNLIKE, {"unlike_count": "2"}, _positive_int_error("unlike_count", "2")),
    (_TIMELINE, {"account_id": False}, _positive_int_error("account_id", False)),
    (_TIMELINE, {"deletion_days": (_MIDNIGHT,)}, f"'day' must be a date, got {_MIDNIGHT!r}"),
    (_TIMELINE, {"deletion_counts": (0,)}, _positive_int_error("deletion_count", 0)),
    (_TIMELINE, {"deletion_counts": (1.5,)}, _positive_int_error("deletion_count", 1.5)),
    (_TIMELINE, {"deletion_counts": (True,)}, _positive_int_error("deletion_count", True)),
    (_TIMELINE, {"deleted_ages_days": ((-1,),)},
     "'deleted_ages_days' must be a list of integers >= 0"),
    (_TIMELINE, {"deleted_ages_days": ((1.0,),)},
     "'deleted_ages_days' must be a list of integers >= 0"),
    (_TIMELINE, {"deleted_ages_days": ((1, 2, 3),)}, "more ages than deletions"),
    (_TIMELINE, {"deletion_counts": ()}, "the deletion columns differ in length"),
    (_TIMELINE, {"deleted_ages_days": ((1,), ())}, "the deletion columns differ in length"),
    (_TIMELINE, {"deletion_days": ()}, "the deletion columns differ in length"),
    (_TIMELINE, {"account_id": True}, _positive_int_error("account_id", True)),
    (_TIMELINE, {"account_id": 7.0}, _positive_int_error("account_id", 7.0)),
    (_TIMELINE, {"description": None}, "'description' must be a string, got None"),
    (_TIMELINE, {"description": b"bio"}, "'description' must be a string, got b'bio'"),
    (_TIMELINE, {"snapshot_days": (), "statuses": (), "statuses_counts": ()},
     "a description without snapshots"),
    (_TIMELINE, {"statuses": ()}, "the snapshot columns differ in length"),
    (_TIMELINE, {"statuses_counts": (5, 6)}, "the snapshot columns differ in length"),
    (_TIMELINE, {"snapshot_days": (_MIDNIGHT,)},
     f"'snapshot_day' must be a date, got {_MIDNIGHT!r}"),
    (_TIMELINE, {"snapshot_days": ("2021-04-26",)},
     "'snapshot_day' must be a date, got '2021-04-26'"),
    (_TIMELINE, {"statuses": ("active",)}, "'status' must be an AccountStatus, got 'active'"),
    (_TIMELINE, {"statuses": (None,)}, "'status' must be an AccountStatus, got None"),
    (_TIMELINE, {"statuses_counts": (True,)},
     "'statuses_count' must be an integer >= 0, got True"),
    (_TIMELINE, {"statuses_counts": (5.0,)},
     "'statuses_count' must be an integer >= 0, got 5.0"),
    (_TIMELINE, {"statuses_counts": (-1,)},
     "'statuses_count' must be an integer >= 0, got -1"),
    (_TIMELINE, {"statuses_counts": (None,)}, "active snapshots must carry a tweet count"),
    (_TIMELINE, {"snapshot_days": (_NEXT_DAY, _DAY), "statuses": (_ACTIVE, _SUSPENDED),
                 "statuses_counts": (5, None)}, "timeline days must be strictly increasing"),
    (_TIMELINE, {"snapshot_days": (_DAY, _DAY), "statuses": (_ACTIVE, _SUSPENDED),
                 "statuses_counts": (5, None)}, "timeline days must be strictly increasing"),
    (_TIMELINE, {"deletion_days": (_DAY, _DAY), "deletion_counts": (2, 2),
                 "deleted_ages_days": ((1,), ())}, "timeline days must be strictly increasing"),
    (_TIMELINE, {"deletion_days": (_NEXT_DAY, _DAY), "deletion_counts": (2, 2),
                 "deleted_ages_days": ((1,), ())}, "timeline days must be strictly increasing"),
    (_SNAPSHOT, {"status": "active"}, "'status' must be an AccountStatus, got 'active'"),
    (_VIOLATION, {"account_id": True}, _positive_int_error("account_id", True)),
    (_VIOLATION, {"account_id": 0}, _positive_int_error("account_id", 0)),
    (_VIOLATION, {"day": _MIDNIGHT}, f"'day' must be a date, got {_MIDNIGHT!r}"),
    (_VIOLATION, {"count_diff": 10.0}, "'count_diff' must be an integer, got 10.0"),
    (_VIOLATION, {"deletions": 2500.0}, "'deletions' must be an integer >= 0, got 2500.0"),
    (_VIOLATION, {"count_diff": 2511, "deletions": -1},
     "'deletions' must be an integer >= 0, got -1"),
    (_VIOLATION, {"stale_suspect": 1}, "'stale_suspect' must be a bool, got 1"),
    (_VIOLATION, {"stale_suspect": None}, "'stale_suspect' must be a bool, got None"),
])
def test_constructor_refuses_what_its_reader_refuses(record, change, message):
    with pytest.raises(ValueError) as err:
        replace(record, **change)
    assert str(err.value) == message


@given(st.integers(-(2**70), 2**70))
def test_int_text_field_reads_what_str_writes(value):
    assert r.int_text_field(str(value), "n") == value


@pytest.mark.parametrize(
    "text", ["", "-", "+5", "-0", "00", "012", "-012", " 12", "12 ", "1_2",
             "\u0661\u0662", "1.0", "1e3", "0x1f", "12\n"],
)
def test_int_text_field_rejects_other_forms(text):
    with pytest.raises(r.RecordParseError, match="'n' must be an integer"):
        r.int_text_field(text, "n")


@given(st.floats(allow_nan=False))
def test_float_text_field_reads_what_repr_writes(value):
    assert r.float_text_field(repr(value), "x") == value


@pytest.mark.parametrize(
    "text", ["", " 0.5", "0.5 ", "+0.5", "0.0_1", "\u0660.\u0665", ".5", "5.", "1E-05",
             "1e5", "0x1", "NaN", "Infinity", "1,5", "0.5\n"],
)
def test_float_text_field_rejects_other_forms(text):
    with pytest.raises(r.RecordParseError, match="'x' must be a decimal number"):
        r.float_text_field(text, "x")


@given(st.dates())
def test_day_field_reads_what_isoformat_writes(day):
    assert r.day_field(day.isoformat(), "day") == day


@pytest.mark.parametrize(
    "value",
    ["20210426", "2021-W17-1", "2021W171", "2021-W17", "2021-116", "2021-04-26T00:00",
     "2021-4-26", "2021-02-30", " 2021-04-26", "2021-04-26 ", "\u0662021-04-26", "",
     20210426, None, ["2021-04-26"]],
)
def test_day_field_rejects_other_forms(value):
    """Only ``YYYY-MM-DD``, on every Python: 3.11's ``date.fromisoformat``
    also reads the basic and week forms."""
    with pytest.raises(r.RecordParseError, match="'day' must be an ISO day"):
        r.day_field(value, "day")


#: Timestamps 3.11's ``datetime.fromisoformat`` reads and 3.10's does not.
LATER_PYTHON_STAMPS = ["20210426T000000Z", "2021-04-26T00:00:00+0000",
                       "2021-04-26T00:00:00,5Z", "2021-W17-1T00:00:00Z"]


@pytest.mark.parametrize(
    "stamp",
    [*LATER_PYTHON_STAMPS, "2021-04-26T00:00:00.5Z", "2021-04-26T00:00:00.1234Z",
     "2021-04-26T00:00:00+00:00:00.5", "2021-04-26T24:00:00Z", "2021-04-26T12.5",
     "2021-04-26T", "2021-04-26T00:00:00+00", "\u0662021-04-26T00:00:00Z", ""],
)
def test_parse_timestamp_rejects_other_forms(stamp):
    with pytest.raises(r.RecordParseError, match="^bad timestamp"):
        r.parse_timestamp(stamp)


_SEPARATORS = st.characters().filter(lambda c: c != "Z")


@st.composite
def _python310_stamps(draw) -> str:
    """A stamp in a form 3.10's ``datetime.fromisoformat`` documents, with
    an offset (``Z`` or ``±HH:MM[:SS[.ffffff]]``)."""
    day = draw(st.dates()).isoformat()
    two = lambda top: draw(st.integers(0, top))  # noqa: E731
    time = f"{two(23):02d}"
    fields = draw(st.integers(0, 3))
    if fields >= 1:
        time += f":{two(59):02d}"
    if fields >= 2:
        time += f":{two(59):02d}"
    if fields == 3:
        time += "." + draw(st.sampled_from(["{:03d}", "{:06d}"])).format(two(999))
    offset = draw(st.sampled_from(["Z", "+", "-"]))
    if offset != "Z":
        offset += f"{two(23):02d}:{two(59):02d}"
        seconds = draw(st.integers(0, 2))
        if seconds:
            offset += f":{two(59):02d}"
        if seconds == 2:
            offset += f".{two(999999):06d}"
    return f"{day}{draw(_SEPARATORS)}{time}{offset}"


@given(st.one_of(
    st.datetimes(timezones=st.just(UTC)).map(r.format_timestamp), _python310_stamps()
))
@settings(max_examples=500)
def test_parse_timestamp_reads_what_it_read_before(stamp):
    """Each stamp ``format_timestamp`` writes, and each 3.10 form with an
    offset, gives the instant (or the error) it gave before the form check."""
    try:
        expected = oracles.parse_timestamp_oracle(stamp)
    except (ValueError, OverflowError):
        with pytest.raises(r.RecordParseError, match="^bad timestamp"):
            r.parse_timestamp(stamp)
    else:
        assert r.parse_timestamp(stamp) == expected


@pytest.mark.parametrize("day", ["20210426", "2021-W17-1"])
def test_snapshot_day_in_another_iso_form_names_its_line(tmp_path, day):
    good = {"account_id": 1, "snapshot_day": "2021-04-26", "statuses_count": 5,
            "status": "active"}
    path = tmp_path / "snapshots.ndjson"
    path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'snapshot_day': day})}\n")
    with pytest.raises(r.RecordParseError, match="line 2: .*'snapshot_day'"):
        list(r.read_snapshots(path))


class TestInvalidUtf8:
    def test_names_its_line(self, tmp_path):
        path = tmp_path / "input.ndjson"
        path.write_bytes(b'{"a":"caf\xc3\xa9"}\n\n{"a":"\xff"}\n')
        lines = r._lines(path)
        assert next(lines) == (1, '{"a":"café"}')
        with pytest.raises(r.RecordParseError, match="invalid UTF-8") as err:
            next(lines)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("raw", [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf"])
    def test_every_reader_names_the_line(self, tmp_path, raw):
        path = tmp_path / "input.ndjson"
        path.write_bytes(b"\n" + SPEC_LINE.encode()[:-2] + raw + b'"}\n')
        for read in (
            r.read_notices,
            r.notice_rows,
            r.read_snapshots,
            lambda p: ingest.aggregate_events(p)[0],
        ):
            with pytest.raises(r.RecordParseError, match="line 2: invalid UTF-8"):
                list(read(path))


def test_line_forms_are_known_only_to_records():
    """Only ``records`` reads or writes the exact event and snapshot line forms."""
    package = Path(r.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "records.py":
            text = path.read_text(encoding="utf-8")
            for name in ("NOTICE_LINE", "SNAPSHOT_LINE"):
                assert name not in text, f"{path.name} refers to records.{name}"


def test_only_records_numbers_lines():
    """No function in the package takes a ``line_number`` but
    ``RecordParseError.__init__``, and no module but ``records`` sets one: the
    decoders raise without it and the readers in ``records`` add the line."""
    package = Path(r.__file__).parent
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        exempt = [
            item
            for node in nodes
            if isinstance(node, ast.ClassDef) and node.name == "RecordParseError"
            for item in node.body
            if path.name == "records.py" and getattr(item, "name", None) == "__init__"
        ]
        for node in nodes:
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                assert "line_number" not in names or any(node is e for e in exempt), (
                    f"{where} takes a line_number"
                )
            if path.name == "records.py":
                continue
            if isinstance(node, ast.Attribute):
                assert node.attr != "line_number", f"{where} sets a line number"
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "RecordParseError", "UnknownKindError"
            ):
                assert len(node.args) == 1 and not node.keywords, (
                    f"{where} raises with a line number"
                )


def _estimate(*flags):
    parser, _ = cli.build_parser()
    args = parser.parse_args(["estimate", "--timelines", "unread", "--out", "unwritten", *flags])
    return args.func(args)


_EMPTY_GRAPH = coordination.detect_coordination([], [])


@pytest.mark.parametrize("call, message", [
    (lambda: r.check_at_least("n", 2, 3), "n must be >= 3, got 2"),
    (lambda: ingest.aggregate_daily([], 0), "threshold must be >= 1, got 0"),
    (lambda: ingest.aggregate_daily_sharded([], -1), "threshold must be >= 1, got -1"),
    (lambda: ingest.aggregate_events("unread", 0), "threshold must be >= 1, got 0"),
    (lambda: coordination.filter_unlikers(
        coordination.TripartiteNetwork(frozenset(), frozenset()), 0),
     "min_unlikes must be >= 1, got 0"),
    (lambda: coordination.filter_components(_EMPTY_GRAPH, 0), "min_nodes must be >= 1, got 0"),
    (lambda: coordination.detect_coordination([], [], min_unlikes=0),
     "min_unlikes must be >= 1, got 0"),
    (lambda: coordination.detect_coordination([], [], min_component=-2),
     "min_nodes must be >= 1, got -2"),
    (lambda: flooding.detect([], limit=0), "limit must be >= 1, got 0"),
    (lambda: behavior.summarize([], [], window_days=0), "window_days must be >= 1, got 0"),
    (lambda: behavior.frequency_buckets([], window_days=-3), "window_days must be >= 1, got -3"),
    (lambda: behavior.profile_terms([], top_k=0), "top_k must be >= 1, got 0"),
    (lambda: synth.PopulationSpec((), days=0), "days must be >= 1, got 0"),
    (lambda: _estimate("--permutations", "-5"), "--permutations must be >= 0, got -5"),
    (lambda: _estimate("--seed", "-1"), "--seed must be >= 0, got -1"),
])
def test_each_at_least_check_names_its_parameter_and_value(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("read, message", [
    (lambda path: r.read_json(path, "the file"), "the file is nested too deeply"),
    (synth.read_population_spec, "population spec is nested too deeply"),
    (synth.read_ground_truth, "ground truth is nested too deeply"),
])
def test_whole_file_json_nested_too_deeply_is_a_value_error(tmp_path, read, message):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == message
