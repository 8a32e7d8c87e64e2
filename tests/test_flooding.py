from __future__ import annotations

import random
import re
import tempfile
from datetime import date, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delstream import flooding
from delstream.ingest import AccountTimeline
from delstream.records import AccountStatus, RecordParseError

UTC = timezone.utc
DAY0 = date(2021, 4, 26)


def day(offset: int) -> date:
    return DAY0 + timedelta(days=offset)


def timeline(account_id: int, counts: dict[int, int | None],
             deletions: dict[int, int] = {}) -> AccountTimeline:
    offsets = sorted(counts)
    deleted = sorted(deletions)
    return AccountTimeline(
        account_id,
        tuple(day(offset) for offset in offsets),
        tuple(AccountStatus.ACTIVE if counts[offset] is not None else AccountStatus.SUSPENDED
              for offset in offsets),
        tuple(counts[offset] for offset in offsets),
        tuple(day(offset) for offset in deleted),
        tuple(deletions[offset] for offset in deleted),
        ((),) * len(deleted),
    )


class TestTotalPosted:
    def test_negative_diff_example(self):
        # deleted 100, posted 80: count drops 20
        assert flooding.total_posted(1000, 980, 100) == 80

    def test_idle_account(self):
        assert flooding.total_posted(0, 0, 0) == 0

    def test_six_second_cycle_day(self):
        # 14,400 posted, 12,000 deleted, count ends +2,400
        assert flooding.total_posted(50_000, 52_400, 12_000) == 14_400

    @given(
        n_prev=st.integers(0, 10**7),
        posts=st.integers(0, 10**5),
        deleted=st.integers(0, 10**5),
    )
    @settings(max_examples=300)
    def test_exact_under_the_model(self, n_prev, posts, deleted):
        n_curr = n_prev + posts - deleted
        if n_curr < 0:
            return
        assert flooding.total_posted(n_prev, n_curr, deleted) == posts


class TestDetect:
    def test_limit_boundary_exact(self):
        at_limit = timeline(1, {0: 1000, 1: 1000}, {1: 2400})
        over = timeline(2, {0: 1000, 1: 1001}, {1: 2400})
        assert flooding.detect([at_limit]) == []
        violations = flooding.detect([over])
        assert len(violations) == 1
        assert violations[0].total_posted == 2401
        assert violations[0].day == day(1)

    def test_no_consecutive_snapshots_no_violation(self):
        gapped = timeline(1, {0: 1000, 2: 50_000}, {1: 9000, 2: 9000})
        assert flooding.detect([gapped]) == []

    def test_suspended_middle_day_breaks_consecutiveness(self):
        suspended = timeline(1, {0: 1000, 1: None, 2: 50_000}, {2: 9000})
        assert flooding.detect([suspended]) == []

    def test_missing_deletion_record_counts_zero(self):
        stale_counts = timeline(1, {0: 1000, 1: 4000})
        violations = flooding.detect([stale_counts])
        assert len(violations) == 1
        assert violations[0].deletions == 0
        assert violations[0].total_posted == 3000
        assert not violations[0].stale_suspect

    def test_stale_suspect_flag(self):
        # large deletion volume with no matching count decrease
        lagging = timeline(1, {0: 1000, 1: 1010}, {1: 5000})
        flagged = flooding.detect([lagging])[0]
        assert flagged.stale_suspect
        assert flagged.count_diff == 10

        # real decrease alongside the deletions: not stale
        decreasing = timeline(2, {0: 10_000, 1: 7000}, {1: 6000})
        violation = flooding.detect([decreasing])[0]
        assert violation.total_posted == 3000
        assert not violation.stale_suspect

    def test_exclude_stale_switch(self):
        lagging = timeline(1, {0: 1000, 1: 1010}, {1: 5000})
        assert flooding.detect([lagging], exclude_stale=True) == []
        assert len(flooding.detect([lagging], exclude_stale=False)) == 1

    def test_allowlist_suppressed(self):
        flooder = timeline(77, {0: 1000, 1: 3400}, {1: 2000})
        assert flooding.detect([flooder], allowlist={77}) == []
        assert len(flooding.detect([flooder])) == 1

    def test_output_ordering(self):
        flooders = [
            timeline(5, {0: 0, 1: 5000, 2: 10_000}),
            timeline(3, {0: 0, 1: 5000}),
        ]
        violations = flooding.detect(flooders)
        assert [(v.account_id, v.day) for v in violations] == [
            (3, day(1)),
            (5, day(1)),
            (5, day(2)),
        ]

    def test_violations_monotone_in_limit(self):
        rng = random.Random(5)
        timelines = []
        for account in range(1, 60):
            counts = {0: 10_000}
            deletions = {}
            for offset in range(1, 6):
                counts[offset] = max(0, counts[offset - 1] + rng.randrange(-3000, 4000))
                if rng.random() < 0.6:
                    deletions[offset] = rng.randrange(10, 4000)
            timelines.append(timeline(account, counts, deletions))
        previous = None
        for limit in (1200, 2400, 4800, 9600):
            current = {
                (v.account_id, v.day) for v in flooding.detect(timelines, limit=limit)
            }
            if previous is not None:
                assert current <= previous
            previous = current


class TestViolatorProfiles:
    def test_single_violation_not_repeat(self):
        profiles = flooding.profile_violators(
            flooding.detect([timeline(1, {0: 0, 1: 5000})])
        )
        assert profiles == [flooding.ViolatorProfile(1, (day(1),))]
        assert not profiles[0].repeat

    def test_two_violations_repeat(self):
        violations = flooding.detect([timeline(1, {0: 0, 1: 5000, 2: 10_000})])
        profiles = flooding.profile_violators(violations)
        assert profiles[0].repeat
        assert profiles[0].violation_days == (day(1), day(2))

    def test_synthetic_recovery(self):
        rng = random.Random(31)
        planted = set(rng.sample(range(1, 200), 25))
        timelines = []
        for account in range(1, 200):
            if account in planted:
                timelines.append(timeline(account, {0: 1000, 1: 1300}, {1: 2200}))
            else:
                timelines.append(timeline(account, {0: 1000, 1: 1200}, {1: 800}))
        violations = flooding.detect(timelines)
        detected = {v.account_id for v in violations}
        assert detected == planted  # precision and recall both 1.0


class TestInvariants:
    @pytest.mark.parametrize("cells, error", [
        ("10,10,21", "total_posted must equal count_diff + deletions"),
        ("10,2500,2511", "total_posted must equal count_diff + deletions"),
        ("-10,0,10", "total_posted must equal count_diff + deletions"),
        ("2511,-1,2511", "'deletions' must be an integer >= 0, got -1"),
        ("10,2500,2510.0", "'total_posted' must be an integer, got '2510.0'"),
    ])
    def test_total_posted_consistency_enforced(self, tmp_path, cells, error):
        """``total_posted`` is derived, so the reader checks the cell against
        the sum, after every field the record checks."""
        path = tmp_path / "violations.csv"
        path.write_text(
            "account_id,day,count_diff,deletions,total_posted,stale_suspect\n"
            "1,2021-04-26,10,2500,2510,1\n"
            f"2,2021-04-26,{cells},0\n"
        )
        with pytest.raises(RecordParseError, match=f"^line 3: bad row: {re.escape(error)}$"):
            flooding.read_violations(path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(
        flooding.FloodingViolation,
        st.integers(1, 2**70), st.dates(), st.integers(-(2**70), 2**70),
        st.integers(0, 2**70), st.booleans(),
    ), max_size=4))
    def test_any_violation_reads_back(self, violations):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "violations.csv"
            flooding.write_violations(path, violations)
            assert flooding.read_violations(path) == violations

    def test_csv_roundtrip(self, tmp_path):
        violations = flooding.detect(
            [
                timeline(1, {0: 1000, 1: 1010}, {1: 5000}),
                timeline(2, {0: 0, 1: 2500}),
            ]
        )
        path = tmp_path / "violations.csv"
        flooding.write_violations(path, violations)
        assert flooding.read_violations(path) == violations

    @pytest.mark.parametrize(
        "account_id, stale, error",
        [
            ("1", "7", "'stale_suspect' must be 0 or 1, got '7'"),
            ("1", "-1", "'stale_suspect' must be 0 or 1, got '-1'"),
            ("1", "", "'stale_suspect' must be 0 or 1, got ''"),
            ("1", "true", "'stale_suspect' must be 0 or 1, got 'true'"),
            ("١٢", "0", "bad account ID '١٢'"),
            (" 1_0", "0", "bad account ID ' 1_0'"),
            ("-3", "1", "bad account ID '-3'"),
        ],
    )
    def test_csv_bad_account_id_or_stale_flag_names_its_line(
        self, tmp_path, account_id, stale, error
    ):
        path = tmp_path / "violations.csv"
        path.write_text(
            "account_id,day,count_diff,deletions,total_posted,stale_suspect\n"
            "1,2021-04-26,10,2500,2510,1\n"
            f"{account_id},2021-04-27,10,2500,2510,{stale}\n",
            encoding="utf-8",
        )
        with pytest.raises(RecordParseError, match=f"^line 3: bad row: {error}$"):
            flooding.read_violations(path)
