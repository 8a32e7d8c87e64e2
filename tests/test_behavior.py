from __future__ import annotations

import random
from datetime import date, timedelta

import pytest

import oracles
from delstream import behavior as b
from delstream.flooding import FloodingViolation
from delstream.ingest import AccountTimeline
from delstream.records import AccountStatus

DAY0 = date(2021, 4, 26)


def day(offset: int) -> date:
    return DAY0 + timedelta(days=offset)


def timeline(account_id: int, deleting_days, per_day=20, median_age=None) -> AccountTimeline:
    days = [day(offset) for offset in sorted(deleting_days)]
    return AccountTimeline(
        account_id,
        deletion_days=days,
        deletion_counts=[per_day] * len(days),
        median_deleted_age_days=median_age,
    )


def violation(account_id: int) -> FloodingViolation:
    return FloodingViolation(account_id, day(1), 100, 3000, False)


class TestSummarize:
    def test_one_day_category(self):
        [summary] = b.summarize([timeline(1, [4])], [])
        assert summary.category is b.Category.ONE_DAY
        assert summary.deleting_days == 1

    def test_thirty_day_category(self):
        [summary] = b.summarize([timeline(1, range(30))], [])
        assert summary.category is b.Category.THIRTY_DAY

    def test_suspicious_takes_precedence(self):
        [summary] = b.summarize([timeline(1, range(30))], [violation(1)])
        assert summary.category is b.Category.SUSPICIOUS

    def test_other_category(self):
        [summary] = b.summarize([timeline(1, [1, 5, 9])], [])
        assert summary.category is b.Category.OTHER

    def test_partition_is_total_and_exclusive(self):
        timelines = [
            timeline(1, [0]),
            timeline(2, range(30)),
            timeline(3, [2, 3]),
            timeline(4, [0]),
        ]
        summaries = b.summarize(timelines, [violation(4)])
        assert [s.category for s in summaries] == [
            b.Category.ONE_DAY,
            b.Category.THIRTY_DAY,
            b.Category.OTHER,
            b.Category.SUSPICIOUS,
        ]

    def test_window_parameter(self):
        [summary] = b.summarize([timeline(1, range(7))], [], window_days=7)
        assert summary.category is b.Category.THIRTY_DAY

    def test_mean_daily_deletions(self):
        tl = AccountTimeline(1, deletion_days=(day(0), day(1)), deletion_counts=(10, 30))
        [summary] = b.summarize([tl], [])
        assert summary.mean_daily_deletions == 20.0

    def test_median_age_is_the_timelines(self):
        [summary] = b.summarize([timeline(1, [0, 3], median_age=10)], [])
        assert summary.median_deleted_age_days == 10.0
        assert type(summary.median_deleted_age_days) is float

    def test_median_age_unavailable_without_decodable_ages(self):
        [summary] = b.summarize([timeline(1, [0])], [])
        assert summary.median_deleted_age_days is None

    def test_accounts_without_deletions_skipped(self):
        bare = AccountTimeline(7, (DAY0,), (AccountStatus.ACTIVE,), (5,))
        assert b.summarize([bare], []) == []

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_day_rejected(self, window):
        with pytest.raises(ValueError, match="window_days"):
            b.summarize([timeline(1, [0])], [], window_days=window)
        with pytest.raises(ValueError, match="window_days"):
            b.frequency_buckets([], window_days=window)

    def test_bot_scores_joined(self):
        [summary] = b.summarize([timeline(1, [0])], [], bot_scores={1: 0.83})
        assert summary.bot_score == 0.83


class TestFrequencyBuckets:
    def test_constant_bucket_has_zero_iqr(self):
        summaries = b.summarize([timeline(i, [0], per_day=25) for i in (1, 2, 3)], [])
        buckets = b.frequency_buckets(summaries)
        bucket = buckets[0]
        assert bucket.deleting_days == 1
        assert bucket.count == 3
        assert bucket.q1 == bucket.median == bucket.q3 == 25.0

    def test_all_buckets_reported(self):
        buckets = b.frequency_buckets([], window_days=30)
        assert len(buckets) == 30
        assert all(bucket.count == 0 and bucket.median is None for bucket in buckets)

    def test_account_beyond_the_window_rejected(self):
        summaries = b.summarize([timeline(1, [0]), timeline(2, [0, 3, 5])], [])
        assert len(b.frequency_buckets(summaries, window_days=3)) == 3
        with pytest.raises(
            ValueError, match="account 2 deleted on 3 days, more than the window of 2"
        ):
            b.frequency_buckets(summaries, window_days=2)

    def test_quartiles_match_order_statistics_oracle(self):
        rng = random.Random(8)
        summaries = []
        for account in range(1, 500):
            deleting = rng.randrange(1, 31)
            summaries.append(
                b.AccountBehaviorSummary(
                    account,
                    deleting,
                    float(rng.randrange(10, 5000)),
                    None,
                    b.Category.OTHER,
                )
            )
        values_by_bucket = {}
        for summary in summaries:
            values_by_bucket.setdefault(summary.deleting_days, []).append(
                summary.mean_daily_deletions
            )
        for bucket in b.frequency_buckets(summaries):
            values = values_by_bucket.get(bucket.deleting_days, [])
            assert bucket.count == len(values)
            if not values:
                continue
            assert bucket.minimum == min(values)
            assert bucket.maximum == max(values)
            for got, q in ((bucket.q1, 0.25), (bucket.median, 0.5), (bucket.q3, 0.75)):
                assert got == pytest.approx(oracles.quantile_oracle(values, q), abs=1e-9)

    def test_permutation_invariant(self):
        rng = random.Random(14)
        summaries = [
            b.AccountBehaviorSummary(
                account, rng.randrange(1, 31), float(rng.randrange(10, 500)),
                None, b.Category.OTHER,
            )
            for account in range(1, 200)
        ]
        baseline = b.frequency_buckets(summaries)
        shuffled = summaries[:]
        rng.shuffle(shuffled)
        assert b.frequency_buckets(shuffled) == baseline


class TestMedianAgeCcdf:
    def make_summary(self, account_id, median_age, category=b.Category.ONE_DAY):
        return b.AccountBehaviorSummary(account_id, 1, 20.0, median_age, category)

    def test_same_day_population_masses_at_zero(self):
        summaries = [self.make_summary(i, 0.0) for i in range(1, 6)]
        assert b.median_age_ccdf(summaries, b.Category.ONE_DAY) == [(0.0, 1.0)]

    def test_half_population_at_375(self):
        summaries = [
            self.make_summary(i, 375.0 if i % 2 == 0 else 40.0) for i in range(1, 41)
        ]
        points = dict(b.median_age_ccdf(summaries, b.Category.ONE_DAY))
        assert points[375.0] == 0.5

    def test_empty_category(self):
        summaries = [self.make_summary(1, 10.0)]
        assert b.median_age_ccdf(summaries, b.Category.SUSPICIOUS) == []

    def test_unavailable_medians_excluded(self):
        summaries = [self.make_summary(1, None), self.make_summary(2, 7.0)]
        assert b.median_age_ccdf(summaries, b.Category.ONE_DAY) == [(7.0, 1.0)]


class TestDailyVolumeCcdf:
    def test_heavy_tailed_population(self):
        rng = random.Random(19)
        counts = [10 + min(int(rng.paretovariate(1.2)), 50_000) for _ in range(2000)]
        points = b.daily_volume_ccdf(counts)
        fractions = [fraction for _, fraction in points]
        assert fractions[0] == 1.0
        assert all(later <= earlier for earlier, later in zip(fractions, fractions[1:]))
        assert points[0][0] >= 10.0

    def test_empty(self):
        assert b.daily_volume_ccdf([]) == []


def rows(summaries, statuses) -> dict:
    """``suspension_stats``' rows by category."""
    return {row.category: row for row in b.suspension_stats(summaries, statuses)}


class TestSuspensionStats:
    def make_population(self, total, suspended_count, category):
        summaries = [
            b.AccountBehaviorSummary(i, 1, 20.0, None, category)
            for i in range(1, total + 1)
        ]
        statuses = {
            i: AccountStatus.SUSPENDED if i <= suspended_count else AccountStatus.ACTIVE
            for i in range(1, total + 1)
        }
        return summaries, statuses

    def test_suspicious_rate(self):
        summaries, statuses = self.make_population(1715, 13, b.Category.SUSPICIOUS)
        row = rows(summaries, statuses)[b.Category.SUSPICIOUS]
        assert (row.suspended, row.total) == (13, 1715)
        assert row.fraction == pytest.approx(0.0076, abs=0.0001)

    def test_zero_suspended(self):
        summaries, statuses = self.make_population(50, 0, b.Category.ONE_DAY)
        row = rows(summaries, statuses)[b.Category.ONE_DAY]
        assert row.fraction == 0.0

    def test_missing_status_counted_with_residual(self):
        summaries, statuses = self.make_population(10, 2, b.Category.OTHER)
        del statuses[10]
        row = rows(summaries, statuses)[b.Category.OTHER]
        assert row.total == 10
        assert row.unknown == 1
        assert row.suspended == 2

    def test_matches_counting_oracle(self):
        rng = random.Random(3)
        summaries, statuses = [], {}
        for account in range(1, 800):
            category = rng.choice(list(b.Category))
            summaries.append(
                b.AccountBehaviorSummary(account, 2, 15.0, None, category)
            )
            roll = rng.random()
            if roll < 0.2:
                statuses[account] = AccountStatus.SUSPENDED
            elif roll < 0.9:
                statuses[account] = AccountStatus.ACTIVE
        table = b.suspension_stats(summaries, statuses)
        assert [row.category for row in table] == list(b.Category)
        for category, row in zip(b.Category, table):
            members = [s for s in summaries if s.category is category]
            expected_suspended = sum(
                1
                for s in members
                if statuses.get(s.account_id) is AccountStatus.SUSPENDED
            )
            assert row.total == len(members)
            assert row.suspended == expected_suspended
            assert row.fraction == (expected_suspended / len(members) if members else 0.0)
            assert row.unknown == sum(
                1 for s in members if s.account_id not in statuses
            )


class TestProfileTerms:
    def test_follow_ranked_first(self):
        ranked = b.profile_terms(["follow back", "follow train"], top_k=3)
        assert ranked[0] == ("follow", 2)

    def test_all_stopword_corpus(self):
        assert b.profile_terms(["the and of", "to in for"], top_k=5) == []

    def test_ties_broken_lexicographically(self):
        ranked = b.profile_terms(["zebra apple", "zebra apple"], top_k=2)
        assert ranked == [("apple", 2), ("zebra", 2)]

    def test_top_k_validation(self):
        with pytest.raises(ValueError):
            b.profile_terms(["x"], top_k=0)

    def test_custom_stopwords(self):
        ranked = b.profile_terms(["promo promo deals"], top_k=5, stopwords={"promo"})
        assert ranked == [("deals", 1)]

    def test_matches_counting_oracle(self):
        rng = random.Random(77)
        vocabulary = ["follow", "back", "promo", "deals", "train", "the", "crypto", "nft"]
        descriptions = [
            " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(0, 12)))
            for _ in range(1000)
        ]
        expected = oracles.term_count_oracle(descriptions, b.DEFAULT_STOPWORDS)
        ranked = b.profile_terms(descriptions, top_k=len(vocabulary))
        assert dict(ranked) == expected
        counts = [count for _, count in ranked]
        assert counts == sorted(counts, reverse=True)


class TestVolumeSlices:
    def test_top_and_bottom(self):
        summaries = [
            b.AccountBehaviorSummary(i, 30, float(i * 10), None, b.Category.THIRTY_DAY)
            for i in range(1, 21)
        ]
        top, bottom = b.volume_slices(summaries, b.Category.THIRTY_DAY, 0.1)
        assert [s.account_id for s in top] == [20, 19]
        assert [s.account_id for s in bottom] == [2, 1]

    def test_empty_category(self):
        assert b.volume_slices([], b.Category.THIRTY_DAY) == ([], [])
