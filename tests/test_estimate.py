from __future__ import annotations

import random
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from delstream import estimate as e
from delstream.ingest import AccountTimeline
from delstream.records import AccountStatus

UTC = timezone.utc
DAY0 = date(2021, 4, 26)


def day(offset: int) -> date:
    return DAY0 + timedelta(days=offset)


def record(account_id: int, offset: int, count: int) -> tuple[int, date, int]:
    """An actual deletion day as ``pair_observations`` and ``compare`` take it."""
    return account_id, day(offset), count


def make_timeline(counts: dict[int, int], records=(), suspended=()) -> AccountTimeline:
    """Account 1's timeline: a count on each day offset in ``counts``, active
    unless the offset is in ``suspended``, and a deletion day per record."""
    offsets = sorted(counts)
    return AccountTimeline(
        1,
        tuple(day(offset) for offset in offsets),
        tuple(AccountStatus.SUSPENDED if offset in suspended else AccountStatus.ACTIVE
              for offset in offsets),
        tuple(counts[offset] for offset in offsets),
        tuple(day for _, day, _ in records),
        tuple(count for _, _, count in records),
        ((),) * len(records),
    )


def actuals(timeline: AccountTimeline) -> list[tuple[int, date, int]]:
    return [
        (timeline.account_id, day, count)
        for day, count in zip(timeline.deletion_days, timeline.deletion_counts)
    ]


class TestConsecutiveEstimate:
    def test_monday_tuesday_example(self):
        assert e.estimate_consecutive(500, 400) == 100

    def test_flat_count_gives_nothing(self):
        assert e.estimate_consecutive(100, 100) is None

    def test_rising_count_gives_nothing(self):
        assert e.estimate_consecutive(50, 80) is None

    @given(
        posts=st.integers(1, 10_000),
        deleted=st.integers(1, 10_000),
        start=st.integers(0, 10**6),
    )
    @settings(max_examples=200)
    def test_lower_bound_when_deletions_exceed_posts(self, posts, deleted, start):
        # account posts and deletes within the interval; the estimate can
        # only see the net decrease
        if deleted <= posts:
            deleted = posts + deleted
        count_end = start + posts - deleted
        if count_end < 0:
            return
        estimated = e.estimate_consecutive(start, count_end)
        assert estimated == deleted - posts
        assert estimated < deleted


class TestGapEstimate:
    def test_three_day_gap(self):
        result = e.estimate_gap(1000, 700, day(0), day(3), account_id=8)
        assert result.estimated_daily == 100.0
        assert result.is_gap
        assert (result.interval_start, result.interval_end) == (day(0), day(3))

    def test_single_day_gap_reduces_to_consecutive(self):
        gap = e.estimate_gap(500, 400, day(0), day(1))
        assert not gap.is_gap
        assert gap.estimated_daily == e.estimate_consecutive(500, 400)

    def test_flat_counts_give_nothing(self):
        assert e.estimate_gap(300, 300, day(0), day(2)) is None

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            e.estimate_gap(10, 5, day(3), day(3))
        with pytest.raises(ValueError):
            e.estimate_gap(10, 5, day(3), day(1))

    @given(
        count_start=st.integers(1, 10**6),
        drop=st.integers(1, 10**5),
        span=st.integers(1, 20),
    )
    @settings(max_examples=150)
    def test_one_day_span_bit_identical_to_consecutive(self, count_start, drop, span):
        consecutive = e.estimate_consecutive(count_start, count_start - drop)
        gap = e.estimate_gap(count_start, count_start - drop, day(0), day(span))
        assert gap.estimated_daily == consecutive / span
        if span == 1:
            assert gap.estimated_daily == consecutive


class TestTimelineEstimates:
    def test_consecutive_and_gap_mix(self):
        timeline = make_timeline({0: 1000, 1: 940, 4: 640, 5: 700})
        estimates = e.estimate_timeline(timeline)
        assert len(estimates) == 2
        first, second = estimates
        assert (first.estimated_daily, first.is_gap) == (60.0, False)
        assert (second.estimated_daily, second.is_gap) == (100.0, True)
        # the 5th day count rose, so no estimate there

    def test_suspended_day_counts_not_used(self):
        timeline = make_timeline({0: 100, 1: 90, 2: 60}, suspended={1})
        estimates = e.estimate_timeline(timeline)
        assert len(estimates) == 1
        assert estimates[0].is_gap
        assert estimates[0].estimated_daily == 20.0


class TestSampledTweets:
    def test_first_and_last_counts(self):
        observations = [
            (datetime(2021, 12, 16, 1, tzinfo=UTC), 5000),
            (datetime(2021, 12, 16, 9, tzinfo=UTC), 4950),
            (datetime(2021, 12, 16, 23, tzinfo=UTC), 4900),
        ]
        assert e.estimate_from_sampled_tweets(observations) == 100

    def test_single_observation_gives_nothing(self):
        assert (
            e.estimate_from_sampled_tweets([(datetime(2021, 12, 16, tzinfo=UTC), 10)])
            is None
        )

    def test_shuffle_invariant(self):
        rng = random.Random(4)
        observations = [
            (datetime(2021, 12, 16, tzinfo=UTC) + timedelta(minutes=i), 9000 - 3 * i)
            for i in range(50)
        ]
        expected = sorted(observations)[0][1] - sorted(observations)[-1][1]
        for _ in range(10):
            rng.shuffle(observations)
            assert e.estimate_from_sampled_tweets(observations) == expected


class TestCcdf:
    def test_singleton(self):
        assert e.ccdf([5]) == [(5.0, 1.0)]

    def test_three_values(self):
        assert e.ccdf([1, 2, 3]) == [(1.0, 1.0), (2.0, 2 / 3), (3.0, 1 / 3)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            e.ccdf([])

    def test_matches_counting_oracle(self):
        rng = random.Random(11)
        samples = [rng.randrange(0, 200) for _ in range(1000)]
        assert e.ccdf(samples) == oracles.ccdf_brute_force(samples)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_monotone_nonincreasing_from_one(self, samples):
        points = e.ccdf(samples)
        fractions = [fraction for _, fraction in points]
        assert fractions[0] == 1.0
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))


class TestKsTwoSample:
    def test_identical_samples(self):
        assert e.ks_two_sample([1, 2, 3], [1, 2, 3]).statistic == 0.0

    def test_disjoint_supports(self):
        assert e.ks_two_sample([1, 2], [3, 4]).statistic == 1.0

    def test_brute_force_sup(self):
        got = e.ks_two_sample([1, 2, 3, 4], [2, 3, 4, 5]).statistic
        assert got == pytest.approx(oracles.ks_brute_force([1, 2, 3, 4], [2, 3, 4, 5]), abs=1e-15)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            e.ks_two_sample([], [1])
        with pytest.raises(ValueError):
            e.ks_two_sample([1], [])

    def test_random_pairs_against_oracle(self):
        rng = random.Random(2021)
        for _ in range(25):
            a = [rng.gauss(0, 1) for _ in range(rng.randrange(1, 300))]
            b = [rng.gauss(0.3, 1.2) for _ in range(rng.randrange(1, 300))]
            got = e.ks_two_sample(a, b).statistic
            assert abs(got - oracles.ks_brute_force(a, b)) <= 1e-12

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=60),
        st.lists(st.integers(0, 30), min_size=1, max_size=60),
    )
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        assert e.ks_two_sample(a, b).statistic == e.ks_two_sample(b, a).statistic

    def test_permutation_p_identical_is_one(self):
        result = e.ks_two_sample([1, 2, 3], [1, 2, 3], permutations=500, seed=1)
        assert result.p_value == 1.0

    def test_permutation_p_small_for_disjoint(self):
        a = list(range(0, 40))
        b = list(range(100, 140))
        result = e.ks_two_sample(a, b, permutations=2000, seed=1)
        assert result.statistic == 1.0
        assert result.p_value < 0.01

    def test_permutation_p_deterministic_for_seed(self):
        a = [1, 3, 5, 7, 8]
        b = [2, 3, 9, 11]
        first = e.ks_two_sample(a, b, permutations=300, seed=9)
        second = e.ks_two_sample(a, b, permutations=300, seed=9)
        assert first == second


@st.composite
def pairing_cases(draw):
    """Up to 8 estimates for each of two accounts in any order, some exactly
    duplicating an earlier interval, each numbered by its input position, and
    deletion days of three accounts, many on an interval start or end."""
    intervals = []
    for account in (1, 2):
        for _ in range(draw(st.integers(0, 8))):
            own = [(lo, hi) for a, lo, hi in intervals if a == account]
            if own and draw(st.integers(0, 2)) == 0:
                start, end = draw(st.sampled_from(own))
            else:
                start = draw(st.integers(0, 12))
                end = start + draw(st.integers(1, 6))
            intervals.append((account, start, end))
    intervals = draw(st.permutations(intervals))
    estimates = [
        e.DeletionEstimate(account, day(start), day(end), float(n))
        for n, (account, start, end) in enumerate(intervals, start=1)
    ]
    edges = sorted({offset for _, lo, hi in intervals for offset in (lo, hi)})
    offsets = st.integers(-1, 20)
    if edges:
        offsets = st.sampled_from(edges) | offsets
    actuals = draw(
        st.lists(
            st.builds(
                record,
                st.sampled_from([1, 2, 3]),
                offsets,
                st.integers(1, 50),
            ),
            max_size=12,
        )
    )
    return estimates, actuals


class TestPairing:
    @given(pairing_cases(), st.booleans())
    @settings(max_examples=400)
    def test_equals_brute_force_oracle(self, case, include_gaps):
        estimates, actuals = case
        pairs = e.pair_observations(estimates, actuals, include_gaps=include_gaps)
        assert [(p.account_id, p.day, p.estimated, p.actual) for p in pairs] == (
            oracles.pairing_oracle(estimates, actuals, include_gaps)
        )

    @given(pairing_cases(), st.sampled_from([0, 1, 3]), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_compare_over_triples_equals_oracles(
        self, case, floor, include_gaps, per_account_median
    ):
        estimates, actuals = case
        report = e.compare(
            estimates, iter(actuals), floor, include_gaps, per_account_median
        )
        pairs = oracles.pairing_oracle(estimates, actuals, include_gaps)
        want, want_fraction = oracles.from_pairs_numpy_oracle(
            [e.PairedDeletion(*pair) for pair in pairs], floor, per_account_median
        )
        assert report == want
        assert report.underestimation_fraction == want_fraction

    def test_actual_days_pair_with_enclosing_interval(self):
        estimates = [
            e.DeletionEstimate(1, day(0), day(1), 60.0),
            e.DeletionEstimate(1, day(1), day(4), 100.0),
        ]
        actuals = [record(1, 1, 55), record(1, 2, 80), record(1, 4, 120)]
        pairs = e.pair_observations(estimates, actuals)
        assert [(p.day, p.estimated, p.actual) for p in pairs] == [
            (day(1), 60.0, 55.0),
            (day(2), 100.0, 80.0),
            (day(4), 100.0, 120.0),
        ]

    def test_day_outside_every_interval_unpaired(self):
        estimates = [e.DeletionEstimate(1, day(0), day(1), 60.0)]
        assert e.pair_observations(estimates, [record(1, 3, 40)]) == []
        # interval start day itself is outside the half-open interval
        assert e.pair_observations(estimates, [record(1, 0, 40)]) == []

    def test_other_account_unpaired(self):
        estimates = [e.DeletionEstimate(1, day(0), day(1), 60.0)]
        assert e.pair_observations(estimates, [record(2, 1, 40)]) == []

    def test_tightest_enclosing_interval_wins(self):
        estimates = [
            e.DeletionEstimate(1, day(0), day(9), 10.0),
            e.DeletionEstimate(1, day(2), day(6), 20.0),
            e.DeletionEstimate(1, day(2), day(4), 30.0),
        ]
        pairs = e.pair_observations(estimates, [record(1, 3, 50)])
        assert [p.estimated for p in pairs] == [30.0]

    def test_gap_exclusion(self):
        estimates = [
            e.DeletionEstimate(1, day(0), day(1), 60.0),
            e.DeletionEstimate(1, day(1), day(4), 100.0),
        ]
        actuals = [record(1, 1, 55), record(1, 3, 80)]
        pairs = e.pair_observations(estimates, actuals, include_gaps=False)
        assert [(p.day, p.estimated) for p in pairs] == [(day(1), 60.0)]


class TestComparisonReport:
    def test_reported_means_fixed_point(self):
        pairs = [e.PairedDeletion(1, day(1), 94.0, 171.0)]
        report = e.ComparisonReport.from_pairs(pairs, floor=10)
        assert report.mean_estimated == 94.0
        assert report.mean_actual == 171.0
        assert report.underestimation_fraction == pytest.approx(0.45, abs=0.005)

    def test_identical_multisets(self):
        pairs = [
            e.PairedDeletion(1, day(i), float(v), float(v))
            for i, v in enumerate((12, 15, 40))
        ]
        report = e.ComparisonReport.from_pairs(pairs)
        assert report.ks_statistic == 0.0
        assert report.underestimation_fraction == 0.0

    def test_disjoint_multisets(self):
        pairs = [e.PairedDeletion(1, day(i), 100.0, 10.0) for i in range(3)]
        report = e.ComparisonReport.from_pairs(pairs)
        assert report.ks_statistic == 1.0

    def test_floor_filters_estimates(self):
        pairs = [
            e.PairedDeletion(1, day(0), 9.0, 50.0),
            e.PairedDeletion(1, day(1), 10.0, 50.0),
        ]
        report = e.ComparisonReport.from_pairs(pairs, floor=10)
        assert len(report.paired) == 1
        assert report.paired[0].estimated == 10.0

    def test_empty_report(self):
        report = e.ComparisonReport.from_pairs([], floor=10)
        assert report.is_empty
        assert report.mean_actual is None
        assert report.ks_statistic is None
        assert report.ccdf_actual == ()

    def test_per_account_median(self):
        pairs = [
            e.PairedDeletion(1, day(0), 20.0, 30.0),
            e.PairedDeletion(1, day(1), 40.0, 50.0),
            e.PairedDeletion(1, day(2), 60.0, 10.0),
            e.PairedDeletion(2, day(0), 100.0, 90.0),
        ]
        report = e.ComparisonReport.from_pairs(pairs, per_account_median=True)
        assert len(report.paired) == 2
        by_account = {p.account_id: p for p in report.paired}
        assert by_account[1].estimated == 40.0
        assert by_account[1].actual == 30.0
        assert by_account[1].day is None
        assert by_account[2].estimated == 100.0

    def test_compare_never_pairs_rising_or_flat_counts(self):
        timeline = make_timeline(
            {0: 100, 1: 100, 2: 180}, (record(1, 1, 30), record(1, 2, 40))
        )
        estimates = e.estimate_timeline(timeline)
        assert estimates == []
        report = e.compare(estimates, actuals(timeline), floor=1)
        assert report.is_empty

    def test_compare_end_to_end(self):
        timeline = make_timeline(
            {0: 1000, 1: 940, 4: 640}, (record(1, 1, 80), record(1, 3, 120))
        )
        report = e.compare(
            e.estimate_timeline(timeline), actuals(timeline), floor=10
        )
        assert [(p.estimated, p.actual) for p in report.paired] == [
            (60.0, 80.0),
            (100.0, 120.0),
        ]
        assert report.mean_estimated == 80.0
        assert report.mean_actual == 100.0
        assert report.underestimation_fraction == pytest.approx(0.2)
