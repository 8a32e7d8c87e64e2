from __future__ import annotations

import math
import random
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from delstream import behavior, coordination, estimate, flooding, ingest, synth
from delstream.records import (
    MIN_TIME_ENCODED_ID,
    SNOWFLAKE_EPOCH_MS,
    NoticeKind,
    creation_ms,
    serialize_notice,
    serialize_snapshot,
    write_notices,
    write_snapshots,
)


def cohort(kind, count, **params):
    return synth.Cohort(synth.BehaviorProfile(kind=kind, **params), count)


BASIC_SPEC = synth.PopulationSpec(
    cohorts=(
        cohort(
            synth.ProfileKind.NORMAL_DELETER,
            12,
            post_rate=4,
            delete_rate=18,
            delete_days=(1, 4, 7),
            age_median_days=60,
        ),
        cohort(synth.ProfileKind.FLOODER, 2, post_rate=3, flood_days=(3,)),
        cohort(
            synth.ProfileKind.MASS_DELETER,
            3,
            post_rate=2,
            delete_rate=5000,
            delete_days=(2,),
            age_median_days=400,
        ),
        cohort(
            synth.ProfileKind.LIKE_FARM_HUB,
            2,
            farm_size=11,
            farm_day=5,
            spoke_unlikes=6,
        ),
        cohort(synth.ProfileKind.IDLE, 4, post_rate=1),
    ),
    days=9,
)


@pytest.fixture(scope="module")
def dataset():
    return synth.generate(BASIC_SPEC, seed=123)


class TestConsistency:
    def test_snapshot_counts_follow_activity(self, dataset):
        truth = dataset.truth
        by_account_day = {
            (s.account_id, s.snapshot_day): s.statuses_count
            for s in dataset.snapshots
        }
        for account_id, posts in truth.daily_posts.items():
            if truth.kinds[account_id] is synth.ProfileKind.LIKE_FARM_SPOKE:
                continue
            deletions = truth.daily_deletions[account_id]
            for offset in range(1, truth.days):
                prev_day = truth.start_day + timedelta(days=offset - 1)
                curr_day = truth.start_day + timedelta(days=offset)
                n_prev = by_account_day.get((account_id, prev_day))
                n_curr = by_account_day.get((account_id, curr_day))
                if n_prev is None or n_curr is None:
                    continue
                assert n_curr - n_prev + deletions[offset] == posts[offset]

    def test_event_counts_match_truth(self, dataset):
        deleted = {}
        for notice in dataset.notices:
            if notice.kind is NoticeKind.TWEET_DELETE:
                offset = (notice.observed_at.date() - dataset.truth.start_day).days
                key = (notice.actor_id, offset)
                deleted[key] = deleted.get(key, 0) + 1
        for account_id, deletions in dataset.truth.daily_deletions.items():
            for offset, expected in enumerate(deletions):
                assert deleted.get((account_id, offset), 0) == expected

    def test_tweet_ids_unique(self, dataset):
        delete_ids = [
            n.object_id for n in dataset.notices if n.kind is NoticeKind.TWEET_DELETE
        ]
        assert len(delete_ids) == len(set(delete_ids))


class TestDeterminism:
    def test_same_seed_identical_bytes(self, dataset):
        again = synth.generate(BASIC_SPEC, seed=123)
        assert [serialize_notice(n) for n in again.notices] == [
            serialize_notice(n) for n in dataset.notices
        ]
        assert [serialize_snapshot(s) for s in again.snapshots] == [
            serialize_snapshot(s) for s in dataset.snapshots
        ]
        assert synth.ground_truth_to_dict(again.truth) == synth.ground_truth_to_dict(
            dataset.truth
        )

    def test_different_seed_differs(self, dataset):
        other = synth.generate(BASIC_SPEC, seed=124)
        assert [serialize_notice(n) for n in other.notices] != [
            serialize_notice(n) for n in dataset.notices
        ]

    def test_seed_past_64_bits_is_its_own_seed(self):
        spec = synth.PopulationSpec((cohort(
            synth.ProfileKind.NORMAL_DELETER, 2, post_rate=3, delete_rate=12,
            age_median_days=30,
        ),), days=2)
        assert synth.generate(spec, 2**64 + 5).rows != synth.generate(spec, 5).rows


class TestProfiles:
    def test_six_cycle_flooder_posts_14400(self):
        spec = synth.PopulationSpec(
            cohorts=(cohort(synth.ProfileKind.FLOODER, 1, flood_days=(2,)),), days=4
        )
        data = synth.generate(spec, seed=1)
        assert data.truth.daily_posts[1][2] == 14_400
        assert data.truth.daily_deletions[1][2] == 12_000
        assert data.truth.categories[1] is behavior.Category.SUSPICIOUS

    def test_idle_population_produces_no_deletions(self):
        spec = synth.PopulationSpec(
            cohorts=(cohort(synth.ProfileKind.IDLE, 5, post_rate=2),), days=5
        )
        data = synth.generate(spec, seed=3)
        assert data.notices == ()
        assert data.truth.categories == {}

    def test_mass_deleter_capped_at_timeline_limit(self, dataset):
        for account_id, kind in dataset.truth.kinds.items():
            if kind is synth.ProfileKind.MASS_DELETER:
                assert max(dataset.truth.daily_deletions[account_id]) <= 3200

    def test_old_content_produces_undecodable_ids(self):
        spec = synth.PopulationSpec(
            cohorts=(
                cohort(
                    synth.ProfileKind.MASS_DELETER,
                    2,
                    delete_rate=600,
                    delete_days=(0,),
                    age_median_days=4200,  # reaches back before the ID epoch
                    age_sigma=0.3,
                ),
            ),
            days=1,
        )
        data = synth.generate(spec, seed=5)
        records = ingest.aggregate_daily(data.notices)
        assert records
        for timeline in ingest.build_timelines([], records):
            for ages, count in zip(timeline.deleted_ages_days, timeline.deletion_counts):
                assert len(ages) < count

    def test_gap_days_drop_snapshots_and_feed_gap_estimates(self):
        spec = synth.PopulationSpec(
            cohorts=(
                cohort(
                    synth.ProfileKind.NORMAL_DELETER,
                    1,
                    post_rate=0,
                    delete_rate=50,
                    gap_days=(2, 3),
                ),
            ),
            days=6,
        )
        data = synth.generate(spec, seed=9)
        snapshot_days = {s.snapshot_day for s in data.snapshots}
        assert data.truth.start_day + timedelta(days=2) not in snapshot_days
        assert data.truth.start_day + timedelta(days=3) not in snapshot_days

        timelines = ingest.build_timelines(
            data.snapshots, ingest.aggregate_daily(data.notices)
        )
        estimates = [e for tl in timelines for e in estimate.estimate_timeline(tl)]
        assert any(e.is_gap for e in estimates)

    def test_stale_days_break_count_decrease(self):
        spec = synth.PopulationSpec(
            cohorts=(
                cohort(
                    synth.ProfileKind.MASS_DELETER,
                    1,
                    post_rate=0,
                    delete_rate=3000,
                    delete_days=(1,),
                    stale_days=(1,),
                ),
            ),
            days=3,
        )
        data = synth.generate(spec, seed=2)
        timelines = ingest.build_timelines(
            data.snapshots, ingest.aggregate_daily(data.notices)
        )
        violations = flooding.detect(timelines)
        assert violations and violations[0].stale_suspect

    def test_planted_farm_survives_pipeline_iff_thresholds_met(self):
        for farm_size, unlikes, expected in (
            (9, 5, True),
            (8, 5, False),
            (9, 4, False),
            (24, 20, True),
        ):
            spec = synth.PopulationSpec(
                cohorts=(
                    cohort(
                        synth.ProfileKind.LIKE_FARM_HUB,
                        1,
                        farm_size=farm_size,
                        spoke_unlikes=unlikes,
                        farm_day=1,
                    ),
                ),
                days=3,
            )
            data = synth.generate(spec, seed=21)
            daily = ingest.aggregate_daily(data.notices)
            unlike_records = ingest.aggregate_unlikes(data.notices)
            graph = coordination.detect_coordination(daily, unlike_records)
            farm = data.truth.farms[0]
            if expected:
                assert graph.components == ((farm.hub_id, *farm.spoke_ids),)
            else:
                assert graph.components == ()

    def test_descriptions_present_for_snapshot_kinds(self, dataset):
        hub_ids = {f.hub_id for f in dataset.truth.farms}
        described = {
            s.account_id for s in dataset.snapshots if s.description
        }
        assert hub_ids <= described


class TestValidation:
    def test_negative_cohort_count_rejected(self):
        with pytest.raises(ValueError):
            cohort(synth.ProfileKind.IDLE, -1)

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError):
            synth.PopulationSpec(cohorts=(), days=0)

    def test_day_index_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            synth.PopulationSpec(
                cohorts=(cohort(synth.ProfileKind.FLOODER, 1, flood_days=(9,)),), days=5
            )

    def test_spoke_cohort_rejected(self):
        with pytest.raises(ValueError):
            synth.PopulationSpec(
                cohorts=(cohort(synth.ProfileKind.LIKE_FARM_SPOKE, 3),), days=5
            )

    def test_insufficient_initial_count_rejected(self):
        spec = synth.PopulationSpec(
            cohorts=(
                cohort(
                    synth.ProfileKind.NORMAL_DELETER,
                    1,
                    post_rate=0,
                    delete_rate=200,
                    initial_count=10,
                ),
            ),
            days=5,
        )
        with pytest.raises(ValueError):
            synth.generate(spec, seed=0)

    @pytest.mark.parametrize(
        "start_day, days",
        [("0001-01-01", 1), ("0007-04-18", 30), ("9999-12-30", 2), ("9999-12-31", 1)],
    )
    def test_start_day_whose_dates_leave_the_range_rejected(self, start_day, days):
        raw = {"days": days, "start_day": start_day, "cohorts": [{"kind": "idle", "count": 1}]}
        with pytest.raises(ValueError, match="^start_day .* leaves the date range$"):
            synth.spec_from_dict(raw)

    @pytest.mark.parametrize("start_day, days", [("0007-04-19", 1), ("9999-12-30", 1)])
    def test_start_day_at_the_edge_of_the_range_generates(self, start_day, days):
        raw = {"days": days, "start_day": start_day,
               "cohorts": [{"kind": "normal_deleter", "count": 3, "post_rate": 2}]}
        dataset = synth.generate(synth.spec_from_dict(raw), seed=0)
        assert len(dataset.snapshots) == 3 * days

    @given(
        offsets=st.lists(st.integers(-3, 3), min_size=1, max_size=20),
        sequence=st.integers(0, 0x3FFFFF),
    )
    @example(offsets=[-5, 0], sequence=0)
    @example(offsets=[0], sequence=0x3FFFFF)
    @example(offsets=[1, 2, 3, -1, 3], sequence=0x3FFFFE)
    def test_ids_time_encoded_exactly_after_the_epoch(self, offsets, sequence):
        """A creation at the ID scheme's epoch has time field 0, so it takes a
        legacy ID; a time-encoded one would lie in the legacy range."""
        at_ms = np.array([SNOWFLAKE_EPOCH_MS + offset for offset in offsets])
        ids = synth._tweet_ids(at_ms, np.zeros_like(at_ms), sequence).tolist()
        assert len(set(ids)) == len(ids)
        for offset, tweet_id in zip(offsets, ids):
            assert tweet_id > 0
            assert (tweet_id >= MIN_TIME_ENCODED_ID) == (offset > 0)
            if offset > 0:
                assert creation_ms(tweet_id) == SNOWFLAKE_EPOCH_MS + offset

    @given(
        st.lists(st.tuples(st.integers(-62135596800000, 253402300799999),
                           st.one_of(st.integers(0, 10**13), st.integers(0, 2**63 - 1))),
                 max_size=20),
        st.integers(0, 3 * 0x3FFFFF),
    )
    @example([(SNOWFLAKE_EPOCH_MS + 5, 5), (SNOWFLAKE_EPOCH_MS + 6, 5)], 0x3FFFFF)
    @example([(SNOWFLAKE_EPOCH_MS + 7, 5)] * 3, 0x3FFFFE)
    @example([(-62135596800000, 2**63 - 1), (4102444800000, 0)], 0)
    def test_ids_equal_the_per_row_allocator(self, deletions, sequence):
        """``_tweet_ids`` equals allocating one row at a time, in order, for
        creations before the epoch, after it, past int64's least value
        (1 AD less the largest age) and past 2080, where IDs pass int64."""
        alloc = oracles._IdAllocatorOracle(sequence)
        at_ms = np.array([at for at, _ in deletions], dtype=np.int64)
        ages_ms = np.array([age for _, age in deletions], dtype=np.int64)
        assert synth._tweet_ids(at_ms, ages_ms, sequence).tolist() == [
            alloc.for_creation_ms(at - age) for at, age in deletions
        ]

    @pytest.mark.parametrize(
        "field", ["post_rate", "delete_rate", "age_median_days", "age_sigma"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -5])
    def test_float_field_not_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
            synth.BehaviorProfile(kind=synth.ProfileKind.NORMAL_DELETER, **{field: value})

    @pytest.mark.parametrize("field", ["post_rate", "delete_rate"])
    @pytest.mark.parametrize("value", [
        math.nextafter(synth.POISSON_RATE_MAX, math.inf), 1e19, 10**19, 1e300,
    ])
    def test_rate_past_what_poisson_draws_rejected(self, field, value):
        """Only refused values: a drawable rate this large would make
        ``generate`` build that many rows."""
        with pytest.raises(ValueError) as err:
            synth.BehaviorProfile(kind=synth.ProfileKind.NORMAL_DELETER, **{field: value})
        assert str(err.value) == f"{field} must be <= 9.223372006484771e+18, got {value!r}"

    def test_poisson_rate_max_is_the_largest_mean_numpy_draws_from(self):
        import numpy as np

        rng = np.random.default_rng(0)
        rng.poisson(synth.POISSON_RATE_MAX)
        with pytest.raises(ValueError):
            rng.poisson(math.nextafter(synth.POISSON_RATE_MAX, math.inf))
        for field in ("post_rate", "delete_rate"):
            synth.BehaviorProfile(synth.ProfileKind.NORMAL_DELETER,
                                  **{field: synth.POISSON_RATE_MAX})

    @pytest.mark.filterwarnings("error")
    def test_age_past_the_millisecond_range_rejected(self):
        spec = synth.PopulationSpec((cohort(
            synth.ProfileKind.NORMAL_DELETER, 1, delete_rate=12, age_median_days=1e300,
        ),), days=2)
        with pytest.raises(ValueError, match=r"^age_median_days 1e\+300 drew a tweet age of "):
            synth.generate(spec, 1)

    @pytest.mark.parametrize("seed", [-1, -(2**64) + 5, 1.0, True, "5", None])
    def test_seed_not_an_integer_at_least_0_rejected(self, seed):
        with pytest.raises(ValueError) as err:
            synth.generate(BASIC_SPEC, seed)
        assert str(err.value) == f"'seed' must be an integer >= 0, got {seed!r}"

    def test_text_kind_rejected(self):
        with pytest.raises(ValueError) as err:
            synth.BehaviorProfile(kind="idle")
        assert str(err.value) == "'kind' must be a ProfileKind, got 'idle'"

    @pytest.mark.parametrize("build, message", [
        (lambda: synth.BehaviorProfile(synth.ProfileKind.NORMAL_DELETER,
                                       delete_days=(1.5, 3.0)),
         "'delete_days' must be a list of integers >= 0"),
        (lambda: cohort(synth.ProfileKind.IDLE, 2.5),
         "'count' must be an integer >= 0, got 2.5"),
        (lambda: synth.PopulationSpec((), days=2.5), "'days' must be an integer, got 2.5"),
        (lambda: synth.BehaviorProfile(synth.ProfileKind.FLOODER, cycle_posts=2400.5),
         "'cycle_posts' must be an integer >= 1, got 2400.5"),
        (lambda: synth.PopulationSpec((), start_day=datetime(2021, 4, 26)),
         "'start_day' must be a date, got datetime.datetime(2021, 4, 26, 0, 0)"),
        (lambda: synth.BehaviorProfile(synth.ProfileKind.IDLE, seed=-1),
         "'seed' must be an integer >= 0, got -1"),
        (lambda: synth.BehaviorProfile(synth.ProfileKind.IDLE, post_rate=True),
         "post_rate must be finite and >= 0, got True"),
        (lambda: synth.BehaviorProfile(synth.ProfileKind.IDLE, delete_rate=10**400),
         "delete_rate must be finite and >= 0, got 1000000000000000000000000000000000000000"),
        (lambda: synth.Cohort({"kind": "idle"}, 1),
         "'profile' must be a BehaviorProfile, got {'kind': 'idle'}"),
        (lambda: synth.PopulationSpec((synth.BehaviorProfile(synth.ProfileKind.IDLE),)),
         "'cohorts' must be a list of Cohort records"),
    ], ids=["float-day-index", "float-count", "float-days", "float-cycle-posts",
            "datetime-start-day", "negative-seed", "bool-rate", "int-rate-past-float",
            "profile-not-a-record", "cohort-not-a-record"])
    def test_spec_built_in_the_library_refused_naming_the_field(self, build, message):
        """Each spec record checks its fields when built, as a spec file's
        are, rather than leaving a bad one to fail inside ``generate``."""
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_spec_out_of_window_names_the_field_and_window(self):
        hub = cohort(synth.ProfileKind.LIKE_FARM_HUB, 1, farm_size=2, farm_day=5)
        with pytest.raises(ValueError, match="^farm_day 5 outside window of 5 days$"):
            synth.PopulationSpec((hub,), days=5)
        stale = cohort(synth.ProfileKind.IDLE, 1, stale_days=[2, 7])
        with pytest.raises(ValueError, match="^stale_days index 7 outside window of 5 days$"):
            synth.PopulationSpec([stale], days=5)


class TestSpecFiles:
    def test_roundtrip_via_dict(self):
        raw = {
            "days": 7,
            "start_day": "2021-04-26",
            "cohorts": [
                {"kind": "flooder", "count": 2, "flood_days": [3], "post_rate": 1},
                {"kind": "idle", "count": 1},
            ],
        }
        spec = synth.spec_from_dict(raw)
        assert spec.days == 7
        assert spec.cohorts[0].count == 2
        assert spec.cohorts[0].profile.kind is synth.ProfileKind.FLOODER
        assert spec.cohorts[0].profile.flood_days == (3,)

    def test_unknown_profile_field_rejected(self):
        with pytest.raises(ValueError):
            synth.spec_from_dict(
                {"cohorts": [{"kind": "idle", "count": 1, "bogus": 2}]}
            )

    def test_missing_count_rejected(self):
        with pytest.raises(ValueError):
            synth.spec_from_dict({"cohorts": [{"kind": "idle"}]})

    def test_ground_truth_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "truth.json"
        synth.write_ground_truth(path, dataset.truth)
        loaded = synth.read_ground_truth(path)
        assert loaded == dataset.truth


class TestPipelineTruth:
    def test_labels_and_flooders_match_truth(self, dataset):
        daily = ingest.aggregate_daily(dataset.notices)
        timelines = ingest.build_timelines(dataset.snapshots, daily)
        violations = flooding.detect(timelines)
        summaries = behavior.summarize(
            timelines, violations, window_days=BASIC_SPEC.days
        )
        labels = {s.account_id: s.category for s in summaries}
        assert labels == dataset.truth.categories
        truth_flooders = {
            account_id
            for account_id, posts in dataset.truth.daily_posts.items()
            if max(posts) > flooding.DEFAULT_DAILY_LIMIT
        }
        assert {v.account_id for v in violations} == truth_flooders


_KINDS = ("normal_deleter", "mass_deleter", "flooder", "like_farm_hub", "idle")


@st.composite
def _specs(draw) -> dict:
    """Small specs whose events often share a millisecond: each deleting
    account's first deletion of a day, and each hub's first spoke unlike on
    its farm day, fall at the day's 01:00, and a later cohort's accounts have
    higher IDs than an earlier hub's spokes. Deleters may have gap and stale
    days, a day listed twice among them."""
    days = draw(st.integers(1, 4))
    day = st.integers(0, days - 1)
    cohorts = []
    for kind in draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4)):
        cohort = {"kind": kind, "count": draw(st.integers(1, 3)),
                  "post_rate": draw(st.integers(0, 3))}
        if kind in ("normal_deleter", "mass_deleter"):
            cohort.update(
                delete_rate=draw(st.integers(1, 40)),
                min_daily_deletions=draw(st.integers(1, 12)),
                delete_days=sorted(draw(st.sets(day, min_size=1))),
                age_median_days=draw(st.sampled_from([0, 30, 400, 4200])),
                gap_days=draw(st.lists(day, max_size=2)),
                stale_days=draw(st.lists(day, max_size=2)),
            )
        elif kind == "flooder":
            cohort.update(flood_days=[draw(day)], cycle_posts=draw(st.integers(1, 40)),
                          cycles_per_day=draw(st.integers(1, 3)))
        elif kind == "like_farm_hub":
            cohort.update(farm_size=draw(st.integers(1, 5)), farm_day=draw(day),
                          farm_tweets=draw(st.integers(1, 12)),
                          spoke_unlikes=draw(st.integers(1, 4)))
        cohorts.append(cohort)
    return {"days": days, "cohorts": cohorts}


#: A hub whose spokes unlike at 01:00 next to deletions by accounts of
#: higher IDs, and two deleters at the same instants.
_TIES = {"days": 2, "cohorts": [
    {"kind": "like_farm_hub", "count": 2, "farm_size": 3, "farm_day": 1,
     "spoke_unlikes": 3},
    {"kind": "normal_deleter", "count": 3, "delete_rate": 4, "min_daily_deletions": 6},
]}

#: Two flooders deleting 12,000 and 12,001 tweets on one day, every 6,600 ms
#: and every 6,599.45 ms, so that neighbouring events are 1 ms apart.
_DENSE = {"days": 1, "cohorts": [
    {"kind": "flooder", "count": 1, "flood_days": [0]},
    {"kind": "flooder", "count": 1, "flood_days": [0], "cycle_posts": 12001,
     "cycles_per_day": 2},
]}


class TestRowsEqualTheObjectPath:
    @given(_specs(), st.integers(0, 2**32 - 1))
    @example(_TIES, 1)
    @example(_TIES, 2)
    @example(_DENSE, 3)
    @settings(max_examples=60, deadline=None)
    def test_rows_write_the_object_paths_bytes(self, raw, seed):
        """The event file ``write_dataset`` writes from the rows, and
        ``dataset.notices``, equal the notices ``generate`` built and sorted
        before (``oracles.generated_notices_oracle``, fed the rows shuffled)
        and their ``json.dumps`` lines."""
        dataset = synth.generate(synth.spec_from_dict(raw), seed)
        rows = list(dataset.rows)
        random.Random(seed).shuffle(rows)
        notices = oracles.generated_notices_oracle(rows)
        assert dataset.notices == tuple(notices)
        with tempfile.TemporaryDirectory() as directory:
            synth.write_dataset(dataset, directory)
            written = (Path(directory) / "events.ndjson").read_bytes()
        assert written == oracles.notice_lines_oracle(notices)

    def test_examples_hold_the_cases_they_name(self):
        """Ties across kinds with the actors in the other order, ties across
        actors, and neighbouring events 1 ms apart, in the examples above."""
        ties = synth.generate(synth.spec_from_dict(_TIES), 1).rows
        kinds_tied = [(a, b) for a, b in zip(ties, ties[1:]) if a[0] == b[0] and a[1] != b[1]]
        assert any(a[2] > b[2] for a, b in kinds_tied)
        assert any(a[0] == b[0] and a[1] == b[1] and a[2] < b[2]
                   for a, b in zip(ties, ties[1:]))
        dense = synth.generate(synth.spec_from_dict(_DENSE), 3).rows
        assert any(b[0] - a[0] == 1 for a, b in zip(dense, dense[1:]))


#: Deleters and a hub starting before the ID scheme's epoch: legacy IDs only.
_PRE_EPOCH = {"days": 2, "start_day": "2009-06-01", "cohorts": [
    {"kind": "normal_deleter", "count": 2, "delete_rate": 9, "age_median_days": 30},
    {"kind": "like_farm_hub", "count": 1, "farm_size": 2, "farm_day": 1},
]}

#: A day whose tweet ages straddle the epoch (2010-11-04T01:42:54.657Z).
_STRADDLE = {"days": 1, "start_day": "2010-11-20", "cohorts": [
    {"kind": "mass_deleter", "count": 2, "delete_rate": 60, "age_median_days": 16,
     "initial_count": 1000},
]}

#: Gap and stale days each listed twice, as a list may list a day.
_REPEATED_DAYS = {"days": 3, "cohorts": [
    {"kind": "normal_deleter", "count": 2, "post_rate": 2, "delete_rate": 9,
     "gap_days": [0, 0], "stale_days": [1, 2, 1]},
]}

#: Specs whose time-encoded IDs pass int64 (creation after about 2080), so
#: that they need exact Python ints: one in 2090, and one on the last day
#: a spec may start.
_Y2090 = {"days": 2, "start_day": "2090-01-01", "cohorts": [
    {"kind": "normal_deleter", "count": 2, "delete_rate": 8},
    {"kind": "like_farm_hub", "count": 1, "farm_size": 2, "farm_day": 1},
]}
_Y9999 = {"days": 1, "start_day": "9999-12-30", "cohorts": [
    {"kind": "normal_deleter", "count": 2, "delete_rate": 8, "age_median_days": 400},
    {"kind": "like_farm_hub", "count": 1, "farm_size": 3},
]}


class TestColumnsEqualTheRowGenerator:
    @given(_specs(), st.integers(0, 2**32 - 1))
    @example(_TIES, 1)
    @example(_DENSE, 3)
    @example(_PRE_EPOCH, 1)
    @example(_STRADDLE, 2)
    @example(_REPEATED_DAYS, 4)
    @example(_Y2090, 1)
    @example(_Y9999, 1)
    @settings(max_examples=60, deadline=None)
    def test_generate_equals_the_row_generator(self, raw, seed):
        """``generate``'s rows, snapshots and truth, and the three files
        ``write_dataset`` writes from its columns, equal those of the
        row-at-a-time generator (``oracles.generated_dataset_oracle``)
        written through ``write_notices``, ``write_snapshots`` and
        ``write_ground_truth``."""
        spec = synth.spec_from_dict(raw)
        dataset = synth.generate(spec, seed)
        rows, snapshots, truth = oracles.generated_dataset_oracle(spec, seed)
        assert dataset.rows == tuple(rows)
        assert dataset.snapshots == tuple(snapshots)
        assert dataset.truth == truth
        with tempfile.TemporaryDirectory() as directory:
            out = Path(directory)
            synth.write_dataset(dataset, out / "columns")
            write_notices(out / "events.ndjson", oracles.generated_notices_oracle(rows))
            write_snapshots(out / "snapshots.ndjson", snapshots)
            synth.write_ground_truth(out / "ground_truth.json", truth)
            for name in ("events.ndjson", "snapshots.ndjson", "ground_truth.json"):
                assert (out / "columns" / name).read_bytes() == (out / name).read_bytes()

    def test_examples_hold_the_cases_they_name(self):
        """Only legacy IDs before the epoch, both kinds on the straddling day,
        and IDs past int64 in 2090 and 9999, unlikes included."""
        def ids(raw, seed):
            return [row[3] for row in synth.generate(synth.spec_from_dict(raw), seed).rows]

        assert max(ids(_PRE_EPOCH, 1)) < MIN_TIME_ENCODED_ID
        straddle = ids(_STRADDLE, 2)
        assert min(straddle) < MIN_TIME_ENCODED_ID <= max(straddle)
        for raw in (_Y2090, _Y9999):
            dataset = synth.generate(synth.spec_from_dict(raw), 1)
            assert min(ids(raw, 1)) >= 2**63
            assert set(dataset.event_kinds.tolist()) == {0, 1}
