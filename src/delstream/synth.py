"""Seeded synthetic event streams and snapshots with labeled ground truth.

Every generated dataset is internally consistent by construction: each
snapshot count equals the initial count plus cumulative posts minus
cumulative deletions, so downstream estimators and detectors can be checked
against exact per-account truth. The same seed always produces byte-identical
output files.

Two kinds of deliberate imperfection are available for exercising edge
paths: ``gap_days`` drop snapshots (suspension-style observation gaps) and
``stale_days`` report counts that ignore that day's deletions (a lagging
count source). Stale days break the consistency identity on purpose, so
downstream labels may diverge from truth there.

Each spec record refuses, naming it, a field of the wrong type or range when
built, so a spec built in the library is refused as a spec file is;
``spec_from_dict`` only converts, and ``generate`` raises only for what its
draws decide: an ``initial_count`` too small, or legacy IDs running out.

numpy is imported inside the functions that use it, and at module level only
for type checkers, so that CLI stages which never call them, such as
``aggregate``, start without loading numpy.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from .behavior import Category, categorize
from .flooding import DEFAULT_DAILY_LIMIT
from .ingest import DEFAULT_INCLUSION_THRESHOLD
from .records import (
    DAY_MS,
    MIN_TIME_ENCODED_ID,
    SNOWFLAKE_EPOCH_MS,
    UNIX_EPOCH_ORDINAL,
    AccountSnapshot,
    AccountStatus,
    ComplianceNotice,
    NoticeKind,
    NoticeRow,
    check_at_least,
    date_field,
    day_field,
    int_field,
    int_list_field,
    ms_to_datetime,
    read_json,
    str_field,
    write_json,
    write_notice_rows,
    write_snapshots,
)

if TYPE_CHECKING:
    import numpy as np


class ProfileKind(str, Enum):
    NORMAL_DELETER = "normal_deleter"
    MASS_DELETER = "mass_deleter"
    FLOODER = "flooder"
    LIKE_FARM_HUB = "like_farm_hub"
    LIKE_FARM_SPOKE = "like_farm_spoke"
    IDLE = "idle"


#: Days an account is created before the window starts, picked by its ID.
_ACCOUNT_AGE_DAYS = range(300, 2300)

#: Per-day deletion ceiling observed for bulk-deletion tooling that walks the
#: most recent retrievable timeline page.
TIMELINE_RETRIEVAL_CAP = 3200


#: A profile's rates, each finite and >= 0 (compared with the largest float,
#: so an int past it is refused, not an overflow); its integer fields, each
#: with its least value; and its day-index lists (``delete_days`` may be None).
_RATES = ("post_rate", "delete_rate", "age_median_days", "age_sigma")
_INT_MINIMA = {
    "min_daily_deletions": 1, "cycle_posts": 1, "cycles_per_day": 1, "farm_size": 0,
    "farm_tweets": 1, "farm_day": 0, "spoke_unlikes": 1, "initial_count": 0, "seed": 0,
}
_DAY_LISTS = ("delete_days", "flood_days", "gap_days", "stale_days")


@dataclass(frozen=True)
class BehaviorProfile:
    """Parameters for one synthetic behavior.

    ``delete_days`` lists the window day indices on which the account
    deletes (None means every day). Flood days must leave the previous day's
    snapshot intact to be detectable downstream. Spokes are never generated
    directly: a ``like_farm_hub`` cohort spawns ``farm_size`` spokes per hub.
    """

    kind: ProfileKind
    post_rate: float = 0.0
    delete_rate: float = 0.0
    delete_days: tuple[int, ...] | None = None
    min_daily_deletions: int = DEFAULT_INCLUSION_THRESHOLD
    age_median_days: float = 0.0
    age_sigma: float = 0.75
    cycle_posts: int = 2400
    cycles_per_day: int = 6
    flood_days: tuple[int, ...] = ()
    farm_size: int = 0
    farm_tweets: int = 10
    farm_day: int = 0
    spoke_unlikes: int = 5
    gap_days: tuple[int, ...] = ()
    stale_days: tuple[int, ...] = ()
    initial_count: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if type(self.kind) is not ProfileKind:
            raise ValueError(f"'kind' must be a ProfileKind, got {self.kind!r:.40}")
        for name in _RATES:
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r:.40}")
        for name, minimum in _INT_MINIMA.items():
            int_field(getattr(self, name), name, minimum)
        for name in _DAY_LISTS:
            if getattr(self, name) is not None or name != "delete_days":
                object.__setattr__(self, name, int_list_field(getattr(self, name), name, 0))


@dataclass(frozen=True)
class Cohort:
    profile: BehaviorProfile
    count: int

    def __post_init__(self):
        if type(self.profile) is not BehaviorProfile:
            raise ValueError(f"'profile' must be a BehaviorProfile, got {self.profile!r:.40}")
        int_field(self.count, "count", 0)


@dataclass(frozen=True)
class PopulationSpec:
    """Cohorts whose day indices and hub ``farm_day`` lie in the window;
    ``like_farm_spoke`` cohorts are refused, as hubs spawn the spokes."""

    cohorts: tuple[Cohort, ...]
    days: int = 30
    start_day: date = date(2021, 4, 26)

    def __post_init__(self):
        days = int_field(self.days, "days")
        check_at_least("days", days, 1)
        # The oldest account's creation day and the last query day must exist.
        start = date_field(self.start_day, "start_day").toordinal()
        if start - _ACCOUNT_AGE_DAYS[-1] < 1 or start + days > date.max.toordinal():
            raise ValueError(f"start_day {self.start_day} with days={days} leaves the date range")
        if type(self.cohorts) not in (list, tuple) or {type(c) for c in self.cohorts} - {Cohort}:
            raise ValueError("'cohorts' must be a list of Cohort records")
        object.__setattr__(self, "cohorts", tuple(self.cohorts))
        for profile in [cohort.profile for cohort in self.cohorts]:
            if profile.kind is ProfileKind.LIKE_FARM_SPOKE:
                raise ValueError("like_farm_spoke cohorts are spawned by like_farm_hub")
            for name in _DAY_LISTS:
                for index in getattr(profile, name) or ():
                    if index >= days:
                        raise ValueError(f"{name} index {index} outside window of {days} days")
            if profile.kind is ProfileKind.LIKE_FARM_HUB and profile.farm_day >= days:
                raise ValueError(f"farm_day {profile.farm_day} outside window of {days} days")


@dataclass(frozen=True)
class PlantedFarm:
    hub_id: int
    spoke_ids: tuple[int, ...]
    tweet_id: int
    spoke_unlikes: int


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-account activity and labels for a generated dataset."""

    days: int
    start_day: date
    daily_posts: dict[int, tuple[int, ...]]
    daily_deletions: dict[int, tuple[int, ...]]
    categories: dict[int, Category]
    kinds: dict[int, ProfileKind]
    flood_days: dict[int, tuple[int, ...]]
    stale_days: dict[int, tuple[int, ...]]
    farms: tuple[PlantedFarm, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class SyntheticDataset:
    """A generated dataset.

    ``rows`` holds the events as ``records.NoticeRow`` tuples
    ``(at_ms, kind value, actor_id, object_id)``, sorted, so in the order of
    the notices' (observed_at, kind, actor_id, object_id); ``write_dataset``
    writes them without building a notice. ``notices`` is the same events as
    ``ComplianceNotice`` objects, built from the rows on first access.
    """

    rows: tuple[NoticeRow, ...]
    snapshots: tuple[AccountSnapshot, ...]
    truth: GroundTruth

    @functools.cached_property
    def notices(self) -> tuple[ComplianceNotice, ...]:
        kinds = {kind.value: kind for kind in NoticeKind}
        notices = []
        last_ms = observed_at = None
        for at_ms, kind, actor_id, object_id in self.rows:
            if at_ms != last_ms:  # equal stamps share one datetime
                last_ms, observed_at = at_ms, ms_to_datetime(at_ms)
            notices.append(ComplianceNotice(kinds[kind], actor_id, object_id, observed_at))
        return tuple(notices)


_DESCRIPTIONS = {
    ProfileKind.NORMAL_DELETER: (
        "coffee first, opinions later",
        "posting through it",
        "here for the threads",
        "dog photos and hot takes",
    ),
    ProfileKind.MASS_DELETER: (
        "spring cleaning my feed",
        "backup account, wiping often",
        "privacy matters, old posts go",
        "fresh start every month",
    ),
    ProfileKind.FLOODER: (
        "promo deals every hour",
        "follow for giveaways and promo codes",
        "nonstop updates, turn on notifications",
        "24/7 promo stream",
    ),
    ProfileKind.LIKE_FARM_HUB: (
        "follow back train, promo boost",
        "grow your followers fast",
        "engagement boost services",
        "promo hub, follow train daily",
    ),
    ProfileKind.LIKE_FARM_SPOKE: (
        "follow train rider",
        "follow back instantly",
        "like for like, follow train",
        "boost crew member",
    ),
    ProfileKind.IDLE: (
        "",
        "lurking",
        "mostly reading",
    ),
}


class _IdAllocator:
    """Unique positive tweet IDs: time-encoded (at least
    ``MIN_TIME_ENCODED_ID``) when creation is after the scheme's epoch, and
    legacy (below it) at or before the epoch, where the time field would be
    0 and an encoded ID could equal a legacy one."""

    def __init__(self):
        self._sequence = 0
        self._legacy = 0

    def for_creation_ms(self, created_ms: int) -> int:
        if created_ms <= SNOWFLAKE_EPOCH_MS:
            self._legacy += 1
            if self._legacy >= MIN_TIME_ENCODED_ID:
                raise ValueError("legacy ID space exhausted")
            return self._legacy
        self._sequence += 1
        return ((created_ms - SNOWFLAKE_EPOCH_MS) << 22) | (self._sequence & 0x3FFFFF)


def _day_start_ms(start_day: date, day_index: int) -> int:
    return (start_day.toordinal() - UNIX_EPOCH_ORDINAL + day_index) * DAY_MS


def _event_ms(day_start: int, index: int, count: int) -> int:
    # Spread events over 01:00..23:00 so every event stays inside its day.
    return day_start + 3_600_000 + (index * 79_200_000) // count


class _Account:
    def __init__(self, account_id: int, profile: BehaviorProfile, days: int):
        self.account_id = account_id
        self.profile = profile
        self.posts = [0] * days
        self.deletions = [0] * days


def _plan_activity(account: _Account, rng: np.random.Generator, days: int) -> None:
    profile = account.profile
    kind = profile.kind
    flood_days = set(profile.flood_days)
    delete_days = (
        set(range(days)) if profile.delete_days is None else set(profile.delete_days)
    )
    for day in range(days):
        if kind is ProfileKind.FLOODER and day in flood_days:
            account.posts[day] = profile.cycle_posts * profile.cycles_per_day
            account.deletions[day] = profile.cycle_posts * (profile.cycles_per_day - 1)
            continue
        if kind is ProfileKind.LIKE_FARM_HUB:
            if day == profile.farm_day:
                deleted = max(profile.min_daily_deletions, profile.farm_tweets)
                account.posts[day] = deleted
                account.deletions[day] = deleted
            continue
        if profile.post_rate > 0:
            account.posts[day] = int(rng.poisson(profile.post_rate))
        if kind in (ProfileKind.IDLE, ProfileKind.LIKE_FARM_SPOKE):
            continue
        if profile.delete_rate > 0 and day in delete_days:
            drawn = max(profile.min_daily_deletions, int(rng.poisson(profile.delete_rate)))
            if kind is ProfileKind.MASS_DELETER:
                drawn = min(TIMELINE_RETRIEVAL_CAP, drawn)
            account.deletions[day] = drawn


def _deletion_notices(
    account: _Account,
    rng: np.random.Generator,
    start_day: date,
    alloc: _IdAllocator,
    rows: list[NoticeRow],
) -> list[int]:
    """Append the account's deletion rows; returns farm-day tweet IDs."""
    import numpy as np

    profile = account.profile
    aged = profile.age_median_days > 0
    log_median = math.log(profile.age_median_days) if aged else 0.0
    farm_day = profile.farm_day if profile.kind is ProfileKind.LIKE_FARM_HUB else None
    actor_id = account.account_id
    delete = NoticeKind.TWEET_DELETE.value
    farm_tweet_ids: list[int] = []
    for day, count in enumerate(account.deletions):
        if count == 0:
            continue
        day_start = _day_start_ms(start_day, day)
        ages_ms = None
        if aged:
            ages = rng.lognormal(mean=log_median, sigma=profile.age_sigma, size=count)
            ages_ms = (ages * DAY_MS).astype(np.int64).tolist()
        for index in range(count):
            at_ms = _event_ms(day_start, index, count)
            if ages_ms is None:
                created_ms = at_ms - 1_800_000
            else:
                created_ms = at_ms - ages_ms[index]
            tweet_id = alloc.for_creation_ms(created_ms)
            if day == farm_day:
                farm_tweet_ids.append(tweet_id)
            rows.append((at_ms, delete, actor_id, tweet_id))
    return farm_tweet_ids


def _snapshots(
    account: _Account,
    rng: np.random.Generator,
    start_day: date,
    day_stamps: list[tuple[date, datetime]],
    snapshots: list,
) -> None:
    """Append the account's snapshots; ``day_stamps`` holds each window
    day's (snapshot_day, queried_at), shared by every account."""
    profile = account.profile
    pool = _DESCRIPTIONS[profile.kind]
    description = pool[int(rng.integers(len(pool)))]
    created_at = ms_to_datetime(
        _day_start_ms(start_day, 0)
        - _ACCOUNT_AGE_DAYS[account.account_id * 37 % len(_ACCOUNT_AGE_DAYS)] * DAY_MS
    )
    gap_days = set(profile.gap_days)
    stale_days = set(profile.stale_days)
    running = profile.initial_count
    for day, (snapshot_day, queried_at) in enumerate(day_stamps):
        running += account.posts[day] - account.deletions[day]
        if running < 0:
            raise ValueError(
                f"account {account.account_id}: initial_count {profile.initial_count}"
                " is too small for the profile's deletion volume"
            )
        if day in gap_days:
            continue
        reported = running + (account.deletions[day] if day in stale_days else 0)
        snapshots.append(
            AccountSnapshot(
                account.account_id,
                snapshot_day,
                reported,
                AccountStatus.ACTIVE,
                description,
                created_at,
                queried_at,
            )
        )


def _unlike_notices(
    farm: PlantedFarm, start_day: date, farm_day: int, rows: list[NoticeRow]
) -> None:
    day_start = _day_start_ms(start_day, farm_day)
    unlike = NoticeKind.UNLIKE.value
    for spoke_index, spoke_id in enumerate(farm.spoke_ids):
        for repeat in range(farm.spoke_unlikes):
            at_ms = day_start + 3_600_000 + spoke_index * 60_000 + repeat * 1_000
            rows.append((at_ms, unlike, spoke_id, farm.tweet_id))


def _true_category(account: _Account, days: int) -> Category | None:
    deleting = sum(
        1 for count in account.deletions if count >= DEFAULT_INCLUSION_THRESHOLD
    )
    violated = any(posted > DEFAULT_DAILY_LIMIT for posted in account.posts)
    return None if deleting == 0 and not violated else categorize(deleting, violated, days)


def generate(spec: PopulationSpec, seed: int) -> SyntheticDataset:
    """Generate a labeled dataset for a population specification.

    Account IDs are assigned sequentially in cohort order (hubs directly
    followed by their spokes). Events are sorted by time, snapshots by day,
    and all randomness flows from the given seed.
    """
    import numpy as np

    rows: list[NoticeRow] = []
    snapshots: list[AccountSnapshot] = []
    day_stamps = [
        (
            spec.start_day + timedelta(days=day),
            ms_to_datetime(_day_start_ms(spec.start_day, day + 1) + 35 * 60_000),
        )
        for day in range(spec.days)
    ]
    truth_posts: dict[int, tuple[int, ...]] = {}
    truth_deletions: dict[int, tuple[int, ...]] = {}
    categories: dict[int, Category] = {}
    kinds: dict[int, ProfileKind] = {}
    flood_days: dict[int, tuple[int, ...]] = {}
    stale_days: dict[int, tuple[int, ...]] = {}
    farms: list[PlantedFarm] = []

    alloc = _IdAllocator()
    next_id = 1
    for cohort_index, cohort in enumerate(spec.cohorts):
        profile = cohort.profile
        for account_index in range(cohort.count):
            rng = np.random.default_rng(
                [seed & 0xFFFFFFFFFFFFFFFF, profile.seed, cohort_index, account_index]
            )
            account = _Account(next_id, profile, spec.days)
            next_id += 1
            spoke_ids: tuple[int, ...] = ()
            if profile.kind is ProfileKind.LIKE_FARM_HUB:
                spoke_ids = tuple(range(next_id, next_id + profile.farm_size))
                next_id += profile.farm_size

            _plan_activity(account, rng, spec.days)
            farm_tweets = _deletion_notices(account, rng, spec.start_day, alloc, rows)
            _snapshots(account, rng, spec.start_day, day_stamps, snapshots)

            truth_posts[account.account_id] = tuple(account.posts)
            truth_deletions[account.account_id] = tuple(account.deletions)
            kinds[account.account_id] = profile.kind
            category = _true_category(account, spec.days)
            if category is not None:
                categories[account.account_id] = category
            if profile.kind is ProfileKind.FLOODER and profile.flood_days:
                flood_days[account.account_id] = tuple(sorted(profile.flood_days))
            if profile.stale_days:
                stale_days[account.account_id] = tuple(sorted(profile.stale_days))

            if profile.kind is ProfileKind.LIKE_FARM_HUB and spoke_ids:
                farm = PlantedFarm(
                    account.account_id,
                    spoke_ids,
                    farm_tweets[0],
                    profile.spoke_unlikes,
                )
                farms.append(farm)
                _unlike_notices(farm, spec.start_day, profile.farm_day, rows)
                for spoke_id in spoke_ids:
                    kinds[spoke_id] = ProfileKind.LIKE_FARM_SPOKE
                    truth_posts[spoke_id] = (0,) * spec.days
                    truth_deletions[spoke_id] = (0,) * spec.days

    # In the notices' (observed_at, kind, actor_id, object_id) order.
    rows.sort()
    snapshots.sort(key=lambda s: (s.snapshot_day, s.account_id))
    truth = GroundTruth(
        spec.days,
        spec.start_day,
        truth_posts,
        truth_deletions,
        categories,
        kinds,
        flood_days,
        stale_days,
        tuple(farms),
    )
    return SyntheticDataset(tuple(rows), tuple(snapshots), truth)


# -- declarative spec files and ground-truth serialization -------------------

def profile_from_dict(raw: dict) -> BehaviorProfile:
    """The profile a cohort entry names; ``BehaviorProfile`` checks its fields."""
    if type(raw) is not dict or "kind" not in raw:
        raise ValueError("profile requires a 'kind'")
    unknown = raw.keys() - {f.name for f in dataclasses.fields(BehaviorProfile)}
    if unknown:
        raise ValueError(f"unknown profile fields: {sorted(unknown)}")
    return BehaviorProfile(**{**raw, "kind": ProfileKind(str_field(raw["kind"], "kind"))})


def spec_from_dict(raw: dict) -> PopulationSpec:
    """Build a population spec from its declarative form.

    Each cohort entry carries ``count`` plus the profile fields inline. The
    records check every field: a bad one raises ValueError naming it.
    """
    if not isinstance(raw, dict) or type(raw.get("cohorts")) is not list:
        raise ValueError("population spec requires a 'cohorts' list")
    cohorts = []
    for entry in raw["cohorts"]:
        if not isinstance(entry, dict) or "count" not in entry:
            raise ValueError("each cohort requires a 'count'")
        profile = {name: value for name, value in entry.items() if name != "count"}
        cohorts.append(Cohort(profile_from_dict(profile), entry["count"]))
    return PopulationSpec(
        tuple(cohorts),
        raw.get("days", 30),
        day_field(raw.get("start_day", "2021-04-26"), "start_day"),
    )


def read_population_spec(path) -> PopulationSpec:
    return spec_from_dict(read_json(path, "population spec"))


def ground_truth_to_dict(truth: GroundTruth) -> dict:
    return {
        "days": truth.days,
        "start_day": truth.start_day.isoformat(),
        "daily_posts": {str(k): list(v) for k, v in sorted(truth.daily_posts.items())},
        "daily_deletions": {
            str(k): list(v) for k, v in sorted(truth.daily_deletions.items())
        },
        "categories": {
            str(k): v.value for k, v in sorted(truth.categories.items())
        },
        "kinds": {str(k): v.value for k, v in sorted(truth.kinds.items())},
        "flood_days": {str(k): list(v) for k, v in sorted(truth.flood_days.items())},
        "stale_days": {str(k): list(v) for k, v in sorted(truth.stale_days.items())},
        "farms": [
            {
                "hub_id": farm.hub_id,
                "spoke_ids": list(farm.spoke_ids),
                "tweet_id": farm.tweet_id,
                "spoke_unlikes": farm.spoke_unlikes,
            }
            for farm in truth.farms
        ],
    }


def ground_truth_from_dict(raw: dict) -> GroundTruth:
    return GroundTruth(
        raw["days"],
        date.fromisoformat(raw["start_day"]),
        {int(k): tuple(v) for k, v in raw["daily_posts"].items()},
        {int(k): tuple(v) for k, v in raw["daily_deletions"].items()},
        {int(k): Category(v) for k, v in raw["categories"].items()},
        {int(k): ProfileKind(v) for k, v in raw["kinds"].items()},
        {int(k): tuple(v) for k, v in raw["flood_days"].items()},
        {int(k): tuple(v) for k, v in raw["stale_days"].items()},
        tuple(
            PlantedFarm(
                farm["hub_id"],
                tuple(farm["spoke_ids"]),
                farm["tweet_id"],
                farm["spoke_unlikes"],
            )
            for farm in raw["farms"]
        ),
    )


def write_ground_truth(path, truth: GroundTruth) -> None:
    write_json(path, ground_truth_to_dict(truth))


def read_ground_truth(path) -> GroundTruth:
    return ground_truth_from_dict(read_json(path, "ground truth"))


def write_dataset(dataset: SyntheticDataset, out_dir) -> dict[str, str]:
    """Write events, snapshots, and ground truth; returns the file names.

    The events are written from ``dataset.rows``, so no notice is built.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = {
        "events": "events.ndjson",
        "snapshots": "snapshots.ndjson",
        "ground_truth": "ground_truth.json",
    }
    write_notice_rows(out / names["events"], dataset.rows)
    write_snapshots(out / names["snapshots"], dataset.snapshots)
    write_ground_truth(out / names["ground_truth"], dataset.truth)
    return names
