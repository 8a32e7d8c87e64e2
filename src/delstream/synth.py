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
built, so a spec built in the library is refused as a spec file is; a
``post_rate`` or ``delete_rate`` past ``POISSON_RATE_MAX`` is out of range,
as numpy draws no Poisson count from it, and so is a field asking more than
``MAX_DAILY_EVENTS`` of one account-day; a spec whose cohorts ask for more
than ``MAX_SPEC_ROWS`` rows in all is refused too. ``spec_from_dict`` only
converts. ``generate`` refuses a seed that is not an int >= 0, and otherwise
raises only for what its draws decide: a day's deletions drawn past
``MAX_DAILY_EVENTS`` (``delete_rate``), an ``initial_count`` too small, a
tweet age past what an int64 count of milliseconds holds
(``age_median_days``), or legacy IDs running out.

``generate`` makes each account's draws in turn, then builds the events and
snapshots as numpy columns in one pass over every account. ``write_dataset``
writes the files from the columns; the Python records are built only for a
caller that reads ``SyntheticDataset.rows``, ``notices`` or ``snapshots``.
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
from datetime import date, timedelta
from enum import Enum
from itertools import accumulate
from operator import sub
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
    write_notice_columns,
    write_snapshot_columns,
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

#: The largest mean numpy's ``Generator.poisson`` draws from, its
#: ``iinfo(int64).max - 10 * sqrt(iinfo(int64).max)``; ``post_rate`` and
#: ``delete_rate`` are Poisson means, so neither may exceed it.
POISSON_RATE_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10

#: The most events a profile may ask of one account on one day, deleted or
#: unliked: about 40 times the paper's largest flooders (26,000 tweets a day).
MAX_DAILY_EVENTS = 10**6

#: The most rows a spec may ask for over its window: its accounts' snapshots
#: and deletions and its spokes' unlikes, each Poisson draw at its mean. About
#: 40 times the 1.3 million of the full-scale spec in ROADMAP.md; ``generate``
#: peaks near 100 bytes a row, so about 5 GB at the ceiling.
MAX_SPEC_ROWS = 5 * 10**7


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
        for name in ("post_rate", "delete_rate"):
            if getattr(self, name) > POISSON_RATE_MAX:
                raise ValueError(
                    f"{name} must be <= {POISSON_RATE_MAX!r}, got {getattr(self, name)!r:.40}"
                )
        for name, minimum in _INT_MINIMA.items():
            int_field(getattr(self, name), name, minimum)
        for name in _DAY_LISTS:
            if getattr(self, name) is not None or name != "delete_days":
                object.__setattr__(self, name, int_list_field(getattr(self, name), name, 0))
        volumes = {  # a day's deletions are the larger of two fields, so each is bounded
            "min_daily_deletions": self.min_daily_deletions, "delete_rate": self.delete_rate,
            "farm_tweets": self.farm_tweets,
            "cycle_posts * (cycles_per_day - 1)": self.cycle_posts * (self.cycles_per_day - 1),
            "farm_size * spoke_unlikes": self.farm_size * self.spoke_unlikes,
        }
        for name, volume in volumes.items():
            if volume > MAX_DAILY_EVENTS:
                raise ValueError(f"{name} must be <= {MAX_DAILY_EVENTS} events a day, "
                                 f"got {volume!r:.40}")


def _asked_rows(profile: BehaviorProfile, days: int) -> int:
    """The rows one account of ``profile`` asks for over ``days`` days, as
    ``_plan_activity`` plans them, each Poisson draw at its mean rounded up
    and no mass deletion capped: a snapshot a day, its deletions and, for a
    hub, its spokes' unlikes."""
    kind = profile.kind
    if kind is ProfileKind.LIKE_FARM_HUB:
        events = (max(profile.min_daily_deletions, profile.farm_tweets)
                  + profile.farm_size * profile.spoke_unlikes)
    else:
        flood_days = set(profile.flood_days) if kind is ProfileKind.FLOODER else set()
        deleting = set()
        if kind is not ProfileKind.IDLE and profile.delete_rate > 0:
            days_asked = range(days) if profile.delete_days is None else profile.delete_days
            deleting = set(days_asked) - flood_days
        events = (len(deleting) * max(profile.min_daily_deletions, math.ceil(profile.delete_rate))
                  + len(flood_days) * profile.cycle_posts * (profile.cycles_per_day - 1))
    return days + events


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
        rows = sum(cohort.count * _asked_rows(cohort.profile, days) for cohort in self.cohorts)
        if rows > MAX_SPEC_ROWS:
            raise ValueError(f"'cohorts' must ask for <= {MAX_SPEC_ROWS} rows over "
                             f"{days} days, got {rows!r:.40}")


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


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """A generated dataset, its events and snapshots held as numpy columns.

    The events are ``event_ms`` (Unix ms), ``event_kinds`` (a kind's place in
    ``NoticeKind``), ``event_actors`` and ``event_objects`` (Python ints when
    an ID passes int64), sorted by all four: the notices' (observed_at, kind,
    actor_id, object_id) order. The snapshots are ``snapshot_accounts``,
    ``snapshot_days`` (window day indices) and ``snapshot_counts``, sorted by
    day and account, each active, queried at 00:35 after its day, with its
    account's ``descriptions`` and ``created_ms`` entries. ``rows``
    (``NoticeRow`` tuples), ``notices`` and ``snapshots`` hold the same as
    Python records, built on first access; ``write_dataset`` reads none.
    """

    event_ms: np.ndarray
    event_kinds: np.ndarray
    event_actors: np.ndarray
    event_objects: np.ndarray
    snapshot_accounts: np.ndarray
    snapshot_days: np.ndarray
    snapshot_counts: np.ndarray
    descriptions: dict[int, str]
    created_ms: dict[int, int]
    truth: GroundTruth

    @functools.cached_property
    def rows(self) -> tuple[NoticeRow, ...]:
        kinds = [kind.value for kind in NoticeKind]
        return tuple(zip(self.event_ms.tolist(), [kinds[k] for k in self.event_kinds.tolist()],
                         self.event_actors.tolist(), self.event_objects.tolist()))

    @functools.cached_property
    def notices(self) -> tuple[ComplianceNotice, ...]:
        kinds = {kind.value: kind for kind in NoticeKind}
        stamp = functools.lru_cache(maxsize=None)(ms_to_datetime)  # one datetime per stamp
        return tuple(ComplianceNotice(kinds[kind], actor_id, object_id, stamp(at_ms))
                     for at_ms, kind, actor_id, object_id in self.rows)

    @functools.cached_property
    def snapshots(self) -> tuple[AccountSnapshot, ...]:
        start = self.truth.start_day
        created = {account: ms_to_datetime(ms) for account, ms in self.created_ms.items()}
        queried = [ms_to_datetime(_day_start_ms(start, day + 1) + _QUERY_MS)
                   for day in range(self.truth.days)]
        return tuple(
            AccountSnapshot(account, start + timedelta(day), count, AccountStatus.ACTIVE,
                            self.descriptions[account], created[account], queried[day])
            for account, day, count in zip(self.snapshot_accounts.tolist(),
                                           self.snapshot_days.tolist(),
                                           self.snapshot_counts.tolist())
        )


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


def _tweet_ids(at_ms: np.ndarray, ages_ms: np.ndarray, sequence: int = 0) -> np.ndarray:
    """Unique positive IDs, in order, of tweets deleted at ``at_ms`` and
    created ``ages_ms`` before: legacy (1, 2, ...) when created at or before
    the scheme's epoch, where the time field would be 0, else time-encoded,
    the count of such IDs after ``sequence`` in the low 22 bits; Python ints
    when one passes int64 (a creation after about 2080)."""
    import numpy as np

    legacy = ages_ms >= at_ms - SNOWFLAKE_EPOCH_MS  # compared: the creation may pass int64
    if np.count_nonzero(legacy) >= MIN_TIME_ENCODED_ID:
        raise ValueError("legacy ID space exhausted")
    offsets = at_ms[~legacy] - SNOWFLAKE_EPOCH_MS
    offsets -= ages_ms[~legacy]
    counts = np.arange(sequence + 1, sequence + 1 + offsets.size) & 0x3FFFFF
    if offsets.size and offsets.max() >= 2**41:  # << wraps silently in int64
        offsets, counts = offsets.astype(object), counts.astype(object)
    offsets <<= 22
    offsets |= counts
    ids = np.empty(at_ms.size, offsets.dtype)
    ids[legacy] = np.arange(1, np.count_nonzero(legacy) + 1)
    ids[~legacy] = offsets
    return ids


def _day_start_ms(start_day: date, day_index):
    """Unix ms of a window day's start; ``day_index`` an int or a numpy array."""
    return (start_day.toordinal() - UNIX_EPOCH_ORDINAL + day_index) * DAY_MS


#: Each day's snapshots are queried 35 minutes after the day ends.
_QUERY_MS = 35 * 60_000


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
            if drawn > MAX_DAILY_EVENTS:
                raise ValueError(
                    f"delete_rate {profile.delete_rate!r:.40} drew {drawn} deletions of "
                    f"account {account.account_id} on one day, past the {MAX_DAILY_EVENTS} "
                    "events a day"
                )
            account.deletions[day] = drawn


def _draw_ages(account: _Account, rng: np.random.Generator, ages: list[np.ndarray]) -> None:
    """Append, per day the account deletes on, the ages in ms of the tweets it
    deletes: drawn if its profile ages them, else 30 minutes each."""
    import numpy as np

    profile = account.profile
    for count in filter(None, account.deletions):
        if profile.age_median_days <= 0:
            ages.append(np.full(count, 1_800_000))
            continue
        drawn = rng.lognormal(math.log(profile.age_median_days), profile.age_sigma, count)
        # a Python float product overflows to inf without a warning, and the
        # largest age gives the largest product
        if not float(drawn.max()) * DAY_MS < 2.0**63:
            raise ValueError(
                f"age_median_days {profile.age_median_days!r:.40} drew a tweet age "
                f"of {float(drawn.max()):.6g} days, past the {2**63 // DAY_MS} days "
                "a millisecond offset holds"
            )
        ages.append((drawn * DAY_MS).astype(np.int64))


def _events(
    spec: PopulationSpec,
    accounts: list[_Account],
    ids: np.ndarray,
    ages: list[np.ndarray],
    farms: list[tuple[int, BehaviorProfile, tuple[int, ...]]],
) -> tuple[list[np.ndarray], list[int]]:
    """The four event columns, sorted, and each farm's tweet ID, the first its
    hub deletes on the farm day. ``ids`` holds the accounts' IDs, ``ages``
    their deletion days' ages (emptied here, to free them), and ``farms``
    (hub's index in ``accounts``, hub profile, spoke IDs)."""
    import numpy as np

    deletions = np.array([account.deletions for account in accounts], dtype=np.int64)
    deletions = deletions.reshape(len(accounts), spec.days)
    rows, days = np.nonzero(deletions)  # account-days in generation order
    counts = deletions[rows, days]
    each = np.repeat(np.arange(counts.size), counts)
    # Spread each day's deletions over 01:00..23:00, inside their day.
    at_ms = np.arange(each.size) - (np.cumsum(counts) - counts)[each]
    at_ms *= 79_200_000
    at_ms //= counts[each]
    at_ms += (_day_start_ms(spec.start_day, days) + 3_600_000)[each]
    ages_ms = np.concatenate([np.zeros(0, np.int64), *ages])
    ages.clear()
    tweet_ids = _tweet_ids(at_ms, ages_ms)
    del ages_ms
    before = (np.cumsum(deletions) - deletions.ravel()).reshape(deletions.shape)
    farm_ids = [int(tweet_ids[before[row, hub.farm_day]]) for row, hub, _ in farms]
    unlikes = np.array([
        (_day_start_ms(spec.start_day, hub.farm_day) + 3_600_000 + spoke * 60_000
         + repeat * 1_000, spoke_id, tweet_id)
        for (_, hub, spoke_ids), tweet_id in zip(farms, farm_ids)
        for spoke, spoke_id in enumerate(spoke_ids)
        for repeat in range(hub.spoke_unlikes)
    ], dtype=object).reshape(-1, 3)
    columns = [
        np.concatenate([at_ms, unlikes[:, 0].astype(np.int64)]),
        np.repeat(np.arange(2), [at_ms.size, len(unlikes)]),
        np.concatenate([ids[rows][each], unlikes[:, 1].astype(np.int64)]),
        np.concatenate([tweet_ids, unlikes[:, 2].astype(tweet_ids.dtype)]),
    ]
    del each, at_ms, tweet_ids
    # One actor's events of a kind share a millisecond only on a day of more
    # deletions than its 79.2M ms, so only then is the object ID, a random
    # key, sorted on.
    order = np.lexsort(columns[::-1] if counts.max(initial=0) > 79_200_000 else columns[2::-1])
    for index, column in enumerate(columns):
        columns[index] = column[order]
    return columns, farm_ids


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
    and all randomness flows from the given seed, an int >= 0; each distinct
    seed is a distinct stream. Each account's draws come first; the event and
    snapshot columns are then built in one pass over all accounts.
    """
    int_field(seed, "seed", 0)
    import numpy as np

    accounts: list[_Account] = []
    ages: list[np.ndarray] = []
    counts: list[list[int]] = []
    descriptions: dict[int, str] = {}
    truth_posts: dict[int, tuple[int, ...]] = {}
    truth_deletions: dict[int, tuple[int, ...]] = {}
    categories: dict[int, Category] = {}
    kinds: dict[int, ProfileKind] = {}
    flood_days: dict[int, tuple[int, ...]] = {}
    stale_days: dict[int, tuple[int, ...]] = {}
    farms: list[tuple[int, BehaviorProfile, tuple[int, ...]]] = []

    next_id = 1
    for cohort_index, cohort in enumerate(spec.cohorts):
        profile = cohort.profile
        pool = _DESCRIPTIONS[profile.kind]
        for account_index in range(cohort.count):
            rng = np.random.default_rng([seed, profile.seed, cohort_index, account_index])
            account = _Account(next_id, profile, spec.days)
            next_id += 1
            _plan_activity(account, rng, spec.days)
            _draw_ages(account, rng, ages)
            descriptions[account.account_id] = pool[int(rng.integers(len(pool)))]
            running = list(accumulate(map(sub, account.posts, account.deletions),
                                      initial=profile.initial_count))[1:]
            if min(running) < 0:
                raise ValueError(
                    f"account {account.account_id}: initial_count {profile.initial_count}"
                    " is too small for the profile's deletion volume"
                )
            for day in set(profile.stale_days):  # the count ignores the day's deletions
                running[day] += account.deletions[day]
            counts.append(running)
            accounts.append(account)

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
            if profile.kind is ProfileKind.LIKE_FARM_HUB and profile.farm_size:
                spoke_ids = tuple(range(next_id, next_id + profile.farm_size))
                next_id += profile.farm_size
                farms.append((len(accounts) - 1, profile, spoke_ids))
                for spoke_id in spoke_ids:
                    kinds[spoke_id] = ProfileKind.LIKE_FARM_SPOKE
                    truth_posts[spoke_id] = (0,) * spec.days
                    truth_deletions[spoke_id] = (0,) * spec.days

    ids = np.array([account.account_id for account in accounts], dtype=np.int64)
    events, farm_ids = _events(spec, accounts, ids, ages, farms)
    # Day-major, so sorted by (day, account); gap days take no snapshot.
    observed = np.ones((len(accounts), spec.days), dtype=bool)
    for row, account in enumerate(accounts):
        observed[row, list(account.profile.gap_days)] = False
    days, rows = np.nonzero(observed.T)
    farms_truth = tuple(
        PlantedFarm(accounts[row].account_id, spoke_ids, tweet_id, hub.spoke_unlikes)
        for (row, hub, spoke_ids), tweet_id in zip(farms, farm_ids)
    )
    truth = GroundTruth(spec.days, spec.start_day, truth_posts, truth_deletions, categories,
                        kinds, flood_days, stale_days, farms_truth)
    exact = not counts or max(map(max, counts)) < 2**63
    grid = np.array(counts, np.int64 if exact else object).reshape(len(accounts), spec.days).T
    start_ms = _day_start_ms(spec.start_day, 0)
    created = {account: start_ms - _ACCOUNT_AGE_DAYS[account * 37 % len(_ACCOUNT_AGE_DAYS)]
               * DAY_MS for account in ids.tolist()}
    return SyntheticDataset(*events, ids[rows], days, grid[days, rows], descriptions, created,
                            truth)


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

    The events and snapshots are written from the columns, so no notice or
    snapshot object is built.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = {
        "events": "events.ndjson",
        "snapshots": "snapshots.ndjson",
        "ground_truth": "ground_truth.json",
    }
    write_notice_columns(out / names["events"], dataset.event_ms, dataset.event_kinds,
                         dataset.event_actors, dataset.event_objects)
    start = dataset.truth.start_day
    accounts = dataset.snapshot_accounts.tolist()
    write_snapshot_columns(
        out / names["snapshots"],
        dataset.snapshot_accounts,
        dataset.snapshot_days + start.toordinal(),
        dataset.snapshot_counts,
        [dataset.descriptions[account] for account in accounts],
        [dataset.created_ms[account] for account in accounts],
        _day_start_ms(start, dataset.snapshot_days + 1) + _QUERY_MS,
    )
    write_ground_truth(out / names["ground_truth"], dataset.truth)
    return names
