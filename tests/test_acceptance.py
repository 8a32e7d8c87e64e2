"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from datetime import date, timedelta, timezone
from functools import partial
from pathlib import Path

import pytest

import oracles
from delstream import (
    behavior,
    cli,
    coordination,
    estimate,
    flooding,
    ingest,
    synth,
)
from delstream.records import (
    AccountStatus,
    ComplianceNotice,
    NoticeKind,
    ms_to_datetime,
)

UTC = timezone.utc
DAY0 = date(2021, 4, 26)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def day(offset: int) -> date:
    return DAY0 + timedelta(days=offset)


def make_timeline(account_id, counts, deletions):
    offsets = sorted(counts)
    deleted = sorted(deletions)
    return ingest.AccountTimeline(
        account_id,
        tuple(day(offset) for offset in offsets),
        (AccountStatus.ACTIVE,) * len(offsets),
        tuple(counts[offset] for offset in offsets),
        tuple(day(offset) for offset in deleted),
        tuple(deletions[offset] for offset in deleted),
    )


def test_c1_consecutive_estimate_fixed_point():
    assert estimate.estimate_consecutive(500, 400) == 100
    assert estimate.estimate_consecutive(100, 100) is None
    assert estimate.estimate_consecutive(50, 80) is None
    assert estimate.estimate_consecutive(400, 500) is None
    report("C1", "consecutive-day estimate: (500,400) -> 100, no estimate otherwise")


def test_c2_underestimation_reproduced_in_kind():
    # compare() imports numpy on first use; load it first, so that the bound
    # times the comparison and not the import.
    import numpy  # noqa: F401

    started = time.perf_counter()
    rng = random.Random(2)
    timelines = []
    for account in range(1, 301):
        count = rng.randrange(5_000, 9_000)
        counts, deletions = {0: count}, {}
        for offset in range(1, 6):
            posts = rng.randrange(1, 40)
            deleted = rng.randrange(50, 200)
            count += posts - deleted
            counts[offset] = count
            deletions[offset] = deleted
        timelines.append(make_timeline(account, counts, deletions))
    estimates = [e for tl in timelines for e in estimate.estimate_timeline(tl)]
    actuals = (
        (tl.account_id, deletion_day, count)
        for tl in timelines
        for deletion_day, count in zip(tl.deletion_days, tl.deletion_counts)
    )
    result = estimate.compare(estimates, actuals, floor=10)
    assert not result.is_empty
    assert result.mean_estimated < result.mean_actual

    injected = estimate.ComparisonReport.from_pairs(
        [estimate.PairedDeletion(1, day(1), 94.0, 171.0)], floor=10
    )
    assert injected.underestimation_fraction == pytest.approx(0.45, abs=0.005)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(
        "C2",
        f"mean estimated {result.mean_estimated:.1f} < mean actual "
        f"{result.mean_actual:.1f}; injected means (171, 94) -> fraction "
        f"{injected.underestimation_fraction:.4f}; {elapsed:.2f}s",
    )


def test_c3_flooding_oracle_10k_accounts():
    started = time.perf_counter()
    spec = synth.PopulationSpec(
        cohorts=(
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.NORMAL_DELETER,
                    post_rate=5,
                    delete_rate=12,
                    delete_days=(2,),
                ),
                9_950,
            ),
            # six-second-cycle scenario: 6 x 2,400 = 14,400 posted in a day
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.FLOODER, flood_days=(5,), cycles_per_day=6
                ),
                1,
            ),
            # extreme: 11 x 2,400 = 26,400 posted in a day
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.FLOODER, flood_days=(5,), cycles_per_day=11
                ),
                1,
            ),
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.FLOODER, flood_days=(4,), cycles_per_day=2
                ),
                48,
            ),
        ),
        days=8,
    )
    dataset = synth.generate(spec, seed=33)
    timelines = ingest.build_timelines(
        dataset.snapshots, ingest.aggregate_daily(dataset.notices)
    )
    violations = flooding.detect(timelines, limit=2400)

    truth_flooders = {
        account
        for account, posts in dataset.truth.daily_posts.items()
        if max(posts) > 2400
    }
    detected = {violation.account_id for violation in violations}
    assert len(truth_flooders) == 50
    true_positives = detected & truth_flooders
    precision = len(true_positives) / len(detected)
    recall = len(true_positives) / len(truth_flooders)
    assert precision == 1.0 and recall == 1.0
    totals = {violation.total_posted for violation in violations}
    assert 14_400 in totals and 26_400 in totals

    at_limit = make_timeline(999_001, {0: 1000, 1: 1000}, {1: 2400})
    over_limit = make_timeline(999_002, {0: 1000, 1: 1001}, {1: 2400})
    assert flooding.detect([at_limit], limit=2400) == []
    boundary = flooding.detect([over_limit], limit=2400)
    assert [violation.total_posted for violation in boundary] == [2401]

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        "C3",
        f"50/50 planted flooders, precision=recall=1.0, boundary 2400/2401 "
        f"exact; {elapsed:.2f}s for 10K accounts",
    )


def test_c4_total_posted_exact():
    rng = random.Random(4)
    checked_negative = 0
    for _ in range(1_000):
        n_prev = rng.randrange(0, 1_000_000)
        posts = rng.randrange(0, 30_000)
        deleted = rng.randrange(0, min(30_000, n_prev + posts + 1))
        n_curr = n_prev + posts - deleted
        assert flooding.total_posted(n_prev, n_curr, deleted) == posts
        if n_curr < n_prev:
            checked_negative += 1
    assert checked_negative > 100
    report(
        "C4",
        f"1,000 random account-days exact, {checked_negative} with negative "
        "count differences",
    )


def test_c5_coordination_oracle():
    started = time.perf_counter()
    combos = [
        (spokes, unlikes)
        for spokes in (8, 9, 10, 25)
        for unlikes in (4, 5, 20)
    ]
    spec = synth.PopulationSpec(
        cohorts=tuple(
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.LIKE_FARM_HUB,
                    farm_size=spokes,
                    spoke_unlikes=unlikes,
                    farm_day=1,
                ),
                1,
            )
            for spokes, unlikes in combos
        ),
        days=3,
    )
    dataset = synth.generate(spec, seed=55)
    daily = ingest.aggregate_daily(dataset.notices)
    unlike_records = ingest.aggregate_unlikes(dataset.notices)
    graph = coordination.detect_coordination(
        daily, unlike_records, min_unlikes=5, min_component=10
    )
    expected = {
        (farm.hub_id, *farm.spoke_ids)
        for farm in dataset.truth.farms
        if len(farm.spoke_ids) + 1 >= 10 and farm.spoke_unlikes >= 5
    }
    assert set(graph.components) == expected
    assert len(expected) == 6

    # Components must agree with an independent union-find over the same
    # projected graph, node for node.
    unfiltered = coordination.project_bipartite(
        coordination.filter_unlikers(
            coordination.build_tripartite(daily, unlike_records), 5
        )
    )
    oracle_components = oracles.wcc_union_find_oracle(
        unfiltered.node_ids, unfiltered.edges
    )
    assert list(unfiltered.components) == oracle_components

    # scale check: ~100K-edge graph through the pipeline plus the oracle
    records, unlikes = [], []
    next_spoke = 1_000_000
    for hub in range(1, 1_001):
        tweet_id = 10_000 + hub
        records.append(
            ingest.DailyDeletionRecord(hub, day(0), (tweet_id,))
        )
        for _ in range(100):
            unlikes.append(ingest.UnlikeRecord(next_spoke, tweet_id, 5))
            next_spoke += 1
    big = coordination.detect_coordination(records, unlikes)
    assert len(big.edges) == 100_000
    assert len(big.components) == 1_000
    big_oracle = oracles.wcc_union_find_oracle(big.node_ids, big.edges)
    assert list(big.components) == big_oracle

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        "C5",
        f"farms recovered iff size >= 10 and unlikes >= 5; union-find oracle "
        f"agrees on {len(big.edges):,}-edge graph; {elapsed:.2f}s",
    )


def test_c6_ks_statistic():
    assert estimate.ks_two_sample([3, 1, 4, 1, 5], [3, 1, 4, 1, 5]).statistic == 0.0
    assert estimate.ks_two_sample([10, 10, 10], [100, 100, 100]).statistic == 1.0

    rng = random.Random(6)
    worst = 0.0
    for _ in range(100):
        size_a = rng.randrange(1, 1_001)
        size_b = rng.randrange(1, 1_001)
        if rng.random() < 0.5:
            a = [rng.gauss(0, 1) for _ in range(size_a)]
            b = [rng.gauss(0.2, 1.3) for _ in range(size_b)]
        else:
            a = [rng.randrange(0, 50) for _ in range(size_a)]
            b = [rng.randrange(10, 80) for _ in range(size_b)]
        got = estimate.ks_two_sample(a, b).statistic
        want = oracles.ks_brute_force(a, b)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12
    report("C6", f"D exact on identical/disjoint; max |D - oracle| = {worst:.2e}")


def test_c7_category_labels_match_ground_truth():
    spec = synth.PopulationSpec(
        cohorts=(
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.NORMAL_DELETER,
                    post_rate=3,
                    delete_rate=15,
                    delete_days=(3,),
                ),
                40,
            ),
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.NORMAL_DELETER,
                    post_rate=3,
                    delete_rate=15,
                ),
                30,
            ),
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.NORMAL_DELETER,
                    post_rate=3,
                    delete_rate=15,
                    delete_days=(1, 8, 20, 21),
                ),
                25,
            ),
            # floods once and deletes daily: suspicious must take precedence
            synth.Cohort(
                synth.BehaviorProfile(
                    kind=synth.ProfileKind.FLOODER,
                    post_rate=3,
                    delete_rate=15,
                    flood_days=(5,),
                ),
                5,
            ),
        ),
        days=30,
    )
    dataset = synth.generate(spec, seed=77)
    timelines = ingest.build_timelines(
        dataset.snapshots, ingest.aggregate_daily(dataset.notices)
    )
    violations = flooding.detect(timelines)
    summaries = behavior.summarize(timelines, violations, window_days=30)
    labels = {summary.account_id: summary.category for summary in summaries}
    assert labels == dataset.truth.categories

    flooder_ids = {
        account
        for account, kind in dataset.truth.kinds.items()
        if kind is synth.ProfileKind.FLOODER
    }
    for account in flooder_ids:
        summary = next(s for s in summaries if s.account_id == account)
        assert summary.deleting_days == 30
        assert summary.category is behavior.Category.SUSPICIOUS
    counts = {
        category: sum(1 for c in labels.values() if c is category)
        for category in behavior.Category
    }
    assert counts[behavior.Category.ONE_DAY] == 40
    assert counts[behavior.Category.THIRTY_DAY] == 30
    assert counts[behavior.Category.OTHER] == 25
    assert counts[behavior.Category.SUSPICIOUS] == 5
    report(
        "C7",
        "labels match ground truth exactly; suspicious precedence over "
        "30-day deleters honored",
    )


PIPELINE_SPEC = {
    "days": 8,
    "cohorts": [
        {
            "kind": "normal_deleter",
            "count": 25,
            "post_rate": 4,
            "delete_rate": 18,
            "delete_days": [1, 4, 6],
            "age_median_days": 80,
        },
        {"kind": "flooder", "count": 2, "post_rate": 2, "flood_days": [3]},
        {
            "kind": "like_farm_hub",
            "count": 2,
            "farm_size": 12,
            "farm_day": 2,
            "spoke_unlikes": 6,
        },
        {"kind": "mass_deleter", "count": 3, "post_rate": 2, "delete_rate": 3500,
         "delete_days": [2, 5], "age_median_days": 300},
    ],
}


def _run_pipeline(root: Path) -> None:
    (root / "spec.json").write_text(json.dumps(PIPELINE_SPEC))
    steps = [
        ["generate", "--spec", "spec.json", "--seed", "42", "--out", "data"],
        [
            "aggregate",
            "--events", "data/events.ndjson",
            "--snapshots", "data/snapshots.ndjson",
            "--out", "agg",
        ],
        ["detect-flooding", "--timelines", "agg", "--out", "flood/violations.csv"],
        [
            "estimate",
            "--timelines", "agg",
            "--permutations", "300",
            "--seed", "7",
            "--out", "est",
        ],
        [
            "stats",
            "--timelines", "agg",
            "--violations", "flood/violations.csv",
            "--window", "8",
            "--out", "stats",
        ],
        [
            "detect-coordination",
            "--deletions", "agg/daily_deletions.ndjson",
            "--unlikes", "agg/unlikes.ndjson",
            "--out", "coord",
        ],
    ]
    for step in steps:
        assert cli.main(step) == 0


def test_c8_pipeline_determinism(tmp_path, monkeypatch):
    for name in ("run1", "run2"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        _run_pipeline(root)
    first = sorted(
        path.relative_to(tmp_path / "run1")
        for path in (tmp_path / "run1").rglob("*")
        if path.is_file()
    )
    second = sorted(
        path.relative_to(tmp_path / "run2")
        for path in (tmp_path / "run2").rglob("*")
        if path.is_file()
    )
    assert first == second
    compared = 0
    for relative in first:
        if relative.name == "spec.json":
            continue
        bytes_a = (tmp_path / "run1" / relative).read_bytes()
        bytes_b = (tmp_path / "run2" / relative).read_bytes()
        assert bytes_a == bytes_b, f"{relative} differs between runs"
        compared += 1
    assert compared >= 20
    report("C8", f"two full pipeline runs byte-identical across {compared} files")


# -- throughput -------------------------------------------------------------

POOL_ACCOUNTS = 2_000
POOL_DAYS = 5
POOL_PER_DAY = 20
POOL_REPEATS = 50  # 2,000 * 5 * 20 * 50 = 10M events


def _build_pool(shard: int = 0, shards: int = 1) -> list[ComplianceNotice]:
    base_ms = 1_619_395_200_000  # 2021-04-26T00:00:00Z
    pool = []
    for account in range(1, POOL_ACCOUNTS + 1):
        if account % shards != shard:
            continue
        for offset in range(POOL_DAYS):
            day_ms = base_ms + offset * 86_400_000
            for index in range(POOL_PER_DAY):
                # tweet IDs must not depend on the shard layout
                tweet_id = (1 << 40) + account * 1_000_000 + offset * 1_000 + index
                pool.append(
                    ComplianceNotice(
                        NoticeKind.TWEET_DELETE,
                        account,
                        tweet_id,
                        ms_to_datetime(day_ms + index * 1_000),
                    )
                )
    return pool


def _shard_stream(shard: int, shards: int):
    pool = _build_pool(shard, shards)
    return itertools.chain.from_iterable(itertools.repeat(pool, POOL_REPEATS))


def test_c9_throughput():
    cpus = os.cpu_count() or 1
    sharded = sharded_elapsed = None
    if cpus >= 4:
        # measured first so workers fork from a small heap
        sources = [partial(_shard_stream, shard, 4) for shard in range(4)]
        started = time.perf_counter()
        sharded = ingest.aggregate_daily_sharded(sources, threshold=10, processes=4)
        sharded_elapsed = time.perf_counter() - started

    pool = _build_pool()
    total_events = len(pool) * POOL_REPEATS
    assert total_events == 10_000_000
    stream = itertools.chain.from_iterable(itertools.repeat(pool, POOL_REPEATS))

    started = time.perf_counter()
    records = ingest.aggregate_daily(stream, threshold=10)
    single_elapsed = time.perf_counter() - started
    rate = total_events / single_elapsed
    assert len(records) == POOL_ACCOUNTS * POOL_DAYS
    assert all(r.deletion_count == POOL_PER_DAY * POOL_REPEATS for r in records)
    assert rate >= 100_000, f"single-thread rate {rate:,.0f} events/s"

    if cpus < 4:
        report(
            "C9",
            f"single-thread {rate:,.0f} events/s over 10M events "
            f"({single_elapsed:.1f}s); shard scaling not measurable on "
            f"{cpus} CPUs",
        )
        pytest.skip(
            f"4-shard scaling needs >= 4 CPUs, host has {cpus}; "
            f"single-thread throughput criterion passed at {rate:,.0f} events/s"
        )

    assert sharded == records
    speedup = single_elapsed / sharded_elapsed
    assert speedup >= 2.5, f"4-shard speedup {speedup:.2f}x"
    report(
        "C9",
        f"single-thread {rate:,.0f} events/s; 4-shard speedup {speedup:.2f}x",
    )
