"""Workloads of the pipeline benchmark: a generator spec plus stage flags.

Every workload runs all six CLI stages. The specs are the shapes described in
``bench/README.md``, scaled down so that one run, with its set-up, fits the
benchmark's run budget on a 2-CPU host; the scale of each is noted beside it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    spec: dict
    estimate_flags: tuple[str, ...] = ()


def _cohort(kind: str, count: int, **profile) -> dict:
    return {"kind": kind, "count": count, **profile}


WORKLOADS: dict[str, Workload] = {
    # The ROADMAP baseline mix: deletion parsing and deleter edges dominate.
    # At 1/16 scale; the flooder cohort is cut to one account and the
    # like-farm cohort kept whole, so that both checks still have cases.
    "baseline": Workload(
        spec={
            "days": 30,
            "cohorts": [
                _cohort("normal_deleter", 188, post_rate=5, delete_rate=15,
                        delete_days=[3, 7, 12], age_median_days=375),
                _cohort("normal_deleter", 19, post_rate=5, delete_rate=60,
                        age_median_days=39),
                _cohort("mass_deleter", 4, delete_rate=3500, delete_days=[4, 11],
                        age_median_days=57, initial_count=200_000),
                _cohort("flooder", 1, flood_days=[5], cycles_per_day=6),
                _cohort("like_farm_hub", 5, farm_size=12, farm_day=2,
                        spoke_unlikes=6),
            ],
        },
    ),
    # Many lightly deleting accounts: snapshots, timeline reads, pairing and
    # permutation KS; no unlikes, so coordination is bypassed. At 1/10 of the
    # full mix of 4500/1000/150/20/4000 accounts.
    "wide": Workload(
        spec={
            "days": 30,
            "cohorts": [
                _cohort("normal_deleter", 450, post_rate=3, delete_rate=12,
                        delete_days=[4, 18], gap_days=[10, 11, 12],
                        age_median_days=200),
                _cohort("normal_deleter", 100, post_rate=3, delete_rate=12,
                        delete_days=[5, 6, 7], stale_days=[6],
                        age_median_days=120),
                _cohort("normal_deleter", 15, post_rate=5, delete_rate=12,
                        age_median_days=30),
                _cohort("flooder", 2, flood_days=[8], cycle_posts=2401,
                        cycles_per_day=2),
                _cohort("idle", 400, post_rate=2),
            ],
        },
        estimate_flags=("--permutations", "1000"),
    ),
    # Unlike-heavy like farms: unlike aggregation, projection and WCC carry
    # the load while the deleter side stays small. At 1/10 of the full mix
    # of 3000/1500/500 hubs and 10 mass deleters. Not in BENCHMARK.json: the
    # run budget of three workloads leaves runs too short to be steady, so
    # it runs by hand only (see README.md).
    "farms": Workload(
        spec={
            "days": 30,
            "cohorts": [
                _cohort("like_farm_hub", 300, farm_size=20, farm_day=3,
                        spoke_unlikes=6),
                _cohort("like_farm_hub", 150, farm_size=20, farm_day=9,
                        spoke_unlikes=2),
                _cohort("like_farm_hub", 50, farm_size=6, farm_day=15,
                        spoke_unlikes=6),
                # They also post, so that their count-based estimates fall
                # short of the actual deletions as in the other workloads.
                _cohort("mass_deleter", 1, post_rate=20, delete_rate=3500,
                        delete_days=[4, 11], age_median_days=57,
                        initial_count=200_000),
            ],
        },
    ),
    # A tiny mix of every behaviour for the harness smoke test; not in
    # BENCHMARK.json.
    "smoke": Workload(
        spec={
            "days": 30,
            "cohorts": [
                _cohort("normal_deleter", 6, post_rate=5, delete_rate=15,
                        delete_days=[3, 7, 12], gap_days=[9],
                        age_median_days=100),
                _cohort("normal_deleter", 2, post_rate=5, delete_rate=12,
                        stale_days=[6], age_median_days=30),
                _cohort("mass_deleter", 1, delete_rate=300, delete_days=[4],
                        age_median_days=57, initial_count=20_000),
                _cohort("flooder", 1, flood_days=[5], cycle_posts=2401,
                        cycles_per_day=2),
                _cohort("like_farm_hub", 2, farm_size=10, farm_day=2,
                        spoke_unlikes=6),
                _cohort("idle", 3, post_rate=1),
            ],
        },
        estimate_flags=("--permutations", "50"),
    ),
}
