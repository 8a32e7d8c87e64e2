"""Independent reference implementations used to check the package.

Everything here is deliberately naive (brute force, nested loops, textbook
union-find) and shares no code with the implementations under test. The
numpy-based references are the code the package's pure-Python CCDF and
quantiles, and its blocked permutation test, replaced; the package must
match them bit for bit.
"""

from __future__ import annotations

import math
from collections import defaultdict
from datetime import datetime, timedelta, timezone

from delstream.ingest import AccountTimeline, DeletionDay
from delstream.records import SnapshotDay

UTC = timezone.utc

# Independent decoding path: integer division plus a literal base datetime,
# instead of bit shifts against a millisecond epoch constant.
_ID_TIME_BASE = datetime(2010, 11, 4, 1, 42, 54, 657000, tzinfo=UTC)


def decode_oracle(tweet_id: int) -> datetime | None:
    if tweet_id < 2**22:
        return None
    return _ID_TIME_BASE + timedelta(milliseconds=tweet_id // 2**22)


def age_days_oracle(day, tweet_id) -> int | None:
    created = decode_oracle(tweet_id)
    if created is None:
        return None
    day_start = datetime(day.year, day.month, day.day, tzinfo=UTC)
    return max(0, math.floor((day_start - created).total_seconds() / 86400))


def group_deletions_oracle(notices, threshold):
    """Hash-map group-by of deletion notices: (account, day) -> sorted IDs."""
    groups = defaultdict(list)
    for notice in notices:
        if notice.kind.value != "tweet_delete":
            continue
        groups[(notice.actor_id, notice.observed_at.date())].append(notice.object_id)
    return {
        key: sorted(ids) for key, ids in groups.items() if len(ids) >= threshold
    }


def count_unlikes_oracle(notices):
    counts = defaultdict(int)
    for notice in notices:
        if notice.kind.value == "unlike":
            counts[(notice.actor_id, notice.object_id)] += 1
    return dict(counts)


def slim(timeline):
    """The timeline as ``timelines.ndjson`` carries it.

    Snapshots keep only their day, count and status, and deletion days lose
    their tweet IDs; the timeline keeps its description.
    """
    kept = tuple(
        SnapshotDay(s.account_id, s.snapshot_day, s.statuses_count, s.status)
        for s in timeline.snapshots
    )
    days = tuple(
        DeletionDay(r.account_id, r.day, r.deletion_count, r.deleted_ages_days)
        for r in timeline.deletion_days
    )
    return AccountTimeline(timeline.account_id, kept, days, timeline.description)


def ks_brute_force(a, b) -> float:
    best = 0.0
    for x in set(a) | set(b):
        f_a = sum(1 for v in a if v <= x) / len(a)
        f_b = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(f_a - f_b))
    return best


def ccdf_brute_force(samples):
    n = len(samples)
    return [
        (float(x), sum(1 for s in samples if s >= x) / n)
        for x in sorted(set(samples))
    ]


def ccdf_numpy_oracle(samples):
    """CCDF rows from numpy's sort, unique and searchsorted."""
    import numpy as np

    values = np.sort(np.asarray(list(samples), dtype=float))
    distinct = np.unique(values)
    at_least = values.size - np.searchsorted(values, distinct, side="left")
    return list(zip(distinct.tolist(), (at_least / values.size).tolist()))


def quartiles_numpy_oracle(values):
    """Min, quartiles and max of a sample from ``numpy.quantile``."""
    import numpy as np

    with np.errstate(invalid="ignore", over="ignore"):  # infinities give NaN
        quantiles = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    return [float(q) for q in quantiles]


def _ks_numpy(a, b) -> float:
    import numpy as np

    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_permutation_loop_oracle(a, b, permutations, seed):
    """(D, p) with one shuffle of the pooled values and one KS per permutation."""
    import numpy as np

    xs = np.asarray(list(a), dtype=float)
    ys = np.asarray(list(b), dtype=float)
    statistic = _ks_numpy(xs, ys)
    rng = np.random.default_rng(seed)
    pooled = np.concatenate([xs, ys])
    at_least = 0
    for _ in range(permutations):
        shuffled = rng.permutation(pooled)
        if _ks_numpy(shuffled[: xs.size], shuffled[xs.size :]) >= statistic:
            at_least += 1
    return statistic, (at_least + 1) / (permutations + 1)


def pairing_oracle(estimates, actuals, include_gaps=True):
    """(account, day, estimated, actual) per actual day inside some interval.

    Of the estimates of the day's account whose (start, end] holds the day,
    the one with the greatest (start, -end, input index) is taken.
    """
    estimates = list(estimates)
    pairs = []
    for record in actuals:
        held = [
            (est.interval_start, -est.interval_end.toordinal(), index)
            for index, est in enumerate(estimates)
            if est.account_id == record.account_id
            and (include_gaps or not est.is_gap)
            and est.interval_start < record.day <= est.interval_end
        ]
        if held:
            best = estimates[max(held)[2]]
            pairs.append(
                (record.account_id, record.day, best.estimated_daily,
                 float(record.deletion_count))
            )
    return pairs


def quantile_oracle(values, q) -> float:
    """Linear interpolation between order statistics of the sorted sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def tripartite_join_oracle(daily_records, unlike_records):
    """Nested-loop join of unlikes against deleted tweets."""
    deleter_edges = set()
    for record in daily_records:
        for tweet_id in record.tweet_ids:
            deleter_edges.add((record.account_id, tweet_id))
    liker_edges = set()
    for unlike in unlike_records:
        for _, tweet_id in deleter_edges:
            if unlike.tweet_id == tweet_id:
                liker_edges.add((unlike.liker_id, unlike.tweet_id, unlike.unlike_count))
                break
    return deleter_edges, liker_edges


def projection_oracle(deleter_edges, liker_edges):
    """Per-tweet cross product of likers and deleters."""
    edges = set()
    for liker_id, liked_tweet, _ in liker_edges:
        for deleter_id, deleted_tweet in deleter_edges:
            if liked_tweet == deleted_tweet:
                edges.add((liker_id, deleter_id))
    return edges


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self.parent[root_b] = root_a


def wcc_union_find_oracle(nodes, edges):
    """Weakly connected components as sorted member tuples, sorted by minimum."""
    finder = UnionFind()
    for node in nodes:
        finder.find(node)
    for a, b in edges:
        finder.union(a, b)
    groups = defaultdict(list)
    for node in nodes:
        groups[finder.find(node)].append(node)
    return sorted((tuple(sorted(group)) for group in groups.values()), key=lambda g: g[0])


def term_count_oracle(descriptions, stopwords):
    counts = defaultdict(int)
    for text in descriptions:
        token = ""
        for char in text.lower() + " ":
            if char.isalnum():
                token += char
            else:
                if token and token not in stopwords:
                    counts[token] += 1
                token = ""
    return dict(counts)
