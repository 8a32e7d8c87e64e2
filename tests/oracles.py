"""Independent reference implementations used to check the package.

Everything here is deliberately naive (brute force, nested loops, textbook
union-find) and shares no code with the implementations under test. The
numpy-based references are the code the package's pure-Python CCDF,
quantiles, means, medians and estimate scoring, and its blocked permutation
test, replaced, the ``json.dumps`` writers the path its directly formatted
event and snapshot lines replaced, and the notice objects ``generate`` built
and sorted before it kept integer rows; the package must match them bit for
bit.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from datetime import datetime, timedelta, timezone
from operator import attrgetter

from delstream.records import ComplianceNotice, NoticeKind

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


def parse_timestamp_oracle(value: str) -> datetime:
    """``records.parse_timestamp`` as it read stamps before it checked their
    form: whatever this Python's ``datetime.fromisoformat`` reads."""
    dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    return dt.replace(tzinfo=UTC) if dt.tzinfo is None else dt.astimezone(UTC)


def format_timestamp_oracle(dt) -> str:
    return dt.astimezone(UTC).isoformat().replace("+00:00", "Z")


def notice_to_dict_oracle(notice) -> dict:
    return {
        "kind": notice.kind.value,
        "actor_id": notice.actor_id,
        "object_id": notice.object_id,
        "observed_at": format_timestamp_oracle(notice.observed_at),
    }


def snapshot_to_dict_oracle(snapshot) -> dict:
    def stamp(value):
        return None if value is None else format_timestamp_oracle(value)

    return {
        "account_id": snapshot.account_id,
        "snapshot_day": snapshot.snapshot_day.isoformat(),
        "statuses_count": snapshot.statuses_count,
        "status": snapshot.status.value,
        "description": snapshot.description,
        "created_at": stamp(snapshot.created_at),
        "queried_at": stamp(snapshot.queried_at),
    }


def line_oracle(raw) -> str:
    """One NDJSON line as the package wrote every line before it formatted
    event and snapshot lines directly: a fresh ``json.dumps`` per line."""
    return json.dumps(raw, separators=(",", ":"))


def write_ndjson_oracle(path, items, to_dict) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(line_oracle(to_dict(item)))
            fh.write("\n")
            count += 1
    return count


_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=UTC)


def generated_notices_oracle(rows) -> list:
    """The notices of ``generate``'s ``(at_ms, kind value, actor_id,
    object_id)`` rows, in any order, as it built them before it kept rows:
    one ComplianceNotice per row, sorted on its fields by ``attrgetter``."""
    notices = [
        ComplianceNotice(
            NoticeKind(kind), actor_id, object_id,
            _UNIX_EPOCH + timedelta(milliseconds=at_ms),
        )
        for at_ms, kind, actor_id, object_id in rows
    ]
    notices.sort(key=attrgetter("observed_at", "kind", "actor_id", "object_id"))
    return notices


def notice_lines_oracle(notices) -> bytes:
    """The event file ``write_notices`` writes for ``notices``, one
    ``json.dumps`` line per notice."""
    return "".join(f"{line_oracle(notice_to_dict_oracle(n))}\n" for n in notices).encode()


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


def mean_numpy_oracle(values) -> float:
    import numpy as np

    return float(np.mean(values))


def median_numpy_oracle(values) -> float:
    import numpy as np

    return float(np.median(values))


def from_pairs_numpy_oracle(pairs, floor, per_account_median):
    """``ComparisonReport.from_pairs`` as numpy computed it, and the report's
    ``underestimation_fraction`` from the numpy means."""
    import numpy as np

    from delstream.estimate import ComparisonReport, PairedDeletion

    kept = [p for p in pairs if p.estimated >= floor]
    if per_account_median:
        grouped = defaultdict(list)
        for pair in kept:
            grouped[pair.account_id].append(pair)
        kept = [
            PairedDeletion(
                account_id,
                None,
                median_numpy_oracle([p.estimated for p in group]),
                median_numpy_oracle([p.actual for p in group]),
            )
            for account_id, group in sorted(grouped.items())
        ]
    if not kept:
        return ComparisonReport((), None, None, None, (), ()), None
    estimated = [p.estimated for p in kept]
    actual = [p.actual for p in kept]
    mean_estimated = mean_numpy_oracle(estimated)
    mean_actual = mean_numpy_oracle(actual)
    fraction = None
    if mean_actual != 0:
        fraction = (mean_actual - mean_estimated) / mean_actual
    report = ComparisonReport(
        tuple(kept),
        mean_estimated,
        mean_actual,
        _ks_numpy(np.asarray(estimated, dtype=float), np.asarray(actual, dtype=float)),
        tuple(ccdf_numpy_oracle(estimated)),
        tuple(ccdf_numpy_oracle(actual)),
    )
    return report, fraction


def pairing_oracle(estimates, actuals, include_gaps=True):
    """(account, day, estimated, actual) per actual (account, day, count)
    triple inside some interval.

    Of the estimates of the day's account whose (start, end] holds the day,
    the one with the greatest (start, -end, input index) is taken.
    """
    estimates = list(estimates)
    pairs = []
    for account_id, day, deletion_count in actuals:
        held = [
            (est.interval_start, -est.interval_end.toordinal(), index)
            for index, est in enumerate(estimates)
            if est.account_id == account_id
            and (include_gaps or not est.is_gap)
            and est.interval_start < day <= est.interval_end
        ]
        if held:
            best = estimates[max(held)[2]]
            pairs.append((account_id, day, best.estimated_daily, float(deletion_count)))
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
