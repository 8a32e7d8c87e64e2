"""Coordinated like/unlike/delete detection via tripartite projection.

An account that repeatedly unlikes a tweet its author later deletes is
linked to that author, liker -> deleter; weakly connected components large
enough to indicate coordination are kept. ``detect_coordination`` works from
the unlike side. It keeps only the tweets that have an unlike record, maps
each of them to its deleters in one pass over the daily deletion records,
drops unlikes of tweets nobody deleted and casual unlikers, then projects
the rest onto a directed liker-to-deleter graph and runs the components
step. No deleter edge is built for a tweet nobody unliked, and a node's
``deletion_total`` (the distinct tweets it deleted, over all its records) is
computed only for the accounts that end up as nodes; its ``role_ratio``
follows from the two totals. With ``min_unlikes=1`` and ``min_component=1``
nothing is filtered, and ``detect_coordination`` returns the whole
projection.

``build_tripartite``, ``filter_unlikers``, ``project_bipartite`` and
``filter_components`` are the same pipeline one step at a time, over the
whole deleter-tweet-liker network; ``detect_coordination`` equals their
composition node for node, and shares its projection with
``project_bipartite``. All outputs are sorted by ID so graph files are
byte-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from .ingest import DailyDeletionRecord, UnlikeRecord
from .records import check_at_least

#: A liker must have unliked the same tweet at least this many times to count.
DEFAULT_MIN_UNLIKES = 5

#: Weakly connected components smaller than this are discarded.
DEFAULT_MIN_COMPONENT = 10


def role_ratio(unlike_total: int, deletion_total: int) -> float:
    """Unlike share of a node's activity: 1.0 pure liker, 0.0 pure deleter.

    Normalized to [0, 1]; defined as 0 when the node has no activity at all.
    """
    combined = unlike_total + deletion_total
    if combined == 0:
        return 0.0
    return unlike_total / combined


def raw_role_ratio(unlike_total: int, deletion_total: int) -> float | None:
    """Plain unlikes-over-deletions ratio; None where it is undefined."""
    if deletion_total == 0:
        return None
    return unlike_total / deletion_total


@dataclass(frozen=True, slots=True)
class TripartiteNetwork:
    """Deleter-tweet and liker-tweet edges around eventually-deleted tweets."""

    deleter_edges: frozenset[tuple[int, int]]
    liker_edges: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        deleted = {tweet_id for _, tweet_id in self.deleter_edges}
        for liker_id, tweet_id, unlike_count in self.liker_edges:
            if tweet_id not in deleted:
                raise ValueError(f"liker edge references undeleted tweet {tweet_id}")
            if unlike_count < 1:
                raise ValueError("unlike_count must be >= 1")

    def tweets(self) -> set[int]:
        return {tweet_id for _, tweet_id in self.deleter_edges}

    def likers(self) -> set[int]:
        return {liker_id for liker_id, _, _ in self.liker_edges}


@dataclass(frozen=True, slots=True)
class CoordinationNode:
    account_id: int
    unlike_total: int
    deletion_total: int
    in_degree: int
    component_id: int

    @property
    def role_ratio(self) -> float:
        return role_ratio(self.unlike_total, self.deletion_total)


@dataclass(frozen=True, slots=True)
class UnlikeFunnel:
    """Liker edges and liker accounts before and after the repeat-unlike filter.

    Counted over unlikes of deleted tweets: ``len(net.liker_edges)`` and
    ``len(net.likers())`` of the tripartite network, then of the network
    ``filter_unlikers`` returns.
    """

    liker_edges_before: int
    liker_edges_after: int
    liker_accounts_before: int
    liker_accounts_after: int


@dataclass(frozen=True, slots=True)
class CoordinationGraph:
    """Directed liker-to-deleter graph with component structure.

    ``nodes`` are sorted by account ID, ``edges`` by (source, target), and
    ``components`` lists each component's sorted members, ordered by the
    component ID (the smallest member account ID). ``funnel`` is set by
    ``detect_coordination`` and left out of comparisons.
    """

    nodes: tuple[CoordinationNode, ...]
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    funnel: UnlikeFunnel | None = field(default=None, compare=False)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(node.account_id for node in self.nodes)

    def node(self, account_id: int) -> CoordinationNode:
        for candidate in self.nodes:
            if candidate.account_id == account_id:
                return candidate
        raise KeyError(account_id)


def build_tripartite(
    daily_deletions: Iterable[DailyDeletionRecord],
    unlikes: Iterable[UnlikeRecord],
) -> TripartiteNetwork:
    """Join deletion and unlike records around the deleted tweets.

    Unlikes of tweets never seen deleted are out of scope and dropped.
    """
    deleter_edges = {
        (record.account_id, tweet_id)
        for record in daily_deletions
        for tweet_id in record.tweet_ids
    }
    deleted = {tweet_id for _, tweet_id in deleter_edges}
    liker_edges = {
        (record.liker_id, record.tweet_id, record.unlike_count)
        for record in unlikes
        if record.tweet_id in deleted
    }
    return TripartiteNetwork(frozenset(deleter_edges), frozenset(liker_edges))


def filter_unlikers(
    net: TripartiteNetwork, min_unlikes: int = DEFAULT_MIN_UNLIKES
) -> TripartiteNetwork:
    """Drop liker edges below the repeat-unlike threshold.

    Likers left with no edges disappear with their edges; deleter edges are
    untouched.
    """
    check_at_least("min_unlikes", min_unlikes, 1)
    kept = frozenset(
        edge for edge in net.liker_edges if edge[2] >= min_unlikes
    )
    return TripartiteNetwork(net.deleter_edges, kept)


def _weakly_connected_components(
    node_ids: Iterable[int], edges: Iterable[tuple[int, int]]
) -> list[tuple[int, ...]]:
    adjacency: dict[int, set[int]] = {node_id: set() for node_id in node_ids}
    for source, target in edges:
        adjacency[source].add(target)
        adjacency[target].add(source)
    seen: set[int] = set()
    components = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        members = []
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            members.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(tuple(sorted(members)))
    components.sort(key=lambda members: members[0])
    return components


def _project(
    deleters_of: dict[int, set[int]],
    liker_edges: Iterable[tuple[int, int, int]],
    deletion_totals: Callable[[Iterable[int]], dict[int, int]],
    min_nodes: int,
) -> CoordinationGraph:
    """Project distinct liker edges onto liker-to-deleter edges, keeping the
    components of at least ``min_nodes`` nodes.

    ``deleters_of`` maps the tweet of every liker edge to its deleters;
    ``deletion_totals`` maps the IDs of the kept nodes to their totals.
    """
    edges: set[tuple[int, int]] = set()
    unlike_totals: dict[int, int] = {}
    for liker_id, tweet_id, unlike_count in liker_edges:
        unlike_totals[liker_id] = unlike_totals.get(liker_id, 0) + unlike_count
        for deleter_id in deleters_of[tweet_id]:
            edges.add((liker_id, deleter_id))

    node_ids = {source for source, _ in edges} | {target for _, target in edges}
    in_degrees: dict[int, int] = {}
    for _, target in edges:
        in_degrees[target] = in_degrees.get(target, 0) + 1

    components = [
        members
        for members in _weakly_connected_components(node_ids, edges)
        if len(members) >= min_nodes
    ]
    component_of = {
        member: members[0] for members in components for member in members
    }
    totals = deletion_totals(component_of)

    nodes = [
        CoordinationNode(
            node_id,
            unlike_totals.get(node_id, 0),
            totals[node_id],
            in_degrees.get(node_id, 0),
            component_of[node_id],
        )
        for node_id in sorted(component_of)
    ]
    kept_edges = sorted(edge for edge in edges if edge[0] in component_of)
    return CoordinationGraph(tuple(nodes), tuple(kept_edges), tuple(components))


def project_bipartite(net: TripartiteNetwork) -> CoordinationGraph:
    """Project the tripartite network onto directed liker-to-deleter edges.

    Every (liker of T, deleter of T) pair becomes one unweighted edge;
    multiple shared tweets collapse to a single edge. Self-loops (an account
    unliking its own later-deleted tweet) are retained. Node annotations are
    totals over the projected network's accounts in the source tripartite.
    """
    deleters_of: dict[int, set[int]] = {}
    for deleter_id, tweet_id in net.deleter_edges:
        deleters_of.setdefault(tweet_id, set()).add(deleter_id)

    def deletion_totals(node_ids: Iterable[int]) -> dict[int, int]:
        totals = dict.fromkeys(node_ids, 0)
        for deleter_id, _ in net.deleter_edges:
            if deleter_id in totals:
                totals[deleter_id] += 1
        return totals

    return _project(deleters_of, net.liker_edges, deletion_totals, 1)


def filter_components(
    graph: CoordinationGraph, min_nodes: int = DEFAULT_MIN_COMPONENT
) -> CoordinationGraph:
    """Keep only weakly connected components with at least ``min_nodes`` nodes."""
    check_at_least("min_nodes", min_nodes, 1)
    kept_components = tuple(
        members for members in graph.components if len(members) >= min_nodes
    )
    kept_ids = {member for members in kept_components for member in members}
    nodes = tuple(node for node in graph.nodes if node.account_id in kept_ids)
    edges = tuple(
        (source, target)
        for source, target in graph.edges
        if source in kept_ids and target in kept_ids
    )
    return CoordinationGraph(nodes, edges, kept_components)


def detect_coordination(
    daily_deletions: Iterable[DailyDeletionRecord],
    unlikes: Iterable[UnlikeRecord],
    min_unlikes: int = DEFAULT_MIN_UNLIKES,
    min_component: int = DEFAULT_MIN_COMPONENT,
) -> CoordinationGraph:
    """Full pipeline, from the unlike side; sets the graph's ``funnel``.

    Equals ``filter_components(project_bipartite(filter_unlikers(
    build_tripartite(daily_deletions, unlikes), min_unlikes)),
    min_component)``. ``detect_coordination(daily_deletions, unlikes,
    min_unlikes=1, min_component=1)`` is the whole unfiltered projection,
    ``project_bipartite(build_tripartite(daily_deletions, unlikes))``: the
    library's way to get it. Reads ``unlikes`` first, then
    ``daily_deletions`` once; a deletion record's tweets are looked at one
    by one only if one of them has an unlike record.
    """
    check_at_least("min_unlikes", min_unlikes, 1)
    check_at_least("min_nodes", min_component, 1)

    unlikers_of: dict[int, set[tuple[int, int]]] = {}
    for record in unlikes:
        unlikers_of.setdefault(record.tweet_id, set()).add(
            (record.liker_id, record.unlike_count)
        )
    unliked = unlikers_of.keys()

    deleters_of: dict[int, set[int]] = {}
    tweets_of: dict[int, list[tuple[int, ...]]] = {}
    for record in daily_deletions:
        account_id, tweet_ids = record.account_id, record.tweet_ids
        tweets_of.setdefault(account_id, []).append(tweet_ids)
        if unliked.isdisjoint(tweet_ids):
            continue
        for tweet_id in tweet_ids:
            if tweet_id in unliked:
                deleters_of.setdefault(tweet_id, set()).add(account_id)

    liker_edges = [
        (liker_id, tweet_id, unlike_count)
        for tweet_id in deleters_of
        for liker_id, unlike_count in unlikers_of[tweet_id]
    ]
    kept = [edge for edge in liker_edges if edge[2] >= min_unlikes]
    funnel = UnlikeFunnel(
        len(liker_edges),
        len(kept),
        len({liker_id for liker_id, _, _ in liker_edges}),
        len({liker_id for liker_id, _, _ in kept}),
    )

    def deletion_totals(node_ids: Iterable[int]) -> dict[int, int]:
        return {
            node_id: len(set().union(*tweets_of.get(node_id, ())))
            for node_id in node_ids
        }

    graph = _project(deleters_of, kept, deletion_totals, min_component)
    return replace(graph, funnel=funnel)
