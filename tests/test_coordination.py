from __future__ import annotations

import random
import tracemalloc
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from delstream import coordination as c
from delstream.ingest import DailyDeletionRecord, UnlikeRecord

DAY0 = date(2021, 4, 26)


def deletion(account_id: int, tweet_ids) -> DailyDeletionRecord:
    return DailyDeletionRecord(account_id, DAY0, tuple(sorted(tweet_ids)))


def unlike(liker_id: int, tweet_id: int, count: int) -> UnlikeRecord:
    return UnlikeRecord(liker_id, tweet_id, count)


def by_account(records):
    return sorted(records, key=lambda record: (record.account_id, record.day))


def random_instance(seed: int, accounts=40, tweets=60, unlikers=50):
    rng = random.Random(seed)
    deletions = {}
    for tweet_id in range(1000, 1000 + tweets):
        deleter = rng.randrange(1, accounts)
        deletions.setdefault(deleter, []).append(tweet_id)
    records = [deletion(acct, ids) for acct, ids in deletions.items()]
    unlikes = [
        unlike(
            rng.randrange(1, accounts + unlikers),
            rng.randrange(1000, 1000 + tweets + 10),  # some never-deleted tweets
            rng.randrange(1, 12),
        )
        for _ in range(200)
    ]
    # unlike records must be unique per (liker, tweet)
    seen, unique = set(), []
    for u in unlikes:
        if (u.liker_id, u.tweet_id) not in seen:
            seen.add((u.liker_id, u.tweet_id))
            unique.append(u)
    return records, unique


class TestBuildTripartite:
    def test_unlike_of_never_deleted_tweet_excluded(self):
        net = c.build_tripartite([deletion(1, [10])], [unlike(2, 99, 6)])
        assert net.liker_edges == frozenset()

    def test_single_tweet_star(self):
        net = c.build_tripartite(
            [deletion(1, [10])],
            [unlike(2, 10, 5), unlike(3, 10, 6), unlike(4, 10, 7)],
        )
        assert len(net.deleter_edges) == 1
        assert len(net.liker_edges) == 3
        assert net.tweets() == {10}
        assert net.likers() == {2, 3, 4}

    def test_matches_nested_loop_join_oracle(self):
        records, unlikes = random_instance(3)
        net = c.build_tripartite(records, unlikes)
        deleter_expected, liker_expected = oracles.tripartite_join_oracle(
            records, unlikes
        )
        assert net.deleter_edges == deleter_expected
        assert net.liker_edges == liker_expected

    def test_scope_invariant_enforced(self):
        with pytest.raises(ValueError):
            c.TripartiteNetwork(
                frozenset({(1, 10)}), frozenset({(2, 99, 5)})
            )


class TestFilterUnlikers:
    def test_boundary_four_removed_five_kept(self):
        net = c.build_tripartite(
            [deletion(1, [10])], [unlike(2, 10, 4), unlike(3, 10, 5)]
        )
        filtered = c.filter_unlikers(net, min_unlikes=5)
        assert filtered.likers() == {3}
        assert filtered.deleter_edges == net.deleter_edges

    def test_removal_fraction_constructed_population(self):
        # 200 likers of one tweet: 187 casual (93.5%), 13 repeat
        records = [deletion(1, [10])]
        unlikes = [unlike(100 + i, 10, 4 if i < 187 else 5) for i in range(200)]
        net = c.build_tripartite(records, unlikes)
        filtered = c.filter_unlikers(net)
        removed_likers = len(net.likers()) - len(filtered.likers())
        assert removed_likers / len(net.likers()) == pytest.approx(0.935)
        removed_edges = len(net.liker_edges) - len(filtered.liker_edges)
        assert removed_edges / len(net.liker_edges) == pytest.approx(0.935)

    def test_invalid_threshold(self):
        net = c.build_tripartite([deletion(1, [10])], [])
        with pytest.raises(ValueError):
            c.filter_unlikers(net, min_unlikes=0)


class TestProjection:
    def test_star_in_degree(self):
        net = c.build_tripartite(
            [deletion(1, [10])],
            [unlike(2, 10, 5), unlike(3, 10, 6), unlike(4, 10, 7)],
        )
        graph = c.project_bipartite(net)
        assert set(graph.edges) == {(2, 1), (3, 1), (4, 1)}
        assert graph.node(1).in_degree == 3
        assert graph.node(1).deletion_total == 1
        assert graph.node(2).unlike_total == 5

    def test_duplicate_pair_collapses(self):
        net = c.build_tripartite(
            [deletion(1, [10, 11])], [unlike(2, 10, 5), unlike(2, 11, 8)]
        )
        graph = c.project_bipartite(net)
        assert graph.edges == ((2, 1),)
        assert graph.node(2).unlike_total == 13

    def test_self_loop_retained(self):
        net = c.build_tripartite([deletion(1, [10])], [unlike(1, 10, 6)])
        graph = c.project_bipartite(net)
        assert graph.edges == ((1, 1),)
        node = graph.node(1)
        assert node.role_ratio == pytest.approx(6 / 7)

    def test_matches_cross_product_oracle(self):
        records, unlikes = random_instance(17)
        net = c.filter_unlikers(c.build_tripartite(records, unlikes), 2)
        graph = c.project_bipartite(net)
        assert set(graph.edges) == oracles.projection_oracle(
            net.deleter_edges, net.liker_edges
        )

    def test_empty_network(self):
        graph = c.project_bipartite(c.build_tripartite([], []))
        assert graph.nodes == ()
        assert graph.edges == ()
        assert graph.components == ()


class TestRoleRatio:
    def test_pure_liker(self):
        assert c.role_ratio(10, 0) == 1.0

    def test_pure_deleter(self):
        assert c.role_ratio(0, 7) == 0.0

    def test_balanced(self):
        assert c.role_ratio(5, 5) == 0.5

    def test_no_activity(self):
        assert c.role_ratio(0, 0) == 0.0

    def test_raw_variant(self):
        assert c.raw_role_ratio(10, 5) == 2.0
        assert c.raw_role_ratio(10, 0) is None

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_bounded(self, unlikes, deletes):
        assert 0.0 <= c.role_ratio(unlikes, deletes) <= 1.0


class TestComponents:
    def build_graph(self, farm_sizes, min_unlikes=5):
        records, unlikes, hub = [], [], 1
        next_account = 1000
        for index, size in enumerate(farm_sizes):
            tweet_id = 10 + index
            records.append(deletion(hub + index, [tweet_id]))
            for _ in range(size):
                unlikes.append(unlike(next_account, tweet_id, min_unlikes))
                next_account += 1
        return c.project_bipartite(
            c.filter_unlikers(c.build_tripartite(records, unlikes), min_unlikes)
        )

    def test_nine_node_component_dropped(self):
        graph = self.build_graph([8])  # hub + 8 spokes = 9 nodes
        assert c.filter_components(graph, 10).components == ()

    def test_ten_node_component_kept(self):
        graph = self.build_graph([9])  # hub + 9 spokes = 10 nodes
        filtered = c.filter_components(graph, 10)
        assert len(filtered.components) == 1
        assert len(filtered.components[0]) == 10

    def test_component_ids_are_smallest_member(self):
        graph = self.build_graph([9, 12])
        filtered = c.filter_components(graph, 10)
        for members in filtered.components:
            assert members[0] == min(members)
            for node_id in members:
                assert filtered.node(node_id).component_id == members[0]

    def test_matches_union_find_oracle_random_graph(self):
        rng = random.Random(23)
        nodes = list(range(1, 300))
        edges = {
            (rng.choice(nodes), rng.choice(nodes)) for _ in range(350)
        }
        got = c._weakly_connected_components(nodes, edges)
        assert got == oracles.wcc_union_find_oracle(nodes, edges)

    def test_likers_of_same_tweet_share_component(self):
        records, unlikes = random_instance(41)
        net = c.filter_unlikers(c.build_tripartite(records, unlikes), 2)
        graph = c.project_bipartite(net)
        component_of = {node.account_id: node.component_id for node in graph.nodes}
        by_tweet = {}
        for liker_id, tweet_id, _ in net.liker_edges:
            by_tweet.setdefault(tweet_id, []).append(liker_id)
        for likers in by_tweet.values():
            components = {component_of[liker] for liker in likers}
            assert len(components) == 1


class TestPipeline:
    def test_planted_farm_recovered_exactly(self):
        records = [deletion(1, [10])]
        unlikes = [unlike(100 + i, 10, 9) for i in range(12)]
        graph = c.detect_coordination(records, unlikes)
        assert len(graph.components) == 1
        assert graph.components[0] == (1, *range(100, 112))
        hub = graph.node(1)
        assert hub.in_degree == 12
        assert hub.role_ratio == 0.0

    def test_monotone_in_thresholds(self):
        records, unlikes = random_instance(59, accounts=30, tweets=40, unlikers=80)
        baseline = c.detect_coordination(records, unlikes, min_unlikes=2, min_component=2)
        for min_unlikes, min_component in ((3, 2), (2, 4), (5, 6), (6, 10)):
            tighter = c.detect_coordination(
                records, unlikes, min_unlikes=min_unlikes, min_component=min_component
            )
            assert set(tighter.node_ids) <= set(baseline.node_ids)
            assert set(tighter.edges) <= set(baseline.edges)

    def test_every_edge_witnessed(self):
        records, unlikes = random_instance(73)
        graph = c.detect_coordination(records, unlikes, min_unlikes=3, min_component=2)
        deleted_by = {}
        for record in records:
            for tweet_id in record.tweet_ids:
                deleted_by.setdefault(record.account_id, set()).add(tweet_id)
        heavy_unlikes = {
            (u.liker_id, u.tweet_id) for u in unlikes if u.unlike_count >= 3
        }
        for source, target in graph.edges:
            witnesses = [
                tweet_id
                for tweet_id in deleted_by.get(target, ())
                if (source, tweet_id) in heavy_unlikes
            ]
            assert witnesses


# Small ID ranges, so that tweets are often deleted by several accounts, the
# same (account, tweet) recurs on several days, likers also delete (their
# own unliked tweets too: self-loops) and some unliked tweets are never
# deleted.
_deletion_records = st.lists(
    st.builds(
        lambda account_id, day, tweet_ids: DailyDeletionRecord(
            account_id, DAY0 + timedelta(days=day), tuple(sorted(tweet_ids))
        ),
        st.integers(1, 8),
        st.integers(0, 3),
        st.lists(st.integers(10, 25), min_size=1, max_size=6),
    ),
    max_size=14,
)
_unlike_records = st.lists(
    st.builds(UnlikeRecord, st.integers(1, 14), st.integers(10, 30), st.integers(1, 8)),
    max_size=40,
)


class TestPipelineEqualsSteps:
    @given(
        records=_deletion_records,
        unlikes=_unlike_records,
        min_unlikes=st.integers(1, 6),
        min_component=st.integers(1, 6),
    )
    @example(
        records=[
            deletion(1, [10, 11]),  # tweet 10 deleted by accounts 1 and 2
            deletion(2, [10, 12]),
            DailyDeletionRecord(2, DAY0 + timedelta(days=1), (12, 13)),
            deletion(5, [20, 21, 22]),  # a liker that deletes other tweets
        ],
        unlikes=[
            unlike(3, 10, 6),
            unlike(4, 10, 2),
            unlike(2, 12, 5),  # self-loop
            unlike(5, 11, 7),
            unlike(6, 99, 9),  # nobody deleted tweet 99
        ],
        min_unlikes=2,
        min_component=1,
    )
    @example(  # no filter: the whole projection, single unlikes and lone pairs kept
        records=[deletion(1, [10, 11]), deletion(2, [11]), deletion(7, [30])],
        unlikes=[unlike(3, 10, 1), unlike(4, 11, 1), unlike(8, 30, 1), unlike(9, 99, 1)],
        min_unlikes=1,
        min_component=1,
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_step_composition(self, records, unlikes, min_unlikes, min_component):
        net = c.build_tripartite(records, unlikes)
        filtered = c.filter_unlikers(net, min_unlikes)
        expected = c.filter_components(c.project_bipartite(filtered), min_component)
        # one-shot iterators: each input is read once
        got = c.detect_coordination(
            iter(by_account(records)), iter(unlikes), min_unlikes, min_component
        )
        if min_unlikes == min_component == 1:
            assert got == c.project_bipartite(net)
        assert got.nodes == expected.nodes
        assert got.edges == expected.edges
        assert got.components == expected.components
        assert got.funnel == c.UnlikeFunnel(
            len(net.liker_edges),
            len(filtered.liker_edges),
            len(net.likers()),
            len(filtered.likers()),
        )

    @given(
        records=_deletion_records,
        unlikes=_unlike_records,
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_record_order_once_grouped(self, records, unlikes, order):
        shuffled = list(records)
        order.shuffle(shuffled)
        expected = c.project_bipartite(c.build_tripartite(shuffled, unlikes))
        assert c.detect_coordination(by_account(shuffled), unlikes, 1, 1) == expected
        # grouped, the accounts in descending order and each one's days as shuffled
        grouped = sorted(shuffled, key=lambda record: -record.account_id)
        assert c.detect_coordination(iter(grouped), unlikes, 1, 1) == expected
        accounts = [record.account_id for record in shuffled]
        runs = [a for index, a in enumerate(accounts) if index == 0 or accounts[index - 1] != a]
        if len(runs) > len(set(runs)):
            with pytest.raises(ValueError, match="not grouped by account"):
                c.detect_coordination(shuffled, unlikes, 1, 1)

    def test_ungrouped_records_raise_naming_the_account(self):
        records = [
            deletion(1, [10]),
            deletion(2, [11]),
            DailyDeletionRecord(1, DAY0 + timedelta(days=1), (12,)),
        ]
        with pytest.raises(ValueError) as raised:
            c.detect_coordination(records, [unlike(3, 10, 5)], 1, 1)
        assert str(raised.value) == (
            "the daily records are not grouped by account: account 1 recurs after "
            "account 2's"
        )

    def test_deletion_total_counts_distinct_tweets_over_all_records(self):
        records = [
            deletion(1, [10, 11, 11]),
            DailyDeletionRecord(1, DAY0 + timedelta(days=1), (11, 12)),
        ]
        graph = c.detect_coordination(records, [unlike(2, 10, 5)], min_component=1)
        assert graph.node(1).deletion_total == 3
        assert graph.node(2).deletion_total == 0

    def test_funnel_not_compared(self):
        records, unlikes = [deletion(1, [10])], [unlike(2, 10, 5)]
        graph = c.detect_coordination(records, unlikes, min_component=1)
        assert graph.funnel == c.UnlikeFunnel(1, 1, 1, 1)
        assert graph == c.project_bipartite(c.build_tripartite(records, unlikes))

    @pytest.mark.parametrize(
        "thresholds", [{"min_unlikes": 0}, {"min_component": 0}]
    )
    def test_invalid_thresholds(self, thresholds):
        with pytest.raises(ValueError):
            c.detect_coordination([], [], **thresholds)


class TestMemory:
    """``detect_coordination`` keeps a count per deleting account, not its
    records: each extra account adds a few dozen bytes to the peak, where
    holding its 100 tweet IDs would add about 4.4 KB."""

    @staticmethod
    def records(accounts: int):
        for account_id in range(1, accounts + 1):
            for day in range(5):
                first = (account_id * 5 + day) * 20
                yield DailyDeletionRecord(
                    account_id, DAY0 + timedelta(days=day), tuple(range(first, first + 20))
                )

    def test_peak_does_not_follow_the_accounts(self):
        # 500 likers of tweets that the first five accounts delete: the same
        # graph, and the same unlike-side working set, at either size
        unlikes = [unlike(10**6 + i, 100 + i, 5) for i in range(500)]

        def peak(accounts: int) -> int:
            tracemalloc.start()
            try:
                c.detect_coordination(self.records(accounts), unlikes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1_000)  # the first call's one-off allocations
        small, large = peak(1_000), peak(4_000)
        assert large < 2 * small
        assert (large - small) / 3_000 < 1_000  # bytes per extra account
