"""The pure-Python CCDF and quantiles, and the blocked permutation KS test,
against the numpy code they replaced, bit for bit.

Signed zeros are left out of the drawn values: numpy's sort does not keep
``-0.0`` and ``0.0`` in input order, so which of them numpy reports for a run
of zeros is not defined, and no stage produces ``-0.0``.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from delstream import behavior as b
from delstream import estimate as e


def _not_negative_zero(x: float) -> bool:
    return x != 0 or math.copysign(1.0, x) > 0


_SAFE_INTS = st.integers(-(2**53), 2**53)
_RATIOS = st.builds(lambda p, q: p / q, st.integers(-(10**6), 10**6), st.integers(1, 997))
_MAGNITUDES = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1, -1]),
    st.floats(1.0, 9.999),
    st.integers(-300, 300),
)
_ANY_FLOAT = st.floats(allow_nan=False).filter(_not_negative_zero)


def _values(extra=st.nothing()):
    """Samples of one kind of value, or of all kinds, with ties likely."""
    value = st.one_of(_SAFE_INTS, _RATIOS, _MAGNITUDES, _ANY_FLOAT, extra)
    tied = st.lists(value, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
    )
    return st.one_of(
        st.lists(value, min_size=1, max_size=40),
        tied,
        st.lists(_SAFE_INTS, min_size=1, max_size=40),
        st.lists(_MAGNITUDES, min_size=1, max_size=40),
        value.map(lambda v: [v]),
    )


class TestCcdfMatchesNumpy:
    @given(_values(extra=st.integers(2**53, 2**70)))
    @settings(max_examples=600)
    def test_rows_equal_repr_for_repr(self, samples):
        assert repr(e.ccdf(samples)) == repr(oracles.ccdf_numpy_oracle(samples))

    def test_infinities(self):
        samples = [math.inf, 1, -math.inf, math.inf]
        assert repr(e.ccdf(samples)) == repr(oracles.ccdf_numpy_oracle(samples))


class TestQuartilesMatchNumpy:
    @given(_values())
    @settings(max_examples=600)
    def test_quartiles_equal_repr_for_repr(self, values):
        got = b._linear_quantiles(values, (0.0, 0.25, 0.5, 0.75, 1.0))
        assert repr(got) == repr(oracles.quartiles_numpy_oracle(values))

    @given(st.lists(st.tuples(st.integers(1, 5), _values()), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_frequency_buckets_equal_repr_for_repr(self, groups):
        summaries = [
            b.AccountBehaviorSummary(account, days, mean, None, b.Category.OTHER)
            for account, (days, mean) in enumerate(
                (days, mean) for days, means in groups for mean in means
            )
        ]
        by_bucket: dict[int, list] = {}
        for days, means in groups:
            by_bucket.setdefault(days, []).extend(means)
        for bucket in b.frequency_buckets(summaries, window_days=5):
            values = by_bucket.get(bucket.deleting_days)
            if values is None:
                assert bucket.count == 0 and bucket.median is None
                continue
            got = [bucket.minimum, bucket.q1, bucket.median, bucket.q3, bucket.maximum]
            assert bucket.count == len(values)
            assert repr(got) == repr(oracles.quartiles_numpy_oracle(values))


_TIED_SAMPLES = st.lists(
    st.one_of(st.integers(0, 6), _RATIOS, _MAGNITUDES), min_size=1, max_size=5
).flatmap(
    lambda pool: st.tuples(
        st.lists(st.sampled_from(pool), min_size=1, max_size=40),
        st.lists(st.sampled_from(pool), min_size=1, max_size=40),
    )
)


def _around(block: int) -> st.SearchStrategy[int]:
    """Permutation counts before, on and after the block boundaries."""
    return st.one_of(
        st.integers(1, block - 1) if block > 1 else st.just(1),
        st.integers(1, 3).map(lambda k: k * block),
        st.tuples(st.integers(1, 3), st.sampled_from([-1, 1])).map(
            lambda kd: max(1, kd[0] * block + kd[1])
        ),
    )


class TestPermutationKsMatchesLoop:
    @given(_TIED_SAMPLES, st.data(), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_default_block(self, samples, data, seed):
        a, b_ = samples
        block = max(1, e._PERMUTATION_BLOCK // (len(a) + len(b_)))
        permutations = data.draw(_around(block), label="permutations")
        got = e.ks_two_sample(a, b_, permutations=permutations, seed=seed)
        want = oracles.ks_permutation_loop_oracle(a, b_, permutations, seed)
        assert (got.statistic, got.p_value) == want

    @given(_TIED_SAMPLES, st.integers(1, 200), st.data(), st.integers(0, 999))
    @settings(max_examples=300, deadline=None)
    def test_small_blocks(self, samples, block_elements, data, seed):
        a, b_ = samples
        block = max(1, block_elements // (len(a) + len(b_)))
        permutations = data.draw(_around(block), label="permutations")
        with mock.patch.object(e, "_PERMUTATION_BLOCK", block_elements):
            got = e.ks_two_sample(a, b_, permutations=permutations, seed=seed)
        want = oracles.ks_permutation_loop_oracle(a, b_, permutations, seed)
        assert (got.statistic, got.p_value) == want

    @given(_TIED_SAMPLES)
    @settings(max_examples=300)
    def test_statistic_without_permutations(self, samples):
        a, b_ = samples
        got = e.ks_two_sample(a, b_)
        assert got.p_value is None
        assert got.statistic == oracles.ks_permutation_loop_oracle(a, b_, 0, 0)[0]


class TestNanRejected:
    def test_ccdf(self):
        with pytest.raises(ValueError, match="NaN"):
            e.ccdf([math.nan, 1, 2])

    def test_quantiles(self):
        with pytest.raises(ValueError, match="NaN"):
            b._linear_quantiles([1.0, math.nan], (0.5,))

    def test_frequency_buckets(self):
        summaries = [
            b.AccountBehaviorSummary(1, 1, math.nan, None, b.Category.ONE_DAY),
            b.AccountBehaviorSummary(2, 1, 3.0, None, b.Category.ONE_DAY),
        ]
        with pytest.raises(ValueError, match="NaN"):
            b.frequency_buckets(summaries, window_days=1)

    @pytest.mark.parametrize("permutations", [None, 20])
    @pytest.mark.parametrize("a, b_", [([math.nan, 1], [1, 2]), ([1, 2], [2, math.nan])])
    def test_ks_two_sample(self, a, b_, permutations):
        with pytest.raises(ValueError, match="NaN"):
            e.ks_two_sample(a, b_, permutations=permutations, seed=0)
