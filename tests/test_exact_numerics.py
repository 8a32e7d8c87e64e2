"""The pure-Python CCDF, quantiles, means, medians and estimate scoring, and
the blocked permutation KS test, against the numpy code they replaced, bit for
bit.

Signed zeros are left out of the values drawn for the CCDF and the quantiles:
numpy's sort does not keep ``-0.0`` and ``0.0`` in input order, so which of
them numpy reports for a run of zeros is not defined, and no stage produces
``-0.0``. The mean and the median are defined for them, so their properties
draw both zeros and compare bit patterns, which ``==`` would not tell apart.
"""

from __future__ import annotations

import dataclasses
import math
import random
import struct
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


def _bits(value):
    """``value`` with every float replaced by its IEEE 754 bit pattern."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


#: Sample sizes on both sides of the pairwise sum's boundaries (8 and 128
#: items, and its halving above that) and of numpy's 8,192-item buffer.
_SIZES = st.one_of(
    st.integers(1, 20),
    st.integers(120, 136),
    st.integers(248, 264),
    st.integers(8184, 8200),
    st.integers(1, 3000),
)

#: Value kinds, each drawn from a seeded ``random.Random`` (Hypothesis draws
#: the seed, so samples of thousands of values stay cheap to generate); a
#: sample mixes one to three of them. A gap estimate is a count decrease
#: spread over the days of a gap.
_KINDS = {
    "zero": lambda r: r.choice((0.0, -0.0)),
    "negative zero": lambda r: -0.0,
    "int": lambda r: r.randint(-(10**6), 10**6),
    "count": lambda r: float(r.randint(0, 10**9)),
    "half": lambda r: r.randint(-(2**40), 2**40) / 2,
    "gap estimate": lambda r: r.randint(1, 10**6) / r.randint(1, 30),
    "magnitude": lambda r: r.choice((1, -1)) * r.uniform(1, 10) * 10.0 ** r.randint(-300, 300),
}


@st.composite
def _seeded_samples(draw, sizes=_SIZES):
    n = draw(sizes, label="n")
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=3,
                          unique=True), label="kinds")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    return [_KINDS[rng.choice(kinds)](rng) for _ in range(n)]


class TestMeanAndMedianMatchNumpy:
    @given(_seeded_samples())
    @settings(max_examples=300, deadline=None)
    def test_mean_equals_bit_for_bit(self, values):
        assert _bits(e._mean(values)) == _bits(oracles.mean_numpy_oracle(values))

    @given(_seeded_samples())
    @settings(max_examples=300, deadline=None)
    def test_median_equals_bit_for_bit(self, values):
        assert _bits(e._median(values)) == _bits(oracles.median_numpy_oracle(values))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 128, 129, 200, 8193])
    def test_negative_zeros_average_to_positive_zero(self, n):
        assert _bits(e._mean([-0.0] * n)) == _bits(0.0)
        assert _bits(e._median([-0.0] * n)) == _bits(0.0)

    def test_median_of_a_sample_with_nan_is_nan(self):
        assert math.isnan(e._median([math.nan, 1.0, 2.0]))


@st.composite
def _pairs(draw):
    """Estimate/actual pairs over a few accounts, in no particular order."""
    estimated = draw(_seeded_samples(st.one_of(st.integers(1, 300), st.integers(8184, 8200))))
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    accounts = draw(st.integers(1, 40), label="accounts")
    actual = draw(_seeded_samples(st.just(len(estimated))))
    return [
        e.PairedDeletion(rng.randrange(accounts), None, est, act)
        for est, act in zip(estimated, actual)
    ]


class TestReportMatchesNumpy:
    @given(_pairs(), st.sampled_from([0, 1, 10]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_report_equals_bit_for_bit(self, pairs, floor, per_account_median):
        got = e.ComparisonReport.from_pairs(pairs, floor, per_account_median)
        want, want_fraction = oracles.from_pairs_numpy_oracle(pairs, floor, per_account_median)

        def zero_unsigned(report):
            # numpy's sort leaves which zero its CCDF reports undefined.
            rows = [
                tuple((value + 0.0, fraction) for value, fraction in table)
                for table in (report.ccdf_estimated, report.ccdf_actual)
            ]
            return dataclasses.replace(report, ccdf_estimated=rows[0], ccdf_actual=rows[1])

        assert _bits(zero_unsigned(got)) == _bits(zero_unsigned(want))
        # A property, so the field comparison above leaves it out.
        assert _bits(got.underestimation_fraction) == _bits(want_fraction)


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

    @pytest.mark.parametrize("per_account_median", [False, True])
    def test_report(self, per_account_median):
        pairs = [e.PairedDeletion(1, None, 20.0, actual) for actual in (math.nan, 2.0, 3.0)]
        with pytest.raises(ValueError, match="NaN"):
            e.ComparisonReport.from_pairs(pairs, per_account_median=per_account_median)
