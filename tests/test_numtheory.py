import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklacemap.errors import NotCoprimeError
from necklacemap.numtheory import (
    PrimePowerFactor,
    RingParams,
    euler_phi,
    factorize,
    gcd_of_set,
    is_prime,
)


def trial_division_factors(m):
    """Independent oracle: naive trial division into (prime, exponent) pairs."""
    out = []
    d = 2
    while d * d <= m:
        t = 0
        while m % d == 0:
            m //= d
            t += 1
        if t:
            out.append((d, t))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


class TestFactorize:
    def test_ten_descends(self):
        assert [(f.p, f.t) for f in factorize(10)] == [(5, 1), (2, 1)]

    def test_one_is_empty_product(self):
        assert factorize(1) == []

    def test_72(self):
        fs = factorize(72)
        assert [(f.p, f.t) for f in fs] == [(3, 2), (2, 3)]
        assert [f.value for f in fs] == [9, 8]

    def test_ascending_order(self):
        assert [f.value for f in factorize(72, order="asc")] == [8, 9]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(10, order="sideways")

    def test_exhaustive_small_range(self):
        for m in range(1, 20001):
            fs = factorize(m)
            assert math.prod(f.value for f in fs) == m
            assert sorted((f.p, f.t) for f in fs) == sorted(trial_division_factors(m))

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_sampled_up_to_a_million(self, m):
        fs = factorize(m)
        assert math.prod(f.value for f in fs) == m
        assert all(is_prime(f.p) for f in fs)
        assert len({f.p for f in fs}) == len(fs)


class TestEulerPhi:
    @pytest.mark.parametrize("m,expected", [(1, 1), (12, 4), (30, 8)])
    def test_known(self, m, expected):
        assert euler_phi(m) == expected

    def test_against_direct_count(self):
        for m in range(1, 300):
            direct = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
            assert euler_phi(m) == direct


class TestGcdOfSet:
    def test_empty_set(self):
        assert gcd_of_set(3, []) == 3

    def test_zeros(self):
        assert gcd_of_set(3, [0, 0]) == 3

    def test_mixed(self):
        assert gcd_of_set(12, [8, 18]) == 2


class TestRingParams:
    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprimeError):
            RingParams.create(4, 2)
        with pytest.raises(NotCoprimeError):
            RingParams.create(6, 9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RingParams.create(0, 2)

    def test_worked_instance(self):
        p = RingParams.create(3, 10)
        assert [f.value for f in p.factors] == [5, 2]
        assert p.weights == (2, 1)

    def test_order_knob(self):
        p = RingParams.create(3, 10, factor_order="asc")
        assert [f.value for f in p.factors] == [2, 5]
        assert p.weights == (5, 1)

    @pytest.mark.parametrize("n,q", [(1, 2), (3, 10), (5, 6), (2, 9), (7, 30), (4, 105)])
    def test_weight_identity(self, n, q):
        p = RingParams.create(n, q)
        assert sum((f.value - 1) * w for f, w in zip(p.factors, p.weights)) == q - 1

    def test_q_one_is_empty(self):
        p = RingParams.create(5, 1)
        assert p.factors == () and p.weights == ()

    def test_value_property(self):
        assert PrimePowerFactor(3, 2).value == 9
