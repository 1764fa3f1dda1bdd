"""numtheory's Miller-Rabin is_prime and its early-stopping factorize against trial division."""

import pytest

from necklacemap import numtheory
from necklacemap.numtheory import (
    MILLER_RABIN_BOUND,
    SMALL_PRIMES,
    PrimePowerFactor,
    factorize,
    is_prime,
)
from reference import factorize_by_trial, is_prime_by_trial


def strong_probable_prime(m: int, a: int) -> bool:
    """One Miller-Rabin round of odd m > 2 to the base a."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    return x in (1, m - 1) or any(pow(x, 2**r, m) == m - 1 for r in range(1, s))


def test_every_small_number_matches_trial_division():
    for m in range(1, 200_000):
        factors = factorize_by_trial(m)
        assert factorize(m) == factors, m
        assert is_prime(m) == (factors == [PrimePowerFactor(m, 1)]), m  # is_prime_by_trial


def test_prime_powers_minus_one_match_trial_division(monkeypatch):
    # the orders set-up factors are q**d - 1; those whose cofactor is still past 1001**2
    # when trial division reaches 1001 ask is_prime, and stop there if it is prime
    asked = []
    monkeypatch.setattr(numtheory, "is_prime", lambda m: asked.append(m) or is_prime(m))
    orders = {q**d - 1 for q in range(2, 31) for d in range(1, 41) if q**d - 1 < 10**12}
    for m in sorted(orders - {0}):
        for order in ("desc", "asc"):
            assert factorize(m, order) == factorize_by_trial(m, order), m
        assert is_prime(m) == is_prime_by_trial(m), m
    stopped = sum(map(is_prime, asked))
    assert 0 < stopped < len(asked)  # measured: 46 of 82 cofactors prime, both orders


@pytest.mark.parametrize(
    "m,bases",
    [
        (3215031751, 4),  # 151 * 751 * 28351
        (3825123056546413051, 9),  # 149491 * 747451 * 34233211
        (318665857834031151167461, 12),  # 399165290221 * 798330580441
    ],
)
def test_rejects_strong_pseudoprimes_to_fewer_bases(m, bases):
    assert all(m % p for p in SMALL_PRIMES)
    assert all(strong_probable_prime(m, a) for a in SMALL_PRIMES[:bases])
    assert not is_prime(m)


def test_accepts_mersenne_primes():
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert factorize(2**61 - 1) == [PrimePowerFactor(2**61 - 1, 1)]
    assert factorize(6 * (2**61 - 1), "asc") == [
        PrimePowerFactor(2, 1), PrimePowerFactor(3, 1), PrimePowerFactor(2**61 - 1, 1)]


def test_bound_is_the_least_pseudoprime_to_all_bases():
    # composite, yet it passes every round; is_prime keeps trial division from here on
    assert MILLER_RABIN_BOUND == 1287836182261 * 2575672364521
    assert all(strong_probable_prime(MILLER_RABIN_BOUND, a) for a in SMALL_PRIMES)


def test_composite_cofactor_past_the_check_keeps_dividing():
    for m in (1009 * 1013, 1009**2, 1009**3 * 1013, 7 * 1013 * 1019 * 1021):
        assert factorize(m) == factorize_by_trial(m)


def test_cofactor_is_asked_again_after_each_factor_past_1001(monkeypatch):
    # q - 1 = 2 * 1009 * 1000000000002767 for the prime q of `cosets 2 2018000000005583807`:
    # the cofactor at 1001 is composite, and prime once 1009 is divided out, where trial
    # division would run on to its square root, about 3.2 * 10**7
    asked = []
    monkeypatch.setattr(numtheory, "is_prime", lambda m: asked.append(m) or is_prime(m))
    assert factorize(2 * 1009 * 1000000000002767) == [
        PrimePowerFactor(1000000000002767, 1), PrimePowerFactor(1009, 1), PrimePowerFactor(2, 1)]
    assert asked == [1009 * 1000000000002767, 1000000000002767]


@pytest.mark.parametrize("large", [1009 * 1013, 1009**2 * 10007, 1013 * 1019 * 1021, 1009 * 100003])
def test_products_of_primes_past_1001_match_trial_division(large):
    # every 7th small cofactor times primes past 1001: the cofactor is asked about at 1001 and
    # after each of them, and the list and its order are trial division's
    for m in range(1, 2000, 7):
        for order in ("desc", "asc"):
            assert factorize(m * large, order) == factorize_by_trial(m * large, order), m
