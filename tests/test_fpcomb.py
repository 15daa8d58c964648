"""Digit combinatorics: Lucas binomials, carry counts, digit domination."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expfilt.fpcomb import (
    DESK_GUARD,
    PrimeField,
    binom_mod,
    binom_row_mod,
    desk_power,
    digit_dominates,
    digit_sums,
    digits,
)


def carries_in_addition(a: int, b: int, field: PrimeField) -> int:
    """Number of carries when adding a and b in base p.

    Equals the p-adic valuation of C(a+b, a) (Kummer).
    """
    if a < 0 or b < 0:
        raise ValueError("carries_in_addition needs nonnegative arguments")
    p = field.p
    count = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        count += carry
        a //= p
        b //= p
    return count


def p_adic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestPrimeField:
    def test_rejects_composites_and_out_of_range(self):
        for bad in (0, 1, 4, 91, 98, 101):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_inverse(self):
        f = PrimeField(7)
        for a in range(1, 7):
            assert f.inv(a) * a % 7 == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_inv_factorial(self):
        f = PrimeField(5)
        assert f.inv_factorial(0) == 1
        assert f.inv_factorial(3) * 6 % 5 == 1


class TestBinomMod:
    def test_n_choose_zero(self):
        assert binom_mod(5, 0, PrimeField(3)) == 1

    def test_p_choose_one(self):
        for p in (2, 3, 5, 7):
            assert binom_mod(p, 1, PrimeField(p)) == 0

    def test_eight_choose_three_mod_two(self):
        # exact-integer oracle: 56 = 2^3 * 7
        assert math.comb(8, 3) == 56
        assert p_adic_valuation(56, 2) == 3
        assert binom_mod(8, 3, PrimeField(2)) == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_lucas_identity_against_exact(self, p):
        f = PrimeField(p)
        for n in range(0, 2001, 97):
            row = binom_row_mod(n, f)
            for j in range(0, n + 1, 13):
                assert row[j] == math.comb(n, j) % p

    def test_digitwise_product_identity(self):
        f = PrimeField(3)
        for n in range(150):
            for j in range(n + 1):
                prod = 1
                nn, jj = n, j
                while nn or jj:
                    prod = prod * math.comb(nn % 3, jj % 3) if jj % 3 <= nn % 3 else 0
                    nn //= 3
                    jj //= 3
                assert binom_mod(n, j, f) == prod % 3


class TestCarries:
    def test_one_plus_one_base_two(self):
        assert carries_in_addition(1, 1, PrimeField(2)) == 1

    def test_adding_zero(self):
        for p in (2, 5):
            assert carries_in_addition(123, 0, PrimeField(p)) == 0

    def test_matches_valuation(self):
        assert carries_in_addition(3, 5, PrimeField(2)) == 3
        assert p_adic_valuation(math.comb(8, 3), 2) == 3
        f = PrimeField(3)
        for a in range(60):
            for b in range(60):
                assert carries_in_addition(a, b, f) == p_adic_valuation(
                    math.comb(a + b, a), 3
                )

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, a, b, p):
        f = PrimeField(p)
        assert carries_in_addition(a, b, f) == carries_in_addition(b, a, f)


class TestDigitDominates:
    def test_zero_dominated_by_all(self):
        assert digit_dominates(0, 987, PrimeField(5))

    def test_one_not_dominated_by_p(self):
        for p in (2, 3, 5):
            assert not digit_dominates(1, p, PrimeField(p))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cross_check_with_carries(self, p):
        f = PrimeField(p)
        for n in range(201):
            for m in range(n + 1):
                assert digit_dominates(m, n, f) == (
                    carries_in_addition(m, n - m, f) == 0
                )

    @given(st.integers(0, 10**5), st.integers(0, 10**5), st.sampled_from([2, 3, 5]))
    @settings(max_examples=200, deadline=None)
    def test_nonzero_binomial_iff_dominates(self, j, n, p):
        f = PrimeField(p)
        nonzero = binom_mod(n, j, f) != 0
        assert nonzero == (j <= n and digit_dominates(j, n, f))


def test_digits_reconstruction():
    for p in (2, 7):
        for n in (0, 1, 64, 1000):
            ds = digits(n, p)
            assert sum(d * p**i for i, d in enumerate(ds)) == n


def test_digit_sums_in_product_order():
    f = PrimeField(3)
    places = [0, 2, 3]
    want = [
        sum(d * 3**s for d, s in zip(combo, places))
        for combo in itertools.product(range(3), repeat=len(places))
    ]
    assert list(digit_sums(f, places)) == want
    assert list(digit_sums(f, [])) == [0]


def test_digit_sums_guard_raises_before_enumerating():
    f = PrimeField(3)
    assert 3**12 <= DESK_GUARD < 3**13
    digit_sums(f, range(12))  # at the guard: allowed
    with pytest.raises(ValueError, match="desk-scale guard"):
        digit_sums(f, range(13))


def test_desk_power_is_the_one_p_power_guard():
    assert desk_power(PrimeField(3), 12, "x") == 3**12
    assert desk_power(PrimeField(2), 19, "x") == 2**19
    assert desk_power(PrimeField(97), 0, "x") == 1
    for p, k in ((3, 13), (2, 20), (97, 4)):
        with pytest.raises(ValueError, match=f"^x: {p}\\^{k} exceeds the desk-scale guard {DESK_GUARD}$"):
            desk_power(PrimeField(p), k, "x")


def test_desk_power_rejects_a_huge_exponent_without_forming_it():
    # 3^(10^18) has about 4.8e17 digits; forming it would never finish
    with pytest.raises(ValueError, match="desk-scale guard"):
        desk_power(PrimeField(3), 10**18, "x")
