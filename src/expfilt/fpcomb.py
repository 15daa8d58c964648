"""Prime-field scalar arithmetic and base-p digit combinatorics.

Scalars are plain ints in [0, p); a :class:`PrimeField` carries the modulus and
the inverse/factorial helpers.  Binomials mod p go through the Lucas kernels;
digit domination is a direct digit loop.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import _kernels

MAX_PRIME = 97

# Desk-scale work bound shared by every exhaustive enumeration: the Ga
# digit-vector loop, the products of the digit-product walk, Frobenius-kernel
# monomial counts and dual algebras.  Every size p^k is checked against it
# in one place, :func:`desk_power`.
DESK_GUARD = 10**6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, order=True)
class PrimeField:
    """The prime field F_p, 2 <= p <= MAX_PRIME."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p <= MAX_PRIME:
            raise ValueError(f"p must be a prime in [2, {MAX_PRIME}], got {self.p!r}")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def inv_factorial(self, n: int) -> int:
        """(n!)^{-1} mod p for 0 <= n < p."""
        if not 0 <= n < self.p:
            raise ValueError(f"inv_factorial needs 0 <= n < p, got n={n}")
        return _inv_factorials(self.p)[n]


@lru_cache(maxsize=None)
def _inv_factorials(p: int) -> tuple:
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    return tuple(pow(f, p - 2, p) for f in fact)


def digits(n: int, p: int) -> list:
    """Base-p digits of n, least-significant first; [0] for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


def desk_power(field: PrimeField, k: int, what: str) -> int:
    """p^k, the count of ``what``; ValueError past :data:`DESK_GUARD`.  As p >= 2,
    k >= ``DESK_GUARD.bit_length()`` is rejected without forming p^k."""
    p = field.p
    if k >= DESK_GUARD.bit_length() or p**k > DESK_GUARD:
        raise ValueError(f"{what}: {p}^{k} exceeds the desk-scale guard {DESK_GUARD}")
    return p**k


def digit_sums(field: PrimeField, places):
    """Every j = sum_s j_s p^s with digits j_s in [0, p) at the given places.

    Yielded in ``itertools.product`` order over the digit vectors (last place
    fastest).  Raises ValueError when the p^len(places) vectors exceed
    :data:`DESK_GUARD`.
    """
    p = field.p
    desk_power(field, len(places), "digit vectors")
    weights = [p**s for s in places]
    return (
        sum(d * w for d, w in zip(combo, weights))
        for combo in itertools.product(range(p), repeat=len(places))
    )


def binom_mod(n: int, j: int, field: PrimeField) -> int:
    """C(n, j) mod p; 0 when j > n (Lucas digit products)."""
    if n < 0 or j < 0:
        raise ValueError("binom_mod needs nonnegative arguments")
    return _kernels.binom_mod(n, j, field.p)


def binom_row_mod(n: int, field: PrimeField) -> list:
    """The whole row [C(n, j) mod p for j = 0..n]; batched form of binom_mod."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _kernels.lucas_row(n, field.p)


def digit_dominates(m: int, n: int, field: PrimeField) -> bool:
    """True iff every base-p digit of m is <= the corresponding digit of n."""
    if m < 0 or n < 0:
        raise ValueError("digit_dominates needs nonnegative arguments")
    p = field.p
    while m or n:
        if m % p > n % p:
            return False
        m //= p
        n //= p
    return True
