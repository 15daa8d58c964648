"""Named coordinate coalgebras and their coproduct/counit rules.

Supported ids:

* ``GaPoly``        k[T],  Delta(T) = T(x)1 + 1(x)T
* ``GaTrunc(r)``    k[T]/T^{p^r}
* ``UNPoly(N)``     k[x_{i,j} : 1 <= i < j <= N], upper unitriangular coproduct
* ``UNTrunc(N,r)``  the same mod (x_{i,j}^{p^r})
* ``MatPoly(N)``    k[x_{i,j} : 1 <= i,j <= N], matrix-multiplication coproduct

Each id determines a generator alphabet, an identity point (the counit is
evaluation there), and a truncation bound.

An element of C (x) C is read as {(left monomial, right monomial): coeff}
with coefficients in [1, p); :func:`coproduct` returns Delta(f) in that form.
Coproducts of monomials come from one table built per call
(:func:`coproduct_table`, expanded by :func:`polyring.frobenius_images`)
from each generator's coproduct, a list of (left, right) generator pairs
with coefficient 1.  The table is built on packed exponent vectors: the
left and right tensor factors' exponents, in ``generator_vars`` order, sit
in fixed-width bit fields of one int, so multiplying two terms is one
integer addition.
C (x) C is commutative of characteristic p, so Frobenius is a ring
endomorphism of it and the base-p digits e = sum_s d_s p^s of an exponent give

    Delta(x^e) = prod_s Frob^s(Delta(x)^{d_s}),

where Frob^s multiplies every exponent by p^s (one integer multiplication of
the packed key).  A monomial m = m' x_v^{e_v}, x_v its last variable, expands
as Delta(m') Delta(x_v^{e_v}) through a memo that lives for the one call, so
monomials sharing a prefix share its expansion.  Truncated ids are reduced
after every product, which is valid because I (x) C + C (x) I is an ideal.
Before anything is expanded a monomial's term count is bounded by the
product over its digits d_s of C(n_v + d_s - 1, d_s), n_v the number of
terms of Delta(x_v).  Each term of Delta(x_v) has a variable of its own
and d_s < p keeps every multinomial coefficient nonzero, so this is the
exact count of Delta(x_v)^{d_s} before truncation.  Past
:data:`fpcomb.DESK_GUARD` the call raises ValueError.
A table may also be capped by left degree: one more packed field counts the
left factor's degree and is pruned in the same way, which is how the
validator's generator pass (see :func:`expfilt.comodule.validate`) skips
the terms it never reads.
"""

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .fpcomb import PrimeField, desk_power
from .polyring import MultiPoly, frobenius_images

GA_KINDS = ("GaPoly", "GaTrunc")
UN_KINDS = ("UNPoly", "UNTrunc")


@dataclass(frozen=True)
class CoalgebraId:
    kind: str
    N: int = 0
    r: int = 0

    def __post_init__(self):
        if self.kind not in ("GaPoly", "GaTrunc", "UNPoly", "UNTrunc", "MatPoly"):
            raise ValueError(f"unknown coalgebra kind {self.kind!r}")
        if self.kind in ("UNPoly", "UNTrunc", "MatPoly") and self.N < 2:
            raise ValueError("N must be >= 2")
        if self.kind in ("GaTrunc", "UNTrunc") and self.r < 1:
            raise ValueError("r must be >= 1")

    def is_truncated(self) -> bool:
        return self.kind in ("GaTrunc", "UNTrunc")

    def __str__(self):
        if self.kind == "GaPoly":
            return "k[Ga]"
        if self.kind == "GaTrunc":
            return f"k[Ga_({self.r})]"
        if self.kind == "UNPoly":
            return f"k[U_{self.N}]"
        if self.kind == "UNTrunc":
            return f"k[U_{self.N},({self.r})]"
        return f"k[M_{self.N}]"


def ga_poly() -> CoalgebraId:
    return CoalgebraId("GaPoly")


def ga_trunc(r: int) -> CoalgebraId:
    return CoalgebraId("GaTrunc", r=r)


def un_poly(N: int) -> CoalgebraId:
    return CoalgebraId("UNPoly", N=N)


def un_trunc(N: int, r: int) -> CoalgebraId:
    return CoalgebraId("UNTrunc", N=N, r=r)


def mat_poly(N: int) -> CoalgebraId:
    return CoalgebraId("MatPoly", N=N)


@lru_cache(maxsize=None)
def generator_vars(coalg: CoalgebraId) -> tuple:
    if coalg.kind in GA_KINDS:
        return ("T",)
    if coalg.kind in UN_KINDS:
        return tuple(
            f"x{i}_{j}" for i in range(1, coalg.N + 1) for j in range(i + 1, coalg.N + 1)
        )
    return tuple(
        f"x{i}_{j}" for i in range(1, coalg.N + 1) for j in range(1, coalg.N + 1)
    )


def identity_point(coalg: CoalgebraId) -> dict:
    """The point of the group at which the counit evaluates."""
    if coalg.kind == "MatPoly":
        return {
            f"x{i}_{j}": 1 if i == j else 0
            for i in range(1, coalg.N + 1)
            for j in range(1, coalg.N + 1)
        }
    return {v: 0 for v in generator_vars(coalg)}


def truncation_bound(coalg: CoalgebraId, field: PrimeField):
    """Exponent bound p^r for truncated ids, None otherwise."""
    if coalg.is_truncated():
        return field.p**coalg.r
    return None


def dual_algebra_dim(coalg: CoalgebraId, field: PrimeField) -> int:
    """Dimension p^(r*m) of the dual algebra of a truncated id, m the dimension
    of the group (Ga: 1, U_N: N(N-1)/2).  The one place where it is formed;
    ValueError past :data:`fpcomb.DESK_GUARD`."""
    if not coalg.is_truncated():
        raise ValueError(f"{coalg} is not finite dimensional")
    m = 1 if coalg.kind == "GaTrunc" else coalg.N * (coalg.N - 1) // 2
    return desk_power(field, coalg.r * m, "dual algebra dimension p^(r*m)")


def is_member(coalg: CoalgebraId, field: PrimeField, f: MultiPoly) -> bool:
    """f lies in the stated coalgebra: known variables, truncation respected."""
    return all(monomial_members(coalg, field, f.terms))


def monomial_members(coalg: CoalgebraId, field: PrimeField, monos) -> list:
    """For each monomial: its variables are generators and, for a truncated
    id, every exponent is below p^r."""
    gens = set(generator_vars(coalg))
    bound = truncation_bound(coalg, field)
    return [
        all(v in gens and (bound is None or e < bound) for v, e in m) for m in monos
    ]


def monomial_counits(coalg: CoalgebraId, monos) -> list:
    """The counit of each monomial, which must lie in ``coalg``.

    A monomial is 1 at the identity when all of its variables are, else 0:
    for Ga and U_N only the empty monomial is 1; for ``MatPoly`` every
    monomial in the diagonal x_{i,i}.
    """
    point = identity_point(coalg)
    return [int(all(point[v] for v, _ in m)) for m in monos]


@lru_cache(maxsize=None)
def _generator_coproducts(coalg: CoalgebraId) -> dict:
    """Generator -> the (left, right) factors of its coproduct's terms.

    A factor is a generator or None for 1, and every coefficient is 1:
    Delta(T) = T (x) 1 + 1 (x) T; Delta(x_{i,j}) = x_{i,j} (x) 1 +
    1 (x) x_{i,j} + sum_{i<t<j} x_{i,t} (x) x_{t,j} for U_N; and
    Delta(x_{i,j}) = sum_t x_{i,t} (x) x_{t,j} for M_N.
    """
    N = coalg.N
    if coalg.kind in GA_KINDS:
        return {"T": (("T", None), (None, "T"))}
    if coalg.kind in UN_KINDS:
        return {
            f"x{i}_{j}": ((f"x{i}_{j}", None), (None, f"x{i}_{j}"))
            + tuple((f"x{i}_{t}", f"x{t}_{j}") for t in range(i + 1, j))
            for i in range(1, N + 1)
            for j in range(i + 1, N + 1)
        }
    return {
        f"x{i}_{j}": tuple((f"x{i}_{t}", f"x{t}_{j}") for t in range(1, N + 1))
        for i in range(1, N + 1)
        for j in range(1, N + 1)
    }


def coproduct_table(coalg: CoalgebraId, field: PrimeField, monos, left_cap=None) -> tuple:
    """(factors, table): Delta of every monomial of ``monos`` in one call.

    ``monos`` are canonical monomials in ``generator_vars(coalg)``.
    ``table[k]`` lists (a, b, coeff) with Delta(monos[k]) =
    sum coeff * factors[a] (x) factors[b]; ``factors`` are canonical
    monomials, each listed once.  The expansion is
    :func:`polyring.frobenius_images`; it raises ValueError when the
    term-count bound of one monomial exceeds :data:`fpcomb.DESK_GUARD`.

    ``left_cap``: keep only the terms whose left factor has total degree at
    most ``left_cap``.  Left degrees only add under products, so a packed
    counter field holding the left degree is pruned after every product,
    with the same offset/guard test as the truncation.
    """
    gens = generator_vars(coalg)
    g = len(gens)
    pos = {v: s for s, v in enumerate(gens)}
    bound = truncation_bound(coalg, field)
    # Each generator's coproduct has left and right degree at most 1, so every
    # exponent of every term of Delta(m), and its left degree, is at most
    # deg(m): fields of W bits never carry, and their top bit stays clear for
    # the pruning tests.
    top = max((sum(e for _, e in m) for m in monos), default=0)
    W = top.bit_length() + 1
    half = W * g  # left exponents in the low g fields, right in the high g
    count_left = left_cap is not None and left_cap < top
    offset = guard = 0
    if bound is not None and bound <= top:
        # a field f >= bound sets its top bit once 2^(W-1) - bound is added to it
        offset = sum((2 ** (W - 1) - bound) << (W * k) for k in range(2 * g))
        guard = sum(1 << (W * k + W - 1) for k in range(2 * g))
    if count_left:
        # field 2g counts the left degree; > left_cap sets its top bit
        offset += (2 ** (W - 1) - left_cap - 1) << (2 * half)
        guard += 1 << (2 * half + W - 1)

    def packed(pairs):
        """A generator's coproduct keyed by packed exponent vectors."""
        out = {}
        for left, right in pairs:
            k = 0
            if left is not None:
                k += 1 << (W * pos[left])
                if count_left:
                    k += 1 << (2 * half)
            if right is not None:
                k += 1 << (W * pos[right] + half)
            out[k] = 1
        return out

    deltas = _generator_coproducts(coalg)
    expanded = frobenius_images(
        field, [packed(deltas[v]) for v in gens], pos, monos, "coproduct",
        prune=(offset, guard) if guard else None, cap=bound,
    )

    half_mask = (1 << half) - 1
    ids = defaultdict(itertools.count().__next__)  # packed factor -> id, in first-use order
    table = [
        [(ids[k & half_mask], ids[(k >> half) & half_mask], c) for k, c in terms.items()]
        for terms in expanded
    ]
    fmask = (1 << W) - 1
    factors = [
        tuple((v, (h >> (W * s)) & fmask) for s, v in enumerate(gens) if (h >> (W * s)) & fmask)
        for h in ids
    ]
    return factors, table


def require_generators(coalg: CoalgebraId, monos):
    """Raise ValueError when a monomial has a variable outside ``coalg``'s generators."""
    foreign = {v for m in monos for v, _ in m} - set(generator_vars(coalg))
    if foreign:
        raise ValueError(f"foreign variable(s) {sorted(foreign)} for {coalg}")


def coproduct(coalg: CoalgebraId, field: PrimeField, f: MultiPoly) -> dict:
    """Delta(f) as {(left monomial, right monomial): coeff}, coefficients in [1, p).

    The coproduct table of f's monomials, summed by linearity.
    """
    require_generators(coalg, f.terms)
    factors, table = coproduct_table(coalg, field, list(f.terms))
    p = field.p
    out = {}
    for c, delta in zip(f.terms.values(), table):
        for a, b, dc in delta:
            key = factors[a], factors[b]
            out[key] = (out.get(key, 0) + c * dc) % p
    return {key: c for key, c in out.items() if c}
