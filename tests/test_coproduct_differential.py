"""Differential test: the Frobenius-digit coproduct table against the
multiplicative extension written out by hand.

An element of C (x) C is a pair dict {(left monomial, right monomial):
coeff}.  ``oracle_coproduct`` spells out each generator's coproduct from the
group law (``oracle_generator_coproduct``), raises it to a power by
repeated pair-dict products, multiplies the powers of a monomial's
variables, and drops the truncated monomials only at the end.  It shares no
code with the library's table: no base-p digits, no packed keys, no
generator table.  It is kept here only as the slow reference.
``coalgebras.coproduct``, which reads the per-call table of packed exponent
vectors, must return the identical pair dict for every monomial of every
pooled module, for whole entries, and for hand-picked exponents with
several nonzero base-p digits.
"""

import math
import random

import pytest

from expfilt import coalgebras
from expfilt.comodule import restrict_frobenius
from expfilt.expdeg import frobenius_twist
from expfilt.fpcomb import PrimeField, digits
from expfilt.ga import family_to_comodule, regular_comodule, regular_trunc_comodule
from expfilt.polyring import MultiPoly, monomial
from expfilt.samplers import random_ga_family, random_un_comodule
from expfilt.un import (
    UNContext,
    degree_piece_comodule,
    natural_rep_gl,
    sym_square_rep,
    sym_square_rep_gl,
)


def _times(a, b):
    """The product of two monomials."""
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return monomial(exps)


def pair_product(a: dict, b: dict, p: int) -> dict:
    """The product of two pair dicts in C (x) C, leg by leg."""
    out = {}
    for (la, ra), ca in a.items():
        for (lb, rb), cb in b.items():
            key = _times(la, lb), _times(ra, rb)
            out[key] = (out.get(key, 0) + ca * cb) % p
    return {key: c for key, c in out.items() if c}


def tensor(f: MultiPoly, g: MultiPoly) -> dict:
    """f (x) g as a pair dict."""
    p = f.field.p
    return {(a, b): ca * cb % p for a, ca in f.terms.items() for b, cb in g.terms.items()}


def oracle_generator_coproduct(coalg, v: str) -> dict:
    """Delta(v) from the group law: T and the x_{i,j} of U_N add, M_N multiplies."""
    one = ()

    def x(i, j):
        return ((f"x{i}_{j}", 1),)

    if coalg.kind in ("GaPoly", "GaTrunc"):
        return {(((v, 1),), one): 1, (one, ((v, 1),)): 1}
    i, j = (int(k) for k in v[1:].split("_"))
    if coalg.kind == "MatPoly":
        return {(x(i, t), x(t, j)): 1 for t in range(1, coalg.N + 1)}
    out = {(x(i, j), one): 1, (one, x(i, j)): 1}
    for t in range(i + 1, j):
        out[x(i, t), x(t, j)] = 1
    return out


_POWERS = {}  # (coalg, p, v) -> [Delta(v)^0, Delta(v)^1, ...]


def _oracle_power(coalg, p: int, v: str, e: int) -> dict:
    chain = _POWERS.setdefault((coalg, p, v), [{((), ()): 1}])
    while len(chain) <= e:
        chain.append(pair_product(chain[-1], oracle_generator_coproduct(coalg, v), p))
    return chain[e]


def oracle_coproduct(coalg, field, f: MultiPoly) -> dict:
    """Delta(f) by repeated products of the generator coproducts, then truncating."""
    p = field.p
    total = {}
    for m, c in f.terms.items():
        delta = {((), ()): 1}
        for v, e in m:
            delta = pair_product(delta, _oracle_power(coalg, p, v, e), p)
        for key, dc in delta.items():
            total[key] = (total.get(key, 0) + c * dc) % p
    bound = p**coalg.r if coalg.kind in ("GaTrunc", "UNTrunc") else None
    return {
        (a, b): c for (a, b), c in total.items()
        if c and (bound is None or all(e < bound for _, e in a + b))
    }


def _pool():
    """(label, comodule) pairs covering all five coalgebra kinds and twists."""
    out = []
    for p in (2, 3, 5):
        F = PrimeField(p)
        rng = random.Random(f"coproduct-differential/{p}")
        ctx = UNContext(F, 3)
        out.append((f"regular GaPoly p={p}", regular_comodule(F, 2 * p + 3)))
        out.append((f"regular GaTrunc p={p}", regular_trunc_comodule(F, 2 if p < 5 else 1)))
        out.append((f"family_to_comodule p={p}", family_to_comodule(random_ga_family(F, 4, rng, max_support=2))))
        out.append((f"random_un_comodule p={p}", random_un_comodule(F, 3, rng, max_pieces=2)))
        out.append((f"degree piece U_3 d=3 p={p}", degree_piece_comodule(ctx, 3)))
        out.append((f"UNTrunc sym square p={p}", restrict_frobenius(sym_square_rep(ctx), 1)))
        out.append((f"natural_rep_gl p={p}", natural_rep_gl(F, 3)))
        out.append((f"sym_square_rep_gl p={p}", sym_square_rep_gl(F, 2)))
    twisted = [(f"twist of {label}", frobenius_twist(M)) for label, M in out]
    twice = [(f"twist of {label}", frobenius_twist(M)) for label, M in twisted[::4]]
    return out + twisted + twice


def _hand_picked():
    """(label, coalgebra, field, monomial): several nonzero digits, truncation edges."""
    out = []
    for p in (2, 3):
        F = PrimeField(p)
        out.append((f"T^(p^5) p={p}", coalgebras.ga_poly(), F, monomial({"T": p**5})))
        out.append((f"T^(p^5-1) p={p}", coalgebras.ga_poly(), F, monomial({"T": p**5 - 1})))
    for p in (2, 3, 5):
        F = PrimeField(p)
        un3 = coalgebras.un_poly(3)
        out.append((
            f"x1_2^(p^2+1) x2_3^(p-1) p={p}", un3, F,
            monomial({"x1_2": p**2 + 1, "x2_3": p - 1}),
        ))
        out.append((
            f"x1_3^(p+1) x1_2^(p-1) p={p}", un3, F,
            monomial({"x1_2": p - 1, "x1_3": p + 1}),
        ))
        # left factors x1_2 from both x1_2 and x1_3 cross the truncation together
        out.append((
            f"UNTrunc(3,1) x1_2^(p-1) x1_3^(p-1) p={p}", coalgebras.un_trunc(3, 1), F,
            monomial({"x1_2": p - 1, "x1_3": p - 1}),
        ))
        out.append((f"GaTrunc(2) T^(p^2) p={p}", coalgebras.ga_trunc(2), F, monomial({"T": p**2})))
        out.append((f"GaTrunc(2) T^(p^2+1) p={p}", coalgebras.ga_trunc(2), F, monomial({"T": p**2 + 1})))
        out.append((
            f"MatPoly(2) x1_1^p x1_2^(p+1) x2_1 p={p}", coalgebras.mat_poly(2), F,
            monomial({"x1_1": p, "x1_2": p + 1, "x2_1": 1}),
        ))
    return out


def _assert_monomials_match(label, M):
    fld = M.field
    for m in M.occurring_monomials():
        f = MultiPoly.from_monomial(fld, m)
        assert coalgebras.coproduct(M.coalgebra, fld, f) == oracle_coproduct(M.coalgebra, fld, f), (label, m)


@pytest.mark.parametrize("M", [pytest.param(M, id=label) for label, M in _pool()])
def test_pool_monomials_match_oracle(M):
    _assert_monomials_match(repr(M), M)


def test_pool_entries_match_oracle():
    # whole entries: several monomials with coefficients, summed by linearity
    for label, M in _pool()[::3]:
        for row in M.coaction:
            for f in row:
                assert coalgebras.coproduct(M.coalgebra, M.field, f) == oracle_coproduct(M.coalgebra, M.field, f), label


@pytest.mark.parametrize(
    "coalg, field, mono", [pytest.param(*case, id=label) for label, *case in _hand_picked()]
)
def test_hand_picked_monomials_match_oracle(coalg, field, mono):
    f = MultiPoly.from_monomial(field, mono, 2)
    assert coalgebras.coproduct(coalg, field, f) == oracle_coproduct(coalg, field, f)


def test_regular_comodule_243_matches_oracle():
    _assert_monomials_match("regular_comodule(F_3, 243)", regular_comodule(PrimeField(3), 243))


def test_ga_term_count_is_the_lucas_product():
    F = PrimeField(5)
    for e in (0, 1, 4, 5, 24, 31, 624, 3126, 10**9):
        _, table = coalgebras.coproduct_table(coalgebras.ga_poly(), F, [monomial({"T": e})])
        assert len(table[0]) == math.prod(d + 1 for d in digits(e, 5)), e


def test_term_guard_rejects_before_expanding():
    F = PrimeField(3)
    with pytest.raises(ValueError, match="guard"):
        coalgebras.coproduct_table(coalgebras.ga_poly(), F, [monomial({"T": 3**19 - 1})])
    # past the truncation the coproduct is zero, so the guard does not apply
    _, table = coalgebras.coproduct_table(coalgebras.ga_trunc(2), F, [monomial({"T": 3**19 - 1})])
    assert table == [[]]


def test_foreign_variable_rejected():
    F = PrimeField(3)
    with pytest.raises(ValueError, match="foreign"):
        coalgebras.coproduct(coalgebras.un_poly(3), F, MultiPoly.variable(F, "b1_2"))
