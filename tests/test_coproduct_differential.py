"""Differential test: the Frobenius-digit coproduct table against the
substitution route it replaced.

``oracle_coproduct`` is the multiplicative extension computed the old way:
substitute every generator's coproduct into the polynomial (``MultiPoly``
powers and products) and drop the truncated monomials.  It is kept here
only as the slow reference.  ``coalgebras.coproduct``, which now reads the
per-call table of packed exponent vectors, must return the identical
``TensorPoly`` for every monomial of every pooled module, for whole entries,
and for hand-picked exponents with several nonzero base-p digits.
"""

import math
import random

import pytest

from expfilt import coalgebras
from expfilt.expdeg import frobenius_twist
from expfilt.fpcomb import PrimeField, digits
from expfilt.ga import family_to_comodule, regular_comodule, regular_trunc_comodule
from expfilt.polyring import MultiPoly, TensorPoly, monomial
from expfilt.samplers import random_ga_family, random_un_comodule
from expfilt.un import (
    UNContext,
    degree_piece_comodule,
    natural_rep_gl,
    restrict_frobenius_un,
    sym_square_rep,
    sym_square_rep_gl,
)


def oracle_coproduct(coalg, field, f: MultiPoly) -> TensorPoly:
    """Delta(f) by substituting the generator coproducts, then truncating."""
    img = f.substitute(coalgebras._coproduct_assignment(coalg, field))
    bound = coalgebras.truncation_bound(coalg, field)
    if bound is not None:
        img = img.drop_high_exponents(bound)
    return TensorPoly(img)


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
        out.append((f"UNTrunc sym square p={p}", restrict_frobenius_un(sym_square_rep(ctx), 1)))
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
