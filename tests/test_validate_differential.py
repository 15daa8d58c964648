"""Differential tests: the sparse per-monomial validator and the one-pass
``action_matrices`` against their polynomial-arithmetic originals.

``oracle_validate`` is the entry-by-entry validator that multiplies out
sum_j f_{lj} (x) f_{ji} as a pair dict {(left, right): coeff} for every
index triple, evaluates the counit on every entry, and computes
Delta(f_{li}) per entry by repeated products of the generator coproducts
(``oracle_coproduct``), so it shares no code with the coproduct table
under test.  It is kept here only as the slow reference:
both must give the same verdict and the same violation list (dicts, strings
and order) on seeded pools and on single-entry mutations.
"""

import random

import pytest

from expfilt import coalgebras
from expfilt.comodule import (
    Comodule,
    ValidationReport,
    _coassociativity,
    action_matrices,
    action_matrix,
    conjugate,
    direct_sum,
    restrict_frobenius,
    trivial_comodule,
    validate,
)
from expfilt.fpcomb import PrimeField
from expfilt.ga import family_to_comodule, regular_comodule, regular_trunc_comodule
from expfilt.polyring import MultiPoly, monomial, monomial_degree, monomial_sort_key
from expfilt.samplers import random_ga_family, random_invertible, random_un_comodule
from expfilt.un import (
    UNContext,
    degree_piece_comodule,
    natural_rep,
    natural_rep_gl,
    sym_square_rep,
    sym_square_rep_gl,
)
from column_oracle import column_coassociativity
from test_comodule import matrix_comodule
from test_coproduct_differential import _pool as coproduct_pool
from test_coproduct_differential import oracle_coproduct, tensor
from test_polyring import eval_at


def oracle_validate(M: Comodule) -> ValidationReport:
    """Check membership, the counit law and coassociativity entry by entry."""
    coaction = M.coaction  # a view rebuilt on each access: read it once
    violations = []
    n = M.dim
    coalg = M.coalgebra
    fld = M.field
    if len(coaction) != n or any(len(row) != n for row in coaction):
        return ValidationReport(False, [{"law": "shape", "index": -1, "detail": "coaction matrix is not dim x dim"}])
    for j in range(n):
        for i in range(n):
            if not coalgebras.is_member(coalg, fld, coaction[j][i]):
                violations.append(
                    {
                        "law": "membership",
                        "index": i,
                        "detail": f"entry ({j},{i}) not in {coalg}",
                    }
                )
    if violations:
        return ValidationReport(False, violations)

    point = coalgebras.identity_point(coalg)
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            if eval_at(coaction[j][i], point) != want:
                violations.append(
                    {
                        "law": "counit",
                        "index": i,
                        "detail": f"entry ({j},{i}) evaluates to "
                        f"{eval_at(coaction[j][i], point)} at the identity, want {want}",
                    }
                )
    if violations:
        return ValidationReport(False, violations)

    # coassociativity: sum_j f_{lj} (x) f_{ji} = Delta_C(f_{li}) for all l, i
    p = fld.p
    for i in range(n):
        for l in range(n):
            lhs = {}
            for j in range(n):
                for key, c in tensor(coaction[l][j], coaction[j][i]).items():
                    lhs[key] = (lhs.get(key, 0) + c) % p
            lhs = {key: c for key, c in lhs.items() if c}
            rhs = oracle_coproduct(coalg, fld, coaction[l][i])
            if lhs != rhs:
                violations.append(
                    {
                        "law": "coassociativity",
                        "index": i,
                        "detail": f"component ({l},{i}) disagrees",
                    }
                )
    return ValidationReport(not violations, violations)


def _pool():
    """(label, comodule) pairs covering every coalgebra kind the library builds."""
    out = []
    for p in (2, 3, 5):
        F = PrimeField(p)
        rng = random.Random(f"validate-differential/{p}")
        # at p = 5 the oracle's cost grows fast with the coaction's term count,
        # so the random pieces there are kept smaller
        small = p == 5
        for k in range(4):
            M = random_un_comodule(F, 3, rng, max_pieces=1 if small else 2)
            out.append((f"random_un_comodule p={p} #{k}", M))
        ctx = UNContext(F, 3)
        summed = direct_sum([natural_rep(ctx), sym_square_rep(ctx)])
        out.append((f"nat+sym conjugated p={p}", conjugate(summed, random_invertible(F, summed.dim, rng))))
        nat = natural_rep(UNContext(F, 4))
        out.append((f"natural U_4 conjugated p={p}", conjugate(nat, random_invertible(F, 4, rng))))
        out.append((f"regular GaPoly p={p}", regular_comodule(F, 2 * p + 3)))
        out.append((f"regular GaTrunc p={p}", regular_trunc_comodule(F, 2 if p < 5 else 1)))
        for k in range(2):
            fam = random_ga_family(F, 4, rng, max_support=2 if small else 3)
            out.append((f"family_to_comodule p={p} #{k}", family_to_comodule(fam)))
        out.append((f"UNTrunc sym square p={p}", restrict_frobenius(sym_square_rep(ctx), 1)))
        out.append((f"natural_rep_gl p={p}", natural_rep_gl(F, 3)))
        out.append((f"sym_square_rep_gl p={p}", sym_square_rep_gl(F, 2)))
    return out


def _with_entry(M: Comodule, j: int, i: int, f: MultiPoly) -> Comodule:
    coaction = [list(row) for row in M.coaction]
    coaction[j][i] = f
    return matrix_comodule(M.field, M.coalgebra, M.dim, coaction)


def _member_monomials(M: Comodule) -> list:
    """Non-constant monomials of degree 1 and 2 in the coalgebra's generators."""
    out = []
    for v in coalgebras.generator_vars(M.coalgebra):
        for e in (1, 2):
            m = monomial({v: e})
            if coalgebras.is_member(M.coalgebra, M.field, MultiPoly.from_monomial(M.field, m)):
                out.append(m)
    return out


def _mutants(label: str, M: Comodule, rng: random.Random):
    """Single-entry mutations aimed at membership, counit and coassociativity."""
    n = M.dim
    fld = M.field
    j, i = rng.randrange(n), rng.randrange(n)
    foreign = M.coaction[j][i] + MultiPoly.variable(fld, "b1_2")
    yield f"{label} / foreign ({j},{i})", _with_entry(M, j, i, foreign)
    j, i = rng.randrange(n), rng.randrange(n)
    shifted = M.coaction[j][i] + rng.randrange(1, fld.p)
    yield f"{label} / shift ({j},{i})", _with_entry(M, j, i, shifted)
    candidates = [
        (j, i, m)
        for j in range(n)
        for i in range(n)
        for m in M.coaction[j][i].terms
        if m != ()
    ]
    members = _member_monomials(M)
    for _ in range(2):
        if not candidates:
            break
        j, i, m = rng.choice(candidates)
        f = M.coaction[j][i]
        new = rng.choice([x for x in members if x != m])
        terms = dict(f.terms)
        c = terms.pop(m)
        terms[new] = (terms.get(new, 0) + c) % fld.p
        yield f"{label} / replace ({j},{i})", _with_entry(M, j, i, MultiPoly(fld, terms))


def _counit_mutants(label: str, M: Comodule, rng: random.Random):
    """A zero diagonal entry (no monomial left to evaluate) and a constant
    added to an off-diagonal entry."""
    n = M.dim
    fld = M.field
    i = rng.randrange(n)
    yield f"{label} / zero diagonal ({i},{i})", _with_entry(M, i, i, MultiPoly.zero(fld))
    if n > 1:
        j, i = rng.sample(range(n), 2)
        off = M.coaction[j][i] + rng.randrange(1, fld.p)
        yield f"{label} / constant off-diagonal ({j},{i})", _with_entry(M, j, i, off)


@pytest.fixture(scope="module")
def pool():
    return _pool()


@pytest.fixture(scope="module")
def mutants(pool):
    rng = random.Random("validate-differential/mutants")
    counit_rng = random.Random("validate-differential/counit")
    return [
        case
        for label, M in pool
        for case in (*_mutants(label, M, rng), *_counit_mutants(label, M, counit_rng))
    ]


def _assert_same(label, M):
    fast = validate(M)
    slow = oracle_validate(M)
    assert fast.ok == slow.ok, label
    assert fast.violations == slow.violations, label
    return slow


def test_pool_validates_like_oracle(pool):
    for label, M in pool:
        assert _assert_same(label, M).ok, label


def test_mutants_validate_like_oracle(mutants):
    laws = set()
    for label, M in mutants:
        rep = _assert_same(label, M)
        laws.update(v["law"] for v in rep.violations)
        if "diagonal" in label:
            # the counit catches both: a zero diagonal entry has no monomial at all
            assert rep.violations and rep.violations[0]["law"] == "counit", label
    # the mutation pool reaches every law the validator can report on a square matrix
    assert laws == {"membership", "counit", "coassociativity"}


def test_several_coassociativity_components_in_order():
    F = PrimeField(3)
    M = natural_rep(UNContext(F, 4))
    M = _with_entry(M, 0, 3, MultiPoly.variable(F, "x2_3"))
    rep = _assert_same("natural U_4 / x1_4 -> x2_3", M)
    assert [v["law"] for v in rep.violations] == ["coassociativity"]
    M = _with_entry(M, 1, 2, MultiPoly.variable(F, "x1_2"))
    rep = _assert_same("natural U_4 / two replaced entries", M)
    assert len(rep.violations) >= 2


def test_action_matrices_match_per_monomial(pool, mutants):
    # read A_mu[j][i] off the polynomial view, not the stored table
    for label, M in pool + mutants:
        coaction = M.coaction
        monos = sorted({m for row in coaction for f in row for m in f.terms}, key=monomial_sort_key)
        want = {
            m: [[coaction[j][i].terms.get(m, 0) for i in range(M.dim)] for j in range(M.dim)]
            for m in monos
        }
        assert list(action_matrices(M).items()) == list(want.items()), label
        for m in monos:
            assert action_matrix(M, m) == want[m], label


# -- the generator-only pass -------------------------------------------------
#
# For Ga and U_N kinds ``validate`` first compares only the keys whose left
# factor is x_v^(p^r), on a Delta table capped by left degree, and reruns the
# full comparison only when that pass finds a violation.  The tests below hold
# the generator-only verdict to the full one on counit-preserving mutants,
# the capped table to the full table cut by left degree, and MatPoly (where
# the generator theorem fails) to the oracle.


def _passes(M: Comodule) -> tuple:
    """(generator-only verdict, full verdict) of the coassociativity pass."""
    return not _coassociativity(M, True), not _coassociativity(M, False)


def _fuzz_bases(F: PrimeField, rng: random.Random) -> list:
    """Small valid comodules over GaPoly, GaTrunc, UNPoly and UNTrunc."""
    ctx = UNContext(F, 3)
    return [
        trivial_comodule(F, coalgebras.ga_poly(), 3),
        regular_comodule(F, F.p + 2),
        family_to_comodule(random_ga_family(F, 3, rng, max_support=2)),
        trivial_comodule(F, coalgebras.ga_trunc(2), 3),
        regular_trunc_comodule(F, 1),
        trivial_comodule(F, coalgebras.un_poly(3), 3),
        natural_rep(ctx),
        random_un_comodule(F, 3, rng, max_pieces=1),
        trivial_comodule(F, coalgebras.un_trunc(3, 2), 3),
        restrict_frobenius(natural_rep(ctx), 1),
        restrict_frobenius(sym_square_rep(ctx), 1),
    ]


def _member_monomial(M: Comodule, rng: random.Random):
    """A random non-constant monomial of M's coalgebra; half of the draws
    are one generator to a p-power, x_v^(p^r)."""
    p = M.field.p
    gens = coalgebras.generator_vars(M.coalgebra)
    bound = coalgebras.truncation_bound(M.coalgebra, M.field) or p**3
    if rng.random() < 0.5:
        powers = [p**r for r in range(4) if p**r < bound]
        return monomial({rng.choice(gens): rng.choice(powers)})
    k = rng.randrange(1, min(3, len(gens)) + 1)
    return monomial({v: rng.randrange(1, min(bound, 2 * p + 1)) for v in rng.sample(gens, k)})


def _counit_preserving_mutant(M: Comodule, rng: random.Random) -> Comodule:
    """One to three edits that keep every entry's value at the identity:
    add c m for a non-constant monomial m, or rescale or move a non-constant
    term (the counit of a non-constant Ga or U_N monomial is 0)."""
    fld = M.field
    n = M.dim
    coaction = [list(row) for row in M.coaction]
    for _ in range(rng.randrange(1, 4)):
        j, i = rng.randrange(n), rng.randrange(n)
        terms = dict(coaction[j][i].terms)
        movable = [m for m in terms if m != ()]
        c = rng.randrange(1, fld.p)
        kind = rng.random()
        if kind < 0.6 or not movable:
            m = _member_monomial(M, rng)
            terms[m] = (terms.get(m, 0) + c) % fld.p
        elif kind < 0.8:
            m = rng.choice(movable)
            terms[m] = terms[m] * c % fld.p
        else:
            m = rng.choice(movable)
            moved = terms.pop(m)
            k, l = rng.randrange(n), rng.randrange(n)
            coaction[j][i] = MultiPoly(fld, terms)
            terms = dict(coaction[k][l].terms)
            terms[m] = (terms.get(m, 0) + moved) % fld.p
            j, i = k, l
        coaction[j][i] = MultiPoly(fld, terms)
    return matrix_comodule(fld, M.coalgebra, n, coaction)


def test_generator_pass_decides_counit_preserving_mutants():
    seen = {"ok": 0, "violated": 0}
    kinds = set()
    count = 0
    for p in (2, 3, 5):
        F = PrimeField(p)
        rng = random.Random(f"validate-differential/generators/{p}")
        for M in _fuzz_bases(F, rng):
            for _ in range(64):
                X = _counit_preserving_mutant(M, rng)
                rep = validate(X)
                assert all(v["law"] == "coassociativity" for v in rep.violations)
                generators_ok, full_ok = _passes(X)
                assert generators_ok == full_ok == rep.ok, (p, str(M.coalgebra), X.coaction)
                seen["ok" if full_ok else "violated"] += 1
                kinds.add(X.coalgebra.kind)
                count += 1
    assert count >= 2000
    assert kinds == {"GaPoly", "GaTrunc", "UNPoly", "UNTrunc"}
    # both verdicts occur often enough for the agreement to mean something
    assert min(seen.values()) >= 100, seen


def test_generator_pass_rejects_a_non_primitive_p_power():
    # x1_3^p is not primitive, so it cannot sit above a trivial summand; the
    # rejection lists every disagreeing component of the full comparison
    for p in (2, 3, 5):
        F = PrimeField(p)
        M = trivial_comodule(F, coalgebras.un_poly(3), 2)
        M = _with_entry(M, 0, 1, MultiPoly.variable(F, "x1_3", p))
        assert _passes(M) == (False, False)
        rep = _assert_same(f"x1_3^{p} above a trivial summand", M)
        assert [v["detail"] for v in rep.violations] == ["component (0,1) disagrees"]
        # x1_2^p is primitive: the same place is a valid comodule
        M = _with_entry(M, 0, 1, MultiPoly.variable(F, "x1_2", p))
        assert _passes(M) == (True, True)
        assert _assert_same(f"x1_2^{p} above a trivial summand", M).ok


def _cut(factors, terms, cap=None) -> dict:
    """{(left, right): coeff} of one table row, left degree <= cap."""
    return {
        (factors[a], factors[b]): c
        for a, b, c in terms
        if cap is None or monomial_degree(factors[a]) <= cap
    }


def test_left_capped_table_is_the_full_table_cut():
    cases = 0
    for label, M in coproduct_pool():
        monos = M.occurring_monomials()
        p = M.field.p
        top = M.max_entry_degree()
        full_factors, full = coalgebras.coproduct_table(M.coalgebra, M.field, monos)
        for cap in sorted({0, 1, 2, p, p * p, top // 2, top - 1, top, top + 1} - {-1}):
            factors, table = coalgebras.coproduct_table(M.coalgebra, M.field, monos, left_cap=cap)
            for k in range(len(monos)):
                assert _cut(factors, table[k]) == _cut(full_factors, full[k], cap), (label, cap)
            cases += 1
    assert cases >= 100


def test_left_cap_keeps_the_guard():
    # the term-count bound is read off uncapped digit powers, so the cap
    # never lets a monomial past the desk-scale guard
    F = PrimeField(3)
    huge = monomial({"T": 3**19 - 1})
    with pytest.raises(ValueError, match="guard"):
        coalgebras.coproduct_table(coalgebras.ga_poly(), F, [huge], left_cap=3**18)
    # below p the cap is 1 and would cut the digit powers themselves:
    # |Delta(x1_3)^40| |Delta(x1_4)^40| = 861 * 12341 terms, over the guard
    F = PrimeField(97)
    wide = monomial({"x1_3": 40, "x1_4": 40})
    with pytest.raises(ValueError, match="guard"):
        coalgebras.coproduct_table(coalgebras.un_poly(4), F, [wide], left_cap=1)


def test_matpoly_keeps_the_full_comparison():
    F = PrimeField(3)
    # x1_1 x2_2 has value 1 at the identity, but it is not grouplike in k[M_2];
    # no key of its coassociativity diff has a one-variable left factor, so
    # the generator pass alone would accept it
    f = MultiPoly(F, {monomial({"x1_1": 1, "x2_2": 1}): 1})
    M = matrix_comodule(F, coalgebras.mat_poly(2), 1, [[f]])
    assert _passes(M) == (True, False)
    rep = _assert_same("x1_1 x2_2 over M_2", M)
    assert [v["law"] for v in rep.violations] == ["coassociativity"]


def test_matpoly_mutants_validate_like_oracle():
    laws = set()
    for p in (2, 3):
        F = PrimeField(p)
        rng = random.Random(f"validate-differential/matpoly/{p}")
        for M in (natural_rep_gl(F, 2), natural_rep_gl(F, 3), sym_square_rep_gl(F, 2)):
            gens = coalgebras.generator_vars(M.coalgebra)
            for _ in range(12):
                j, i = rng.randrange(M.dim), rng.randrange(M.dim)
                picked = rng.sample(gens, rng.randrange(1, 3))
                m = monomial({v: rng.randrange(1, 3) for v in picked})
                X = _with_entry(M, j, i, M.coaction[j][i] + MultiPoly(F, {m: rng.randrange(1, p)}))
                rep = _assert_same(f"{M} / + {m} at ({j},{i})", X)
                laws.update(v["law"] for v in rep.violations)
    assert laws == {"counit", "coassociativity"}


def test_matpoly_counit_sums_several_monomials():
    # in k[M_2] every monomial in x1_1 and x2_2 has counit 1, so the counit
    # law sums A_mu over several mu; adding such a monomial breaks it unless
    # a second one cancels its value, which leaves coassociativity to decide
    diagonal = [monomial(e) for e in ({"x1_1": 1, "x2_2": 1}, {"x1_1": 1}, {"x2_2": 2},
                                      {"x1_1": 2, "x2_2": 1}, {"x1_1": 1, "x2_2": 3})]
    violated = {"counit": 0, "coassociativity": 0}
    for p in (2, 3, 5):
        F = PrimeField(p)
        rng = random.Random(f"validate-differential/matpoly-counit/{p}")
        for M in (natural_rep_gl(F, 2), sym_square_rep_gl(F, 2)):
            for _ in range(12):
                j, i = rng.randrange(M.dim), rng.randrange(M.dim)
                m, other = rng.sample(diagonal, 2)
                c = rng.randrange(1, p)
                terms = {m: c, other: -c % p} if rng.random() < 0.4 else {m: c}
                X = _with_entry(M, j, i, M.coaction[j][i] + MultiPoly(F, terms))
                rep = _assert_same(f"{M} / + {terms} at ({j},{i})", X)
                if rep.violations:
                    violated[rep.violations[0]["law"]] += 1
    assert min(violated.values()) >= 10, violated


# -- the acts-direct pass against the column-major one -----------------------
#
# ``_coassociativity`` reads ``acts`` directly; ``column_oracle`` keeps the
# column-major pass it replaced.  Both passes, generator-only and full, must
# give the same violation list (dicts, strings and order) on every module
# whose monomials lie in its coalgebra (the passes run after the membership
# law), whether or not its counit law holds.


def _wide_mutants(rng: random.Random):
    """Single-entry edits of degree pieces and regular comodules of dim 10 to
    28: each adds c m at a random entry, m an occurring monomial or one of
    degree 1 or 2 in the generators."""
    for M in (degree_piece_comodule(UNContext(PrimeField(5), 3), 3),
              degree_piece_comodule(UNContext(PrimeField(5), 4), 3),
              regular_comodule(PrimeField(5), 25),
              regular_comodule(PrimeField(3), 27)):
        fld = M.field
        monos = list(M.acts) + _member_monomials(M)
        for k in range(5):
            j, i = rng.randrange(M.dim), rng.randrange(M.dim)
            m = rng.choice(monos)
            terms = {mu: c for mu, act in M.acts.items() for l, q, c in act if (l, q) == (j, i)}
            terms[m] = (terms.get(m, 0) + rng.randrange(1, fld.p)) % fld.p
            yield f"{M} / + {m} at ({j},{i})", _with_entry(M, j, i, MultiPoly(fld, terms))


def test_acts_pass_matches_the_column_pass(pool, mutants):
    rng = random.Random("validate-differential/column-pass")
    cases = list(pool) + list(mutants) + list(_wide_mutants(rng))
    for p in (2, 3):
        for M in _fuzz_bases(PrimeField(p), rng):
            cases.extend((f"{M} / counit-preserving #{k}", _counit_preserving_mutant(M, rng))
                         for k in range(6))
    kinds = set()
    seen = {"ok": 0, "one": 0, "several": 0}
    for label, M in cases:
        if not all(coalgebras.monomial_members(M.coalgebra, M.field, M.acts)):
            continue
        for generators_only in (True, False):
            want = column_coassociativity(M, generators_only)
            assert _coassociativity(M, generators_only) == want, (label, generators_only)
            seen[("ok", "one", "several")[min(len(want), 2)]] += 1
        kinds.add(M.coalgebra.kind)
    assert kinds == {"GaPoly", "GaTrunc", "UNPoly", "UNTrunc", "MatPoly"}
    # accepted, singly and multiply violated modules all occur
    assert min(seen["ok"], seen["one"], seen["several"]) >= 20, seen
