"""Differential tests: the sparse per-monomial validator and the one-pass
``action_matrices`` against their polynomial-arithmetic originals.

``oracle_validate`` is the entry-by-entry validator that multiplies out
sum_j f_{lj} (x) f_{ji} with ``MultiPoly`` arithmetic for every index triple,
evaluates the counit on every entry, and computes Delta(f_{li}) per entry by
substitution (``oracle_coproduct``), so it shares no code with the
coproduct table under test.  It is kept here only as the slow reference:
both must give the same verdict and the same violation list (dicts, strings
and order) on seeded pools and on single-entry mutations.
"""

import random

import pytest

from expfilt import coalgebras
from expfilt.comodule import (
    Comodule,
    ValidationReport,
    action_matrices,
    action_matrix,
    conjugate,
    direct_sum,
    validate,
)
from expfilt.fpcomb import PrimeField
from expfilt.ga import family_to_comodule, regular_comodule, regular_trunc_comodule
from expfilt.polyring import MultiPoly, monomial, tensor
from expfilt.samplers import random_ga_family, random_invertible, random_un_comodule
from expfilt.un import (
    UNContext,
    natural_rep,
    natural_rep_gl,
    restrict_frobenius_un,
    sym_square_rep,
    sym_square_rep_gl,
)
from test_coproduct_differential import oracle_coproduct


def oracle_validate(M: Comodule) -> ValidationReport:
    """Check membership, the counit law and coassociativity entry by entry."""
    violations = []
    n = M.dim
    coalg = M.coalgebra
    fld = M.field
    if len(M.coaction) != n or any(len(row) != n for row in M.coaction):
        return ValidationReport(False, [{"law": "shape", "index": -1, "detail": "coaction matrix is not dim x dim"}])
    for j in range(n):
        for i in range(n):
            if not coalgebras.is_member(coalg, fld, M.coaction[j][i]):
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
            if M.coaction[j][i].eval_at(point) != want:
                violations.append(
                    {
                        "law": "counit",
                        "index": i,
                        "detail": f"entry ({j},{i}) evaluates to "
                        f"{M.coaction[j][i].eval_at(point)} at the identity, want {want}",
                    }
                )
    if violations:
        return ValidationReport(False, violations)

    # coassociativity: sum_j f_{lj} (x) f_{ji} = Delta_C(f_{li}) for all l, i
    primed_cache = {}
    for i in range(n):
        for l in range(n):
            lhs = MultiPoly.zero(fld)
            for j in range(n):
                f_lj = M.coaction[l][j]
                f_ji = M.coaction[j][i]
                if f_lj.is_zero() or f_ji.is_zero():
                    continue
                key = (j, i)
                pr = primed_cache.get(key)
                if pr is None:
                    pr = tensor(MultiPoly.one(fld), f_ji).poly
                    primed_cache[key] = pr
                lhs = lhs + f_lj * pr
            rhs = oracle_coproduct(coalg, fld, M.coaction[l][i]).poly
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
        out.append((f"UNTrunc sym square p={p}", restrict_frobenius_un(sym_square_rep(ctx), 1)))
        out.append((f"natural_rep_gl p={p}", natural_rep_gl(F, 3)))
        out.append((f"sym_square_rep_gl p={p}", sym_square_rep_gl(F, 2)))
    return out


def _with_entry(M: Comodule, j: int, i: int, f: MultiPoly) -> Comodule:
    coaction = [list(row) for row in M.coaction]
    coaction[j][i] = f
    return Comodule(M.field, M.coalgebra, M.dim, coaction)


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


def test_shape_violation_unchanged():
    F = PrimeField(3)
    M = natural_rep(UNContext(F, 3))
    bad = Comodule(F, M.coalgebra, 3, [list(row) for row in M.coaction[:2]])
    _assert_same("short coaction", bad)


def test_action_matrices_match_per_monomial(pool, mutants):
    for label, M in pool + mutants:
        want = {m: action_matrix(M, m) for m in M.occurring_monomials()}
        got = action_matrices(M)
        assert list(got.items()) == list(want.items()), label
