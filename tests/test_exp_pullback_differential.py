"""Differential tests: the interned per-monomial pullback table against the
per-entry ``exp_pullback`` / ``substitute`` route it replaced.

The oracles below pull every coaction entry back as a whole polynomial (one
``substitute`` per entry) and read degrees, filtration constraints, Theta
coefficients and pulled-back coactions off those polynomials.  They are kept
here only as the slow reference: the library must give identical subspaces,
degrees, verdicts, matrices and families on seeded pools.
"""

import random

import pytest

from expfilt import coalgebras, linalg
from expfilt.comodule import Comodule, conjugate, direct_sum, trivial_comodule
from expfilt.expdeg import (
    NilpotentMatrix,
    SymbolicNilpotentDomain,
    exp_pullback,
    exponential_degree,
    mock_trivial_check,
    module_exp_filtration,
    truncated_exp,
)
from expfilt.fpcomb import PrimeField
from expfilt.ga import GaUFamily, comodule_to_family, family_to_comodule, y_r_family
from expfilt.polyring import MultiPoly, monomial, parse_poly
from expfilt.samplers import random_commuting_tuple, random_invertible, random_un_comodule
from expfilt.support import psg_pullback_assignment, pullback_module, theta_operator, un_psg
from expfilt.un import UNContext, degree_piece_comodule, ga_as_u2, natural_rep, sym_square_rep

F3 = PrimeField(3)
F5 = PrimeField(5)


# -- the per-entry oracles ------------------------------------------------------


def oracle_entry_pullbacks(M: Comodule) -> list:
    domain = SymbolicNilpotentDomain(M.field, M.coalgebra.N)
    return [[exp_pullback(f, domain) for f in row] for row in M.coaction]


def oracle_module_exp_filtration(M: Comodule, d: int):
    n = M.dim
    p = M.field.p
    constraints = {}
    for j, row in enumerate(oracle_entry_pullbacks(M)):
        for i, pb in enumerate(row):
            for pmono, c in pb.terms.items():
                k = 0
                rest = []
                for v, e in pmono:
                    if v == "T":
                        k = e
                    else:
                        rest.append((v, e))
                if k <= d:
                    continue
                r = constraints.setdefault((j, k, tuple(rest)), [0] * n)
                r[i] = (r[i] + c) % p
    return linalg.kernel_of(list(constraints.values()), n, M.field)


def oracle_exponential_degree(M: Comodule) -> int:
    return max((pb.degree_in("T") for row in oracle_entry_pullbacks(M) for pb in row), default=0)


def oracle_mock_trivial(M: Comodule) -> bool:
    return oracle_module_exp_filtration(M, 0).is_full()


def oracle_theta(M: Comodule, psi):
    fld = M.field
    n = M.dim
    theta = linalg.zeros(n, n)
    for s in range(psi.height):
        E = truncated_exp(NilpotentMatrix(fld, psi.N, psi.mat(s)))
        assignment = {f"x{i + 1}_{j + 1}": E[i][j] for i in range(psi.N) for j in range(psi.N)}
        target = monomial({"T": fld.p**s})
        for j in range(n):
            for i in range(n):
                f = M.coaction[j][i]
                if not f.is_zero():
                    theta[j][i] = (theta[j][i] + f.substitute(assignment).coeff(target)) % fld.p
    return theta


def oracle_pullback_module(M: Comodule, psi) -> GaUFamily:
    assignment = psg_pullback_assignment(psi)
    coaction = [[f.substitute(assignment) for f in row] for row in M.coaction]
    return comodule_to_family(Comodule(M.field, coalgebras.ga_poly(), M.dim, coaction))


# -- pools ------------------------------------------------------------------------


def _pool():
    """(label, U_N comodule, 1-parameter subgroups of heights 1-3) triples."""
    out = []
    for p in (3, 5):
        F = PrimeField(p)
        rng = random.Random(f"exp-pullback-differential/{p}")

        def psis(N):
            return [un_psg(F, N, random_commuting_tuple(F, N, h, rng)) for h in (1, 2, 3)]

        for N in (2, 3):
            for k in range(3):
                M = random_un_comodule(F, N, rng, max_pieces=2)
                out.append((f"random_un_comodule p={p} N={N} #{k}", M, psis(N)))
        ctx = UNContext(F, 3)
        summed = direct_sum([sym_square_rep(ctx), natural_rep(ctx)])
        M = conjugate(summed, random_invertible(F, summed.dim, rng))
        out.append((f"sym+nat conjugated p={p}", M, psis(3)))
        triv = trivial_comodule(F, ctx.coalgebra, 3)
        out.append((f"trivial conjugated p={p}", conjugate(triv, random_invertible(F, 3, rng)), psis(3)))
        out.append((f"degree piece U_3 d=3 p={p}", degree_piece_comodule(ctx, 3), psis(3)))
        for R in (1, 2):
            M = ga_as_u2(family_to_comodule(y_r_family(F, R)))
            out.append((f"ga_as_u2 y_{R} p={p}", M, psis(2)))
    return out


@pytest.fixture(scope="module")
def pool():
    return _pool()


def test_exp_filtration_matches_oracle(pool):
    for label, M, _ in pool:
        e = oracle_exponential_degree(M)
        assert exponential_degree(M) == e, label
        for d in range(e + 2):
            assert module_exp_filtration(M, d) == oracle_module_exp_filtration(M, d), (label, d)


def test_mock_trivial_matches_oracle(pool):
    seen = set()
    for label, M, _ in pool:
        verdict = oracle_mock_trivial(M)
        assert mock_trivial_check(M) == verdict, label
        seen.add(verdict)
    assert seen == {True, False}


def test_theta_matches_oracle(pool):
    for label, M, psis in pool:
        for psi in psis:
            assert theta_operator(M, psi) == oracle_theta(M, psi), (label, psi.height)


def test_pullback_module_matches_oracle(pool):
    for label, M, psis in pool:
        for psi in psis:
            assert pullback_module(M, psi) == oracle_pullback_module(M, psi), (label, psi.height)


@pytest.mark.parametrize("field", [F3, F5], ids=["p=3", "p=5"])
def test_entry_terms_cancel_before_the_degree_test(field):
    # x1_3 and x1_2*x2_3 each pull back to degree 2, but the T^2 terms of
    # 2*x1_3 - x1_2*x2_3 cancel: its pullback is 2*b1_3*T
    f = parse_poly("2*x1_3 - x1_2*x2_3", field)
    assert exp_pullback(f, SymbolicNilpotentDomain(field, 3)) == parse_poly("2*b1_3*T", field)
    one = MultiPoly.one(field)
    zero = MultiPoly.zero(field)
    M = Comodule(field, coalgebras.un_poly(3), 2, [[one, f], [zero, one]])
    assert exponential_degree(M) == oracle_exponential_degree(M) == 1
    assert module_exp_filtration(M, 1).is_full()
    assert module_exp_filtration(M, 0) == oracle_module_exp_filtration(M, 0)
    assert module_exp_filtration(M, 0).dim == 1
