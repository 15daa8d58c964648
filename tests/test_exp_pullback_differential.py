"""Differential tests: the pullbacks along 1-parameter subgroups, summed
over the per-monomial actions, against the routes they replaced.

The substitute oracle is the ``MultiPoly`` route the library no longer
takes: exp_B(T) built as a matrix of polynomials (the generic B through
symbolic matrix powers, a numeric B through B^k/k!), assigned to the
coordinates x_{i,j} and substituted with ``MultiPoly.substitute``, which
raises every image to its power by repeated squaring.  The library's
``exp_pullback``, ``pullback_module`` and ``theta_operator`` expand
through ``polyring.frobenius_images`` instead and must give the same
polynomials, families and matrices.  The ``MultiPoly`` oracles pull every
coaction entry back as a whole polynomial (one substitution per entry) and
read degrees, filtration constraints, Theta coefficients and pulled-back
coactions off those polynomials.  The per-entry table oracles sum each
nonzero entry's pullback from the integer table of its monomials first
(``oracle_entry_images``) and only then keep the terms they need: the
constraint rows with T power above d, the largest T power, the Theta
coefficient (from coefficient lists in T cut at the degree each level
needs, the route Theta took before it read height-one pullbacks), the
subgroup pullback; Jordan types come from a chain of powers that starts
at the identity, after a separate Theta^p check.  The
1-psg oracle compares the formal exponentials as ``MultiPoly`` matrices in
two scalar variables, T and b1_1; the radical-quotient oracle spans the columns of dense
``action_matrices``.  They are kept here only as the slow reference: the
library must give identical polynomials, subspaces, degrees, verdicts,
matrices, Jordan types, families and violation lists on seeded pools.
"""

import random
import time
from collections import defaultdict
from functools import lru_cache

import pytest

from expfilt import coalgebras, linalg, support
from expfilt.comodule import (
    Comodule,
    JordanType,
    action_matrices,
    conjugate,
    direct_sum,
    radical_quotient_dim,
    restrict_frobenius,
    trivial_comodule,
)
from expfilt.expdeg import (
    NilpotentMatrix,
    SymbolicNilpotentDomain,
    _generic_exp_images,
    _generic_pullbacks,
    exp_pullback,
    exponential_degree,
    frobenius_twist,
    mock_trivial_check,
    module_exp_filtration,
)
from expfilt.fpcomb import PrimeField, digit_sums, digits
from expfilt.ga import (
    GaUFamily,
    comodule_to_family,
    derived_v,
    family_to_comodule,
    regular_comodule,
    y_r_family,
)
from expfilt.linalg import Subspace
from expfilt.polyring import MultiPoly, frobenius_images, monomial, monomial_degree, parse_poly
from expfilt.samplers import (
    random_commuting_tuple,
    random_ga_family,
    random_invertible,
    random_strictly_upper,
    random_un_comodule,
)
from expfilt.support import (
    ga_psg,
    is_free_at,
    pullback_module,
    require_valid_1psg,
    theta_operator,
    un_psg,
    validate_1psg,
)
from expfilt.un import (
    UNContext,
    degree_piece_comodule,
    ga_as_u2,
    natural_rep,
    sym_square_rep,
)
from column_oracle import sparse_columns
from test_comodule import matrix_comodule

F3 = PrimeField(3)
F5 = PrimeField(5)


# -- the substitute oracle -------------------------------------------------------


def oracle_truncated_exp(B: NilpotentMatrix) -> list:
    """exp_B(T) as an N x N matrix of polynomials in T."""
    fld = B.field
    N = B.N
    out = [[MultiPoly.zero(fld) for _ in range(N)] for _ in range(N)]
    power = linalg.identity(N)
    for k in range(fld.p):
        c = fld.inv_factorial(k)
        for i in range(N):
            for j in range(N):
                v = power[i][j] * c % fld.p
                if v:
                    term = (
                        MultiPoly.variable(fld, "T", k, v) if k else MultiPoly.constant(fld, v)
                    )
                    out[i][j] = out[i][j] + term
        power = linalg.mat_mul(power, B.entries, fld)
        if linalg.is_zero_matrix(power, fld):
            break
    return out


@lru_cache(maxsize=None)
def oracle_symbolic_exp(field: PrimeField, N: int) -> tuple:
    """exp of the generic strictly upper triangular matrix, entries in b and T."""
    zero = MultiPoly.zero(field)
    B = [[zero for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(i + 1, N):
            B[i][j] = MultiPoly.variable(field, f"b{i + 1}_{j + 1}")
    out = [[zero for _ in range(N)] for _ in range(N)]
    power = [[MultiPoly.one(field) if i == j else zero for j in range(N)] for i in range(N)]
    t = MultiPoly.variable(field, "T")
    tpow = MultiPoly.one(field)
    for k in range(field.p):
        c = field.inv_factorial(k)
        for i in range(N):
            for j in range(N):
                if not power[i][j].is_zero():
                    out[i][j] = out[i][j] + power[i][j].scale(c) * tpow
        if k + 1 >= N:
            break  # B^N = 0 for strictly upper triangular B
        power = _poly_mat_mul(power, B, field)
        tpow = tpow * t
    return tuple(tuple(row) for row in out)


def oracle_exp_assignment(B) -> dict:
    """x_{i,j} -> (exp_B(T))_{i,j} for every entry of the N x N matrix."""
    if isinstance(B, SymbolicNilpotentDomain):
        exp_matrix = oracle_symbolic_exp(B.field, B.N)
    else:
        exp_matrix = oracle_truncated_exp(B)
    return {f"x{i + 1}_{j + 1}": exp_matrix[i][j] for i in range(B.N) for j in range(B.N)}


def oracle_exp_pullback(f: MultiPoly, B) -> MultiPoly:
    return f.substitute(oracle_exp_assignment(B))


# -- the per-entry oracles ------------------------------------------------------


def oracle_entry_pullbacks(M: Comodule) -> list:
    domain = SymbolicNilpotentDomain(M.field, M.coalgebra.N)
    return [[oracle_exp_pullback(f, domain) for f in row] for row in M.coaction]


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
    coaction = M.coaction  # a view rebuilt on each access: read it once
    fld = M.field
    n = M.dim
    theta = linalg.zeros(n, n)
    for s in range(psi.height):
        E = oracle_truncated_exp(NilpotentMatrix(fld, psi.N, psi.mat(s)))
        assignment = {f"x{i + 1}_{j + 1}": E[i][j] for i in range(psi.N) for j in range(psi.N)}
        target = monomial({"T": fld.p**s})
        for j in range(n):
            for i in range(n):
                f = coaction[j][i]
                if not f.is_zero():
                    theta[j][i] = (theta[j][i] + f.substitute(assignment).terms.get(target, 0)) % fld.p
    return theta


def _poly_mat_mul(a, b, field):
    n = len(a)
    out = [[MultiPoly.zero(field) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for t in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + a[i][t] * b[t][j]
    return out


def oracle_psg_assignment(psi) -> dict:
    """x_{i,j} -> (i,j) entry of prod_s exp_{B_s}(T^{p^s}), as MultiPoly matrices."""
    fld = psi.field
    prod = [[MultiPoly.one(fld) if i == j else MultiPoly.zero(fld) for j in range(psi.N)]
            for i in range(psi.N)]
    for s in range(psi.height):
        E = oracle_truncated_exp(NilpotentMatrix(fld, psi.N, psi.mat(s)))
        tp = MultiPoly.variable(fld, "T", fld.p**s)
        prod = _poly_mat_mul(prod, [[f.substitute({"T": tp}) for f in row] for row in E], fld)
    return {f"x{i + 1}_{j + 1}": prod[i][j] for i in range(psi.N) for j in range(psi.N)}


def oracle_pullback_module(M: Comodule, psi) -> GaUFamily:
    assignment = oracle_psg_assignment(psi)
    coaction = [[f.substitute(assignment) for f in row] for row in M.coaction]
    return comodule_to_family(matrix_comodule(M.field, coalgebras.ga_poly(), M.dim, coaction))


def oracle_validate_1psg(psi) -> list:
    """Shape checks, then nilpotency, then MultiPoly exponentials in T and b1_1."""
    fld = psi.field
    N = psi.N
    out = []
    exps = []
    for s in range(psi.height):
        B = psi.mat(s)
        if len(B) != N or any(len(row) != N for row in B):
            out.append(f"B_{s} is not N x N")
        elif any(B[i][j] for i in range(N) for j in range(i + 1)):
            out.append(f"B_{s} is not strictly upper triangular")
        else:
            try:
                exps.append(oracle_truncated_exp(NilpotentMatrix(fld, N, B)))
            except ValueError:
                out.append(f"B_{s} is not p-nilpotent")
    if out:
        return out
    for s in range(psi.height):
        for t in range(s + 1, psi.height):
            if not linalg.mats_commute(psi.mat(s), psi.mat(t), fld):
                out.append(f"B_{s} and B_{t} do not commute")
                continue
            other = MultiPoly.variable(fld, "b1_1")
            at_other = [[f.substitute({"T": other}) for f in row] for row in exps[t]]
            if _poly_mat_mul(exps[s], at_other, fld) != _poly_mat_mul(at_other, exps[s], fld):
                out.append(f"exponentials of B_{s} and B_{t} do not commute")
    return out


# -- the per-entry table oracles -------------------------------------------------


def oracle_entry_images(M: Comodule, images) -> list:
    """(j, i, {key: coeff}) for every nonzero entry: sum_k c_k image(m_k) mod p.

    ``images(monos)`` gives each distinct monomial's image as (key, coeff)
    pairs; every entry is summed in full before the caller sees it.
    """
    monos, cols = sparse_columns(M)
    table = [list(terms) for terms in images(monos)]
    p = M.field.p
    out = []
    for i, col in enumerate(cols):
        for j, terms in col:
            acc = defaultdict(int)
            for k, c in terms:
                for key, v in table[k]:
                    acc[key] += c * v
            out.append((j, i, {key: v % p for key, v in acc.items() if v % p}))
    return out


def oracle_pullback_terms(M: Comodule) -> list:
    """(j, i, {(T power, b-key): coeff}) for every nonzero entry, summed per entry."""
    if M.coalgebra.kind != "UNPoly":
        raise ValueError("exponential filtration needs a comodule over k[U_N]")
    fld = M.field
    N = M.coalgebra.N
    SymbolicNilpotentDomain(fld, N)
    gens = coalgebras.generator_vars(M.coalgebra)

    def images(monos):
        coalgebras.require_generators(M.coalgebra, monos)
        top = max((monomial_degree(m) for m in monos), default=0)
        W = max(1, ((N - 1) * top).bit_length())
        pulled = frobenius_images(
            fld, _generic_exp_images(fld, gens, W), {v: s for s, v in enumerate(gens)},
            monos, "exponential pullback",
        )
        mask = (1 << W) - 1
        return [[((k & mask, k >> W), c) for k, c in terms.items()] for terms in pulled]

    return oracle_entry_images(M, images)


def oracle_table_exp_filtration(M: Comodule, d: int):
    constraints = defaultdict(list)  # (module row, T power, b-key) -> [(i, c)], i ascending
    for j, i, pulled in oracle_pullback_terms(M):
        for (k, rest), c in pulled.items():
            if k > d:
                constraints[j, k, rest].append((i, c))
    rows = linalg.distinct_lines(constraints.values(), M.dim, M.field)
    return linalg.kernel_of(rows, M.dim, M.field)


def oracle_table_exponential_degree(M: Comodule) -> int:
    return max((k for _, _, pulled in oracle_pullback_terms(M) for k, _ in pulled), default=0)


def _series_mul(a: list, b: list, p: int, top: int) -> list:
    """Product of two coefficient lists in T mod p, cut after degree ``top``."""
    n = min(len(a) + len(b) - 1, top + 1) if a and b else 0
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return [c % p for c in out]


def _times_power(acc: list, f: list, e: int, p: int, top: int) -> list:
    """acc * f^e mod p, cut after degree ``top``, by the base-p digits of e.

    Over F_p, Frob^t(g) = g^{p^t} is g(T^{p^t}), so f^e is the product of
    Frob^t(f^{d_t}) over the digits d_t of e, and Frob^t(g) cut after ``top``
    needs only g cut after top // p^t: there are sum_t d_t products.
    """
    for t, d in enumerate(digits(e, p)):
        if d:
            q = p**t
            g = f[: top // q + 1]
            for _ in range(d - 1):
                g = _series_mul(g, f, p, top // q)
            if q > 1:
                spread = [0] * ((len(g) - 1) * q + 1)
                spread[::q] = g
                g = spread
            acc = _series_mul(acc, g, p, top)
    return acc


def oracle_table_theta(M: Comodule, psi):
    """Theta summed per entry, then Theta^p checked by a separate power.

    Each monomial's Theta coefficient is read off its coaction entries'
    coefficient lists in T, every product cut at the degree it needs: the
    pullback of m along exp_{B_s}(T) is T^{deg m} times the product of the
    entries divided by T, so level s needs that product up to T^{p^s - deg m}.
    """
    exps = require_valid_1psg(psi)
    fld = M.field
    p = fld.p
    levels = [
        (p**s, {f"x{i + 1}_{j + 1}": [Ek[i][j] for Ek in E[1:]]
                for i in range(psi.N) for j in range(i + 1, psi.N)})
        for s, E in enumerate(exps)
    ]

    def images(monos):
        coalgebras.require_generators(M.coalgebra, monos)
        out = []
        for m in monos:
            deg = monomial_degree(m)
            total = 0
            for q, shifted in levels:
                r = q - deg
                if r < 0:
                    continue
                acc = [1]
                for v, e in m:
                    acc = _times_power(acc, shifted[v], e, p, r)
                if r < len(acc):
                    total += acc[r]
            out.append([((), total % p)] if total % p else [])
        return out

    theta = linalg.zeros(M.dim, M.dim)
    for j, i, value in oracle_entry_images(M, images):
        theta[j][i] = value.get((), 0)
    if not linalg.is_zero_matrix(linalg.mat_pow(theta, p, fld), fld):
        raise ValueError("Theta^p != 0: corrupted input module")
    return theta


def oracle_jordan_type(theta, field) -> JordanType:
    """Ranks of identity * theta^k for k = 1..p."""
    n = len(theta)
    p = field.p
    power = linalg.identity(n)
    ranks = [n]
    for _ in range(p):
        power = linalg.mat_mul(power, theta, field)
        ranks.append(linalg.mat_rank(power, n, field))
    assert ranks[p] == 0
    parts = []
    for k in range(1, p + 1):
        above = ranks[k + 1] if k + 1 <= p else 0
        parts.extend([k] * ((ranks[k - 1] - ranks[k]) - (ranks[k] - above)))
    return JordanType(tuple(sorted(parts, reverse=True)))


def oracle_dense_products(places, dim: int, field) -> dict:
    """{sum_s k_s w_s: prod_s E_s[k_s]} over every digit vector, zero products included."""
    coeffs = {0: linalg.identity(dim)}  # weight sum -> product over the places so far
    for w, E in places:
        coeffs = {n + k * w: linalg.mat_mul(C, Ek, field)
                  for n, C in coeffs.items() for k, Ek in enumerate(E)}
    return coeffs


def oracle_psg_images(psi) -> dict:
    """{x_{i<j}: {n: coefficient of T^n}} of prod_s exp_{B_s}(T^{p^s}), multiplied
    out over every digit combination."""
    fld = psi.field
    exps = require_valid_1psg(psi)
    coeffs = oracle_dense_products([(fld.p**s, E) for s, E in enumerate(exps)], psi.N, fld)
    return {
        f"x{i + 1}_{j + 1}": {n: C[i][j] for n, C in coeffs.items() if C[i][j]}
        for i in range(psi.N)
        for j in range(i + 1, psi.N)
    }


def oracle_table_pullback_module(M: Comodule, psi) -> GaUFamily:
    fld = M.field
    P = oracle_psg_images(psi)
    gens = coalgebras.generator_vars(M.coalgebra)

    def images(monos):
        coalgebras.require_generators(M.coalgebra, monos)
        pulled = frobenius_images(
            fld, [P[v] for v in gens], {v: s for s, v in enumerate(gens)}, monos,
            "pullback along the subgroup",
        )
        return [[((("T", k),) if k else (), c) for k, c in terms.items()] for terms in pulled]

    coaction = [[MultiPoly.zero(fld)] * M.dim for _ in range(M.dim)]
    for j, i, terms in oracle_entry_images(M, images):
        coaction[j][i] = MultiPoly(fld, terms)
    return comodule_to_family(matrix_comodule(fld, coalgebras.ga_poly(), M.dim, coaction))


def oracle_radical_quotient_dim(M: Comodule) -> int:
    cols = [
        [A[j][i] for j in range(M.dim)]
        for mono, A in action_matrices(M).items()
        if mono != ()
        for i in range(M.dim)
    ]
    return M.dim - Subspace.from_vectors(M.field, M.dim, [c for c in cols if any(c)]).dim


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
        # exponents p and 2p: Theta and the subgroup pullback take a power
        # through its second base-p digit; at p = 3 the level-2 term of
        # x1_3^6 along J = E12 + E23 is the T^3 coefficient of Frob(f^2), f
        # the T-coefficients of exp_J(T)_{1,3} / T
        twisted = frobenius_twist(summed)
        J = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        out.append((f"sym+nat twisted p={p}", conjugate(twisted, random_invertible(F, twisted.dim, rng)),
                    psis(3) + [un_psg(F, 3, [J, J, J])]))
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
        assert exponential_degree(M) == oracle_table_exponential_degree(M) == e, label
        for d in range(e + 2):
            want = oracle_module_exp_filtration(M, d)
            assert oracle_table_exp_filtration(M, d) == want, (label, d)
            assert module_exp_filtration(M, d) == want, (label, d)


def test_mock_trivial_matches_oracle(pool):
    seen = set()
    for label, M, _ in pool:
        verdict = oracle_mock_trivial(M)
        assert oracle_table_exp_filtration(M, 0).is_full() == verdict, label
        assert mock_trivial_check(M) == verdict, label
        seen.add(verdict)
    assert seen == {True, False}


def test_theta_matches_oracle(pool):
    for label, M, psis in pool:
        for psi in psis:
            want = oracle_theta(M, psi)
            assert oracle_table_theta(M, psi) == want, (label, psi.height)
            assert theta_operator(M, psi) == want, (label, psi.height)


def test_jordan_types_match_oracle(pool):
    heights = set()
    seen = set()
    for label, M, psis in pool:
        for psi in psis:
            jt = oracle_jordan_type(oracle_table_theta(M, psi), M.field)
            free, got = is_free_at(M, psi)
            assert got == jt, (label, psi.height)
            assert free == jt.is_free(M.field), (label, psi.height)
            heights.add(psi.height)
            seen.add(free)
    assert heights >= {1, 2, 3}
    assert seen == {True, False}


def test_theta_takes_powers_through_every_digit():
    # k[U_3]_{<6} at p = 3 has x1_3^4*x1_2 (4 = 11 in base 3), whose level-2
    # term along J is the T^9 coefficient of (aT + cT^2)^4 bT, i.e. b c^4
    M = degree_piece_comodule(UNContext(F3, 3), 6)
    J = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    for mats in ([J, J, J], [[[0] * 3] * 3, J, J], [J, [[0, 0, 1], [0, 0, 0], [0, 0, 0]], J]):
        psi = un_psg(F3, 3, mats)
        assert theta_operator(M, psi) == oracle_theta(M, psi), mats


def test_theta_expands_a_monomial_only_at_levels_past_its_degree(monkeypatch):
    # the 19th twist of natural U_3 has coaction monomials of degree 3^19,
    # so along 20 copies of J only level 19 expands them, each once; the
    # constant monomial, whose pullback is 1, is never expanded
    M = natural_rep(UNContext(F3, 3))
    for _ in range(19):
        M = frobenius_twist(M)
    J = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    psi = un_psg(F3, 3, [J] * 20)
    calls = []

    def spy(field, images, pos, monos, what, **kwargs):
        calls.append(sorted(monomial_degree(m) for m in monos))
        return frobenius_images(field, images, pos, monos, what, **kwargs)

    monkeypatch.setattr(support, "frobenius_images", spy)
    start = time.perf_counter()
    theta = theta_operator(M, psi)
    assert time.perf_counter() - start < 1.0
    assert calls == [[3**19] * 3]
    assert theta == oracle_table_theta(M, psi)
    assert not linalg.is_zero_matrix(theta, F3)


def test_pullback_module_matches_oracle(pool):
    for label, M, psis in pool:
        for psi in psis:
            want = oracle_pullback_module(M, psi)
            assert oracle_table_pullback_module(M, psi) == want, (label, psi.height)
            assert pullback_module(M, psi) == want, (label, psi.height)


# -- the digit-product walk against the dense product and derived_v ----------------

J3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def _tuple_places(psi) -> list:
    return [(psi.field.p**s, E) for s, E in enumerate(require_valid_1psg(psi))]


def _family_places(U: GaUFamily) -> list:
    return [(U.field.p**s, linalg.divided_powers(U.u(s), U.field)) for s in U.support()]


def _walk_tuples():
    """(label, psi): seeded commuting U_N tuples at p = 2, 3, 5; heights 13 and 14 at p = 2."""
    rng = random.Random("digit-product-walk/un")
    out = []
    for p, N, heights in ((2, 3, (1, 2, 4, 13, 14)), (2, 4, (3, 13)), (3, 3, (1, 2, 3, 6)),
                          (3, 4, (2, 4)), (5, 3, (1, 2, 4)), (5, 4, (1, 3))):
        F = PrimeField(p)
        for h in heights:
            for k in range(3):
                out.append((f"p={p} N={N} h={h} #{k}", un_psg(F, N, random_commuting_tuple(F, N, h, rng))))
    return out


def _walk_families():
    """(label, U): random Ga families at p = 2, 3, 5, and commuting tuples spread
    over random places, with 13 places at p = 2."""
    rng = random.Random("digit-product-walk/ga")
    out = []
    for p, heights in ((2, (2, 5, 13)), (3, (2, 4, 6)), (5, (2, 3, 4))):
        F = PrimeField(p)
        for k in range(20):
            out.append((f"random_ga_family p={p} #{k}", random_ga_family(F, rng.randrange(2, 5), rng)))
        for h in heights:
            N = rng.randrange(3, 5)
            mats = [B for B in random_commuting_tuple(F, N, 3 * h, rng) if any(map(any, B))][:h]
            places = sorted(rng.sample(range(2 * h), len(mats)))
            out.append((f"tuple family p={p} N={N} h={len(mats)}", GaUFamily(F, N, dict(zip(places, mats)))))
    return out


def test_digit_products_match_dense_product():
    heights = set()
    for label, psi in _walk_tuples():
        fld = psi.field
        places = _tuple_places(psi)
        dense = oracle_dense_products(places, psi.N, fld)
        want = {n: C for n, C in dense.items() if not linalg.is_zero_matrix(C, fld)}
        got = linalg.digit_products(places, psi.N, fld)
        assert got == want, label
        assert list(got) == list(want), label  # lexicographic, first place first
        heights.add(psi.height)
    assert max(heights) >= 13


def test_digit_products_match_derived_v():
    # a digit sum the walk omits must have v_j = 0
    supports = set()
    for label, U in _walk_families():
        fld = U.field
        want = {}
        for j in digit_sums(fld, U.support()):
            v = derived_v(U, j)
            if not linalg.is_zero_matrix(v, fld):
                want[j] = v
        assert linalg.digit_products(_family_places(U), U.dim, fld) == want, label
        supports.add(len(U.support()))
    assert max(supports) >= 13


@pytest.mark.parametrize("h", [13, 16, 20])
def test_tall_walk_forms_only_the_nonzero_products(h):
    # u_s = J = E12 + E23 at p = 3 on h places: prod_s J^{k_s}/k_s! is
    # J^{sum k_s}/prod k_s!, nonzero iff sum k_s <= 2, so 1 + 2h + C(h, 2)
    # of the 3^h digit vectors survive
    U = GaUFamily(F3, 3, {s: J3 for s in range(h)})
    got = linalg.digit_products(_family_places(U), 3, F3)
    assert len(got) == 1 + 2 * h + h * (h - 1) // 2
    for j, v in got.items():
        assert v == derived_v(U, j), j
    rng = random.Random(f"tall-walk/{h}")
    for _ in range(300):
        j = sum(rng.randrange(3) * 3**s for s in range(h))
        if j not in got:
            assert linalg.is_zero_matrix(derived_v(U, j), F3), j


def test_digit_product_walk_counts_products_against_the_guard(monkeypatch):
    # E = [1, E12] at p = 2 on h places: the walk forms E12 from the
    # identity prefix and the zero E12^2 from each E12 prefix, h + C(h, 2)
    # products in all
    F2 = PrimeField(2)
    places = [(2**s, linalg.divided_powers([[0, 1], [0, 0]], F2)) for s in range(5)]
    monkeypatch.setattr(linalg, "DESK_GUARD", 10)
    assert len(linalg.digit_products(places[:4], 2, F2)) == 5
    with pytest.raises(ValueError, match="guard"):
        linalg.digit_products(places, 2, F2)


# -- exp_pullback and the k[Ga] pullback against the substitute oracle -------------


def _exp_pullback_cases():
    """(label, f, B): 1,080 seeded polynomials in the full-matrix coordinates.

    For p in {2, 3, 5} and N in {2, 3, 4}: 45 along the generic B when
    N <= p, and 45 each along a fresh numeric strictly upper triangular B and
    its transpose.  Each f has up to three terms of up to three coordinates
    (diagonal and below-diagonal ones included) with exponents that have
    one or two base-p digits.
    """
    out = []
    for p in (2, 3, 5):
        F = PrimeField(p)
        rng = random.Random(f"exp-pullback-oracle/{p}")
        exps = sorted({1, 2, p - 1, p, p + 1, 2 * p - 1})

        def poly(names):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                chosen = rng.sample(names, rng.randrange(0, 4))
                terms[monomial({v: rng.choice(exps) for v in chosen})] = rng.randrange(1, p)
            return MultiPoly(F, terms)

        for N in (2, 3, 4):
            names = [f"x{i}_{j}" for i in range(1, N + 1) for j in range(1, N + 1)]
            for k in range(45):
                if N <= p:
                    out.append((f"p={p} N={N} generic #{k}", poly(names), SymbolicNilpotentDomain(F, N)))
                U = random_strictly_upper(F, N, rng)
                lower = [list(col) for col in zip(*U)]
                out.append((f"p={p} N={N} upper #{k}", poly(names), NilpotentMatrix(F, N, U)))
                out.append((f"p={p} N={N} lower #{k}", poly(names), NilpotentMatrix(F, N, lower)))
    return out


def test_exp_pullback_matches_substitute_oracle():
    cases = _exp_pullback_cases()
    assert len(cases) >= 1000
    seen = set()
    for label, f, B in cases:
        got = exp_pullback(f, B)
        assert got == oracle_exp_pullback(f, B), (label, str(f))
        kind = label.split()[2]
        for v in f.variables():
            i, j = map(int, v[1:].split("_"))
            seen.add((kind, "diagonal" if i == j else "below" if i > j else "above"))
        seen.add((kind, "nonzero" if not got.is_zero() else "zero"))
    kinds = ("generic", "upper", "lower")
    assert seen == {(k, what) for k in kinds
                    for what in ("diagonal", "below", "above", "nonzero", "zero")}


def test_exp_pullback_rejects_foreign_coordinates():
    for B in (SymbolicNilpotentDomain(F3, 2), NilpotentMatrix(F3, 2, [[0, 1], [0, 0]])):
        for text in ("x1_3", "T", "b1_2"):
            with pytest.raises(ValueError, match="foreign variable"):
                exp_pullback(parse_poly(text, F3), B)
        with pytest.raises(ValueError, match="mixed fields"):
            exp_pullback(parse_poly("x1_2", F5), B)


def oracle_ga_pullback_module(M: Comodule, lambdas) -> GaUFamily:
    """T^e -> (sum_s lambda_s T^{p^s})^e by ``MultiPoly`` powers, entry by entry."""
    fld = M.field
    image = MultiPoly(fld, {(("T", fld.p**s),): lam for s, lam in enumerate(lambdas)})
    coaction = [[f.substitute({"T": image}) for f in row] for row in M.coaction]
    return comodule_to_family(matrix_comodule(fld, coalgebras.ga_poly(), M.dim, coaction))


def test_ga_pullback_module_matches_power_oracle():
    rng = random.Random("ga-pullback-oracle")
    checked = 0
    for p in (2, 3, 5):
        F = PrimeField(p)
        modules = [regular_comodule(F, p * p), family_to_comodule(y_r_family(F, 2))]
        modules += [family_to_comodule(random_ga_family(F, rng.randrange(2, 5), rng, max_support=2))
                    for _ in range(4)]
        for M in modules:
            for _ in range(3):
                lambdas = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
                psi = ga_psg(F, lambdas)
                assert pullback_module(M, psi) == oracle_ga_pullback_module(M, psi.lambdas), (p, lambdas)
                checked += 1
    assert checked == 54


def test_ga_pullback_guard_rejects_before_expanding():
    # T pulls back to T + T^3 + T^9 along (1, 1, 1), and its square to 6
    # terms: nineteen digits 2 bound the pullback of T^(3^19 - 1) by 6^19
    # terms, past the desk-scale guard.  The module is no comodule; the
    # guard fires before anything reads it as one.
    one = MultiPoly.one(F3)
    M = matrix_comodule(F3, coalgebras.ga_poly(), 2,
                 [[one, parse_poly(f"T^{3**19 - 1}", F3)], [MultiPoly.zero(F3), one]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="pullback along the subgroup .* guard"):
        pullback_module(M, ga_psg(F3, [1, 1, 1]))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("field", [F3, F5], ids=["p=3", "p=5"])
def test_entry_terms_cancel_before_the_degree_test(field):
    # x1_3 and x1_2*x2_3 each pull back to degree 2, but the T^2 terms of
    # 2*x1_3 - x1_2*x2_3 cancel: its pullback is 2*b1_3*T
    f = parse_poly("2*x1_3 - x1_2*x2_3", field)
    assert exp_pullback(f, SymbolicNilpotentDomain(field, 3)) == parse_poly("2*b1_3*T", field)
    assert oracle_exp_pullback(f, SymbolicNilpotentDomain(field, 3)) == parse_poly("2*b1_3*T", field)
    one = MultiPoly.one(field)
    zero = MultiPoly.zero(field)
    M = matrix_comodule(field, coalgebras.un_poly(3), 2, [[one, f], [zero, one]])
    assert exponential_degree(M) == oracle_exponential_degree(M) == 1
    assert module_exp_filtration(M, 1).is_full()
    assert module_exp_filtration(M, 0) == oracle_module_exp_filtration(M, 0)
    assert module_exp_filtration(M, 0).dim == 1
    assert not mock_trivial_check(M)


# -- the packed pullback table on exponents with several base-p digits -------------


# base-p digits: p=3: 7 = 21, 5 = 12, 4 = 11, 13 = 111, 8 = 22;
# p=5: 6 = 11, 11 = 21, 24 = 44, 13 = 23, 7 = 12
_DIGIT_MONOMIALS = {
    3: ["x1_2^7", "x1_3^5*x2_3^4", "x1_3^13", "x1_2^8*x2_3^2", "x1_2^4*x1_3^5*x2_3^7"],
    5: ["x1_2^6*x1_3^11", "x2_3^24", "x1_3^13*x2_3^7", "x1_2^11*x2_3^6", "x1_2^7*x1_3^6*x2_3^11"],
}


def _digit_module(field):
    """Upper unitriangular module whose entries carry the hand-picked monomials.

    Not a comodule: the pullback table reads the coaction without validating.
    """
    texts = _DIGIT_MONOMIALS[field.p]
    n = len(texts) + 1
    one = MultiPoly.one(field)
    zero = MultiPoly.zero(field)
    coaction = [[one if i == j else zero for i in range(n)] for j in range(n)]
    for k, text in enumerate(texts):
        coaction[0][k + 1] = parse_poly(text, field)
        coaction[k][k + 1] = coaction[k][k + 1] + parse_poly(f"2*{text} + x1_2", field)
    return matrix_comodule(field, coalgebras.un_poly(3), n, coaction)


def _signatures(terms) -> list:
    """Each b-key's occurrences {(j, i, T power, coeff)}, as a sorted multiset.

    Two tables agree up to a consistent renaming of their b-keys iff these
    multisets are equal."""
    occ = {}
    for j, i, pulled in terms:
        for (k, rest), c in pulled.items():
            occ.setdefault(rest, set()).add((j, i, k, c))
    return sorted(sorted(v) for v in occ.values())


def _table_entries(M) -> list:
    """Entry pullbacks sum_mu (A_mu)_{ji} pulled[mu] from the per-monomial table."""
    pulled, mask = _generic_pullbacks(M.field, M.coalgebra, list(M.acts))
    W = mask.bit_length()
    sums = defaultdict(lambda: defaultdict(int))
    for act, terms in zip(M.acts.values(), pulled):
        for j, i, a in act:
            for key, c in terms.items():
                sums[j, i][key & mask, key >> W] += a * c
    p = M.field.p
    return [(j, i, {key: v % p for key, v in acc.items() if v % p}) for (j, i), acc in sums.items()]


@pytest.mark.parametrize("field", [F3, F5], ids=["p=3", "p=5"])
def test_pullback_terms_match_exp_pullback(field):
    # the table packs each b-monomial into an int; the oracle keeps it as a
    # monomial tuple
    M = _digit_module(field)
    assert any(e >= field.p for row in M.coaction for f in row for m in f.terms for _, e in m)
    oracle = []
    for j, row in enumerate(oracle_entry_pullbacks(M)):
        for i, pb in enumerate(row):
            if not M.coaction[j][i].is_zero():
                split = {}
                for pmono, c in pb.terms.items():
                    split[dict(pmono).get("T", 0), tuple(ve for ve in pmono if ve[0] != "T")] = c
                oracle.append((j, i, split))
    got = _table_entries(M)
    assert sorted((j, i) for j, i, _ in got) == sorted((j, i) for j, i, _ in oracle)
    assert _signatures(got) == _signatures(oracle)
    e = oracle_exponential_degree(M)
    assert exponential_degree(M) == e
    for d in range(0, e + 2, 3):
        assert module_exp_filtration(M, d) == oracle_module_exp_filtration(M, d), d


def test_pullback_term_guard_rejects_before_expanding():
    # x1_3 pulls back to 2 terms and its square to 3: nineteen digits 2 bound
    # the pullback of x1_3^(3^19 - 1) by 3^19 terms, past the desk-scale guard
    f = parse_poly(f"x1_3^{3**19 - 1}", F3)
    one = MultiPoly.one(F3)
    M = matrix_comodule(F3, coalgebras.un_poly(3), 2, [[one, f], [MultiPoly.zero(F3), one]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="guard"):
        exponential_degree(M)
    assert time.perf_counter() - start < 1.0


def test_subgroup_pullback_guard_rejects_before_expanding():
    # along (E12, E12) x1_2 pulls back to T + T^3 and its square to 3 terms:
    # x1_2^(3^19 - 1) is bounded by 3^19 terms, past the desk-scale guard
    f = parse_poly(f"x1_2^{3**19 - 1}", F3)
    one = MultiPoly.one(F3)
    M = matrix_comodule(F3, coalgebras.un_poly(2), 2, [[one, f], [MultiPoly.zero(F3), one]])
    e12 = [[0, 1], [0, 0]]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="guard"):
        pullback_module(M, un_psg(F3, 2, [e12, e12]))
    assert time.perf_counter() - start < 1.0


def test_subgroup_pullback_guard_counts_colliding_terms():
    # along (B, B), B = E12 + E23 + E13, at p = 97 x1_3 pulls back to the 5
    # T powers 1, 2, 97, 98, 194.  C(5 + 95, 96) = 3.9M bounds x1_3^96 past
    # the guard, but its T powers lie in [96, 96 * 194], so it is expanded
    F97 = PrimeField(97)
    B = [[0, 1, 1], [0, 0, 1], [0, 0, 0]]
    psi = un_psg(F97, 3, [B, B])
    P = oracle_psg_images(psi)
    assert len(P["x1_3"]) == 5
    gens = coalgebras.generator_vars(coalgebras.un_poly(3))
    (got,) = frobenius_images(F97, [P[v] for v in gens], {v: s for s, v in enumerate(gens)},
                              [(("x1_3", 96),)], "pullback along the subgroup")
    want = {0: 1}
    for _ in range(96):
        prod = defaultdict(int)
        for a, ca in want.items():
            for b, cb in P["x1_3"].items():
                prod[a + b] += ca * cb
        want = {k: c % 97 for k, c in prod.items() if c % 97}
    assert got == want
    # the module is no comodule: the pullback gets past the guard and fails
    # the divided-power check of the family instead
    one = MultiPoly.one(F97)
    M = matrix_comodule(F97, coalgebras.un_poly(3), 2,
                 [[one, parse_poly("x1_3^96", F97)], [MultiPoly.zero(F97), one]])
    with pytest.raises(ValueError, match="divided-power"):
        pullback_module(M, psi)


# -- the 1-psg validator -----------------------------------------------------------


def _psg_cases():
    """(label, psi) over valid, non-nilpotent, non-commuting, non-triangular and
    wrong-shape tuples, alone and mixed."""
    out = []
    rng = random.Random("validate-1psg-differential")
    for F in (F3, F5):
        for N in (2, 3, 4):
            for h in (1, 2, 3):
                mats = random_commuting_tuple(F, N, h, rng)
                out.append((f"valid p={F.p} N={N} h={h}", un_psg(F, N, mats)))
    F2 = PrimeField(2)
    jordan3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    out.append(("non-nilpotent p=2 N=3", un_psg(F2, 3, [jordan3])))
    out.append(("non-nilpotent second p=2 N=3", un_psg(F2, 3, [[[0, 0, 1], [0, 0, 0], [0, 0, 0]], jordan3])))
    e12 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    e23 = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    e13 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    out.append(("non-commuting p=3", un_psg(F3, 3, [e12, e23])))
    out.append(("non-commuting of three p=5", un_psg(F5, 3, [e12, e13, e23])))
    out.append(("lower p=3 N=2", un_psg(F3, 2, [[[0, 0], [1, 0]]])))
    out.append(("full p=3 N=2", un_psg(F3, 2, [[[1, 1], [2, 2]]])))
    out.append(("diagonal p=5 N=3", un_psg(F5, 3, [e12, [[0, 0, 0], [0, 1, 0], [0, 0, 0]]])))
    out.append(("2x2 in N=3 p=3", un_psg(F3, 3, [[[0, 1], [0, 0]]])))
    out.append(("ragged in N=3 p=3", un_psg(F3, 3, [e12, [[0, 1, 0], [0, 0], [0, 0, 0]]])))
    out.append(("mixed p=3", un_psg(F3, 3, [e12, [[0, 1], [0, 0]], [[0, 0, 0], [1, 0, 0], [0, 0, 0]]])))
    out.append(("empty p=3", un_psg(F3, 3, [])))
    return out


def test_validate_1psg_matches_oracle():
    seen = []
    for label, psi in _psg_cases():
        want = oracle_validate_1psg(psi)
        assert validate_1psg(psi) == want, label
        seen.extend(want)
    for phrase in ("is not p-nilpotent", "do not commute", "is not strictly upper triangular",
                   "is not N x N"):
        assert any(phrase in v for v in seen), phrase
    # the oracle's two-variable comparison runs after B_s B_t = B_t B_s has
    # passed, and powers of commuting matrices commute: it never fires
    assert not any("exponentials of" in v for v in seen)


# -- the sparse radical quotient -----------------------------------------------------


def _truncated_pool():
    out = []
    for p in (2, 3):
        F = PrimeField(p)
        rng = random.Random(f"radical-differential/{p}")
        ctx = UNContext(F, 3)
        for r in (1, 2):
            out.append((f"U_3 degree piece d=3 p={p} r={r}", restrict_frobenius(degree_piece_comodule(ctx, 3), r)))
            M = random_un_comodule(F, 3, rng, max_pieces=2)
            out.append((f"random U_3 p={p} r={r}", restrict_frobenius(conjugate(M, random_invertible(F, M.dim, rng)), r)))
            out.append((f"regular Ga D=9 p={p} r={r}", restrict_frobenius(regular_comodule(F, 9), r)))
            fam = random_ga_family(F, 4, rng)
            out.append((f"random Ga p={p} r={r}", restrict_frobenius(family_to_comodule(fam), r)))
    return out


def test_radical_quotient_matches_dense_route():
    for label, M in _truncated_pool():
        assert radical_quotient_dim(M) == oracle_radical_quotient_dim(M), label


def test_entries_outside_the_generators_raise_value_error():
    # x1_1 is no coordinate of U_3: the tables reject it instead of reading
    # the diagonal of exp_B
    f = parse_poly("x1_1 + x1_2", F3)
    one = MultiPoly.one(F3)
    M = matrix_comodule(F3, coalgebras.un_poly(3), 2, [[one, f], [MultiPoly.zero(F3), one]])
    psi = un_psg(F3, 3, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]])
    for call in (exponential_degree, lambda M: theta_operator(M, psi), lambda M: pullback_module(M, psi)):
        with pytest.raises(ValueError, match="foreign variable"):
            call(M)
