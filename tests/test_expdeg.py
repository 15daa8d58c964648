"""Truncated exponentials, exponential pullbacks, the exponential-degree
filtration, Frobenius twists, comparison checks, and mock triviality."""

import itertools
import random
import signal
from contextlib import contextmanager

import pytest

from expfilt import coalgebras, linalg
from expfilt.comodule import (
    is_coaction_stable,
    restrict_to_subspace,
    trivial_comodule,
    validate,
)
from expfilt.expdeg import (
    NilpotentMatrix,
    SymbolicNilpotentDomain,
    coalg_exp_degree,
    coalg_filtration_piece,
    enumerate_nilpotent_upper,
    exp_pullback,
    exponential_degree,
    exponential_height,
    frobenius_twist,
    ga_exp_filtration,
    ga_exponential_degree,
    mock_trivial_check,
    module_exp_filtration,
    relate_inclusions_check,
    t_degree,
)
from expfilt.fpcomb import PrimeField
from expfilt.ga import family_to_comodule, y_r_family
from expfilt.linalg import Subspace
from expfilt.polyring import MultiPoly, parse_poly
from expfilt.samplers import random_ga_family, random_un_comodule, rng_from_seed
from expfilt.un import UNContext, ga_as_u2, natural_rep, sym_square_rep
from test_exp_pullback_differential import oracle_truncated_exp
from test_polyring import coeff_of_power, eval_at

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def intersect(S: Subspace, T: Subspace) -> Subspace:
    """S meet T: the kernel of both annihilators together."""
    return linalg.kernel_of(S.annihilator_rows() + T.annihilator_rows(), S.ambient, S.field)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def coalg_exp_degree_sampled(f: MultiPoly, field: PrimeField, N: int) -> dict:
    """Max pullback T-degree over the enumerated F_p points with B^p = 0.

    For N > p this is a lower bound only (membership needs all k-bar points);
    the verdict is labeled accordingly.
    """
    best = 0
    for B in enumerate_nilpotent_upper(field, N):
        best = max(best, t_degree(exp_pullback(f, B)))
    return {"degree_lower_bound": best, "label": "sampled: necessary conditions only"}


def unipotent_p_points(field: PrimeField, N: int) -> list:
    """The F_p points g of U_N with g^p = 1, as coordinate dictionaries.

    Sampled consequence of the degree-0 piece: a function with constant
    pullbacks along every enumerated exponential takes its identity value on
    each of these points (the exponentials of the enumerated B's sweep them
    out).  Guarded like :func:`enumerate_nilpotent_upper`.
    """
    if N > 4 or field.p > 3:
        raise ValueError("exhaustive enumeration is guarded to N <= 4, p in {2,3}")
    slots = [(i, j) for i in range(N) for j in range(i + 1, N)]
    out = []
    for values in itertools.product(range(field.p), repeat=len(slots)):
        g = linalg.identity(N)
        for (i, j), v in zip(slots, values):
            g[i][j] = v
        if linalg.mat_equal(linalg.mat_pow(g, field.p, field), linalg.identity(N), field):
            out.append(
                {
                    f"x{i + 1}_{j + 1}": g[i][j]
                    for i in range(N)
                    for j in range(i + 1, N)
                }
            )
    return out


def span(field, dim, indices):
    vecs = []
    for i in indices:
        v = [0] * dim
        v[i] = 1
        vecs.append(v)
    return Subspace.from_vectors(field, dim, vecs)


def unit(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


class TestTruncatedExp:
    """exp_B(T) of the substitute oracle that ``exp_pullback`` is compared
    against in ``test_exp_pullback_differential.py``."""

    def test_zero_matrix(self):
        E = oracle_truncated_exp(NilpotentMatrix(F5, 3, linalg.zeros(3, 3)))
        for i in range(3):
            for j in range(3):
                assert str(E[i][j]) == ("1" if i == j else "0")

    def test_square_zero_generator(self):
        for p in (2, 3, 5):
            fld = PrimeField(p)
            E = oracle_truncated_exp(NilpotentMatrix(fld, 2, unit(2, 0, 1)))
            assert E[0][1] == parse_poly("T", fld)
            assert E[1][0].is_zero()

    def test_regular_nilpotent_p3(self):
        B = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        E = oracle_truncated_exp(NilpotentMatrix(F3, 3, B))
        assert E[0][1] == parse_poly("T", F3)
        assert E[1][2] == parse_poly("T", F3)
        assert E[0][2] == parse_poly("2*T^2", F3)  # 1/2 = 2 mod 3

    def test_group_law_in_two_variables(self):
        rng = random.Random(3)
        for p, N in ((3, 3), (5, 3), (2, 2)):
            fld = PrimeField(p)
            mat = linalg.zeros(N, N)
            for i in range(N):
                for j in range(i + 1, N):
                    mat[i][j] = rng.randrange(p)
            B = NilpotentMatrix(fld, N, mat)
            E = oracle_truncated_exp(B)
            # b1_1 is the second scalar: exp(sB) exp(tB) = exp((s + t)B) at s = T, t = b1_1
            s_plus_t = parse_poly("T + b1_1", fld)
            lhs = [[f.substitute({"T": s_plus_t}) if not f.is_zero() else f for f in row] for row in E]
            t = MultiPoly.variable(fld, "b1_1")
            Et = [[f.substitute({"T": t}) for f in row] for row in E]
            rhs = [
                [
                    sum((E[i][k] * Et[k][j] for k in range(N)), MultiPoly.zero(fld))
                    for j in range(N)
                ]
                for i in range(N)
            ]
            assert lhs == rhs

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            NilpotentMatrix(F2, 3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])  # B^2 != 0

    def test_scaling_axiom_as_matrix_identity(self):
        """exp_{alpha B}(T) = exp_B(alpha T), entrywise."""
        B = [[0, 1, 2], [0, 0, 1], [0, 0, 0]]
        for p in (3, 5):
            fld = PrimeField(p)
            base = oracle_truncated_exp(NilpotentMatrix(fld, 3, B))
            for alpha in range(p):
                scaled = oracle_truncated_exp(
                    NilpotentMatrix(fld, 3, linalg.mat_scale(B, alpha, fld))
                )
                alpha_t = MultiPoly.variable(fld, "T", 1, alpha)
                want = [
                    [f.substitute({"T": alpha_t}) if not f.is_zero() else f for f in row]
                    for row in base
                ]
                assert scaled == want


class TestExpPullback:
    def test_symbolic_generator(self):
        f = parse_poly("x1_2", F3)
        assert exp_pullback(f, SymbolicNilpotentDomain(F3, 2)) == parse_poly("b1_2*T", F3)

    def test_symbolic_corner_n3(self):
        for p in (3, 5):
            fld = PrimeField(p)
            inv2 = fld.inv(2)
            f = parse_poly("x1_3", fld)
            want = parse_poly(f"b1_3*T + {inv2}*b1_2*b2_3*T^2", fld)
            assert exp_pullback(f, SymbolicNilpotentDomain(fld, 3)) == want

    def test_superdiagonal_product_vanishes_numerically(self):
        f = parse_poly("x1_2*x2_3", F2)
        points = enumerate_nilpotent_upper(F2, 3)
        assert len(points) == 6  # of the 8 strictly upper F_2 matrices
        for B in points:
            assert exp_pullback(f, B).is_zero()

    def test_enumeration_checks_nilpotency_once(self, monkeypatch):
        """B^p = 0 is tested once per matrix, by NilpotentMatrix: p = 3 matmuls
        for each of the 3^6 strictly upper 4 x 4 matrices over F_3."""
        from expfilt import _kernels
        from expfilt.samplers import enumerate_1psg_un

        calls = 0
        matmul = _kernels.matmul

        def counted(*args):
            nonlocal calls
            calls += 1
            return matmul(*args)

        monkeypatch.setattr(_kernels, "matmul", counted)
        points = enumerate_nilpotent_upper(F3, 4)
        assert calls == 3 * 3**6 == 2187
        assert len(points) == 513
        assert all(isinstance(B, NilpotentMatrix) for B in points)
        assert len(enumerate_1psg_un(F2, 3, 1)) == 6
        assert len(enumerate_1psg_un(F3, 3, 2)) == 297

    def test_symbolic_domain_requires_small_n(self):
        with pytest.raises(ValueError):
            SymbolicNilpotentDomain(F2, 3)

    def test_sampled_verdict_is_labeled(self):
        res = coalg_exp_degree_sampled(parse_poly("x1_2*x2_3", F2), F2, 3)
        assert res["degree_lower_bound"] == 0
        assert res["label"].startswith("sampled")


class TestCoalgExpDegree:
    def test_constant(self):
        assert coalg_exp_degree(parse_poly("2", F3), SymbolicNilpotentDomain(F3, 3)) == 0

    def test_generator(self):
        assert coalg_exp_degree(parse_poly("x1_2", F3), SymbolicNilpotentDomain(F3, 3)) == 1

    def test_high_frobenius_twist_is_fast(self):
        # x1_3 pulls back to b1_3 T + 2 b1_2 b2_3 T^2 at p = 3, so its
        # 3^19-th power is the two-term Frobenius twist of degree 2 * 3^19
        f = parse_poly(f"x1_3^{3**19}", F3)
        with deadline(1.0):
            assert coalg_exp_degree(f, SymbolicNilpotentDomain(F3, 3)) == 2 * 3**19

    @pytest.mark.parametrize("p", [3, 5])
    def test_cancellation_example(self, p):
        fld = PrimeField(p)
        f = parse_poly("2*x1_3 - x1_2*x2_3", fld)
        assert coalg_exp_degree(f, SymbolicNilpotentDomain(fld, 3)) == 1
        # without the correction the top term survives
        g = parse_poly("2*x1_3 + x1_2*x2_3", fld)
        assert coalg_exp_degree(g, SymbolicNilpotentDomain(fld, 3)) == 2


class TestCoalgFiltrationPiece:
    def test_large_d_gives_everything(self):
        ctx = UNContext(F3, 3)
        piece = coalg_filtration_piece(ctx, (3 - 1) * 2, 2)
        assert piece.space.is_full()

    def test_d0_is_constants(self):
        ctx = UNContext(F3, 3)
        piece = coalg_filtration_piece(ctx, 0, 1)
        assert piece.space.dim == 1
        assert piece.basis_polys() == [MultiPoly.one(F3)]

    def test_contains_cancellation_poly(self):
        for p in (3, 5):
            fld = PrimeField(p)
            ctx = UNContext(fld, 3)
            piece = coalg_filtration_piece(ctx, 1, 2)
            f = parse_poly("2*x1_3 - x1_2*x2_3", fld)
            vec = [0] * len(piece.monomials)
            for mono, c in f.terms.items():
                vec[list(piece.monomials).index(mono)] = c
            assert piece.space.contains(vec)

    def test_piece_is_coproduct_stable(self):
        """Left coproduct legs of piece members stay in the piece (tested at
        N = 3, where the filtration pieces are genuine sub-coalgebras)."""
        from expfilt import coalgebras as coalg_mod

        ctx = UNContext(F3, 3)
        for d in (0, 1, 2):
            piece = coalg_filtration_piece(ctx, d, 2)
            index = {m: k for k, m in enumerate(piece.monomials)}
            for f in piece.basis_polys():
                delta = coalg_mod.coproduct(ctx.coalgebra, F3, f)
                # group by right monomial; each left coefficient must lie in the piece
                by_right = {}
                for (left, right), c in delta.items():
                    by_right.setdefault(right, {})[left] = c
                for left_terms in by_right.values():
                    vec = [0] * len(piece.monomials)
                    for mono, c in left_terms.items():
                        vec[index[mono]] = c
                    assert piece.space.contains(vec)

    def test_degree_zero_piece_vanishing_on_p_unipotent_points(self):
        """Sampled consequence: a bounded-degree function whose enumerated
        pullbacks are all constant takes its identity value on every F_p
        point with g^p = 1 (shown here at N = 3 > p = 2)."""
        from expfilt.polyring import MultiPoly as MP
        from expfilt.un import degree_piece
        from expfilt import linalg as la

        fld = F2
        ctx = UNContext(fld, 3)
        basis = degree_piece(ctx, 3)  # degree <= 2
        points_B = enumerate_nilpotent_upper(fld, 3)
        # sampled degree-0 space: T-coefficients vanish at every enumerated B
        rows = {}
        for col, mono in enumerate(basis):
            for B in points_B:
                pb = exp_pullback(MP.from_monomial(fld, mono), B)
                for k in range(1, pb.degree_in("T") + 1):
                    c = coeff_of_power(pb, "T", k).terms.get((), 0)
                    if c:
                        key = (points_B.index(B), k)
                        rows.setdefault(key, [0] * len(basis))[col] = c
        space = la.kernel_of(list(rows.values()), len(basis), fld)
        identity_pt = {f"x{i}_{j}": 0 for i in range(1, 4) for j in range(i + 1, 4)}
        assert space.dim > 1  # contains x1_2*x2_3 beyond the constants
        for row in space.rows:
            f = MP(fld, {m: c for m, c in zip(basis, row) if c})
            at_identity = eval_at(f, identity_pt)
            for pt in unipotent_p_points(fld, 3):
                assert eval_at(f, pt) == at_identity


class TestModuleExpFiltration:
    def test_trivial_full_at_zero(self):
        M = trivial_comodule(F3, coalgebras.un_poly(3), 3)
        assert module_exp_filtration(M, 0).is_full()

    @pytest.mark.parametrize("p", [3, 5])
    def test_natural_u3_flags(self, p):
        fld = PrimeField(p)
        M = natural_rep(UNContext(fld, 3))
        assert module_exp_filtration(M, 0) == span(fld, 3, [0])
        assert module_exp_filtration(M, 1) == span(fld, 3, [0, 1])
        assert module_exp_filtration(M, 2).is_full()

    def test_chain_and_stability(self):
        rng = rng_from_seed(23)
        for _ in range(10):
            M = random_un_comodule(F3, 3, rng)
            dmax = exponential_degree(M)
            prev = None
            for d in range(dmax + 1):
                S = module_exp_filtration(M, d)
                if prev is not None:
                    assert S.contains_space(prev)
                prev = S
                if 0 < S.dim:
                    assert is_coaction_stable(M, S)
            assert prev.is_full()

    def test_subspace_functoriality(self):
        """For a coaction-stable inclusion, the filtration of the submodule is
        the intersection with the ambient filtration."""
        rng = rng_from_seed("functoriality")
        checked = 0
        while checked < 8:
            M = random_un_comodule(F3, 3, rng)
            S = module_exp_filtration(M, 1)
            if S.dim in (0, M.dim):
                continue
            sub = restrict_to_subspace(M, S)
            for d in range(0, 2):
                inner = module_exp_filtration(sub, d)
                lifted = Subspace.from_vectors(
                    F3,
                    M.dim,
                    [
                        [
                            sum(c * S.rows[a][i] for a, c in enumerate(row)) % 3
                            for i in range(M.dim)
                        ]
                        for row in inner.rows
                    ],
                )
                assert lifted == intersect(S, module_exp_filtration(M, d))
            checked += 1

    def test_filtration_piece_entries_inside_coalg_piece(self):
        """Restricting to M_[d] lands the coaction inside (k[G])_[d]."""
        M = natural_rep(UNContext(F3, 3))
        S = module_exp_filtration(M, 1)
        sub = restrict_to_subspace(M, S)
        ctx = UNContext(F3, 3)
        dmax = sub.max_entry_degree()
        piece = coalg_filtration_piece(ctx, 1, max(dmax, 1))
        index = {m: k for k, m in enumerate(piece.monomials)}
        for row in sub.coaction:
            for f in row:
                vec = [0] * len(piece.monomials)
                for mono, c in f.terms.items():
                    vec[index[mono]] = c
                assert piece.space.contains(vec)


class TestExponentialDegree:
    def test_trivial(self):
        assert exponential_degree(trivial_comodule(F3, coalgebras.un_poly(3), 2)) == 0

    @pytest.mark.parametrize("p,N", [(3, 2), (3, 3), (5, 3), (5, 5)])
    def test_natural_is_n_minus_one(self, p, N):
        fld = PrimeField(p)
        assert exponential_degree(natural_rep(UNContext(fld, N))) == N - 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_sym_square_u2(self, p):
        fld = PrimeField(p)
        M = sym_square_rep(UNContext(fld, 2))
        deg = exponential_degree(M)
        assert deg == 2
        assert deg <= (p - 1) * 2  # the polynomial-representation bound

    def test_bound_by_entry_degree(self):
        rng = rng_from_seed(29)
        for _ in range(10):
            M = random_un_comodule(F3, 3, rng)
            assert exponential_degree(M) <= 2 * M.max_entry_degree()

    def test_height(self):
        assert exponential_height(0, F3) == 0
        assert exponential_height(1, F3) == 0
        assert exponential_height(2, F3) == 1
        assert exponential_height(3, F3) == 1
        assert exponential_height(9, F3) == 2
        assert exponential_height(10, F3) == 3


class TestGaExpFiltration:
    def test_yr_pieces(self):
        for p, R in ((3, 1), (3, 2), (5, 1)):
            fld = PrimeField(p)
            fam = y_r_family(fld, R)
            assert ga_exp_filtration(fam, p**R).is_full()
            assert ga_exp_filtration(fam, p**R - 1) == span(fld, 2, [1])

    def test_trivial_family(self):
        from expfilt.ga import GaUFamily

        fam = GaUFamily(F3, 3, {})
        assert ga_exp_filtration(fam, 0).is_full()

    def test_matches_degree_filtration_shift(self):
        """For the additive group, M_[d] = M_{<d+1}, whether
        module_exp_filtration is given the family or its comodule."""
        from expfilt.comodule import degree_filtration

        rng = rng_from_seed(31)
        for _ in range(15):
            fam = random_ga_family(F3, rng.randrange(2, 5), rng)
            M = family_to_comodule(fam)
            for d in range(0, 5):
                want = ga_exp_filtration(fam, d)
                assert want == degree_filtration(M, d + 1)
                assert module_exp_filtration(fam, d) == want
                assert module_exp_filtration(M, d) == want

    @pytest.mark.parametrize("p", [3, 5])
    def test_agreement_with_u2_route(self, p):
        fld = PrimeField(p)
        rng = rng_from_seed(f"u2-route-{p}")
        for _ in range(15):
            fam = random_ga_family(fld, rng.randrange(2, 4), rng, max_support=2)
            M2 = ga_as_u2(family_to_comodule(fam))
            dmax = ga_exponential_degree(fam)
            for d in sorted({0, 1, dmax, max(dmax - 1, 0)}):
                assert ga_exp_filtration(fam, d) == module_exp_filtration(M2, d)
            assert ga_exponential_degree(fam) == exponential_degree(M2)


class TestFrobeniusTwist:
    def test_trivial_fixed(self):
        M = trivial_comodule(F3, coalgebras.un_poly(2), 2)
        assert frobenius_twist(M).coaction == M.coaction

    def test_natural_u2_entry(self):
        M = frobenius_twist(natural_rep(UNContext(F3, 2)))
        assert M.coaction[0][1] == parse_poly("x1_2^3", F3)
        assert validate(M).ok

    def test_twist_of_y1_u2_embedding(self):
        M = ga_as_u2(family_to_comodule(y_r_family(F3, 1)))
        base = exponential_degree(M)
        twisted = exponential_degree(frobenius_twist(M))
        assert base == 3
        assert twisted == 3 * base  # p times the raw degree, exactly

    def test_bound_random(self):
        rng = rng_from_seed(41)
        for _ in range(10):
            M = random_un_comodule(F3, 3, rng)
            assert exponential_degree(frobenius_twist(M)) <= 3 * exponential_degree(M)


class TestRelateInclusions:
    def test_u2_cases(self):
        for d in (2, 3, 4):
            assert relate_inclusions_check(UNContext(F3, 2), d, 1, 4)["ok"]

    def test_u3_case(self):
        assert relate_inclusions_check(UNContext(F5, 3), 4, 1, 4)["ok"]

    def test_precondition_rejected(self):
        with pytest.raises(ValueError):
            relate_inclusions_check(UNContext(F5, 3), 2, 1, 4)  # e(N-1) = 2 >= d

    def test_needs_small_n(self):
        with pytest.raises(ValueError):
            relate_inclusions_check(UNContext(F2, 3), 4, 1, 4)


class TestMockTrivial:
    def test_trivial_module(self):
        assert mock_trivial_check(trivial_comodule(F3, coalgebras.un_poly(3), 4))

    def test_natural_not_mock_trivial(self):
        assert not mock_trivial_check(natural_rep(UNContext(F3, 3)))

    def test_sums_and_subquotients_of_trivials(self):
        from expfilt.comodule import conjugate, direct_sum, quotient_by_subspace
        from expfilt.samplers import random_invertible

        rng = rng_from_seed(43)
        coalg = coalgebras.un_poly(3)
        for _ in range(10):
            M = direct_sum(
                [trivial_comodule(F3, coalg, rng.randrange(1, 3)) for _ in range(2)]
            )
            M = conjugate(M, random_invertible(F3, M.dim, rng))
            assert mock_trivial_check(M)
            S = Subspace.from_vectors(F3, M.dim, [[rng.randrange(3) for _ in range(M.dim)]])
            if 0 < S.dim < M.dim:
                assert mock_trivial_check(restrict_to_subspace(M, S))
                assert mock_trivial_check(quotient_by_subspace(M, S))

    def test_ga_family_route(self):
        from expfilt.ga import GaUFamily

        assert mock_trivial_check(GaUFamily(F3, 2, {}))
        assert not mock_trivial_check(y_r_family(F3, 1))
