"""The U_N coordinate coalgebra: coproducts, degree pieces, kernel numerics,
degree filtration, and the standard comodules."""

import math
import random
import time
from collections import defaultdict

import pytest

from expfilt import coalgebras
from expfilt.comodule import Comodule, linear_image, validate
from expfilt.fpcomb import PrimeField
from expfilt.linalg import Subspace
from expfilt.polyring import MultiPoly, monomial, monomial_degree, parse_poly
from expfilt.un import (
    UNContext,
    degree_filtration_un,
    degree_piece,
    degree_piece_comodule,
    frobenius_kernel_dims,
    ga_as_u2,
    natural_rep,
    natural_rep_gl,
    restrict_mat_to_un,
    sym_square_rep,
    sym_square_rep_gl,
)
from test_coproduct_differential import pair_product
from test_polyring import eval_at

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def span(field, dim, indices):
    vecs = []
    for i in indices:
        v = [0] * dim
        v[i] = 1
        vecs.append(v)
    return Subspace.from_vectors(field, dim, vecs)


def coproduct(ctx: UNContext, f: MultiPoly) -> dict:
    return coalgebras.coproduct(ctx.coalgebra, ctx.field, f)


def pairs(field, *texts) -> dict:
    """{(left, right): 1} from (left, right) texts of single monomials."""
    def mono(text):
        (m,) = parse_poly(text, field).terms
        return m

    return {(mono(a), mono(b)): 1 for a, b in texts}


def degree_piece_count(ctx: UNContext, d: int) -> int:
    """C(m + d - 1, m), the number of monomials of degree < d in m variables."""
    return math.comb(ctx.m + d - 1, ctx.m)


def leg_degrees(delta: dict) -> tuple:
    """The largest total degree of the left legs and of the right legs."""
    return (
        max((monomial_degree(a) for a, _ in delta), default=0),
        max((monomial_degree(b) for _, b in delta), default=0),
    )


def coassoc_threefold(coalg, field, f):
    """(Delta (x) 1) Delta(f) == (1 (x) Delta) Delta(f), as triple dicts."""
    p = field.p

    def delta(m):
        return coalgebras.coproduct(coalg, field, MultiPoly.from_monomial(field, m))

    lhs, rhs = defaultdict(int), defaultdict(int)
    for (a, b), c in coalgebras.coproduct(coalg, field, f).items():
        for (a1, a2), c1 in delta(a).items():
            lhs[a1, a2, b] += c * c1
        for (b1, b2), c2 in delta(b).items():
            rhs[a, b1, b2] += c * c2
    lhs = {key: c % p for key, c in lhs.items() if c % p}
    rhs = {key: c % p for key, c in rhs.items() if c % p}
    return lhs == rhs


class TestCoproduct:
    def test_adjacent_entry_is_primitive(self):
        delta = coproduct(UNContext(F3, 3), parse_poly("x1_2", F3))
        assert delta == pairs(F3, ("x1_2", "1"), ("1", "x1_2"))

    def test_corner_entry_has_middle_term(self):
        delta = coproduct(UNContext(F3, 3), parse_poly("x1_3", F3))
        assert delta == pairs(F3, ("x1_3", "1"), ("x1_2", "x2_3"), ("1", "x1_3"))

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            coproduct(UNContext(F3, 3), MultiPoly.variable(F3, "x2_2"))

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_coassociativity_on_generators(self, N):
        ctx = UNContext(F3, N)
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                f = MultiPoly.variable(F3, f"x{i}_{j}")
                assert coassoc_threefold(ctx.coalgebra, F3, f)

    def test_coassociativity_on_products(self):
        ctx = UNContext(F3, 3)
        for text in ("x1_2*x2_3", "x1_3^2", "x1_2 + 2*x1_3*x2_3"):
            assert coassoc_threefold(ctx.coalgebra, F3, parse_poly(text, F3))

    def test_counit_law(self):
        ctx = UNContext(F3, 3)
        point = coalgebras.identity_point(ctx.coalgebra)
        for text in ("x1_3", "x1_2*x2_3 + 2*x1_3"):
            f = parse_poly(text, F3)
            # (1 (x) counit): evaluate the right legs at the identity
            terms = defaultdict(int)
            for (a, b), c in coproduct(ctx, f).items():
                terms[a] += c * eval_at(MultiPoly.from_monomial(F3, b), point)
            assert MultiPoly(F3, terms) == f

    def test_unit_maps_to_unit_tensor(self):
        assert coproduct(UNContext(F3, 3), MultiPoly.one(F3)) == {((), ()): 1}

    def test_multiplicative_on_product(self):
        ctx = UNContext(F3, 3)
        f = parse_poly("x1_2", F3)
        g = parse_poly("x2_3", F3)
        assert coproduct(ctx, f * g) == pair_product(coproduct(ctx, f), coproduct(ctx, g), 3)

    def test_leg_degree_bound_random(self):
        rng = random.Random(5)
        ctx = UNContext(F3, 3)
        names = ctx.variables()
        for _ in range(100):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                mono = monomial(
                    {v: rng.randrange(3) for v in rng.sample(names, rng.randrange(1, 3))}
                )
                terms[mono] = rng.randrange(1, 3)
            f = MultiPoly(F3, terms)
            left, right = leg_degrees(coproduct(ctx, f))
            assert left <= f.total_degree()
            assert right <= f.total_degree()

    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError):
            coproduct(UNContext(F3, 3), parse_poly("x1_4", F3))


class TestDegreePiece:
    def test_d_one(self):
        assert degree_piece(UNContext(F3, 3), 1) == [()]

    def test_n3_d2(self):
        piece = degree_piece(UNContext(F3, 3), 2)
        assert len(piece) == 4
        assert piece[0] == ()
        names = {m[0][0] for m in piece[1:]}
        assert names == {"x1_2", "x1_3", "x2_3"}

    @pytest.mark.parametrize("N,d", [(2, 4), (3, 3), (4, 2)])
    def test_count_formula(self, N, d):
        ctx = UNContext(F3, N)
        assert len(degree_piece(ctx, d)) == degree_piece_count(ctx, d)

    def test_count_recurrence(self):
        ctx = UNContext(F3, 3)
        m = ctx.m
        for d in range(2, 7):
            assert degree_piece_count(ctx, d) == math.comb(m + d - 2, m) + math.comb(
                m + d - 2, m - 1
            )

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_subcoalgebra_up_to_degree_five(self, N):
        ctx = UNContext(F2, N)
        for d in range(1, 6):
            for mono in degree_piece(ctx, d):
                left, right = leg_degrees(coproduct(ctx, MultiPoly.from_monomial(F2, mono)))
                assert left < d and right < d


class TestKernelDims:
    @pytest.mark.parametrize("p", [2, 3])
    def test_n3_r1(self, p):
        rec = frobenius_kernel_dims(UNContext(PrimeField(p), 3), 1)
        assert rec.dim_kernel == p**3 == rec.dim_kernel_formula
        assert rec.injective_check and rec.surjective_check

    def test_enumerated_piece_and_discrepancy(self):
        rec = frobenius_kernel_dims(UNContext(F2, 3), 1)
        assert rec.dim_piece_strict == 4
        assert rec.dim_piece_formula_claimed == 10
        assert rec.formula_discrepancy

    def test_divisibility_of_claimed_formula(self):
        # m = 1 < p^r: the closed form C(1 + p^r, p^r) = 1 + p^r is prime to p
        rec = frobenius_kernel_dims(UNContext(F5, 2), 1)
        assert rec.m == 1
        assert rec.claimed_formula_p_free
        assert rec.claimed_formula_not_pth_power

    def test_guard(self):
        with pytest.raises(ValueError):
            frobenius_kernel_dims(UNContext(F5, 5), 2)


class TestStandardComodules:
    def test_natural_u2_column(self):
        M = natural_rep(UNContext(F3, 2))
        assert M.coaction[0][1] == parse_poly("x1_2", F3)
        assert M.coaction[1][1] == parse_poly("1", F3)

    def test_natural_u3_last_column(self):
        M = natural_rep(UNContext(F3, 3))
        assert M.coaction[2][2] == parse_poly("1", F3)
        assert M.coaction[1][2] == parse_poly("x2_3", F3)
        assert M.coaction[0][2] == parse_poly("x1_3", F3)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_natural_validates(self, N):
        assert validate(natural_rep(UNContext(F3, N))).ok

    def test_sym_square_u2_entries(self):
        M = sym_square_rep(UNContext(F3, 2))
        # basis order: e1e1, e1e2, e2e2
        assert M.coaction[0][0] == parse_poly("1", F3)
        col = [str(M.coaction[j][2]) for j in range(3)]
        assert col == ["x1_2^2", "2*x1_2", "1"]

    @pytest.mark.parametrize("N", [2, 3])
    def test_sym_square_validates(self, N):
        assert validate(sym_square_rep(UNContext(F3, N))).ok

    def test_sym_square_u2_filtration_degree(self):
        M = sym_square_rep(UNContext(F3, 2))
        assert degree_filtration_un(M, 3).is_full()
        assert not degree_filtration_un(M, 2).is_full()

    def test_degree_piece_comodule_validates(self):
        for p, N, d in ((2, 3, 2), (3, 3, 2), (3, 2, 3)):
            M = degree_piece_comodule(UNContext(PrimeField(p), N), d)
            assert validate(M).ok

    def test_gl_restriction_matches_direct(self):
        for N in (2, 3):
            ctx = UNContext(F3, N)
            assert restrict_mat_to_un(natural_rep_gl(F3, N)).coaction == natural_rep(ctx).coaction
            assert (
                restrict_mat_to_un(sym_square_rep_gl(F3, N)).coaction
                == sym_square_rep(ctx).coaction
            )

    def test_gl_comodules_validate(self):
        assert validate(natural_rep_gl(F3, 3)).ok
        assert validate(sym_square_rep_gl(F3, 2)).ok


class TestDegreeFiltration:
    def test_natural_u3_pieces(self):
        M = natural_rep(UNContext(F3, 3))
        assert degree_filtration_un(M, 1) == span(F3, 3, [0])
        assert degree_filtration_un(M, 2).is_full()

    def test_two_route_agreement(self):
        """Coideal preimage equals the joint kernel of the high-degree duals."""
        from expfilt import linalg
        from expfilt.comodule import action_matrices

        rng = random.Random(9)
        from expfilt.samplers import random_un_comodule

        for _ in range(15):
            M = random_un_comodule(F3, 3, rng)
            for d in (1, 2):
                direct = degree_filtration_un(M, d)
                rows = []
                for mono, A in action_matrices(M).items():
                    if sum(e for _, e in mono) >= d:
                        rows.extend(A)
                other = linalg.kernel_of(rows, M.dim, F3)
                assert direct == other

    def test_ga_as_u2_matches_ga_filtration(self):
        from expfilt.ga import degree_filtration_ga, family_to_comodule, y_r_family

        fam = y_r_family(F3, 1)
        M = family_to_comodule(fam)
        M2 = ga_as_u2(M)
        assert validate(M2).ok
        for d in (1, 2, 3, 4):
            assert degree_filtration_ga(M, d) == degree_filtration_un(M2, d)


# -- the substitute oracle for restrictions -------------------------------------


def restrict_along(M, substitution: dict, target):
    """Push the coaction through a coalgebra map given on generators.

    ``substitution`` sends each generator of M's coalgebra to a ``MultiPoly``
    in the (untruncated) target coalgebra.  The map law
    (sigma (x) sigma)(Delta_source(v)) = Delta_target(sigma(v)) is checked on
    every generator, and each monomial mu acts through
    ``MultiPoly.substitute``: the image of f_{ji} is sum_mu A_mu[j][i] sigma(mu).
    """
    fld = M.field
    p = fld.p
    src = M.coalgebra
    gens = coalgebras.generator_vars(src)
    missing = set(gens) - set(substitution)
    if missing:
        raise ValueError(f"substitution misses generator(s) {sorted(missing)}")
    for v, img in substitution.items():
        if not coalgebras.is_member(target, fld, img):
            raise ValueError(f"image of {v} is not in {target}")

    def image(mu):
        return MultiPoly.from_monomial(fld, mu).substitute(substitution)

    for v in gens:
        lhs = defaultdict(int)
        for (left, right), c in coalgebras.coproduct(src, fld, MultiPoly.variable(fld, v)).items():
            for ml, cl in image(left).terms.items():
                for mr, cr in image(right).terms.items():
                    lhs[ml, mr] += c * cl * cr
        lhs = {key: c % p for key, c in lhs.items() if c % p}
        if lhs != coalgebras.coproduct(target, fld, substitution[v]):
            raise ValueError(f"substitution is not a coalgebra map at {v}")
    images = {mu: image(mu).terms for mu in M.acts}
    return Comodule(fld, target, M.dim, linear_image(M.acts, images, p))


def mat_restriction_map(field: PrimeField, N: int) -> dict:
    """x_{i,j} -> x_{i,j} (i<j), 1 (i=j), 0 (i>j): restriction to U_N."""
    subs = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            v = f"x{i}_{j}"
            if i < j:
                subs[v] = MultiPoly.variable(field, v)
            else:
                subs[v] = MultiPoly.constant(field, int(i == j))
    return subs


def _relabelling_pool():
    """(label, module): GL_N modules for restrict_mat_to_un, Ga modules for ga_as_u2."""
    from expfilt.ga import family_to_comodule, y_r_family
    from expfilt.samplers import random_ga_family

    out = []
    for p in (2, 3, 5):
        fld = PrimeField(p)
        for N in (2, 3, 4):
            out.append((f"natural GL_{N} p={p}", natural_rep_gl(fld, N)))
            out.append((f"Sym^2 GL_{N} p={p}", sym_square_rep_gl(fld, N)))
        for R in range(1, 5):
            out.append((f"y_{R} p={p}", family_to_comodule(y_r_family(fld, R))))
        rng = random.Random(f"relabel/{p}")
        for k in range(20):
            fam = random_ga_family(fld, rng.randrange(2, 5), rng)
            out.append((f"random Ga family {k} p={p}", family_to_comodule(fam)))
    return out


class TestRelabellingRestrictions:
    def test_relabellings_match_the_substitute_route(self):
        pool = _relabelling_pool()
        assert len(pool) == 90
        for label, M in pool:
            if M.coalgebra.kind == "MatPoly":
                N = M.coalgebra.N
                got = restrict_mat_to_un(M)
                want = restrict_along(M, mat_restriction_map(M.field, N), coalgebras.un_poly(N))
            else:
                got = ga_as_u2(M)
                want = restrict_along(M, {"T": MultiPoly.variable(M.field, "x1_2")},
                                      coalgebras.un_poly(2))
            assert got == want, label
            assert validate(got).ok, label

    def test_foreign_variables_rejected(self):
        acts = {(): [(0, 0, 1)], (("x1_2", 1),): [(0, 0, 1)]}
        with pytest.raises(ValueError, match="foreign"):
            ga_as_u2(Comodule(F3, coalgebras.ga_poly(), 1, acts))
        acts = {(("T", 1),): [(0, 0, 1)]}
        with pytest.raises(ValueError, match="foreign"):
            restrict_mat_to_un(Comodule(F3, coalgebras.mat_poly(2), 1, acts))


class TestLinearSubgroupRestriction:
    """Restriction along a 1-parameter subgroup is ``pullback_module``; the
    substitute route along the same map of coordinate rings is its oracle."""

    @staticmethod
    def _modules():
        ctx = UNContext(F3, 3)
        return [("natural", natural_rep(ctx)), ("Sym^2", sym_square_rep(ctx))]

    def test_center_of_u3(self):
        """The center embedding x1_3 -> T, others -> 0: psi = exp(T E13)."""
        from expfilt.ga import family_to_comodule
        from expfilt.support import pullback_module, un_psg

        subs = {
            "x1_2": MultiPoly.zero(F3),
            "x2_3": MultiPoly.zero(F3),
            "x1_3": parse_poly("T", F3),
        }
        psi = un_psg(F3, 3, [[[0, 0, 1], [0, 0, 0], [0, 0, 0]]])
        for label, M in self._modules():
            R = restrict_along(M, subs, coalgebras.ga_poly())
            assert validate(R).ok, label
            assert family_to_comodule(pullback_module(M, psi)) == R, label
        R = restrict_along(natural_rep(UNContext(F3, 3)), subs, coalgebras.ga_poly())
        assert R.coaction[0][2] == parse_poly("T", F3)

    def test_diagonal_one_parameter_subgroup(self):
        """x1_2, x2_3 -> T and x1_3 -> T^2/2: the exponential of the regular
        nilpotent direction E12 + E23 (needs p > 2)."""
        from expfilt.ga import family_to_comodule
        from expfilt.support import pullback_module, un_psg

        inv2 = F3.inv(2)
        subs = {
            "x1_2": parse_poly("T", F3),
            "x2_3": parse_poly("T", F3),
            "x1_3": parse_poly(f"{inv2}*T^2", F3),
        }
        psi = un_psg(F3, 3, [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]])
        for label, M in self._modules():
            R = restrict_along(M, subs, coalgebras.ga_poly())
            assert validate(R).ok, label
            assert family_to_comodule(pullback_module(M, psi)) == R, label

    def test_non_coalgebra_map_rejected(self):
        M = natural_rep(UNContext(F3, 3))
        subs = {
            "x1_2": MultiPoly.zero(F3),
            "x2_3": MultiPoly.zero(F3),
            "x1_3": parse_poly("T^2", F3),  # Delta(T^2) has a cross term
        }
        with pytest.raises(ValueError):
            restrict_along(M, subs, coalgebras.ga_poly())

    def test_high_frobenius_twist_along_t_plus_t_cubed_is_fast(self):
        """Y_1 (p=3) twisted 19 times, restricted along T -> T + T^3.

        The substitute route expands (T + T^3)^(3^20) by binary powering and
        runs for seconds from the 9th twist on; the pullback expands it by
        base-p digits.  The twisted module is T^(3^19) + T^(3^20) in the
        corner, so the restriction is T^(3^19) + 2 T^(3^20) + T^(3^21).
        """
        from expfilt.expdeg import frobenius_twist
        from expfilt.ga import family_to_comodule, y_r_family
        from expfilt.support import ga_psg, pullback_module

        psi = ga_psg(F3, [1, 1])
        M = family_to_comodule(y_r_family(F3, 1))
        for _ in range(2):
            M = frobenius_twist(M)
        subs = {"T": parse_poly("T + T^3", F3)}
        assert family_to_comodule(pullback_module(M, psi)) == restrict_along(
            M, subs, coalgebras.ga_poly())
        for _ in range(17):
            M = frobenius_twist(M)
        start = time.perf_counter()
        fam = pullback_module(M, psi)
        assert time.perf_counter() - start < 1.0
        e21 = [[0, 0], [1, 0]]
        assert fam.u_mats == {19: e21, 20: [[0, 0], [2, 0]], 21: e21}
