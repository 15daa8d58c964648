"""One-parameter subgroups, the Theta operator, freeness/support verdicts,
pullback modules, and per-level kernel-freeness checks."""

import pytest

from expfilt import linalg
from expfilt.comodule import jordan_type, trivial_comodule
from expfilt import coalgebras
from expfilt.fpcomb import PrimeField
from expfilt.ga import (
    comodule_to_family,
    family_to_comodule,
    ga_one_param_theta,
    regular_comodule,
    y_r_family,
)
from expfilt.samplers import (
    enumerate_1psg_un,
    random_1psg_ga,
    random_1psg_un,
    random_ga_family,
    random_un_comodule,
    rng_from_seed,
)
from expfilt.support import (
    frobenius_injectivity_check,
    ga_psg,
    is_free_at,
    pullback_module,
    support_sample,
    theta_operator,
    un_psg,
    validate_1psg,
)
from expfilt.polyring import MultiPoly, parse_poly
from expfilt.un import UNContext, ga_as_u2, natural_rep
from test_comodule import matrix_comodule

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def unit(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


class TestValidate1psg:
    def test_single_matrix_always_ok(self):
        psi = un_psg(F3, 3, [unit(3, 0, 1)])
        assert validate_1psg(psi) == []

    def test_commuting_pair_ok(self):
        psi = un_psg(F3, 3, [unit(3, 0, 1), unit(3, 0, 2)])
        assert validate_1psg(psi) == []

    def test_noncommuting_pair_rejected(self):
        psi = un_psg(F3, 3, [unit(3, 0, 1), unit(3, 1, 2)])
        assert any("commute" in v for v in validate_1psg(psi))

    def test_non_nilpotent_rejected(self):
        psi = un_psg(F2, 3, [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]])
        assert any("nilpotent" in v for v in validate_1psg(psi))

    @pytest.mark.parametrize("B", [[[0, 0], [1, 0]], [[1, 1], [2, 2]]], ids=["lower", "full"])
    def test_not_strictly_upper_rejected(self, B):
        # p-nilpotent at p = 3, but exp_B is not a subgroup of U_2
        from expfilt.expdeg import NilpotentMatrix

        NilpotentMatrix(F3, 2, B)
        psi = un_psg(F3, 2, [B])
        assert validate_1psg(psi) == ["B_0 is not strictly upper triangular"]
        M = natural_rep(UNContext(F3, 2))
        for f in (theta_operator, pullback_module):
            with pytest.raises(ValueError, match="strictly upper triangular"):
                f(M, psi)

    def test_wrong_shape_rejected(self):
        psi = un_psg(F3, 3, [unit(3, 0, 1), unit(2, 0, 1)])
        assert validate_1psg(psi) == ["B_1 is not N x N"]
        with pytest.raises(ValueError, match="not N x N"):
            theta_operator(natural_rep(UNContext(F3, 3)), psi)


class TestTheta:
    def test_zero_subgroup(self):
        M = natural_rep(UNContext(F3, 3))
        psi = un_psg(F3, 3, [linalg.zeros(3, 3)])
        assert theta_operator(M, psi) == linalg.zeros(3, 3)

    def test_yr_matches_family_formula(self):
        fam = y_r_family(F3, 2)
        psi = ga_psg(F3, [1])
        assert theta_operator(fam, psi) == [[0, 0], [1, 0]]
        assert theta_operator(fam, psi) == ga_one_param_theta(fam, [1])

    def test_natural_rep_theta_is_b0(self):
        M = natural_rep(UNContext(F3, 3))
        B0 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        psi = un_psg(F3, 3, [B0])
        assert theta_operator(M, psi) == B0

    def test_higher_layers_vanish_on_low_degree_coefficients(self):
        # (exp_{B_1})_*(u_1) picks the T^p coefficient of a pullback whose
        # degree is at most p-1 on degree-1 matrix coefficients, hence 0.
        M = natural_rep(UNContext(F3, 3))
        psi = un_psg(F3, 3, [linalg.zeros(3, 3), unit(3, 0, 1)])
        assert theta_operator(M, psi) == linalg.zeros(3, 3)

    def test_higher_layers_act_on_high_degree_coefficients(self):
        # on a twisted module the s = 1 layer contributes: the coaction entry
        # x1_2^p pulls back to (b T)^p, whose T^p coefficient is b^p
        from expfilt.expdeg import frobenius_twist

        M = frobenius_twist(natural_rep(UNContext(F3, 2)))
        psi = un_psg(F3, 2, [linalg.zeros(2, 2), unit(2, 0, 1)])
        assert theta_operator(M, psi) == unit(2, 0, 1)

    def test_non_nilpotent_theta_is_a_corrupted_module(self):
        # not a comodule, and not validated: x1_2 above and below the
        # diagonal pulls back to T in both places, so Theta swaps e_1 and
        # e_2 and Theta^p = Theta at odd p
        for fld in (F3, F5):
            one = MultiPoly.one(fld)
            x = parse_poly("x1_2", fld)
            M = matrix_comodule(fld, coalgebras.un_poly(2), 2, [[one, x], [x, one]])
            psi = un_psg(fld, 2, [unit(2, 0, 1)])
            for call in (theta_operator, is_free_at, lambda M, psi: support_sample(M, [psi])):
                with pytest.raises(ValueError, match=r"Theta\^p != 0: corrupted input module"):
                    call(M, psi)

    def test_theta_p_power_vanishes(self):
        rng = rng_from_seed("theta-nilpotent")
        for _ in range(20):
            M = random_un_comodule(F3, 3, rng)
            psi = random_1psg_un(F3, 3, rng)
            theta = theta_operator(M, psi)
            assert linalg.is_zero_matrix(linalg.mat_pow(theta, 3, F3), F3)

    def test_scaling_covariance_height_one(self):
        M = natural_rep(UNContext(F5, 3))
        B = [[0, 2, 1], [0, 0, 3], [0, 0, 0]]
        base = theta_operator(M, un_psg(F5, 3, [B]))
        for alpha in range(5):
            scaled = theta_operator(
                M, un_psg(F5, 3, [linalg.mat_scale(B, alpha, F5)])
            )
            assert scaled == linalg.mat_scale(base, alpha, F5)

    def test_two_routes_agree_through_u2(self):
        rng = rng_from_seed("two-routes")
        for _ in range(30):
            fld = PrimeField((3, 5)[rng.randrange(2)])
            fam = random_ga_family(fld, rng.randrange(2, 4), rng, max_support=2)
            lam = rng.randrange(1, fld.p)
            theta_ga = theta_operator(fam, ga_psg(fld, [lam]))
            M2 = ga_as_u2(family_to_comodule(fam))
            B = [[0, lam], [0, 0]]
            theta_un = theta_operator(M2, un_psg(fld, 2, [B]))
            assert theta_ga == theta_un

    def test_ga_comodule_theta_matches_family_formula(self):
        # over k[Ga] Theta is the dual action of sum_s lambda_s^{p^s} T^{p^s}
        # on the comodule; the family route extracts u_s first
        rng = rng_from_seed("ga-comodule-theta")
        nonzero = 0
        for fld in (F2, F3, F5):
            modules = [regular_comodule(fld, D) for D in (1, 2, fld.p, fld.p**2, fld.p**2 + 3)]
            modules += [family_to_comodule(random_ga_family(fld, rng.randrange(2, 5), rng))
                        for _ in range(12)]
            for M in modules:
                for _ in range(6):
                    lams = [rng.randrange(fld.p) for _ in range(rng.randrange(0, 5))]
                    want = ga_one_param_theta(comodule_to_family(M), lams)
                    assert theta_operator(M, ga_psg(fld, lams)) == want, (M, lams)
                    nonzero += not linalg.is_zero_matrix(want, fld)
        assert nonzero > 50

    def test_mismatched_tags_rejected(self):
        fam = y_r_family(F3, 1)
        with pytest.raises(ValueError):
            theta_operator(fam, un_psg(F3, 2, [unit(2, 0, 1)]))
        M = natural_rep(UNContext(F3, 3))
        with pytest.raises(ValueError):
            theta_operator(M, ga_psg(F3, [1]))


class TestFreeness:
    def test_regular_module_free_at_unit(self):
        for p in (2, 3, 5):
            fld = PrimeField(p)
            M = regular_comodule(fld, p)
            free, jt = is_free_at(M, ga_psg(fld, [1]))
            assert free and jt.parts == (p,)

    def test_yr_never_free(self):
        for p in (3, 5):
            fld = PrimeField(p)
            fam = y_r_family(fld, 2)
            rng = rng_from_seed(f"yr-free-{p}")
            for _ in range(20):
                psi = random_1psg_ga(fld, rng)
                free, _ = is_free_at(fam, psi)
                assert not free

    def test_dimension_obstruction(self):
        M = trivial_comodule(F3, coalgebras.un_poly(3), 2)  # 2 not divisible by 3
        rng = rng_from_seed("dim-obstruction")
        for _ in range(10):
            psi = random_1psg_un(F3, 3, rng)
            free, _ = is_free_at(M, psi)
            assert not free

    def test_support_sample_shapes(self):
        fam = y_r_family(F3, 1)
        rng = rng_from_seed(0)
        psis = [random_1psg_ga(F3, rng) for _ in range(5)]
        out = support_sample(fam, psis)
        assert len(out) == 5
        assert all(v["in_support"] for v in out)


class TestPullback:
    def test_trivial_module(self):
        M = trivial_comodule(F3, coalgebras.un_poly(3), 3)
        rng = rng_from_seed("pullback-trivial")
        psi = random_1psg_un(F3, 3, rng)
        fam = pullback_module(M, psi)
        assert fam.is_trivial() and fam.dim == 3

    def test_natural_u2_along_e12(self):
        M = natural_rep(UNContext(F3, 2))
        fam = pullback_module(M, un_psg(F3, 2, [unit(2, 0, 1)]))
        # u_0(e_2) = e_1: the rank-one square-zero pattern of the Y-modules
        assert fam.u_mats == {0: [[0, 1], [0, 0]]}
        assert jordan_type(fam.u(0), F3).parts == (2,)

    def test_yr_pullback_heights(self):
        fam = y_r_family(F3, 2)
        back = pullback_module(fam, ga_psg(F3, [0, 1]))
        # psi(t) = t^3: u_s of the pullback shift accordingly
        assert not back.is_trivial()

    def test_mock_trivial_pullbacks_are_trivial(self):
        from expfilt.comodule import conjugate, direct_sum
        from expfilt.samplers import random_invertible

        rng = rng_from_seed("mock-pullbacks")
        coalg = coalgebras.un_poly(3)
        for _ in range(20):
            M = direct_sum(
                [trivial_comodule(F3, coalg, rng.randrange(1, 3)) for _ in range(2)]
            )
            M = conjugate(M, random_invertible(F3, M.dim, rng))
            psi = random_1psg_un(F3, 3, rng)
            assert pullback_module(M, psi).is_trivial()

    def test_pullback_respects_composition_with_theta(self):
        """u_0 of the pullback along a height-1 psi equals Theta."""
        rng = rng_from_seed("pullback-theta")
        for _ in range(10):
            M = random_un_comodule(F3, 3, rng)
            psi = random_1psg_un(F3, 3, rng, max_height=1)
            fam = pullback_module(M, psi)
            assert fam.u(0) == theta_operator(M, psi)


class TestFrobeniusInjectivity:
    def test_regular_piece_free_at_its_level(self):
        for p, r in ((2, 1), (2, 2), (3, 1)):
            fld = PrimeField(p)
            M = regular_comodule(fld, p**r)
            assert frobenius_injectivity_check(M, r).free

    def test_family_gets_the_verdict_of_its_comodule(self):
        rng = rng_from_seed("frobcheck-family")
        fams = [y_r_family(F3, 2), y_r_family(F2, 1)]
        fams += [random_ga_family(F3, rng.randrange(2, 5), rng) for _ in range(6)]
        for fam in fams:
            for r in (1, 2):
                want = frobenius_injectivity_check(family_to_comodule(fam), r)
                assert frobenius_injectivity_check(fam, r) == want

    def test_one_level_up_fails_by_dimension(self):
        M = regular_comodule(F3, 3)
        verdict = frobenius_injectivity_check(M, 2)
        assert not verdict.free
        assert verdict.dim_module == 3 and verdict.dim_dual_algebra == 9

    def test_u3_piece_not_free(self):
        from expfilt.un import degree_piece_comodule

        piece = degree_piece_comodule(UNContext(F2, 3), 2)
        verdict = frobenius_injectivity_check(piece, 1)
        assert not verdict.free
        assert verdict.dim_module == 4 and verdict.dim_dual_algebra == 8

    def test_small_module_never_free_at_high_level(self):
        """dim M < p^{rm} forces a dimension-witnessed failure."""
        M = natural_rep(UNContext(F2, 3))
        verdict = frobenius_injectivity_check(M, 1)
        assert not verdict.free
        assert verdict.dim_module < verdict.dim_dual_algebra

    def test_kind_then_guard_then_restriction(self):
        from expfilt.un import natural_rep_gl

        # the kind is checked before r >= 1, then p^(r*m), all before p^r is
        # formed by the restriction
        with pytest.raises(ValueError, match="k\\[Ga\\] or k\\[U_N\\]"):
            frobenius_injectivity_check(natural_rep_gl(F3, 2), 10**9)
        with pytest.raises(ValueError, match="p\\^\\(r\\*m\\): 2\\^3000000000 exceeds the desk-scale guard"):
            frobenius_injectivity_check(natural_rep(UNContext(F2, 3)), 10**9)
        with pytest.raises(ValueError, match="r must be >= 1"):
            frobenius_injectivity_check(regular_comodule(F3, 3), 0)
        # at the guard: 3^12 = dim of the dual algebra of U_3,(4)
        assert frobenius_injectivity_check(natural_rep(UNContext(F3, 3)), 4).dim_dual_algebra == 3**12


class TestSamplers:
    def test_enumerated_pool_sizes(self):
        singles = enumerate_1psg_un(F2, 3, 1)
        assert len(singles) == 6
        pairs = enumerate_1psg_un(F2, 3, 2)
        assert all(validate_1psg(psi) == [] for psi in pairs)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            enumerate_1psg_un(F5, 3, 1)

    @pytest.mark.parametrize("height", [0, -1])
    def test_height_below_1_rejected(self, height):
        # any height other than 1 used to fall into the pairs branch
        with pytest.raises(ValueError, match=f"height must be at least 1, got {height}"):
            enumerate_1psg_un(F2, 3, height)
        assert len(enumerate_1psg_un(F3, 3, 2)) == 297

    def test_random_tuples_commute(self):
        rng = rng_from_seed("tuples")
        for _ in range(20):
            psi = random_1psg_un(F3, 3, rng, max_height=3)
            assert validate_1psg(psi) == []

    def test_random_tuple_height_four_n4(self):
        rng = rng_from_seed("tall")
        psi = random_1psg_un(F5, 4, rng, max_height=4)
        assert validate_1psg(psi) == []
