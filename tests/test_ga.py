"""Divided-power families, coaction conversions, degree filtrations, generated
submodules, the carries basis, restriction, and the coalgebra splitting."""

import math
import time

import pytest

from expfilt import coalgebras, linalg
from expfilt.comodule import Comodule, restrict_frobenius, validate
from expfilt.fpcomb import PrimeField, binom_mod, digits
from expfilt.ga import (
    GaUFamily,
    carries_basis,
    comodule_to_family,
    degree_filtration_ga,
    derived_v,
    family_to_comodule,
    ga_one_param_theta,
    generated_submodule,
    regular_comodule,
    retract_iso_check,
    validate_family,
    y_r_family,
)
from expfilt.linalg import Subspace
from expfilt.polyring import MultiPoly, monomial, parse_poly
from expfilt.samplers import random_ga_family, rng_from_seed
from test_comodule import with_entries
from test_comodule_actions_differential import mat_vec

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


def v_on_poly(j: int, f: MultiPoly) -> MultiPoly:
    """v_j acting on a polynomial in T: sum_{n>=j} a_n C(n,j) T^{n-j}."""
    if not f.variables() <= {"T"}:
        raise ValueError("v_on_poly needs a univariate polynomial in T")
    fld = f.field
    terms = {}
    for mono, a in f.terms.items():
        n = mono[0][1] if mono else 0
        if n < j:
            continue
        c = a * binom_mod(n, j, fld) % fld.p
        if c:
            new = monomial({"T": n - j})
            terms[new] = (terms.get(new, 0) + c) % fld.p
    return MultiPoly(fld, terms)


def section_frobenius_ga(M: Comodule) -> Comodule:
    """Lift a k[T]/T^{p^r}-comodule along the splitting k[T]_{<p^r} -> k[T].

    The degree piece and the truncation have identical structure constants
    (see :func:`retract_iso_check`), so the same coaction entries define a
    comodule over k[Ga]; this inverts :func:`~expfilt.comodule.restrict_frobenius` on
    comodules whose entries have degree < p^r.
    """
    if M.coalgebra.kind != "GaTrunc":
        raise ValueError("section_frobenius_ga needs a comodule over a truncation of k[Ga]")
    return Comodule(M.field, coalgebras.ga_poly(), M.dim, M.acts)


class TestVOnPoly:
    def test_derivative(self):
        for n in (1, 2, 4):
            f = parse_poly(f"T^{n}", F5)
            assert v_on_poly(1, f) == parse_poly(f"{n}*T^{n - 1}", F5)

    def test_top_coefficient(self):
        for j in (0, 1, 3):
            f = parse_poly(f"T^{j}" if j else "1", F3)
            assert v_on_poly(j, f) == parse_poly("1", F3)

    def test_vanishing_by_exact_oracle(self):
        for p in (2, 3, 5):
            fld = PrimeField(p)
            assert math.comb(p, 1) % p == 0
            assert v_on_poly(1, parse_poly(f"T^{p}", fld)).is_zero()


class TestFamilyBasics:
    def test_invariants_checked(self):
        bad = GaUFamily(F3, 2, {0: [[0, 1], [0, 0]], 1: [[0, 0], [0, 1]]})
        assert any("u_1^p" in v for v in validate_family(bad))
        a = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        b = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
        noncomm = GaUFamily(F3, 3, {0: a, 1: b})
        assert any("commute" in v for v in validate_family(noncomm))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_misshapen_matrix_is_reported_not_raised(self, order):
        # a 1 x 1 u_0 in a 2-dim family: the shape violation comes back
        # before the commutation checks read u_0 as a 2 x 2 matrix
        mats = {0: [[0]], 1: [[0, 0], [1, 0]]}
        fam = GaUFamily(F3, 2, {s: mats[s] for s in order})
        assert validate_family(fam) == ["u_0 is not 2x2"]

    def test_derived_v_identity_and_generators(self):
        fam = y_r_family(F3, 2)
        assert derived_v(fam, 0) == linalg.identity(2)
        for s in range(3):
            assert derived_v(fam, 3**s) == fam.u(s)

    @pytest.mark.parametrize("p", [2, 3])
    def test_derived_v_matches_regular_module(self, p):
        """Divided-power products agree with the direct binomial matrices."""
        from expfilt.comodule import dual_action
        from expfilt.polyring import monomial

        fld = PrimeField(p)
        D = p * p
        M = regular_comodule(fld, D)
        fam = comodule_to_family(M)
        for j in range(D):
            direct = dual_action(M, {monomial({"T": j}) if j else (): 1})
            assert derived_v(fam, j) == direct


class TestConversions:
    def test_zero_family_gives_trivial_comodule(self):
        fam = GaUFamily(F3, 3, {})
        M = family_to_comodule(fam)
        assert all(
            str(M.coaction[j][i]) == ("1" if i == j else "0")
            for i in range(3)
            for j in range(3)
        )

    def test_y1_coaction_at_p3(self):
        M = family_to_comodule(y_r_family(F3, 1))
        assert M.coaction[1][0] == parse_poly("T + T^3", F3)
        assert M.coaction[0][0] == parse_poly("1", F3)
        assert M.coaction[1][1] == parse_poly("1", F3)
        assert M.coaction[0][1].is_zero()
        assert validate(M).ok

    def test_trivial_comodule_extracts_empty_family(self):
        from expfilt import coalgebras
        from expfilt.comodule import trivial_comodule

        fam = comodule_to_family(trivial_comodule(F3, coalgebras.ga_poly(), 3))
        assert fam.u_mats == {} and fam.dim == 3

    def test_regular_module_extracts_derivative_family(self):
        for p in (2, 3):
            fld = PrimeField(p)
            fam = comodule_to_family(regular_comodule(fld, p))
            assert sorted(fam.u_mats) == [0]
            u0 = fam.u(0)
            for n in range(p):
                for l in range(p):
                    assert u0[l][n] == (n % p if l == n - 1 else 0)

    def test_roundtrips_random(self):
        rng = rng_from_seed(13)
        for _ in range(50):
            fld = rng.choice([F2, F3, F5])
            fam = random_ga_family(fld, rng.randrange(2, 5), rng)
            M = family_to_comodule(fam)
            back = comodule_to_family(M)
            assert back.dim == fam.dim
            assert {s: m for s, m in back.u_mats.items()} == {
                s: m for s, m in fam.u_mats.items() if not linalg.is_zero_matrix(m, fld)
            }
            assert family_to_comodule(back).coaction == M.coaction

    def test_non_comodule_input_rejected(self):
        # not of divided-power shape
        M = with_entries(family_to_comodule(y_r_family(F3, 1)), {(1, 0): parse_poly("T^2", F3)})
        with pytest.raises(ValueError):
            comodule_to_family(M)

    @pytest.mark.parametrize(
        "corner, upper, missing",
        [("T^3", "T", 2), ("2*T^2 + 2*T^6", "T + T^3", 4)],
        ids=["u0-squared", "u0-times-u1"],
    )
    def test_missing_divided_power_rejected(self, corner, upper, missing):
        # both families are valid (u_0 = E01 + E12 and u_1 = E02, or
        # u_0 = u_1 = E01 + E12), but T^missing, whose coefficient should be
        # v_2 = u_0^2 / 2 or v_4 = u_0 u_1, does not occur at all
        M = with_entries(family_to_comodule(GaUFamily(F3, 3, {})), {
            (0, 1): parse_poly(upper, F3),
            (1, 2): parse_poly(upper, F3),
            (0, 2): parse_poly(corner, F3),
        })
        with pytest.raises(ValueError, match=rf"T\^{missing} disagrees"):
            comodule_to_family(M)

    def test_divided_power_above_the_top_degree_rejected(self):
        # T at (0,1) and (1,2) and nothing else: u_0 = E01 + E12 is a valid
        # family, but v_2 = u_0^2 / 2 = 2 E02 != 0 while the top T degree is
        # 1, so T^2 should occur and does not; validate rejects it too
        M = with_entries(family_to_comodule(GaUFamily(F3, 3, {})), {
            (0, 1): parse_poly("T", F3),
            (1, 2): parse_poly("T", F3),
        })
        assert "coassociativity violation at basis e_3" in validate(M).summary()
        with pytest.raises(ValueError, match=r"coefficient of T\^2 disagrees with the divided-power formula"):
            comodule_to_family(M)

    def test_invalid_family_rejected(self):
        a = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        b = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
        with pytest.raises(ValueError):
            family_to_comodule(GaUFamily(F3, 3, {0: a, 1: b}))


class TestDegreeFiltration:
    def test_trivial_module_full_at_any_d(self):
        from expfilt.comodule import trivial_comodule
        from expfilt import coalgebras

        M = trivial_comodule(F3, coalgebras.ga_poly(), 3)
        assert degree_filtration_ga(M, 1).is_full()

    def test_regular_module_pieces(self):
        fld = F3
        D = 7
        M = regular_comodule(fld, D)
        for d in range(1, D + 2):
            assert degree_filtration_ga(M, d) == span(fld, D, range(min(d, D)))

    def test_yr_pieces(self):
        for p, R in ((3, 1), (3, 2), (5, 1)):
            fld = PrimeField(p)
            M = family_to_comodule(y_r_family(fld, R))
            w_only = span(fld, 2, [1])
            assert degree_filtration_ga(M, 1) == w_only
            assert degree_filtration_ga(M, p**R) == w_only
            assert degree_filtration_ga(M, p**R + 1).is_full()

    def test_chain_monotone_and_exhausting(self):
        rng = rng_from_seed(17)
        for _ in range(20):
            fam = random_ga_family(F3, rng.randrange(2, 5), rng)
            M = family_to_comodule(fam)
            dmax = M.max_entry_degree() + 1
            prev = None
            for d in range(1, dmax + 1):
                S = degree_filtration_ga(M, d)
                if prev is not None:
                    assert S.contains_space(prev)
                prev = S
            assert prev.is_full()


class TestGeneratedSubmodule:
    def test_zero_generator(self):
        M = regular_comodule(F3, 4)
        assert generated_submodule(M, [[0, 0, 0, 0]]).dim == 0

    def test_orbit_of_top_power_matches_carries(self):
        for p in (2, 3, 5):
            fld = PrimeField(p)
            for n in (p, p + 1, 2 * p + 1):
                M = regular_comodule(fld, n + 1)
                vec = [0] * (n + 1)
                vec[n] = 1
                S = generated_submodule(M, [vec])
                assert sorted(S.pivots) == carries_basis(n, fld)

    def test_closure_under_all_dual_actions(self):
        from expfilt.comodule import action_matrices

        rng = rng_from_seed(19)
        for _ in range(20):
            fam = random_ga_family(F3, rng.randrange(2, 5), rng)
            M = family_to_comodule(fam)
            vec = [rng.randrange(3) for _ in range(M.dim)]
            S = generated_submodule(M, [vec])
            for A in action_matrices(M).values():
                for row in S.rows:
                    assert S.contains(mat_vec(A, list(row), F3))


class TestCarriesBasis:
    def test_zero(self):
        assert carries_basis(0, F5) == [0]

    def test_p_plus_one(self):
        for p in (2, 3, 5):
            assert carries_basis(p + 1, PrimeField(p)) == [0, 1, p, p + 1]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_generated_submodule_span(self, p):
        fld = PrimeField(p)
        for n in range(0, 121, 7):
            M = regular_comodule(fld, n + 1)
            vec = [0] * (n + 1)
            vec[n] = 1
            S = generated_submodule(M, [vec])
            assert sorted(S.pivots) == carries_basis(n, fld)

    def test_guard_rejects_before_enumerating(self):
        # 3^20 - 1 has twenty digits 2: 3^20 basis elements
        start = time.perf_counter()
        with pytest.raises(ValueError, match="desk-scale guard"):
            carries_basis(3**20 - 1, F3)
        assert time.perf_counter() - start < 1.0

    def test_cardinality(self):
        for p in (2, 3, 5):
            fld = PrimeField(p)
            for n in range(200):
                assert len(carries_basis(n, fld)) == math.prod(
                    d + 1 for d in digits(n, p)
                )

    def test_complement_bijection_iff_full_digits(self):
        """The digit-wise (p-1)-complement fixes the basis exactly when every
        digit of n is p-1 (where it agrees with m -> n-m)."""

        def complement(m, n, p):
            ds = digits(n, p)
            dm = digits(m, p) + [0] * (len(ds) - len(digits(m, p)))
            return sum((p - 1 - d) * p**i for i, d in enumerate(dm[: len(ds)]))

        for p in (2, 3, 5):
            fld = PrimeField(p)
            for n in range(1, 130):
                basis = carries_basis(n, fld)
                fixed = sorted(complement(m, n, p) for m in basis) == basis
                full = all(d == p - 1 for d in digits(n, p))
                assert fixed == full
                if full:
                    assert sorted(n - m for m in basis) == basis


class TestRestriction:
    def test_trivial_unchanged(self):
        from expfilt.comodule import trivial_comodule
        from expfilt import coalgebras

        M = trivial_comodule(F3, coalgebras.ga_poly(), 2)
        R = restrict_frobenius(M, 1)
        assert R.coalgebra == coalgebras.ga_trunc(1)
        assert R.coaction == M.coaction
        assert validate(R).ok

    def test_y1_truncates_to_single_term(self):
        M = restrict_frobenius(family_to_comodule(y_r_family(F3, 1)), 1)
        assert M.coaction[1][0] == parse_poly("T", F3)
        assert validate(M).ok

    def test_regular_piece_is_regular_truncated_comodule(self):
        for p, r in ((2, 1), (2, 2), (3, 1)):
            fld = PrimeField(p)
            M = restrict_frobenius(regular_comodule(fld, p**r), r)
            assert validate(M).ok
            # no truncation actually occurs: the piece maps isomorphically
            assert all(
                M.coaction[j][i] == regular_comodule(fld, p**r).coaction[j][i]
                for i in range(p**r)
                for j in range(p**r)
            )


class TestSection:
    def test_section_inverts_restriction(self):
        rng = rng_from_seed("section")
        for _ in range(10):
            fam = random_ga_family(F3, rng.randrange(2, 4), rng, max_support=1)
            M = family_to_comodule(fam)
            r = 1
            if M.max_entry_degree() < 3**r:
                R = restrict_frobenius(M, r)
                back = section_frobenius_ga(R)
                assert back.coaction == M.coaction
                assert validate(back).ok

    def test_restriction_inverts_section(self):
        from expfilt.ga import regular_trunc_comodule

        M = regular_trunc_comodule(F3, 1)
        lifted = section_frobenius_ga(M)
        assert validate(lifted).ok
        assert restrict_frobenius(lifted, 1).coaction == M.coaction

    def test_needs_truncated_input(self):
        with pytest.raises(ValueError):
            section_frobenius_ga(regular_comodule(F3, 3))


class TestRetract:
    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_structure_constants_match(self, p, r):
        assert retract_iso_check(r, PrimeField(p))["ok"]

    def test_shifted_correspondence_fails(self):
        q = 4
        res = retract_iso_check(2, F2, correspondence=lambda k: (k + 1) % q)
        assert not res["ok"]


class TestOneParamTheta:
    def test_zero_lambdas(self):
        fam = y_r_family(F3, 2)
        assert ga_one_param_theta(fam, [0, 0, 0]) == linalg.zeros(2, 2)

    def test_yr_unit_lambda(self):
        fam = y_r_family(F3, 1)
        assert ga_one_param_theta(fam, [1]) == [[0, 0], [1, 0]]

    def test_scaling_covariance_height_one(self):
        fam = y_r_family(F5, 2)
        for alpha in range(5):
            lhs = ga_one_param_theta(fam, [alpha])
            rhs = linalg.mat_scale(ga_one_param_theta(fam, [1]), alpha, F5)
            assert lhs == rhs
