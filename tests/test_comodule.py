"""Comodule laws, dual actions, coideal preimages, radical quotients, freeness,
and Jordan types."""

import random
from collections import defaultdict

import pytest

from expfilt import coalgebras, linalg
from expfilt.coalgebras import coproduct, ga_trunc
from expfilt.comodule import (
    Comodule,
    coideal_preimage,
    conjugate,
    direct_sum,
    degree_below,
    degree_filtration,
    dual_action,
    is_coaction_stable,
    jordan_type,
    linear_image,
    local_freeness,
    quotient_by_subspace,
    radical_quotient_dim,
    restrict_frobenius,
    restrict_to_subspace,
    row_kernel,
    trivial_comodule,
    validate,
)
from expfilt.fpcomb import PrimeField, binom_mod
from expfilt.ga import (
    regular_comodule,
    regular_trunc_comodule,
    y_r_family,
    family_to_comodule,
)
from expfilt.linalg import Subspace
from expfilt.polyring import MultiPoly, monomial, parse_poly
from expfilt.un import UNContext, natural_rep

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def convolve(coalg, field, phi: dict, psi: dict, domain) -> dict:
    """Convolution (phi * psi)(c) = sum phi(c_(1)) psi(c_(2)) on given monomials.

    Functionals are {monomial: scalar} maps; the result is supported on
    ``domain``.
    """
    p = field.p
    out = {}
    for mono in domain:
        delta = coproduct(coalg, field, MultiPoly.from_monomial(field, mono))
        total = sum(c * phi.get(a, 0) * psi.get(b, 0) for (a, b), c in delta.items()) % p
        if total:
            out[mono] = total
    return out


def matrix_comodule(field, coalgebra, dim, matrix) -> Comodule:
    """The comodule whose coaction matrix has entries matrix[j][i] = f_{ji}.

    The oracle for every loader of an action table: each term c mu of
    f_{ji}, in matrix order, files (j, i, c) under mu.
    """
    acts = defaultdict(list)
    for j, row in enumerate(matrix):
        for i, f in enumerate(row):
            for m, c in f.terms.items():
                acts[m].append((j, i, c))
    return Comodule(field, coalgebra, dim, dict(acts))


def with_entries(M, entries):
    """M with the coaction entries {(j, i): f} replaced, built from the matrix."""
    matrix = [list(row) for row in M.coaction]
    for (j, i), f in entries.items():
        matrix[j][i] = f
    return matrix_comodule(M.field, M.coalgebra, M.dim, matrix)


def span(field, dim, indices):
    vecs = []
    for i in indices:
        v = [0] * dim
        v[i] = 1
        vecs.append(v)
    return Subspace.from_vectors(field, dim, vecs)


class TestValidate:
    def test_trivial_module_ok(self):
        assert validate(trivial_comodule(F3, coalgebras.un_poly(3), 4)).ok

    def test_natural_u3_ok(self):
        assert validate(natural_rep(UNContext(F3, 3))).ok

    def test_corrupted_counit_pinpointed(self):
        M = with_entries(natural_rep(UNContext(F3, 3)), {(0, 1): parse_poly("x1_2 + 1", F3)})
        rep = validate(M)
        assert not rep.ok
        assert any(v["law"] == "counit" and v["index"] == 1 for v in rep.violations)

    def test_broken_coassociativity_detected(self):
        # x1_3 -> x2_3 keeps the counit but breaks coassociativity
        M = with_entries(natural_rep(UNContext(F3, 3)), {(0, 2): parse_poly("x2_3", F3)})
        rep = validate(M)
        assert not rep.ok
        assert any(v["law"] == "coassociativity" for v in rep.violations)

    def test_membership_enforced(self):
        # T^3 = 0 in the truncation
        M = with_entries(trivial_comodule(F3, ga_trunc(1), 1), {(0, 0): parse_poly("1 + T^3", F3)})
        rep = validate(M)
        assert not rep.ok
        assert rep.violations[0]["law"] == "membership"


class TestStoredForm:
    def test_coaction_view_is_read_only(self):
        M = natural_rep(UNContext(F3, 3))
        with pytest.raises(TypeError):
            M.coaction[0][1] = parse_poly("x1_2 + 1", F3)
        assert M.coaction[0][1] == parse_poly("x1_2", F3)

    def test_builders_keep_the_stored_form(self):
        # every builder that writes the table directly gives the table the
        # matrix oracle reads off its view
        from test_io_cli import _golden_modules

        for label, M in _golden_modules().items():
            assert matrix_comodule(M.field, M.coalgebra, M.dim, M.coaction) == M, label

    def test_entry_order_is_not_significant(self):
        # column-major entries split the rows of each A_mu: the module, its
        # verdict, coideal preimages and radical quotient stay the same
        from expfilt.samplers import random_invertible
        from expfilt.un import sym_square_rep

        ctx = UNContext(F3, 3)
        S = sym_square_rep(ctx)
        M = conjugate(direct_sum([S, natural_rep(ctx)]), random_invertible(F3, 9, random.Random(3)))
        for M in (M, restrict_frobenius(M, 1)):
            C = Comodule(M.field, M.coalgebra, M.dim, {
                m: sorted(act, key=lambda e: (e[1], e[0])) for m, act in M.acts.items()
            })
            assert C == M and validate(C).ok
            assert C.coaction == M.coaction
            for d in (1, 2, 3):
                below = degree_below(M.coalgebra, d)
                assert coideal_preimage(C, below) == coideal_preimage(M, below)
            if M.coalgebra.is_truncated():
                assert radical_quotient_dim(C) == radical_quotient_dim(M)


class TestDualAction:
    def test_counit_functional_acts_as_identity(self):
        M = natural_rep(UNContext(F3, 3))
        phi = {(): 1}  # dual to the identity monomial
        assert dual_action(M, phi) == linalg.identity(3)

    def test_derivative_rule_on_regular_module(self):
        for p in (2, 3, 5):
            fld = PrimeField(p)
            M = regular_comodule(fld, p)
            v1 = dual_action(M, {monomial({"T": 1}): 1})
            for n in range(p):
                for l in range(p):
                    assert v1[l][n] == (n % p if l == n - 1 else 0)

    @pytest.mark.parametrize("p", [2, 3])
    def test_vj_matrix_entries_are_binomials(self, p):
        fld = PrimeField(p)
        D = p * p
        M = regular_comodule(fld, D)
        for j in range(D):
            A = dual_action(M, {monomial({"T": j}): 1})
            for n in range(D):
                for l in range(D):
                    want = binom_mod(n, j, fld) if l == n - j else 0
                    assert A[l][n] == want

    def test_foreign_monomial_rejected(self):
        M = natural_rep(UNContext(F3, 3))
        with pytest.raises(ValueError):
            dual_action(M, {monomial({"T": 1}): 1})

    def test_convolution_compatibility(self):
        """A_phi A_psi = A_{phi * psi} over the rank-2 truncated coalgebra."""
        rng = random.Random(7)
        fld = F3
        M = regular_trunc_comodule(fld, 2)
        monos = [monomial({"T": k}) if k else () for k in range(9)]
        for _ in range(50):
            phi = {m: rng.randrange(3) for m in rng.sample(monos, 4)}
            psi = {m: rng.randrange(3) for m in rng.sample(monos, 4)}
            conv = convolve(ga_trunc(2), fld, phi, psi, monos)
            lhs = linalg.mat_mul(dual_action(M, phi), dual_action(M, psi), fld)
            rhs = dual_action(M, conv)
            assert lhs == rhs


class TestLinearImageAndRowKernel:
    def test_image_is_dual_action_key_by_key(self):
        """sum_mu images[mu] A_mu at each key is the action of {mu: images[mu][key]}."""
        rng = random.Random(13)
        M = direct_sum([natural_rep(UNContext(F5, 3)), trivial_comodule(F5, coalgebras.un_poly(3), 1)])
        M = conjugate(M, [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, 4], [2, 0, 0, 1]])
        images = {m: {k: rng.randrange(1, 9) for k in rng.sample(range(4), 2)} for m in M.acts}
        got = linear_image(M.acts, images, 5)
        for key in range(4):
            dense = linalg.zeros(M.dim, M.dim)
            for j, i, c in got.get(key, ()):
                assert 0 < c < 5
                dense[j][i] = c
            phi = {m: terms[key] for m, terms in images.items() if key in terms}
            assert dense == dual_action(M, phi)
        assert all(got.values())

    def test_vanishing_sums_drop_entries_and_keys(self):
        acts = {"a": [(0, 0, 1), (1, 0, 2)], "b": [(0, 0, 2)]}
        assert linear_image(acts, {"a": {"k": 1}, "b": {"k": 1}}, 3) == {"k": [(1, 0, 2)]}
        assert linear_image(acts, {"a": {"z": 3}}, 3) == {}
        assert linear_image(acts, {}, 3) == {}

    def test_row_kernel_matches_dense_kernel(self, monkeypatch):
        """The rows are grouped by j, each line kept once; the kernel is the dense one."""
        passed = []
        kernel_of = linalg.kernel_of

        def spy(rows, ncols, field):
            passed.append(rows)
            return kernel_of(rows, ncols, field)

        monkeypatch.setattr(linalg, "kernel_of", spy)
        rng = random.Random(29)
        n = 6
        for _ in range(40):
            tables, dense = [], []
            for _ in range(rng.randrange(0, 4)):
                table = []
                for j in rng.sample(range(4), rng.randrange(1, 4)):
                    row = {i: rng.randrange(1, 5) for i in rng.sample(range(n), rng.randrange(1, 3))}
                    dense.append([row.get(i, 0) for i in range(n)])
                    table.extend((j, i, c) for i, c in row.items())
                    table.extend((j + 4, i, 2 * c % 5) for i, c in row.items())  # the same line
                tables.append(table)
            assert row_kernel(tables, n, F5) == kernel_of(dense, n, F5)
            lines = {tuple(c * pow(next(x for x in r if x), 3, 5) % 5 for c in r) for r in dense}
            assert sorted(map(tuple, passed[-1])) == sorted(lines)


class TestCoidealPreimage:
    def test_full_ambient_gives_everything(self):
        M = natural_rep(UNContext(F3, 3))
        assert coideal_preimage(M, lambda m: True).is_full()

    def test_span_of_one_gives_invariants(self):
        M = natural_rep(UNContext(F3, 3))
        assert coideal_preimage(M, lambda m: m == ()) == span(F3, 3, [0])

    def test_monotone_in_B(self):
        fld = F3
        M = regular_comodule(fld, 7)
        small = degree_below(M.coalgebra, 2)
        large = degree_below(M.coalgebra, 5)
        S1 = coideal_preimage(M, small)
        S2 = coideal_preimage(M, large)
        assert S2.contains_space(S1)

    def test_idempotent_via_restriction(self):
        fld = F3
        M = regular_comodule(fld, 7)
        S = coideal_preimage(M, degree_below(M.coalgebra, 3))
        sub = restrict_to_subspace(M, S)
        again = coideal_preimage(sub, degree_below(M.coalgebra, 3))
        assert again.is_full()

    def test_degree_filtration_rejects_truncated_kinds_and_d_below_1(self):
        for M in (regular_comodule(F3, 7), natural_rep(UNContext(F3, 3))):
            assert degree_filtration(M, 2) == coideal_preimage(M, degree_below(M.coalgebra, 2))
            for d in (0, -1):
                with pytest.raises(ValueError, match="d must be >= 1"):
                    degree_filtration(M, d)
            trunc = restrict_frobenius(M, 1)
            with pytest.raises(ValueError, match=f"or k\\[U_N\\], not {trunc.coalgebra.kind}$"):
                degree_filtration(trunc, 1)


class TestSubQuotient:
    def test_restrict_preserves_laws(self):
        M = natural_rep(UNContext(F3, 3))
        S = span(F3, 3, [0, 1])
        sub = restrict_to_subspace(M, S)
        assert validate(sub).ok and sub.dim == 2

    def test_restrict_rejects_unstable(self):
        M = natural_rep(UNContext(F3, 3))
        S = span(F3, 3, [2])  # e_3 generates everything
        with pytest.raises(ValueError):
            restrict_to_subspace(M, S)

    def test_quotient_preserves_laws(self):
        M = natural_rep(UNContext(F3, 3))
        S = span(F3, 3, [0])
        Q = quotient_by_subspace(M, S)
        assert validate(Q).ok and Q.dim == 2

    def test_direct_sum_and_conjugate(self):
        M = direct_sum([natural_rep(UNContext(F3, 3)), trivial_comodule(F3, coalgebras.un_poly(3), 2)])
        assert validate(M).ok and M.dim == 5
        g = [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 2, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 1]]
        Mc = conjugate(M, g)
        assert validate(Mc).ok

    def test_stability_check(self):
        M = natural_rep(UNContext(F3, 3))
        assert is_coaction_stable(M, span(F3, 3, [0]))
        assert not is_coaction_stable(M, span(F3, 3, [2]))


    @pytest.mark.parametrize("ambient", [2, 4])
    def test_stability_check_rejects_wrong_ambient(self, ambient):
        M = natural_rep(UNContext(F3, 3))
        with pytest.raises(ValueError, match="ambient"):
            is_coaction_stable(M, span(F3, ambient, [0]))

    @pytest.mark.parametrize(
        "g",
        [linalg.identity(2), linalg.identity(4), [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1, 0], [0, 0, 1]]],
        ids=["2x2", "4x4", "2x3", "ragged"],
    )
    def test_conjugate_rejects_wrong_size(self, g):
        M = natural_rep(UNContext(F3, 3))
        with pytest.raises(ValueError, match="dimension"):
            conjugate(M, g)


class TestRadicalAndFreeness:
    def test_trivial_module_radical_quotient(self):
        M = trivial_comodule(F3, ga_trunc(1), 4)
        assert radical_quotient_dim(M) == 4

    def test_regular_rank_one(self):
        M = regular_trunc_comodule(F3, 1)
        assert radical_quotient_dim(M) == 1
        assert local_freeness(M).free

    def test_yr_restricted_has_top_one(self):
        fam = y_r_family(F3, 1)
        M = restrict_frobenius(family_to_comodule(fam), 2)
        assert radical_quotient_dim(M) == 1

    def test_nontruncated_rejected(self):
        with pytest.raises(ValueError):
            radical_quotient_dim(regular_comodule(F3, 3))

    def test_restrict_frobenius_one_rule_for_ga_and_un(self):
        from expfilt.un import natural_rep_gl

        ga = restrict_frobenius(regular_comodule(F3, 5), 1)
        assert ga.coalgebra == ga_trunc(1)
        assert sorted(ga.acts) == [(), (("T", 1),), (("T", 2),)]
        M = natural_rep(UNContext(F2, 3))
        M.acts[(("x1_3", 2),)] = [(0, 2, 1)]  # not a comodule; only the filter reads it
        un = restrict_frobenius(M, 1)
        assert un.coalgebra == coalgebras.un_trunc(3, 1)
        assert (("x1_3", 2),) not in un.acts and len(un.acts) == len(M.acts) - 1
        with pytest.raises(ValueError, match="k\\[Ga\\] or k\\[U_N\\]"):
            restrict_frobenius(natural_rep_gl(F3, 2), 1)
        with pytest.raises(ValueError, match="r must be >= 1"):
            restrict_frobenius(M, 0)

    def test_trivial_dim_one_not_free(self):
        verdict = local_freeness(trivial_comodule(F3, ga_trunc(1), 1))
        assert not verdict.free
        assert verdict.witness() == {
            "dim_module": 1,
            "dim_dual_algebra": 3,
            "top_dim": 1,
        }


class TestJordanType:
    def test_zero_matrix(self):
        jt = jordan_type(linalg.zeros(3, 3), F3)
        assert jt.parts == (1, 1, 1)

    def test_regular_nilpotent(self):
        theta = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        for p in (3, 5):
            jt = jordan_type(theta, PrimeField(p))
            assert jt.parts == (3,)

    def test_square_zero_rank_one(self):
        theta = [[0, 0], [1, 0]]
        jt = jordan_type(theta, F3)
        assert jt.parts == (2,)
        assert not jt.is_free(F3)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            jordan_type([[1, 0], [0, 1]], F3)

    def test_partition_invariants_random(self):
        rng = random.Random(11)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            fld = PrimeField(p)
            n = rng.randrange(1, 7)
            theta = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    theta[i][j] = rng.randrange(p)
            if not linalg.is_zero_matrix(linalg.mat_pow(theta, p, fld), fld):
                continue
            jt = jordan_type(theta, fld)
            assert sum(jt.parts) == n
            assert len(jt.parts) == n - linalg.mat_rank(theta, n, fld)
            power = linalg.mat_pow(theta, p - 1, fld)
            free = jt.is_free(fld)
            assert free == (n % p == 0 and linalg.mat_rank(power, n, fld) == n // p and len(jt.parts) == n // p)
