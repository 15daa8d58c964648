"""Sparse polynomial arithmetic, substitution, evaluation, and the text grammar.

``coeff_of_power`` and ``eval_at`` are read-outs that only the tests use;
they live here, are tested here, and the other test modules import them.
``oracle_parse_poly`` is the parser that ``parse_terms`` replaced: it checks
that the factors cover each term and sorts each monomial through
``monomial()``, which matches every variable name against the alphabet again.
"""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expfilt.fpcomb import PrimeField
from expfilt.polyring import MultiPoly, format_poly, monomial, parse_poly, parse_terms, var_key

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

VARS = ["T", "x1_2", "x1_3", "x2_3", "b1_2"]


def random_poly(rng, field, nterms=4, maxexp=3, vars=VARS):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        mono = monomial(
            {v: rng.randrange(maxexp + 1) for v in rng.sample(vars, rng.randrange(1, 3))}
        )
        terms[mono] = rng.randrange(field.p)
    return MultiPoly(field, terms)


def coeff_of_power(f: MultiPoly, var: str, k: int) -> MultiPoly:
    """Coefficient of var^k in f: a polynomial not involving var."""
    terms = {}
    p = f.field.p
    for m, c in f.terms.items():
        e = 0
        rest = []
        for v, ve in m:
            if v == var:
                e = ve
            else:
                rest.append((v, ve))
        if e == k:
            rest_t = tuple(rest)
            terms[rest_t] = (terms.get(rest_t, 0) + c) % p
    return MultiPoly(f.field, terms)


def eval_at(f: MultiPoly, point) -> int:
    """Scalar value of f at a point; the point must cover all of f's variables."""
    missing = f.variables() - set(point)
    if missing:
        raise KeyError(f"no coordinate for variable(s) {sorted(missing)}")
    p = f.field.p
    total = 0
    for m, c in f.terms.items():
        v = c
        for var, e in m:
            v = v * pow(point[var] % p, e, p) % p
        total = (total + v) % p
    return total


def exact_int_mul(f: MultiPoly, g: MultiPoly, field) -> MultiPoly:
    """Oracle: multiply with unreduced integer coefficients, reduce at the end."""
    from expfilt.polyring import _merge_monomials

    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = _merge_monomials(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return MultiPoly(field, acc)


def _frobenius(f: MultiPoly) -> MultiPoly:
    """f^p read term by term: every exponent times p, coefficients kept (c^p = c in F_p)."""
    p = f.field.p
    return MultiPoly(f.field, {tuple((v, e * p) for v, e in m): c for m, c in f.terms.items()})


class TestArithmetic:
    def test_freshman_dream_square(self):
        f = parse_poly("T + 1", F2)
        assert f * f == parse_poly("T^2 + 1", F2)

    def test_multiply_by_zero(self):
        f = parse_poly("2*x1_2*x1_3^2 + T^3", F3)
        assert (f * MultiPoly.zero(F3)).is_zero()

    def test_cube_over_f3(self):
        f = parse_poly("x1_2 + x2_3", F3)
        cube = f * f * f
        assert cube == parse_poly("x1_2^3 + x2_3^3", F3)
        # independent route: exact integer expansion reduced mod 3
        by_oracle = exact_int_mul(exact_int_mul(f, f, F3), f, F3)
        assert cube == by_oracle

    def test_ring_axioms_random(self):
        rng = random.Random(0)
        for _ in range(60):
            field = rng.choice([F2, F3, F5])
            f, g, h = (random_poly(rng, field) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(VARS), st.integers(0, 4), st.integers(-6, 6)
            ),
            max_size=6,
        ),
        st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_subtraction_cancels_structurally(self, spec, p):
        field = PrimeField(p)
        f = MultiPoly.zero(field)
        for v, e, c in spec:
            f = f + MultiPoly.variable(field, v, e, c) if e else f + c
        assert (f - f).is_zero()
        assert f + f == f.scale(2)

    def test_frobenius_additive(self):
        rng = random.Random(1)
        for _ in range(30):
            field = rng.choice([F2, F3, F5])
            f, g = random_poly(rng, field), random_poly(rng, field)
            assert _frobenius(f + g) == _frobenius(f) + _frobenius(g)
            assert (f + g) ** field.p == f**field.p + g**field.p

    def test_cancellation_is_structural(self):
        f = parse_poly("2*x1_2 + T^2", F3)
        assert (f - f).is_zero()
        assert (f - f) == MultiPoly.zero(F3)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("T", F2) + parse_poly("T", F3)

    def test_power(self):
        f = parse_poly("T + 1", F5)
        assert f**0 == MultiPoly.one(F5)
        assert f**3 == f * f * f


class TestCoeffOfPower:
    def test_picks_named_coefficient(self):
        f = parse_poly("b1_2*T + b1_3*T^2", F5)
        assert coeff_of_power(f, "T", 2) == parse_poly("b1_3", F5)
        assert coeff_of_power(f, "T", 1) == parse_poly("b1_2", F5)

    def test_constant_poly(self):
        f = parse_poly("4", F5)
        assert coeff_of_power(f, "T", 1).is_zero()
        assert coeff_of_power(f, "T", 0) == f

    def test_reconstruction_random(self):
        rng = random.Random(2)
        for _ in range(100):
            field = rng.choice([F3, F5])
            f = random_poly(rng, field)
            t = MultiPoly.variable(field, "T")
            acc = MultiPoly.zero(field)
            for k in range(f.degree_in("T") + 1):
                acc = acc + coeff_of_power(f, "T", k) * t**k
            assert acc == f


class TestSubstituteEval:
    def test_substitute_variable(self):
        f = parse_poly("x1_2", F3)
        img = f.substitute({"x1_2": parse_poly("b1_2*T", F3)})
        assert img == parse_poly("b1_2*T", F3)

    def test_constant_unchanged(self):
        f = parse_poly("2", F3)
        assert f.substitute({}) == f

    def test_missing_assignment_rejected(self):
        f = parse_poly("x1_2*x2_3", F3)
        with pytest.raises(KeyError):
            f.substitute({"x1_2": MultiPoly.one(F3)})

    def test_eval_counit_style(self):
        f = parse_poly("1 + x1_2", F3)
        assert eval_at(f, {"x1_2": 0}) == 1

    def test_fermat(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            f = parse_poly(f"T^{p} - T", field)
            for a in range(p):
                assert eval_at(f, {"T": a}) == 0

    def test_substitution_composes_with_evaluation(self):
        rng = random.Random(3)
        for _ in range(100):
            field = rng.choice([F3, F5])
            f = random_poly(rng, field)
            assignment = {v: random_poly(rng, field, nterms=2) for v in f.variables()}
            point = {v: rng.randrange(field.p) for v in VARS}
            direct = eval_at(f.substitute(assignment), point)
            composed = eval_at(f, {v: eval_at(assignment[v], point) for v in f.variables()})
            assert direct == composed


_ORACLE_TERM_RE = re.compile(r"^(\d+)?((?:\*?(?:T|[xb]\d+_\d+)(?:\^\d+)?)*)$")
_ORACLE_FACTOR_RE = re.compile(r"(T|[xb]\d+_\d+)(?:\^(\d+))?")


def oracle_parse_poly(text: str, field: PrimeField) -> MultiPoly:
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return MultiPoly.zero(field)
    s = s.replace("-", "+-")
    parts = [t for t in s.split("+") if t]
    if not parts:
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms = {}
    for part in parts:
        sign = 1
        if part.startswith("-"):
            sign = -1
            part = part[1:]
        m = _ORACLE_TERM_RE.match(part)
        if not m or (m.group(1) is None and not m.group(2)):
            raise ValueError(f"cannot parse term {part!r} in {text!r}")
        coeff = sign * (int(m.group(1)) if m.group(1) is not None else 1)
        exps = {}
        body = m.group(2)
        consumed = 0
        for fm in _ORACLE_FACTOR_RE.finditer(body):
            v = fm.group(1)
            e = int(fm.group(2)) if fm.group(2) else 1
            exps[v] = exps.get(v, 0) + e
            consumed += fm.end() - fm.start()
        if consumed != len(body.replace("*", "")):
            raise ValueError(f"cannot parse term {part!r} in {text!r}")
        mono = monomial(exps)
        terms[mono] = (terms.get(mono, 0) + coeff) % field.p
    return MultiPoly(field, terms)


def _parsed(parse, text, field):
    """(monomials in order, coefficients) of ``parse(text, field)``, or the ValueError text."""
    try:
        terms = parse(text, field).terms
    except ValueError as exc:
        return str(exc)
    return list(terms.items())


# strings off the canonical format: repeated, reordered, zero-power, run-together,
# padded and leading-zero factors, stray signs and stars
_ODD_TEXTS = [
    "T*T^2", "T^2*T", "x2_3*x1_2", "T^0", "3*T^0*x1_2", "x1_2x2_3", "2T", "*T", "2*T*",
    "--T", "-", "+", "T+-T", "x01_2 + x1_2", "x1_2*x01_2", "b2_1*x1_2*T", "T^007", "0*T",
    "00", "0 + 0", "T^3^2", "x1_2^", "x1__2", "Tx", "1 2", "- 2 * T ^ 3", "T'", "x1_2'",
]


class TestGrammar:
    def test_example_from_format(self):
        f = parse_poly("2*x1_2*x1_3^2 + T^3", F5)
        assert format_poly(f.terms) == "T^3 + 2*x1_2*x1_3^2"

    def test_whitespace_insignificant(self):
        assert parse_poly(" 2*T ^2+ 1 ", F3) == parse_poly("2*T^2+1", F3)

    def test_negative_coefficients_reduced(self):
        assert parse_poly("-T", F3) == parse_poly("2*T", F3)
        assert parse_poly("T - T", F3).is_zero()

    def test_zero(self):
        assert parse_poly("0", F3).is_zero()
        assert format_poly({}) == "0"

    def test_bad_input_rejected(self):
        for bad in ("", "x1", "T^", "q1_2", "1**T", "T''", "T'", "x1_2'", "2*x1_2*x2_3'"):
            with pytest.raises(ValueError):
                parse_poly(bad, F3)

    def test_roundtrip_random(self):
        rng = random.Random(4)
        for _ in range(80):
            field = rng.choice([F2, F3, F5])
            f = random_poly(rng, field)
            assert parse_poly(format_poly(f.terms), field) == f

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_odd_strings_parse_like_oracle(self, p):
        field = PrimeField(p)
        memo = {}
        for text in _ODD_TEXTS:
            want = _parsed(oracle_parse_poly, text, field)
            assert _parsed(parse_poly, text, field) == want, text
            shared = _parsed(lambda t, f: MultiPoly(f, parse_terms(t, f.p, memo)), text, field)
            assert shared == want, text

    def test_variable_order(self):
        assert var_key("T") < var_key("x1_2") < var_key("x1_3") < var_key("x2_3") < var_key("b1_2")

    def test_format_is_canonical(self):
        f = parse_poly("T + x1_2 + T^2", F3)
        g = parse_poly("x1_2 + T^2 + T", F3)
        assert format_poly(f.terms) == format_poly(g.terms) == "T^2 + T + x1_2"

    @given(
        seed=st.integers(0, 10**6),
        p=st.sampled_from([2, 3, 5]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "duplicate"]),
                st.integers(0, 10**4),
                st.sampled_from("+-*^_'0123456789Tx"),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_format_strings_raise_or_roundtrip(self, seed, p, edits):
        field = PrimeField(p)
        text = format_poly(random_poly(random.Random(seed), field).terms)
        for op, pos, ch in edits:
            if op == "insert":
                i = pos % (len(text) + 1)
                text = text[:i] + ch + text[i:]
            elif text:
                i = pos % len(text)
                text = text[: i + 1] + text[i:] if op == "duplicate" else text[:i] + text[i + 1 :]
        start = time.perf_counter()
        try:
            f = parse_poly(text, field)
        except ValueError:
            f = None
        if f is not None:
            assert parse_poly(format_poly(f.terms), field) == f, text
        assert time.perf_counter() - start < 1.0
        assert _parsed(parse_poly, text, field) == _parsed(oracle_parse_poly, text, field), text

