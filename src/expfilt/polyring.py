"""Sparse multivariate polynomial arithmetic over F_p with named variables.

Variables come from fixed alphabets: "T" (the 1-dimensional coordinate),
"x{i}_{j}" (matrix coordinates) and "b{i}_{j}" (symbolic nilpotent
entries).  A monomial is a sorted tuple of (name, exponent) pairs; a
polynomial maps monomials to nonzero scalars in [1, p).  An element of a
tensor product C (x) C is a dict keyed by (left, right) monomial pairs
(see :mod:`expfilt.coalgebras`).

Text grammar (CLI and file formats): terms separated by "+", each term
"c*v1^e1*v2^e2..." with c a decimal integer; whitespace insignificant;
coefficients reduced mod p.  "-" starting a term negates it.
:func:`parse_terms` reads it into a {monomial: coeff} dict through a memo
from term body to monomial that the caller keeps for as many strings as it
likes (``io.parse_module`` keeps one per file); :func:`parse_poly` wraps it.
"""

import math
import re
from typing import Mapping

from .fpcomb import DESK_GUARD, PrimeField, digits

_VAR_RE = re.compile(r"^(T|[xb](\d+)_(\d+))$")

Monomial = tuple  # tuple[tuple[str, int], ...]

_ONE: Monomial = ()


def var_key(name: str):
    """Sort key for variable names: T < x{i}_{j} < b{i}_{j}."""
    m = _VAR_RE.match(name)
    if not m:
        raise ValueError(f"bad variable name {name!r}")
    if m.group(1) == "T":
        return (0, 0, 0)
    fam = 1 if name[0] == "x" else 2
    return (fam, int(m.group(2)), int(m.group(3)))


def is_var_name(name: str) -> bool:
    return bool(_VAR_RE.match(name))


def monomial(vars_exps: Mapping[str, int]) -> Monomial:
    """Canonical monomial from a {name: exponent} mapping (zero exps dropped)."""
    items = []
    for v, e in vars_exps.items():
        if not is_var_name(v):
            raise ValueError(f"bad variable name {v!r}")
        if e < 0:
            raise ValueError(f"negative exponent for {v}")
        if e:
            items.append((v, e))
    items.sort(key=lambda ve: var_key(ve[0]))
    return tuple(items)


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ka, kb = var_key(a[i][0]), var_key(b[j][0])
        if ka == kb:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
        elif ka < kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def monomial_sort_key(m: Monomial):
    """Graded-lex: higher total degree first, then variable order."""
    return (-monomial_degree(m), tuple((var_key(v), -e) for v, e in m))


class MultiPoly:
    """Immutable sparse polynomial over F_p.  No stored zero coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field: PrimeField, terms: Mapping[Monomial, int]):
        p = field.p
        clean = {}
        for mono, c in terms.items():
            c %= p
            if c:
                clean[mono] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "MultiPoly":
        return cls(field, {})

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "MultiPoly":
        return cls(field, {_ONE: c})

    @classmethod
    def one(cls, field: PrimeField) -> "MultiPoly":
        return cls.constant(field, 1)

    @classmethod
    def variable(cls, field: PrimeField, name: str, exp: int = 1, coeff: int = 1) -> "MultiPoly":
        return cls(field, {monomial({name: exp}): coeff})

    @classmethod
    def from_monomial(cls, field: PrimeField, mono: Monomial, coeff: int = 1) -> "MultiPoly":
        return cls(field, {mono: coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(monomial_degree(m) for m in self.terms)

    def degree_in(self, var: str) -> int:
        best = 0
        for m in self.terms:
            for v, e in m:
                if v == var and e > best:
                    best = e
        return best

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "MultiPoly"):
        if self.field != other.field:
            raise ValueError(f"mixed fields: F_{self.field.p} and F_{other.field.p}")

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.field, other)
        self._check_field(other)
        p = self.field.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = (terms.get(m, 0) + c) % p
            if v:
                terms[m] = v
            elif m in terms:
                del terms[m]
        return MultiPoly(self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return MultiPoly(self.field, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.field, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_field(other)
        p = self.field.p
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                v = (terms.get(m, 0) + c1 * c2) % p
                if v:
                    terms[m] = v
                elif m in terms:
                    del terms[m]
        return MultiPoly(self.field, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> "MultiPoly":
        c %= self.field.p
        if c == 0:
            return MultiPoly.zero(self.field)
        if c == 1:
            return self
        p = self.field.p
        return MultiPoly(self.field, {m: cc * c % p for m, cc in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- structural operations ---------------------------------------------

    def substitute(self, assignment: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Homomorphic image under var -> polynomial; must cover all variables."""
        missing = self.variables() - set(assignment)
        if missing:
            raise KeyError(f"no assignment for variable(s) {sorted(missing)}")
        result = MultiPoly.zero(self.field)
        power_cache = {}
        for m, c in self.terms.items():
            term = MultiPoly.constant(self.field, c)
            for v, e in m:
                key = (v, e)
                pw = power_cache.get(key)
                if pw is None:
                    img = assignment[v]
                    self._check_field(img)
                    pw = img**e
                    power_cache[key] = pw
                term = term * pw
            result = result + term
        return result

    def __repr__(self):
        return f"MultiPoly(F_{self.field.p}, {format_poly(self.terms)!r})"

    def __str__(self):
        return format_poly(self.terms)


# -- text grammar ------------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+)?((?:\*?(?:T|[xb]\d+_\d+)(?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"(T|([xb])(\d+)_(\d+))(?:\^(\d+))?")


def _body_monomial(body: str) -> Monomial:
    """The monomial of a term body such as "x1_2^2*T", sorted by :func:`var_key`.

    ``_TERM_RE`` admits only factors and stars, so the factors cover the body;
    each sort key is read off the factor's own groups.
    """
    exps = {}
    keys = {}
    for v, fam, i, j, e in _FACTOR_RE.findall(body):
        exps[v] = exps.get(v, 0) + (int(e) if e else 1)
        if v not in keys:
            keys[v] = (0, 0, 0) if v == "T" else (1 if fam == "x" else 2, int(i), int(j))
    return tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda ve: keys[ve[0]]))


def parse_terms(text: str, p: int, memo: dict) -> dict:
    """Parse the term grammar into {monomial: coeff}, coefficients reduced mod p.

    ``memo`` maps each term body to its monomial; a caller parsing many
    strings (a whole module file) passes one dict for all of them.
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return {}
    # split into signed terms on top-level + and -
    parts = [t for t in s.replace("-", "+-").split("+") if t]
    if not parts:
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms = {}
    for part in parts:
        negative = part[0] == "-"
        if negative:
            part = part[1:]
        m = _TERM_RE.match(part)
        if not m or (m.group(1) is None and not m.group(2)):
            raise ValueError(f"cannot parse term {part!r} in {text!r}")
        coeff_text, body = m.groups()
        coeff = int(coeff_text) if coeff_text is not None else 1
        mono = memo.get(body)
        if mono is None:
            mono = memo[body] = _body_monomial(body)
        terms[mono] = (terms.get(mono, 0) + (-coeff if negative else coeff)) % p
    return {m: c for m, c in terms.items() if c}


def parse_poly(text: str, field: PrimeField) -> MultiPoly:
    """Parse the term grammar; coefficients reduced mod p."""
    return MultiPoly(field, parse_terms(text, field.p, {}))


def format_poly(terms: Mapping[Monomial, int]) -> str:
    """Canonical text form of {monomial: coeff}: graded-lex term order, '+'-separated."""
    if not terms:
        return "0"
    parts = []
    for mono, c in sorted(terms.items(), key=lambda kv: monomial_sort_key(kv[0])):
        factors = []
        for v, e in mono:
            factors.append(v if e == 1 else f"{v}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


def frobenius_images(field: PrimeField, images: list, pos: dict, monos, what: str,
                     prune=None, cap=None) -> list:
    """Images of ``monos`` under the F_p-algebra map x_v -> images[pos[v]].

    Polynomials are {packed key: coeff} dicts: a key packs an exponent
    vector into bit fields of one int, so multiplying two terms adds their
    keys (the caller sizes the fields so that they never carry).  The
    coefficients lie in F_p, so Frobenius f -> f^p multiplies every key by
    p, and the base-p digits e = sum_t d_t p^t of an exponent give

        x_v^e -> prod_t Frob^t(images[v]^{d_t}).

    A monomial m = m' x_v^e, x_v its last variable, expands as
    image(m') image(x_v^e) through a memo that lives for the one call, so
    monomials sharing a prefix share its expansion.  ``cap``: exponents
    >= cap map to zero.  ``prune = (offset, mask)``: a term whose
    key + offset meets mask is dropped after every product past the digit
    powers (a truncation ideal, or a bound that only grows under products).
    Before anything is expanded a monomial's term count is bounded by the
    product over its digits d of the smaller of C(n + d - 1, d), the number
    of degree-d monomials in the n terms of the image, and d (max - min) + 1,
    the number of ints the sum of d of its keys can take; past
    :data:`fpcomb.DESK_GUARD` the call raises ValueError naming ``what``.
    """
    p = field.p
    offset, mask = prune or (0, 0)

    def mul(a, b, pruned=True):
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                out[k] = out.get(k, 0) + ca * cb
        if prune is None or not pruned:
            return {k: c % p for k, c in out.items() if c % p}
        return {k: c % p for k, c in out.items() if c % p and not (k + offset) & mask}

    digit_memo = {}

    def digit_power(s, d):
        """images[s]^d for a digit 0 < d < p, unpruned."""
        key = (s, d)
        if key not in digit_memo:
            digit_memo[key] = (
                images[s] if d == 1 else mul(digit_power(s, d - 1), images[s], pruned=False)
            )
        return digit_memo[key]

    count_memo = {}

    def power_count(s, e):
        """Term-count bound of the image of x_s^e; 0 when the cap kills it."""
        key = (s, e)
        if key not in count_memo:
            count = 0 if cap is not None and e >= cap else 1
            if count:
                n = len(images[s])
                span = max(images[s], default=0) - min(images[s], default=0)
                for d in digits(e, p):
                    if d:
                        count *= min(math.comb(n + d - 1, d), d * span + 1)
            count_memo[key] = count
        return count_memo[key]

    power_memo = {}

    def power(s, e):
        """images[s]^e for e > 0: the power of e without its top digit d p^t,
        times Frob^t(images[s]^d), so exponents share their lower digits."""
        key = (s, e)
        if key not in power_memo:
            q = 1
            while q * p <= e:
                q *= p
            d, low = divmod(e, q)
            top = {k * q: c for k, c in digit_power(s, d).items()}
            power_memo[key] = mul(power(s, low) if low else {0: 1}, top)
        return power_memo[key]

    memo = {(): {0: 1}}

    def image(m):
        if m not in memo:
            v, e = m[-1]
            part = power(pos[v], e)
            memo[m] = mul(image(m[:-1]), part) if len(m) > 1 else part
        return memo[m]

    out = []
    for m in monos:
        count = 1
        for v, e in m:
            count *= power_count(pos[v], e)
        if count > DESK_GUARD:
            raise ValueError(
                f"{what} of {format_poly({m: 1})} has up to "
                f"{count} terms, over the desk-scale guard {DESK_GUARD}"
            )
        out.append(image(m) if count else {})
    return out
