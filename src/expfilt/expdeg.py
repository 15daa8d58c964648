"""Truncated exponentials of p-nilpotent matrices and the exponential-degree
filtration.

For a p-nilpotent B the truncated exponential is
exp_B(T) = 1 + TB + (TB)^2/2 + ... + (TB)^{p-1}/(p-1)!, a one-parameter
subgroup of GL_N.  Pulling a function f back along it gives a polynomial in T;
quantifying over all B (symbolically, for N <= p, where the p-nilpotent
strictly upper triangular matrices form the full linear space) yields the
filtration piece (k[G])_{[d]} = {f : every pullback has T-degree <= d} and the
module filtration M_{[d]} = {m : Delta_M(m) lands in M (x) (k[G])_{[d]}}.

Membership in M_{[d]} is decided through the coefficientwise criterion: all
T^j-coefficients, j > d, of (1 (x) pullback) Delta_M(m) vanish identically in
the symbolic entries.  Each call pulls every distinct coaction monomial mu
back once.  The coaction is sum_mu mu A_mu, A_mu the action matrix of mu's
dual functional, so the pullback of the entries is sum_mu pullback(mu) A_mu,
formed by :func:`~expfilt.comodule.linear_image`.  ``module_exp_filtration``
passes it only the terms with T power above d and takes the
:func:`~expfilt.comodule.row_kernel` of the sum; ``coalg_filtration_piece``
does the same with each basis monomial f acting as its coefficient row;
``exponential_degree`` sums one T power at a time from the top down.  The
sums are exact, so cancellation between the terms of one entry is kept.
Over k[Ga] the filtration is the degree filtration one step up,
M_{[d]} = M_{<d+1}.

Every pullback here runs on integer tables, not ``MultiPoly``: a term
T^k prod b_{a,b}^{e_ab} is one int with k in its lowest bit field and each
e_ab in a field of its own, so multiplying terms adds keys.  The image of
x_{i,j} is a sum over paths i < a_1 < ... < j (one b per step, T^k/k! for k
steps); along a numeric B it is sum_k (B^k/k!)_{i,j} T^k on T exponents as
keys.  The coefficients lie in F_p, so Frobenius is one integer multiply
of a key by p, and the digit rule x^e = prod_s Frob^s(x^{d_s}) for the
base-p digits e = sum_s d_s p^s expands a power from the p - 1 digit powers
of each image (:func:`~expfilt.polyring.frobenius_images`, shared with the
coproduct table and the subgroup pullbacks of :mod:`expfilt.support`, with
a per-call memo and the desk-scale term bound).  A term of the pullback of
m has T exponent at most (N-1) deg m and b exponents at most deg m, so
fields of ((N-1) max deg).bit_length() bits never carry.  The module
tables, the filtration pieces of k[U_N], the comparison check and
``exp_pullback`` (one polynomial, unpacked into (T, b) monomials) all read
such a table.
"""

import itertools
from collections import defaultdict
from dataclasses import dataclass

from . import coalgebras, linalg
from .comodule import CoalgebraSubspace, Comodule, degree_filtration, linear_image, row_kernel
from .fpcomb import PrimeField, digit_sums
from .ga import GaUFamily, derived_v
from .linalg import Matrix, Subspace
from .polyring import MultiPoly, frobenius_images, monomial_degree
from .un import UNContext, degree_piece, un_part

# An exponential pullback is a MultiPoly in T with coefficients in the
# b-variables (one joint alphabet).
ExpPullback = MultiPoly


@dataclass
class NilpotentMatrix:
    """An N x N matrix over F_p with B^p = 0 (checked at construction)."""

    field: PrimeField
    N: int
    entries: Matrix

    def __post_init__(self):
        if len(self.entries) != self.N or any(len(r) != self.N for r in self.entries):
            raise ValueError("entries must be N x N")
        self.entries = linalg.mat_mod(self.entries, self.field)
        if not linalg.is_p_nilpotent(self.entries, self.field):
            raise ValueError("matrix is not p-nilpotent")


@dataclass(frozen=True)
class SymbolicNilpotentDomain:
    """The generic strictly upper triangular matrix with entries b{i}_{j}.

    Needs N <= p so that B^p = 0 holds identically and the p-nilpotent cone
    is the whole linear space.
    """

    field: PrimeField
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.N > self.field.p:
            raise ValueError(
                f"symbolic domain needs N <= p, got N={self.N}, p={self.field.p}"
            )


def _generic_exp_images(field: PrimeField, gens: tuple, W: int) -> list:
    """Packed image of each generator x_{i,j} under exp of the generic B.

    (exp_B(T))_{i,j} = sum over paths i = a_0 < a_1 < ... < a_k = j of
    T^k/k! b_{a_0 a_1} ... b_{a_{k-1} a_k}.  A key holds the T exponent in
    its lowest W-bit field and b_{a,b} in field 1 + (position of x_{a,b}).
    """
    shift = {}
    for s, v in enumerate(gens):
        a, b = v[1:].split("_")
        shift[int(a), int(b)] = W * (s + 1)
    out = []
    for a, b in shift:
        terms = {}
        stack = [(a, 0, 0)]  # (vertex, path length, packed b-monomial)
        while stack:
            u, k, key = stack.pop()
            if u == b:
                terms[key + k] = field.inv_factorial(k)
                continue
            for w in range(u + 1, b + 1):
                stack.append((w, k + 1, key + (1 << shift[u, w])))
        out.append(terms)
    return out


def _generic_pullbacks(field: PrimeField, coalg, monos) -> tuple:
    """(pulled, mask): each monomial of k[U_N] pulled back along exp of the
    generic B, from one :func:`~expfilt.polyring.frobenius_images` call.

    ``pulled[k]`` is {packed key: coeff} for ``monos[k]``, with the T power
    in ``key & mask`` and the b-monomial in the W-bit fields above it (see
    :func:`_generic_exp_images`).  A term of the pullback of m has T
    exponent <= (N-1) deg m and b exponents <= deg m, so the fields never
    carry.  Raises unless coalg is k[U_N] with N <= p or when a monomial
    leaves the generators.
    """
    if coalg.kind != "UNPoly":
        raise ValueError(f"exponential filtration needs a comodule over k[Ga] or k[U_N], "
                         f"not {coalg.kind}")
    N = coalg.N
    SymbolicNilpotentDomain(field, N)  # raises unless N <= p
    coalgebras.require_generators(coalg, monos)
    gens = coalgebras.generator_vars(coalg)
    top = max((monomial_degree(m) for m in monos), default=0)
    W = max(1, ((N - 1) * top).bit_length())
    pulled = frobenius_images(
        field, _generic_exp_images(field, gens, W), {v: s for s, v in enumerate(gens)},
        monos, "exponential pullback",
    )
    return pulled, (1 << W) - 1


def exp_pullback(f: MultiPoly, B) -> ExpPullback:
    """Substitute x_{i,j} -> (exp_B(T))_{i,j}.

    ``B`` is a :class:`NilpotentMatrix` (numeric pullback, a polynomial in T)
    or a :class:`SymbolicNilpotentDomain` (coefficients polynomial in the
    b-variables).  Functions on the full matrix space use the convention that
    absent entries of a triangular exponential are 1 on the diagonal and 0
    below it.  The images are the entries of exp_B(T) for a numeric B, on T
    exponents as keys (:func:`~expfilt.linalg.exp_entries`, which also
    gives the subgroup pullbacks of :mod:`expfilt.support`), or the path
    sums of the generic B; f's monomials are expanded in one
    :func:`~expfilt.polyring.frobenius_images` call and summed by f's
    coefficients.
    """
    if not isinstance(B, (NilpotentMatrix, SymbolicNilpotentDomain)):
        raise TypeError("B must be a NilpotentMatrix or a SymbolicNilpotentDomain")
    fld = B.field
    if f.field != fld:
        raise ValueError(f"mixed fields: F_{f.field.p} and F_{fld.p}")
    coalgebras.require_generators(coalgebras.mat_poly(B.N), f.terms)
    if isinstance(B, SymbolicNilpotentDomain):
        coeffs = defaultdict(int)  # f restricted to U_N
        for m, c in f.terms.items():
            part = un_part(m)
            if part is not None:
                coeffs[part] += c
        coalg = coalgebras.un_poly(B.N)
        pulled, mask = _generic_pullbacks(fld, coalg, list(coeffs))
        b_names = ["b" + v[1:] for v in coalgebras.generator_vars(coalg)]
    else:
        names = coalgebras.generator_vars(coalgebras.mat_poly(B.N))
        images = linalg.exp_entries([(1, linalg.divided_powers(B.entries, fld))],
                                     [(i, j) for i in range(B.N) for j in range(B.N)], B.N, fld)
        coeffs = f.terms
        pulled = frobenius_images(fld, images, {v: s for s, v in enumerate(names)},
                                  list(coeffs), "exponential pullback")
        mask, b_names = -1, []  # a key is the T exponent itself
    sums = defaultdict(int)
    for c, terms in zip(coeffs.values(), pulled):
        for key, v in terms.items():
            sums[key] += c * v
    W = mask.bit_length()
    out = {}
    for key, v in sums.items():
        mono = [("T", key & mask)] if key & mask else []
        for name in b_names:
            key >>= W
            if key & mask:
                mono.append((name, key & mask))
        out[tuple(mono)] = v
    return MultiPoly(fld, out)


def t_degree(pullback: ExpPullback) -> int:
    return pullback.degree_in("T")


def coalg_exp_degree(f: MultiPoly, domain: SymbolicNilpotentDomain) -> int:
    """Minimal d with f in (k[G])_{[d]}: the T-degree of the symbolic pullback."""
    return t_degree(exp_pullback(f, domain))


def enumerate_nilpotent_upper(field: PrimeField, N: int) -> list:
    """All strictly upper triangular F_p points with B^p = 0 (exhaustive).

    Desk-scale sampling pool; guarded to N <= 4 and p in {2, 3}.
    """
    if N > 4 or field.p > 3:
        raise ValueError("exhaustive enumeration is guarded to N <= 4, p in {2,3}")
    slots = [(i, j) for i in range(N) for j in range(i + 1, N)]
    out = []
    for values in itertools.product(range(field.p), repeat=len(slots)):
        mat = linalg.zeros(N, N)
        for (i, j), v in zip(slots, values):
            mat[i][j] = v
        try:
            out.append(NilpotentMatrix(field, N, mat))
        except ValueError:  # B^p != 0
            pass
    return out


def coalg_filtration_piece(ctx: UNContext, d: int, Dmax: int) -> CoalgebraSubspace:
    """Basis of {f of degree <= Dmax : coalg_exp_degree(f) <= d}.

    Kernel of the linear map sending f's coefficients to the
    (b-monomial, T^j)-coefficients for all j > d: the row kernel of
    sum_f high(f) e_f over the degree-piece basis, high(f) the terms of
    f's pullback with T power above d and e_f the coefficient row of f.
    """
    if d < 0 or Dmax < 0:
        raise ValueError("d and Dmax must be nonnegative")
    basis = degree_piece(ctx, Dmax + 1)
    pulled, mask = _generic_pullbacks(ctx.field, ctx.coalgebra, basis)
    coeffs = {m: [(0, k, 1)] for k, m in enumerate(basis)}  # f -> its coefficient row
    high = linear_image(coeffs, _above(basis, pulled, mask, d), ctx.field.p)
    kernel = row_kernel(high.values(), len(basis), ctx.field)
    return CoalgebraSubspace(ctx.field, ctx.coalgebra, tuple(basis), kernel)


def _above(monos, pulled, mask, d: int) -> dict:
    """{mu: the terms of its pullback with T power > d}, for the mu that have some."""
    out = {}
    for mu, terms in zip(monos, pulled):
        high = {key: c for key, c in terms.items() if key & mask > d}
        if high:
            out[mu] = high
    return out


def module_exp_filtration(M, d: int) -> Subspace:
    """M_{[d]}: vectors whose coaction pullbacks have no T^j term, j > d.

    Over k[U_N] it is the row kernel of sum_mu high(mu) A_mu, high(mu) the
    terms T^k b of mu's pullback with k > d: a row per (T^k b, j), each kept
    once up to scalars.  Over k[Ga] it is the degree filtration M_{<d+1};
    a GaUFamily goes to :func:`ga_exp_filtration`.
    """
    if isinstance(M, GaUFamily):
        return ga_exp_filtration(M, d)
    if d < 0:
        raise ValueError("d must be nonnegative")
    if M.coalgebra.kind == "GaPoly":
        return degree_filtration(M, d + 1)
    pulled, mask = _generic_pullbacks(M.field, M.coalgebra, list(M.acts))
    high = linear_image(M.acts, _above(M.acts, pulled, mask, d), M.field.p)
    return row_kernel(high.values(), M.dim, M.field)


def exponential_degree(M) -> int:
    """Minimal d with M_{[d]} = M.

    Equals the largest T-degree among the pullbacks of the coaction entries
    (for the additive group: the largest T-exponent in the coaction).
    Accepts a Comodule over k[Ga] or k[U_N] (N <= p), or a GaUFamily.  Over
    k[U_N] the T powers k of the pullback table are visited from the top
    down; the first whose image sum_mu (T^k part of mu's pullback) A_mu does
    not vanish is the degree.
    """
    if isinstance(M, GaUFamily):
        return ga_exponential_degree(M)
    if M.coalgebra.kind == "GaPoly":
        return M.max_entry_degree()
    pulled, mask = _generic_pullbacks(M.field, M.coalgebra, list(M.acts))
    by_power = defaultdict(list)  # T power -> [(mu, key, coeff)]
    for mu, terms in zip(M.acts, pulled):
        for key, c in terms.items():
            by_power[key & mask].append((mu, key, c))
    for k in sorted(by_power, reverse=True):
        if k == 0:
            break
        images = defaultdict(dict)  # mu -> the T^k part of its pullback
        for mu, key, c in by_power[k]:
            images[mu][key] = c
        if linear_image(M.acts, images, M.field.p):
            return k
    return 0


def exponential_height(degree: int, field: PrimeField) -> int:
    """Minimal r >= 0 with degree <= p^r (a base-p scale for the raw degree)."""
    r = 0
    while field.p**r < degree:
        r += 1
    return r


def ga_exp_filtration(U: GaUFamily, d: int) -> Subspace:
    """Intersection of ker v_j over j > d; equals the degree filtration at d+1."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    fld = U.field
    rows = []
    for j in digit_sums(fld, U.support()):
        if j <= d:
            continue
        mat = derived_v(U, j)
        rows.extend(r for r in mat if any(r))
    return linalg.kernel_of(rows, U.dim, fld)


def ga_exponential_degree(U: GaUFamily) -> int:
    """Largest j with v_j nonzero (0 for the trivial family)."""
    fld = U.field
    best = 0
    for j in digit_sums(fld, U.support()):
        if j > best and not linalg.is_zero_matrix(derived_v(U, j), fld):
            best = j
    return best


def frobenius_twist(M: Comodule) -> Comodule:
    """Replace every coaction entry by its p-th power (coefficients fixed).

    The action of mu moves to mu^p, dropped past a truncation bound.
    """
    p = M.field.p
    bound = coalgebras.truncation_bound(M.coalgebra, M.field)
    acts = {}
    for m, act in M.acts.items():
        twisted = tuple((v, e * p) for v, e in m)
        if bound is None or all(e < bound for _, e in twisted):
            acts[twisted] = act
    return Comodule(M.field, M.coalgebra, M.dim, acts)


def relate_inclusions_check(ctx: UNContext, d: int, e: int, Dmax: int) -> dict:
    """Verify the two filtration comparisons on the degree <= Dmax span.

    Degree piece into exponential piece: every monomial of degree < d has
    pullback degree <= (p-1)(d-1).  Exponential piece at e-1 into the degree
    piece: needs e(N-1) < d, which is a precondition, not a counterexample.
    Returns {"ok": bool, "counterexample": poly text or None}.
    """
    p = ctx.field.p
    if ctx.N > p:
        raise ValueError("relate_inclusions_check needs N <= p")
    if d < 1 or e < 1:
        raise ValueError("d and e must be >= 1")
    if e * (ctx.N - 1) >= d:
        raise ValueError(f"precondition e(N-1) < d violated: {e}*({ctx.N}-1) >= {d}")
    bound = (p - 1) * (d - 1)
    low = degree_piece(ctx, min(d, Dmax + 1))
    pulled, mask = _generic_pullbacks(ctx.field, ctx.coalgebra, low)
    for mono, terms in zip(low, pulled):
        if max((key & mask for key in terms), default=0) > bound:
            f = MultiPoly.from_monomial(ctx.field, mono)
            return {"ok": False, "counterexample": str(f), "side": "degree-into-exp"}
    piece = coalg_filtration_piece(ctx, e - 1, Dmax)
    for f in piece.basis_polys():
        if f.total_degree() >= d:
            return {"ok": False, "counterexample": str(f), "side": "exp-into-degree"}
    return {"ok": True, "counterexample": None}


def mock_trivial_check(M) -> bool:
    """M = M_{[0]}: every one-parameter pullback acts trivially.

    That is exponential degree 0: no entry's pullback has a T^j term, j > 0.
    """
    if isinstance(M, GaUFamily):
        return M.is_trivial()
    return exponential_degree(M) == 0
