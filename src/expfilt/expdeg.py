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
dual functional, so the pullback of the entries is sum_mu pullback(mu) A_mu:
``module_exp_filtration`` sums only the terms with T power above d into its
constraint rows, and ``exponential_degree`` sums one T power at a time from
the top down.  The sums are exact, so cancellation between the terms of one
entry is kept.

The module-level pullbacks run on integer tables, not ``MultiPoly``: a term
T^k prod b_{a,b}^{e_ab} is one int with k in its lowest bit field and each
e_ab in a field of its own, so multiplying terms adds keys.  The image of
x_{i,j} is a sum over paths i < a_1 < ... < j (one b per step, T^k/k! for k
steps).  The coefficients lie in F_p, so Frobenius is one integer multiply
of a key by p, and the digit rule x^e = prod_s Frob^s(x^{d_s}) for the
base-p digits e = sum_s d_s p^s expands a power from the p - 1 digit powers
of each image (:func:`~expfilt.polyring.frobenius_images`, shared with the
coproduct table, with a per-call memo and the desk-scale term bound).  A
term of the pullback of m has T exponent at most (N-1) deg m and b exponents
at most deg m, so fields of ((N-1) max deg).bit_length() bits never carry.
``exp_pullback`` remains the per-polynomial route.
"""

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

from . import coalgebras, linalg
from .comodule import CoalgebraSubspace, Comodule
from .fpcomb import PrimeField, digit_sums
from .ga import GaUFamily, derived_v
from .linalg import Matrix, Subspace
from .polyring import Monomial, MultiPoly, frobenius_images, monomial_degree
from .un import UNContext, degree_piece

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
        if not linalg.is_zero_matrix(
            linalg.mat_pow(self.entries, self.field.p, self.field), self.field
        ):
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

    def variables(self) -> tuple:
        return tuple(
            f"b{i}_{j}" for i in range(1, self.N + 1) for j in range(i + 1, self.N + 1)
        )


def truncated_exp(B: NilpotentMatrix) -> list:
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
def _symbolic_exp(field: PrimeField, N: int) -> tuple:
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
        new = [[zero for _ in range(N)] for _ in range(N)]
        for i in range(N):
            for j in range(N):
                acc = zero
                for s in range(N):
                    if not power[i][s].is_zero() and not B[s][j].is_zero():
                        acc = acc + power[i][s] * B[s][j]
                new[i][j] = acc
        power = new
        tpow = tpow * t
    return tuple(tuple(row) for row in out)


def exp_assignment(B) -> dict:
    """x_{i,j} -> (exp_B(T))_{i,j} for every entry of the N x N matrix.

    ``B`` is a :class:`NilpotentMatrix` (entries polynomials in T) or a
    :class:`SymbolicNilpotentDomain` (entries in T and the b-variables).
    """
    if isinstance(B, SymbolicNilpotentDomain):
        exp_matrix = _symbolic_exp(B.field, B.N)
    elif isinstance(B, NilpotentMatrix):
        exp_matrix = truncated_exp(B)
    else:
        raise TypeError("B must be a NilpotentMatrix or a SymbolicNilpotentDomain")
    return {f"x{i + 1}_{j + 1}": exp_matrix[i][j] for i in range(B.N) for j in range(B.N)}


def exp_pullback(f: MultiPoly, B) -> ExpPullback:
    """Substitute x_{i,j} -> (exp_B(T))_{i,j}.

    ``B`` is a :class:`NilpotentMatrix` (numeric pullback, a polynomial in T)
    or a :class:`SymbolicNilpotentDomain` (coefficients polynomial in the
    b-variables).  Functions on the full matrix space use the convention that
    absent entries of a triangular exponential are 1 on the diagonal and 0
    below it.
    """
    for v in f.variables():
        if not v.startswith("x"):
            raise ValueError(f"exp_pullback expects matrix coordinates, got {v!r}")
    return f.substitute(exp_assignment(B))


def _split_t_power(pmono: Monomial) -> tuple:
    """(T exponent, remaining b-monomial) of a canonical pullback monomial.

    T sorts first in the canonical variable order, so it can only lead.
    """
    if pmono and pmono[0][0] == "T":
        return pmono[0][1], pmono[1:]
    return 0, pmono


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
        if linalg.is_zero_matrix(linalg.mat_pow(mat, field.p, field), field):
            out.append(NilpotentMatrix(field, N, mat))
    return out


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


def coalg_filtration_piece(ctx: UNContext, d: int, Dmax: int) -> CoalgebraSubspace:
    """Basis of {f of degree <= Dmax : coalg_exp_degree(f) <= d}.

    Kernel of the linear map sending f's coefficients to the
    (b-monomial, T^j)-coefficients for all j > d.
    """
    if d < 0 or Dmax < 0:
        raise ValueError("d and Dmax must be nonnegative")
    domain = SymbolicNilpotentDomain(ctx.field, ctx.N)
    basis = degree_piece(ctx, Dmax + 1)
    constraints = {}  # (j, b-monomial) -> row over basis coordinates
    for col, mono in enumerate(basis):
        pb = exp_pullback(MultiPoly.from_monomial(ctx.field, mono), domain)
        for pmono, c in pb.terms.items():
            j, rest = _split_t_power(pmono)
            if j <= d:
                continue
            row = constraints.setdefault((j, rest), [0] * len(basis))
            row[col] = (row[col] + c) % ctx.field.p
    kernel = linalg.kernel_of(list(constraints.values()), len(basis), ctx.field)
    return CoalgebraSubspace(ctx.field, ctx.coalgebra, tuple(basis), kernel)


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


def _pullback_table(M: Comodule) -> tuple:
    """(acts, pulled, mask): the per-monomial actions and their pullbacks.

    ``acts`` is ``M.acts``; ``pulled[k]`` is
    the pullback of its k-th monomial along exp of the generic B, as
    {packed key: coeff} with the T power in ``key & mask`` and the
    b-monomial in the bits above (see :func:`_generic_exp_images`), all
    from one :func:`~expfilt.polyring.frobenius_images` call.  The
    coaction is sum_mu mu A_mu, so the pullback of entry f_{ji} is
    sum_mu (A_mu)_{ji} pulled[mu]: callers sum only the terms they need.
    """
    if M.coalgebra.kind != "UNPoly":
        raise ValueError("exponential filtration needs a comodule over k[U_N]")
    fld = M.field
    N = M.coalgebra.N
    SymbolicNilpotentDomain(fld, N)  # raises unless N <= p
    gens = coalgebras.generator_vars(M.coalgebra)
    acts = M.acts
    monos = list(acts)
    coalgebras.require_generators(M.coalgebra, monos)
    # a term of the pullback of m has T exponent <= (N-1) deg m and b
    # exponents <= deg m, so W-bit fields never carry
    top = max((monomial_degree(m) for m in monos), default=0)
    W = max(1, ((N - 1) * top).bit_length())
    pulled = frobenius_images(
        fld, _generic_exp_images(fld, gens, W), {v: s for s, v in enumerate(gens)},
        monos, "exponential pullback",
    )
    return acts, pulled, (1 << W) - 1


def module_exp_filtration(M: Comodule, d: int) -> Subspace:
    """M_{[d]}: vectors whose coaction pullbacks have no T^j term, j > d.

    Constraint row (j, T^k b) is the T^k b coefficient of the pullbacks of
    row j of the coaction, summed as sum_mu c A_mu[j] over the pullback
    terms c T^k b of each monomial mu with k > d; monomials without such
    terms are skipped.  Rows that are scalar multiples of one another are
    kept once.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    acts, pulled, mask = _pullback_table(M)
    p = M.field.p
    constraints = defaultdict(lambda: defaultdict(int))  # (row j, key) -> {i: coeff}
    for act, terms in zip(acts.values(), pulled):
        high = [(key, c) for key, c in terms.items() if key & mask > d]
        if not high:
            continue
        for j, i, a in act:
            for key, c in high:
                constraints[j, key][i] += a * c
    rows = []
    for row in constraints.values():
        line = [(i, v % p) for i, v in row.items() if v % p]
        if line:
            rows.append(line)
    return linalg.kernel_of(linalg.distinct_lines(rows, M.dim, M.field), M.dim, M.field)


def exponential_degree(M) -> int:
    """Minimal d with M_{[d]} = M.

    Equals the largest T-degree among the pullbacks of the coaction entries
    (for the additive group: the largest T-exponent in the coaction).
    Accepts a Comodule over k[Ga] or k[U_N] (N <= p), or a GaUFamily.  Over
    k[U_N] the T powers of the pullback table are visited from the top
    down; the first whose (j, i, b) coefficients sum_mu c A_mu[j][i] do not
    all vanish is the degree.
    """
    if isinstance(M, GaUFamily):
        return ga_exponential_degree(M)
    if M.coalgebra.kind == "GaPoly":
        return max((e for m in M.acts for v, e in m if v == "T"), default=0)
    acts, pulled, mask = _pullback_table(M)
    p = M.field.p
    by_power = defaultdict(list)  # T power -> [(A_mu entries, key, coeff)]
    for act, terms in zip(acts.values(), pulled):
        for key, c in terms.items():
            by_power[key & mask].append((act, key, c))
    for k in sorted(by_power, reverse=True):
        if k == 0:
            break
        acc = defaultdict(int)
        for act, key, c in by_power[k]:
            for j, i, a in act:
                acc[j, i, key] += a * c
        if any(v % p for v in acc.values()):
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
    return Comodule.of_acts(M.field, M.coalgebra, M.dim, acts)


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
    domain = SymbolicNilpotentDomain(ctx.field, ctx.N)
    bound = (p - 1) * (d - 1)
    for mono in degree_piece(ctx, min(d, Dmax + 1)):
        f = MultiPoly.from_monomial(ctx.field, mono)
        if coalg_exp_degree(f, domain) > bound:
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
