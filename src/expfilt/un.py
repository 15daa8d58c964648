"""The coordinate coalgebra of the upper unitriangular group U_N.

Degree pieces, dimension numerics for the Frobenius kernels, restriction
maps, and the standard comodule constructors (natural and symmetric-square,
both directly and by restriction from the N x N matrix coalgebra).  The
restrictions here are along group maps that send each coordinate function
to a generator, to 1 or to 0, so each is a relabelling of the action table:
from k[Ga] to k[U_2] it renames T to x1_2, and from k[M_N] to k[U_N] it
maps each monomial to its U_N part (:func:`un_part`) and sums the actions
that land on one monomial.  The restriction to a Frobenius kernel, which
drops the monomials past the truncation for k[Ga] and k[U_N] alike, is
:func:`expfilt.comodule.restrict_frobenius`, and the comodule degree
filtration is :func:`expfilt.comodule.degree_filtration`; a restriction
along a 1-parameter subgroup is :func:`expfilt.support.pullback_module`.
"""

import math
from collections import defaultdict
from dataclasses import dataclass

from . import coalgebras
from .coalgebras import CoalgebraId
from .comodule import Comodule, acts_from_sums, degree_filtration, linear_image
from .fpcomb import PrimeField
from .polyring import Monomial, _merge_monomials, monomial


@dataclass(frozen=True)
class UNContext:
    field: PrimeField
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")

    @property
    def m(self) -> int:
        """dim U_N = N(N-1)/2."""
        return self.N * (self.N - 1) // 2

    @property
    def coalgebra(self) -> CoalgebraId:
        return coalgebras.un_poly(self.N)

    def variables(self) -> tuple:
        return coalgebras.generator_vars(self.coalgebra)


def _bounded_monomials(nvars: int, maxdeg: int):
    """All exponent tuples of length nvars with total degree <= maxdeg."""
    if nvars == 0:
        yield ()
        return
    for e in range(maxdeg + 1):
        for rest in _bounded_monomials(nvars - 1, maxdeg - e):
            yield (e,) + rest


def degree_piece(ctx: UNContext, d: int) -> list:
    """Monomial basis of the span of functions of degree < d, sorted by degree."""
    if d < 1:
        raise ValueError("d must be >= 1")
    names = ctx.variables()
    out = []
    for exps in _bounded_monomials(len(names), d - 1):
        out.append(monomial({v: e for v, e in zip(names, exps)}))
    out.sort(key=lambda m: (sum(e for _, e in m), m))
    return out


@dataclass
class FrobeniusKernelDims:
    """Dimension numerics comparing k[U_N]_{<p^r} with the r-th kernel algebra."""

    N: int
    p: int
    r: int
    m: int
    dim_kernel: int  # number of truncated monomials
    dim_kernel_formula: int  # p^{rm}
    dim_piece_strict: int  # dim of the degree < p^r piece, C(m + p^r - 1, m)
    dim_piece_formula_claimed: int  # C(m + p^r, p^r), the quoted closed form
    formula_discrepancy: bool
    injective_check: bool
    surjective_check: bool
    claimed_formula_p_free: bool  # claimed value not divisible by p (when m < p^r)
    claimed_formula_not_pth_power: bool

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _is_perfect_power(value: int, e: int) -> bool:
    if value < 1:
        return False
    root = round(value ** (1.0 / e))
    for cand in (root - 1, root, root + 1):
        if cand >= 1 and cand**e == value:
            return True
    return False


def frobenius_kernel_dims(ctx: UNContext, r: int) -> FrobeniusKernelDims:
    """Dimension counts for k[U_{N(r)}] and the degree pieces, in closed form.

    dim k[U_{N(r)}] = p^{rm} (:func:`coalgebras.dual_algebra_dim`).  The degree
    < p^r piece has C(m+p^r-1, m) monomials, each exponent below p^r, so it
    embeds (injective_check); a truncated monomial has degree at most
    m(p^r-1) < p^r.m, so the degree < p^r.m piece surjects (surjective_check).
    The quoted closed form C(m+p^r, p^r) is flagged where it differs.  The
    ``dims`` suite of :mod:`expfilt.verify` enumerates every count.
    """
    p = ctx.field.p
    m = ctx.m
    kernel = coalgebras.un_trunc(ctx.N, r)
    dim_kernel = coalgebras.dual_algebra_dim(kernel, ctx.field)
    q = coalgebras.truncation_bound(kernel, ctx.field)
    piece = math.comb(m + q - 1, m)
    claimed = math.comb(m + q, q)
    return FrobeniusKernelDims(
        N=ctx.N,
        p=p,
        r=r,
        m=m,
        dim_kernel=dim_kernel,
        dim_kernel_formula=dim_kernel,
        dim_piece_strict=piece,
        dim_piece_formula_claimed=claimed,
        formula_discrepancy=claimed != piece,
        injective_check=True,
        surjective_check=True,
        claimed_formula_p_free=(claimed % p != 0) if m < q else True,
        claimed_formula_not_pth_power=not _is_perfect_power(claimed, p),
    )


# the one degree filtration, under the name the benchmark imports and traces
degree_filtration_un = degree_filtration


def degree_piece_comodule(ctx: UNContext, d: int) -> Comodule:
    """k[U_N]_{<d} as a comodule over k[U_N] on its monomial basis.

    Both coproduct legs of a degree < d function have degree < d, so the
    expansion of the left leg in the monomial basis always succeeds.  One
    :func:`coalgebras.coproduct_table` call gives Delta of every basis
    monomial; a term c basis[row] (x) mu of Delta(basis[col]) is the entry
    (row, col, c) of A_mu.
    """
    fld = ctx.field
    basis = degree_piece(ctx, d)
    idx = {m: k for k, m in enumerate(basis)}
    factors, table = coalgebras.coproduct_table(ctx.coalgebra, fld, basis)
    sums = defaultdict(dict)
    for col, terms in enumerate(table):
        for a, b, c in terms:
            row = idx.get(factors[a])
            if row is None:
                raise ValueError("coproduct leaves the degree piece")
            sums[factors[b]][row, col] = c
    return Comodule(fld, ctx.coalgebra, len(basis), acts_from_sums(sums, fld.p))


# -- standard comodules ---------------------------------------------------------


def natural_rep(ctx: UNContext) -> Comodule:
    """Column vectors: Delta(e_i) = e_i(x)1 + sum_{j<i} e_j(x)x_{j,i}."""
    N = ctx.N
    acts = {(): [(j, j, 1) for j in range(N)]}
    for j in range(N):
        for i in range(j + 1, N):
            acts[monomial({f"x{j + 1}_{i + 1}": 1})] = [(j, i, 1)]
    return Comodule(ctx.field, ctx.coalgebra, N, acts)


def sym_square_rep(ctx: UNContext) -> Comodule:
    """Symmetric square of the natural comodule on the monomial basis e_a e_b."""
    return _sym_square_of(natural_rep(ctx))


def _sym_square_of(M: Comodule) -> Comodule:
    """Delta(e_i e_j) = sum_{a,b} e_a e_b f_{ai} f_{bj}, on the basis e_a e_b, a <= b.

    Every pair of entries (a, i, c) of A_mu and (b, j, c') of A_nu adds
    c c' mu nu to the entry (e_a e_b, e_i e_j).
    """
    pairs = [(a, b) for a in range(M.dim) for b in range(a, M.dim)]
    idx = {ab: k for k, ab in enumerate(pairs)}
    cols = defaultdict(list)  # column i -> [(mu, a, c)] over the entries (a, i, c) of A_mu
    for mu, act in M.acts.items():
        for a, i, c in act:
            cols[i].append((mu, a, c))
    sums = defaultdict(lambda: defaultdict(int))
    for col, (i, j) in enumerate(pairs):
        for mu, a, c in cols[i]:
            for nu, b, cc in cols[j]:
                sums[_merge_monomials(mu, nu)][idx[min(a, b), max(a, b)], col] += c * cc
    return Comodule(M.field, M.coalgebra, len(pairs), acts_from_sums(sums, M.field.p))


# -- restrictions ----------------------------------------------------------------


def ga_as_u2(M: Comodule) -> Comodule:
    """View a k[Ga]-comodule over k[U_2] through T -> x1_2: T^e becomes x1_2^e."""
    if M.coalgebra.kind != "GaPoly":
        raise ValueError("ga_as_u2 needs a comodule over k[Ga]")
    coalgebras.require_generators(M.coalgebra, M.acts)
    acts = {tuple(("x1_2", e) for _, e in m): act for m, act in M.acts.items()}
    return Comodule(M.field, coalgebras.un_poly(2), M.dim, acts)


def un_part(m: Monomial):
    """The restriction of a k[M_N] monomial to U_N: x_{i,i} -> 1, and None
    (the monomial vanishes) when some x_{i,j} has i > j."""
    kept = []
    for v, e in m:
        i, j = map(int, v[1:].split("_"))
        if i > j:
            return None
        if i < j:
            kept.append((v, e))
    return tuple(kept)


def restrict_mat_to_un(M: Comodule) -> Comodule:
    """Restrict a k[M_N]-comodule (polynomial GL_N representation) to U_N.

    Each monomial acts through its :func:`un_part`; monomials with the same
    part add their actions.
    """
    if M.coalgebra.kind != "MatPoly":
        raise ValueError("restrict_mat_to_un needs a comodule over k[M_N]")
    coalgebras.require_generators(M.coalgebra, M.acts)
    images = {}
    for m in M.acts:
        part = un_part(m)
        if part is not None:
            images[m] = {part: 1}
    acts = linear_image(M.acts, images, M.field.p)
    return Comodule(M.field, coalgebras.un_poly(M.coalgebra.N), M.dim, acts)


def natural_rep_gl(field: PrimeField, N: int) -> Comodule:
    """The natural N-dimensional comodule over k[M_N]: f_{ji} = x_{j,i}."""
    acts = {monomial({f"x{j + 1}_{i + 1}": 1}): [(j, i, 1)] for j in range(N) for i in range(N)}
    return Comodule(field, coalgebras.mat_poly(N), N, acts)


def sym_square_rep_gl(field: PrimeField, N: int) -> Comodule:
    """Symmetric square of the natural k[M_N]-comodule (degree-2 polynomial rep)."""
    return _sym_square_of(natural_rep_gl(field, N))
