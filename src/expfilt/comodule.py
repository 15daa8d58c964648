"""Finite-dimensional right comodules over a named coordinate coalgebra.

A comodule of dimension n is stored as one form of its coaction, the
per-monomial action table ``acts``.  The coaction is sum_mu mu A_mu over the
occurring coalgebra monomials mu, A_mu the action matrix of mu's dual
functional, and ``acts[mu]`` lists the nonzero entries (j, i, c) of A_mu,
A_mu[j][i] = c in [1, p), in any order; a monomial that acts as zero has
no key.  The polynomial matrix f_{ji} = sum_mu A_mu[j][i] mu, column i
giving Delta(e_i) = sum_j e_j (x) f_{ji}, is a read-only view
(``Comodule.coaction``, tuples of ``MultiPoly``) rebuilt on each access.
The constructor ``Comodule(field, coalgebra, dim, matrix)`` is the one place
where polynomial entries become ``acts``; builders write ``acts`` directly
(:meth:`Comodule.of_acts`, with :func:`acts_from_sums` when they accumulate
coefficients).  On top of that sit the comodule-law validator,
dual-functional actions, coideal preimages, radical quotients, the
local-algebra freeness test, and Jordan types of p-nilpotent operators.

The validator reads the table column-major (:func:`_sparse_columns`): every
occurring monomial gets an integer id and each nonzero entry f_{ji} becomes
a list of (id, coeff) pairs, filed under its column i.  Membership is then
decided once per distinct monomial, the counit is evaluated once per
distinct monomial and summed over the nonzero pattern, and coassociativity
compares integer-keyed coefficient tables against a Delta table built by one
:func:`coalgebras.coproduct_table` call (Frobenius digits, a per-call memo
over monomial prefixes, the desk-scale term guard), so no ``MultiPoly``
arithmetic runs inside the index-triple loop.  For Ga and U_N kinds the
comparison first runs on the keys whose left factor is a generator to a
p-power only, which decides the verdict (the generator theorem in
:func:`validate`); ``MatPoly`` and rejected coactions take the full table.

Since the coaction is sum_mu mu A_mu, any linear image of its entries is
sum_mu image(mu) A_mu; the exponential layer and Theta accumulate such sums
(see :mod:`expfilt.expdeg` and :mod:`expfilt.support`).  A coideal preimage
for a monomial-spanned B, given as a membership test, is the kernel of the
rows of A_mu for every mu outside B; stability and restriction apply A_mu to
the basis rows of a subspace and compare with its pivot coordinates; a
quotient is P A_mu on the kept columns; base change by g is g A_mu g^{-1}.
"""

from collections import defaultdict
from dataclasses import dataclass, field as dc_field

from . import coalgebras, linalg
from .coalgebras import CoalgebraId
from .fpcomb import PrimeField
from .linalg import Matrix, Subspace
from .polyring import Monomial, MultiPoly, monomial_degree, monomial_sort_key


@dataclass(init=False, repr=False, eq=False)
class Comodule:
    """A right comodule, stored as its action table ``acts`` (see the module docstring)."""

    field: PrimeField
    coalgebra: CoalgebraId
    dim: int
    acts: dict  # {monomial mu: [(j, i, c), ...]}, the nonzero A_mu[j][i] = c in any order

    def __init__(self, field: PrimeField, coalgebra: CoalgebraId, dim: int, matrix):
        """The comodule whose coaction matrix has entries matrix[j][i] = f_{ji}."""
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValueError("coaction matrix is not dim x dim")
        acts = defaultdict(list)
        for j, row in enumerate(matrix):
            for i, f in enumerate(row):
                for m, c in f.terms.items():
                    acts[m].append((j, i, c))
        self.field, self.coalgebra, self.dim, self.acts = field, coalgebra, dim, dict(acts)

    @classmethod
    def of_acts(cls, field: PrimeField, coalgebra: CoalgebraId, dim: int, acts: dict) -> "Comodule":
        """The comodule with action table ``acts``, taken as it is (no copy, no check)."""
        M = cls.__new__(cls)
        M.field, M.coalgebra, M.dim, M.acts = field, coalgebra, dim, acts
        return M

    @property
    def coaction(self) -> tuple:
        """coaction[j][i] = f_{ji} as ``MultiPoly``: a view, rebuilt on each access."""
        n = self.dim
        terms = [[{} for _ in range(n)] for _ in range(n)]
        for m, act in self.acts.items():
            for j, i, c in act:
                terms[j][i][m] = c
        fld = self.field
        zero = MultiPoly.zero(fld)
        return tuple(tuple(MultiPoly(fld, t) if t else zero for t in row) for row in terms)

    def __eq__(self, other):
        """Same field, coalgebra, dimension and action table, entries in any order."""
        if not isinstance(other, Comodule):
            return NotImplemented
        return (
            (self.field, self.coalgebra, self.dim) == (other.field, other.coalgebra, other.dim)
            and self.acts.keys() == other.acts.keys()
            and all(sorted(act) == sorted(other.acts[m]) for m, act in self.acts.items())
        )

    def occurring_monomials(self) -> list:
        """All coalgebra monomials appearing in the coaction, sorted."""
        return sorted(self.acts, key=monomial_sort_key)

    def max_entry_degree(self) -> int:
        """Top total degree over the distinct monomials of the coaction."""
        return max(map(monomial_degree, self.acts), default=0)

    def __repr__(self):
        return f"Comodule(dim {self.dim} over {self.coalgebra}, F_{self.field.p})"


def acts_from_sums(sums: dict, p: int) -> dict:
    """``acts`` from {mu: {(j, i): coefficient}}, reduced mod p, zeros dropped."""
    acts = {}
    for m, entries in sums.items():
        act = [(j, i, c % p) for (j, i), c in entries.items() if c % p]
        if act:
            acts[m] = act
    return acts


def trivial_comodule(field: PrimeField, coalg: CoalgebraId, dim: int) -> Comodule:
    return Comodule.of_acts(field, coalg, dim, {(): [(j, j, 1) for j in range(dim)]} if dim else {})


@dataclass
class ValidationReport:
    ok: bool
    violations: list = dc_field(default_factory=list)

    def __bool__(self):
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(
            f"{v['law']} violation at basis e_{v['index'] + 1}" for v in self.violations
        )


def _sparse_columns(M: Comodule):
    """The column-major read of ``acts``: interned monomials and nonzero columns.

    Returns ``(monos, cols)``: ``monos[k]`` is the monomial with id k, in
    ``acts`` order, and ``cols[i]`` lists ``(j, [(id, coeff), ...])`` for
    every nonzero f_{ji}, j ascending.
    """
    cols = [defaultdict(list) for _ in range(M.dim)]
    for k, act in enumerate(M.acts.values()):
        for j, i, c in act:
            cols[i][j].append((k, c))
    return list(M.acts), [sorted(col.items()) for col in cols]


def _coproduct_table(M: Comodule, monos: list, left_cap=None, left_ok=None) -> tuple:
    """(table, K): Delta of each interned monomial as [(left id * K + right id, coeff)].

    One :func:`coalgebras.coproduct_table` call expands every monomial.  Its
    factors are interned into the id space of ``monos`` (ids of monomials
    that occur in the coaction are kept, other factors get fresh ids), and K
    is the final number of ids, so a key determines its (left, right) pair.
    ``left_cap`` is passed on; ``left_ok``, a predicate on monomials, keeps
    only the terms whose left factor passes it.
    """
    factors, table = coalgebras.coproduct_table(M.coalgebra, M.field, monos, left_cap)
    ids = {m: k for k, m in enumerate(monos)}
    fid = [ids.setdefault(f, len(ids)) for f in factors]
    K = len(ids)
    keep = [left_ok is None or left_ok(f) for f in factors]
    return [[(fid[a] * K + fid[b], c) for a, b, c in terms if keep[a]] for terms in table], K


def _generator_power_test(p: int, top: int):
    """(cap, test): the largest p^r <= top (1 when top is 0), and a test for
    the monomials x_v^(p^s) with p^s <= cap, one generator to a p-power."""
    powers = {1}
    cap = 1
    while cap * p <= top:
        cap *= p
        powers.add(cap)
    return cap, lambda m: len(m) == 1 and m[0][1] in powers


def _coassociativity(M: Comodule, monos: list, cols: list, generators_only: bool) -> list:
    """Coassociativity violations, component (l, i) column then row.

    For each column i the diff sum_j f_{lj} (x) f_{ji} - Delta(f_{li}) is
    accumulated over the nonzero pattern only (j in nz(col i), then l in
    nz(col j)), multiplying out the two entries' term lists, and a
    component is violated when its diff does not vanish mod p.

    ``generators_only``: compare only the keys whose left factor is one
    generator to a p-power, x_v^(p^r) <= the top degree, on a Delta table
    capped by left degree; by the generator theorem of :func:`validate`
    this decides the verdict for Ga and U_N kinds once the counit law holds.
    """
    p = M.field.p
    if generators_only:
        cap, left_ok = _generator_power_test(p, max(map(monomial_degree, monos), default=0))
        delta, K = _coproduct_table(M, monos, cap, left_ok)
        ok = [left_ok(m) for m in monos]
    else:
        delta, K = _coproduct_table(M, monos)
        ok = [True] * len(monos)
    # a component's diff is keyed l * K^2 + left id * K + right id; each entry
    # as a left factor is kept as its kept ids pre-shifted by l * K^2 + id * K
    KK = K * K
    lefts = [
        [(l * KK + a * K, c) for l, terms in col for a, c in terms if ok[a]] for col in cols
    ]
    violations = []
    for i, col in enumerate(cols):
        diff = defaultdict(int)  # unreduced lhs - rhs coefficients of column i
        for l, terms in col:
            base = l * KK
            for k, c in terms:
                for key, dc in delta[k]:
                    diff[base + key] -= c * dc
        for j, right in col:
            for a, ca in lefts[j]:
                for b, cb in right:
                    diff[a + b] += ca * cb
        for l in sorted({key // KK for key, v in diff.items() if v % p}):
            violations.append(
                {
                    "law": "coassociativity",
                    "index": i,
                    "detail": f"component ({l},{i}) disagrees",
                }
            )
    return violations


def validate(M: Comodule) -> ValidationReport:
    """Check membership, the counit law and coassociativity of the coaction.

    Violations are listed per law in a fixed order: membership by entry
    (j, i) row-major, counit by column then row, coassociativity by
    component (l, i) column then row; a failing law stops the later ones.

    Membership and the counit are decided once per distinct monomial of the
    coaction; an entry's counit is the sum of its terms' values, and a zero
    diagonal entry is still reported.  Coassociativity,
    sum_j f_{lj} (x) f_{ji} = Delta(f_{li}), first builds the Delta table of
    every distinct monomial in one call, then runs one sparse loop
    (:func:`_coassociativity`).

    Generator theorem.  Write A_phi = (1 (x) phi) rho for a functional phi;
    the (phi, psi) component of the diff is (A_phi A_psi - A_{phi psi})[l][i]
    on monomial duals.  For Ga and U_N kinds the dual of x_v^k is the divided
    power X_v^(k), and the distribution algebra is generated by the
    X_v^(p^r) (Jantzen, I.7-I.9).  So once A_eps = I (the counit law),
    A_{g psi} = A_g A_psi for every generator g gives A_{phi psi} =
    A_phi A_psi for every phi, by induction on word length: the diff
    vanishes as soon as it vanishes on the keys whose left factor is some
    x_v^(p^r).  Generators above the top degree d of the coaction act as zero
    on both sides (left degrees of Delta(m) are at most deg m), so the loop
    first runs on the Delta table capped at left degree max p^r <= d with
    only those keys kept.  ``MatPoly`` has no such generators (for N = 1, x
    is grouplike) and always takes the full table; so does a Ga or U_N
    coaction the generator pass rejects, which keeps the violation list the
    per-component one of the full comparison.
    """
    coalg = M.coalgebra
    fld = M.field
    monos, cols = _sparse_columns(M)
    member = coalgebras.monomial_members(coalg, fld, monos)
    if not all(member):
        bad = sorted(
            (j, i)
            for i, col in enumerate(cols)
            for j, terms in col
            if not all(member[k] for k, _ in terms)
        )
        return ValidationReport(False, [
            {"law": "membership", "index": i, "detail": f"entry ({j},{i}) not in {coalg}"}
            for j, i in bad
        ])

    violations = []
    p = fld.p
    eps = coalgebras.monomial_counits(coalg, monos)
    for i, col in enumerate(cols):
        values = {j: sum(c * eps[k] for k, c in terms) % p for j, terms in col}
        values.setdefault(i, 0)  # a zero diagonal entry still owes the value 1
        for j in sorted(values):
            want = 1 if i == j else 0
            if values[j] != want:
                violations.append(
                    {
                        "law": "counit",
                        "index": i,
                        "detail": f"entry ({j},{i}) evaluates to {values[j]} at the identity, want {want}",
                    }
                )
    if violations:
        return ValidationReport(False, violations)

    if coalg.kind != "MatPoly" and not _coassociativity(M, monos, cols, True):
        return ValidationReport(True, [])
    violations = _coassociativity(M, monos, cols, False)
    return ValidationReport(not violations, violations)


# -- dual-functional actions -------------------------------------------------


def action_matrix(M: Comodule, mono: Monomial) -> Matrix:
    """Matrix of the dual-basis functional of one monomial: A[j][i] = coeff."""
    A = linalg.zeros(M.dim, M.dim)
    for j, i, c in M.acts.get(mono, ()):
        A[j][i] = c
    return A


def dual_action(M: Comodule, functional: dict) -> Matrix:
    """Matrix of m -> (1 (x) phi) Delta_M(m) for a finitely supported phi.

    ``functional`` maps coalgebra monomials to scalars; monomials outside the
    stated coalgebra are rejected.
    """
    fld = M.field
    if not all(coalgebras.monomial_members(M.coalgebra, fld, functional)):
        raise ValueError(f"functional supported outside {M.coalgebra}")
    out = linalg.zeros(M.dim, M.dim)
    for mono, c in functional.items():
        for j, i, a in M.acts.get(mono, ()):
            out[j][i] += c * a
    return linalg.mat_mod(out, fld)


def action_matrices(M: Comodule) -> dict:
    """{occurring monomial: action matrix}; all other duals act as zero.

    Keys come in ``occurring_monomials`` order.
    """
    return {m: action_matrix(M, m) for m in M.occurring_monomials()}


# -- subspaces of a coalgebra piece ------------------------------------------


@dataclass
class CoalgebraSubspace:
    """A subspace of a finite monomial span inside a coalgebra."""

    field: PrimeField
    coalgebra: CoalgebraId
    monomials: tuple  # ordered monomial basis of the ambient piece
    space: Subspace  # subspace of F_p^{len(monomials)}

    def extended_to(self, monomials) -> "CoalgebraSubspace":
        """Re-embed into a larger ambient monomial list (zero on new coords)."""
        monomials = tuple(monomials)
        index = {m: k for k, m in enumerate(monomials)}
        for m in self.monomials:
            if m not in index:
                raise ValueError("ambient does not contain the current monomials")
        vectors = []
        for row in self.space.rows:
            v = [0] * len(monomials)
            for m, c in zip(self.monomials, row):
                if c:
                    v[index[m]] = c
            vectors.append(v)
        return CoalgebraSubspace(
            self.field,
            self.coalgebra,
            monomials,
            Subspace.from_vectors(self.field, len(monomials), vectors),
        )

    def basis_polys(self) -> list:
        out = []
        for row in self.space.rows:
            terms = {m: c for m, c in zip(self.monomials, row) if c}
            out.append(MultiPoly(self.field, terms))
        return out


def degree_below(coalg: CoalgebraId, d: int):
    """Membership test of k[C]_{<d}: monomials in C's generators of degree < d."""
    gens = frozenset(coalgebras.generator_vars(coalg))
    return lambda m: monomial_degree(m) < d and all(v in gens for v, _ in m)


def coideal_preimage(M: Comodule, inside) -> Subspace:
    """Basis of {m in M : Delta_M(m) in M (x) B} for a monomial-spanned B.

    ``inside(mono)`` tells whether a coalgebra monomial lies in B.  Since B
    is spanned by monomials, m is in the preimage iff A_mu m = 0 for every
    occurring monomial mu outside B, so the result is the kernel of the rows
    of those action matrices; rows that are multiples of one another are
    kept once.  When B is a right coideal the result is coaction-stable (see
    :func:`is_coaction_stable`).
    """
    rows = []
    for m, act in M.acts.items():
        if inside(m):
            continue
        by_row = defaultdict(list)  # row j of A_mu
        for j, i, c in act:
            by_row[j].append((i, c))
        rows.extend(by_row.values())
    return linalg.kernel_of(linalg.distinct_lines(rows, M.dim, M.field), M.dim, M.field)


def _check_ambient(M: Comodule, S: Subspace):
    if S.ambient != M.dim:
        raise ValueError("subspace ambient does not match module dimension")


def _images(cols, s: dict) -> dict:
    """{monomial id: {l: (A_mu s)_l}}, unreduced, for a sparse vector s = {i: s_i}."""
    out = {}
    for i, si in s.items():
        for l, terms in cols[i]:
            for k, c in terms:
                w = out.get(k)
                if w is None:
                    w = out[k] = defaultdict(int)
                w[l] += si * c
    return out


def _pivot_images(M: Comodule, S: Subspace):
    """(monos, images) with images[a][k] = {b: (A_mu s_a) at pivot b}, or None.

    A_mu s_a lies in S iff it equals sum_b (A_mu s_a)[piv_b] s_b, because S
    is in reduced echelon form; None means some image does not, i.e. S is
    not coaction-stable.
    """
    _check_ambient(M, S)
    p = M.field.p
    monos, cols = _sparse_columns(M)
    pos = {piv: b for b, piv in enumerate(S.pivots)}
    rows = [{l: c for l, c in enumerate(row) if c} for row in S.rows]
    images = []
    for s in rows:
        at_pivots = {}
        for k, w in _images(cols, s).items():
            w = {l: v % p for l, v in w.items() if v % p}
            coeffs = {pos[l]: v for l, v in w.items() if l in pos}
            recon = defaultdict(int)
            for b, v in coeffs.items():
                for l, c in rows[b].items():
                    recon[l] += v * c
            if {l: v % p for l, v in recon.items() if v % p} != w:
                return None
            if coeffs:
                at_pivots[k] = coeffs
        images.append(at_pivots)
    return monos, images


def is_coaction_stable(M: Comodule, S: Subspace) -> bool:
    """S is stable under every dual-basis action of an occurring monomial."""
    return _pivot_images(M, S) is not None


def restrict_to_subspace(M: Comodule, S: Subspace) -> Comodule:
    """The subcomodule on a coaction-stable subspace, in S's RREF basis.

    Entry (b, a) is sum_mu (A_mu s_a)[piv_b] mu.
    """
    found = _pivot_images(M, S)
    if found is None:
        raise ValueError("subspace is not coaction-stable")
    monos, images = found
    sums = defaultdict(dict)
    for a, at_pivots in enumerate(images):
        for mono_id, coeffs in at_pivots.items():
            for b, v in coeffs.items():
                sums[monos[mono_id]][b, a] = v
    return Comodule.of_acts(M.field, M.coalgebra, S.dim, acts_from_sums(sums, M.field.p))


def quotient_by_subspace(M: Comodule, S: Subspace) -> Comodule:
    """The quotient comodule M/S for a coaction-stable S.

    With P the projection onto the non-pivot coordinates, the quotient's
    action of mu is P A_mu on those columns; P A_mu s must vanish for every
    basis row s of S.
    """
    _check_ambient(M, S)
    fld = M.field
    p = fld.p
    pivset = set(S.pivots)
    keep = [i for i in range(M.dim) if i not in pivset]
    # proj[l]: e_l in the quotient coordinates, as (index, coeff) pairs
    proj = [[] for _ in range(M.dim)]
    for idx, i in enumerate(keep):
        proj[i].append((idx, 1))
    for row, piv in zip(S.rows, S.pivots):
        proj[piv] = [(idx, -row[i] % p) for idx, i in enumerate(keep) if row[i]]
    monos, cols = _sparse_columns(M)

    def project(w):
        out = defaultdict(int)
        for l, v in w.items():
            for b, c in proj[l]:
                out[b] += c * v
        return out

    sums = defaultdict(dict)
    for a, i in enumerate(keep):
        for mono_id, w in _images(cols, {i: 1}).items():
            for b, v in project(w).items():
                sums[monos[mono_id]][b, a] = v
    # well-definedness: Delta must kill S in the quotient coordinates
    for row in S.rows:
        s = {i: c for i, c in enumerate(row) if c}
        for w in _images(cols, s).values():
            if any(v % p for v in project(w).values()):
                raise ValueError("subspace is not coaction-stable")
    return Comodule.of_acts(fld, M.coalgebra, len(keep), acts_from_sums(sums, p))


def direct_sum(modules) -> Comodule:
    modules = list(modules)
    if not modules:
        raise ValueError("empty direct sum")
    fld = modules[0].field
    coalg = modules[0].coalgebra
    if any(m.field != fld or m.coalgebra != coalg for m in modules):
        raise ValueError("direct sum needs a common field and coalgebra")
    acts = defaultdict(list)
    off = 0
    for m in modules:
        for mono, act in m.acts.items():
            acts[mono].extend((j + off, i + off, c) for j, i, c in act)
        off += m.dim
    return Comodule.of_acts(fld, coalg, off, dict(acts))


def conjugate(M: Comodule, g: Matrix) -> Comodule:
    """Base change by an invertible g: the action of mu becomes g A_mu g^{-1}."""
    n = M.dim
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("base change matrix does not match module dimension")
    fld = M.field
    p = fld.p
    ginv = linalg.mat_inverse(g, fld)
    acts = {}
    for mono, act in M.acts.items():
        ag = {}  # j -> row j of A_mu g^{-1}, unreduced
        for j, i, c in act:
            row = ag.get(j)
            if row is None:
                ag[j] = [c * x for x in ginv[i]]
            else:
                ag[j] = [a + c * x for a, x in zip(row, ginv[i])]
        out = []
        for r, grow in enumerate(g):
            acc = [0] * n
            for j, row in ag.items():
                c = grow[j] % p
                if c:
                    acc = [a + c * x for a, x in zip(acc, row)]
            out.extend((r, q, v % p) for q, v in enumerate(acc) if v % p)
        if out:
            acts[mono] = out
    return Comodule.of_acts(fld, M.coalgebra, n, acts)


# -- radical quotients and local freeness -------------------------------------


def radical_quotient_dim(M: Comodule) -> int:
    """dim(M / rad(A).M) over the local dual algebra A of a truncated id.

    rad(A) is spanned by the dual-basis functionals of non-identity monomials;
    only monomials occurring in the coaction can act nonzero, so rad(A).M is
    spanned by the nonzero columns of their action matrices, read sparsely
    from ``acts`` and kept once per line.
    """
    if not M.coalgebra.is_truncated():
        raise ValueError("radical quotient needs a truncated (finite) coalgebra")
    columns = []
    for mono, act in M.acts.items():
        if mono == ():
            continue
        col = defaultdict(list)  # column i of A_mu
        for j, i, c in act:
            col[i].append((j, c))
        columns.extend(col.values())
    vectors = linalg.distinct_lines(columns, M.dim, M.field)
    return M.dim - Subspace.from_vectors(M.field, M.dim, vectors).dim


@dataclass
class FreenessVerdict:
    free: bool
    dim_module: int
    dim_dual_algebra: int
    top_dim: int

    def witness(self) -> dict:
        return {
            "dim_module": self.dim_module,
            "dim_dual_algebra": self.dim_dual_algebra,
            "top_dim": self.top_dim,
        }


def local_freeness(M: Comodule) -> FreenessVerdict:
    """Freeness over the local dual algebra: dim M = dim A * dim(M / rad M)."""
    dim_a = coalgebras.dual_algebra_dim(M.coalgebra, M.field)
    top = radical_quotient_dim(M)
    return FreenessVerdict(M.dim == dim_a * top, M.dim, dim_a, top)


# -- Jordan types --------------------------------------------------------------


@dataclass(frozen=True)
class JordanType:
    """Partition of dim recording Jordan block sizes of a p-nilpotent operator."""

    parts: tuple

    def __post_init__(self):
        if list(self.parts) != sorted(self.parts, reverse=True) or any(
            x <= 0 for x in self.parts
        ):
            raise ValueError("parts must be weakly decreasing positive integers")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def is_free(self, field: PrimeField) -> bool:
        """Free over k[t]/t^p: all blocks have size p."""
        return bool(self.parts) and all(x == field.p for x in self.parts)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.parts) + ")"


def jordan_type(theta: Matrix, field: PrimeField) -> JordanType:
    """Jordan type from the ranks of theta, theta^2, ..., theta^p; requires theta^p = 0."""
    n = len(theta)
    p = field.p
    power = theta
    ranks = [n, linalg.mat_rank(power, n, field)]
    for _ in range(p - 1):
        power = linalg.mat_mul(power, theta, field)
        ranks.append(linalg.mat_rank(power, n, field))
    if ranks[p] != 0:
        raise ValueError("operator is not p-nilpotent")
    parts = []
    for k in range(1, p + 1):
        above = ranks[k + 1] if k + 1 <= p else 0
        count = (ranks[k - 1] - ranks[k]) - (ranks[k] - above)
        parts.extend([k] * count)
    parts.sort(reverse=True)
    return JordanType(tuple(parts))
