"""Finite-dimensional right comodules over a named coordinate coalgebra.

A comodule of dimension n is stored as one form of its coaction, the
per-monomial action table ``acts``.  The coaction is sum_mu mu A_mu over the
occurring coalgebra monomials mu, A_mu the action matrix of mu's dual
functional, and ``acts[mu]`` lists the nonzero entries (j, i, c) of A_mu,
A_mu[j][i] = c in [1, p), in any order; a monomial that acts as zero has
no key.  The one constructor, ``Comodule(field, coalgebra, dim, acts)``,
takes that table as it is: every builder, loader and restriction writes
``acts`` directly (with :func:`acts_from_sums` when it accumulates
coefficients).  The polynomial matrix f_{ji} = sum_mu A_mu[j][i] mu, column i
giving Delta(e_i) = sum_j e_j (x) f_{ji}, is a read-only view
(``Comodule.coaction``, tuples of ``MultiPoly``) rebuilt on each access,
which no library code reads.  On top of that sit the comodule-law validator,
dual-functional actions, linear images and row kernels, coideal preimages,
generated submodules, radical quotients, the local-algebra freeness test,
and Jordan types of p-nilpotent operators.

The validator reads ``acts`` as it is, a monomial's id its place in the
table.  Membership is decided once per distinct monomial, the counit law is
the sum sum_mu eps(mu) A_mu = I over the monomials whose counit is nonzero
(for Ga and U_N kinds the constant term alone), and coassociativity is one
pass over the entries of every A_mu (:func:`_coassociativity`) against a
Delta table built by one :func:`coalgebras.coproduct_table` call (Frobenius
digits, a per-call memo over monomial prefixes, the desk-scale term guard),
so no ``MultiPoly`` arithmetic runs in the pass.  For Ga and U_N kinds the
comparison first runs on the keys whose left factor is a generator to a
p-power only, which decides the verdict (the generator theorem in
:func:`validate`); ``MatPoly`` and rejected coactions take the full table.

Since the coaction is sum_mu mu A_mu, any linear read of it (a pullback,
a substitution, the constraint rows of a filtration) is a sum
sum_mu image(mu) A_mu, formed in one place, :func:`linear_image` (for a
scalar functional, :func:`dual_action`); kernels of such tables are taken
in one place, :func:`row_kernel`, which groups the entries of each matrix
by row and keeps each line once (the radical quotient ranks the same lines
of the transposed matrices).  A coideal preimage for a monomial-spanned
B, given as a membership test, is the row kernel of the A_mu for every mu
outside B, and the degree filtration M_{<d} of a k[Ga]- or k[U_N]-comodule
is the preimage of k[G]_{<d} (:func:`degree_filtration`); the submodule
generated by vectors s is the span of the A_mu s; stability, restriction
and quotient read one pass over ``acts`` (:func:`_split_actions`), which
applies each A_mu to the reduced basis rows of a subspace S (and, for the
quotient, to the unit vectors off its pivots) and splits every image into
its pivot coordinates and its residue modulo S; base change by g is
g A_mu g^{-1}.  The restriction of a k[Ga]- or k[U_N]-comodule to a
Frobenius kernel drops the monomials past the truncation
(:func:`restrict_frobenius`).
"""

from collections import defaultdict
from dataclasses import dataclass, field as dc_field

from . import coalgebras, linalg
from .coalgebras import CoalgebraId
from .fpcomb import PrimeField
from .linalg import Matrix, Subspace
from .polyring import Monomial, MultiPoly, monomial_degree, monomial_sort_key


@dataclass(repr=False, eq=False)
class Comodule:
    """A right comodule with action table ``acts``, taken as it is (no copy, no check).

    See the module docstring for the form of ``acts``.
    """

    field: PrimeField
    coalgebra: CoalgebraId
    dim: int
    acts: dict  # {monomial mu: [(j, i, c), ...]}, the nonzero A_mu[j][i] = c in any order

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
    return Comodule(field, coalg, dim, {(): [(j, j, 1) for j in range(dim)]} if dim else {})


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


def _coassociativity(M: Comodule, generators_only: bool) -> list:
    """Coassociativity violations, component (l, i) column then row.

    The diff sum_j f_{lj} (x) f_{ji} - Delta(f_{li}) of every component is
    summed straight from ``acts`` into one table keyed
    ((i * n + l) * K + left id) * K + right id (ids in ``acts`` order, the
    Delta table's other factors after), so sorted keys list the components
    column then row; a component is violated when its diff is nonzero mod p.
    Each entry (l, i, c) of A_mu subtracts c Delta(mu) and, as a left
    factor, adds c c' mu (x) nu for each entry (i, k, c') in row i of each
    A_nu (the rows are grouped once per call).

    ``generators_only``: compare only the keys whose left factor is one
    generator to a p-power, x_v^(p^r) <= the top degree, on a Delta table
    capped by left degree; by the generator theorem of :func:`validate`
    this decides the verdict for Ga and U_N kinds once the counit law holds.
    """
    p = M.field.p
    n = M.dim
    monos = list(M.acts)
    if generators_only:
        cap, left_ok = _generator_power_test(p, M.max_entry_degree())
        delta, K = _coproduct_table(M, monos, cap, left_ok)
    else:
        delta, K = _coproduct_table(M, monos)
    KK = K * K
    nKK = n * KK
    rows = [[] for _ in range(n)]  # rows[j]: (i * n * K^2 + right id, c) over every A_mu
    for b, act in enumerate(M.acts.values()):
        for j, i, c in act:
            rows[j].append((i * nKK + b, c))
    diff = defaultdict(int)  # unreduced lhs - rhs coefficients of every component
    for a, (m, act) in enumerate(M.acts.items()):
        terms = delta[a]
        left = not generators_only or left_ok(m)
        aK = a * K
        for l, i, c in act:
            base = (i * n + l) * KK
            for key, dc in terms:
                diff[base + key] -= c * dc
            if left:
                base = l * KK + aK
                for key, cb in rows[i]:
                    diff[base + key] += c * cb
    violated = sorted({key // KK for key, v in diff.items() if v % p})  # i * n + l
    return [
        {"law": "coassociativity", "index": q // n,
         "detail": f"component ({q % n},{q // n}) disagrees"}
        for q in violated
    ]


def validate(M: Comodule) -> ValidationReport:
    """Check membership, the counit law and coassociativity of the coaction.

    Violations are listed per law in a fixed order: membership by entry
    (j, i) row-major, counit by column then row, coassociativity by
    component (l, i) column then row; a failing law stops the later ones.

    Every law reads the action table ``acts`` as it is.  Membership is
    decided once per distinct monomial of the coaction.  The counit law
    sum_mu eps(mu) A_mu = I is summed over the monomials whose counit is
    nonzero only, and a zero diagonal entry is still reported.
    Coassociativity, sum_j f_{lj} (x) f_{ji} = Delta(f_{li}), first builds
    the Delta table of every distinct monomial in one call, then makes one
    pass over the entries of every A_mu (:func:`_coassociativity`).

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
    monos = list(M.acts)
    member = coalgebras.monomial_members(coalg, fld, monos)
    if not all(member):
        bad = sorted({
            (j, i) for ok, act in zip(member, M.acts.values()) if not ok for j, i, _ in act
        })
        return ValidationReport(False, [
            {"law": "membership", "index": i, "detail": f"entry ({j},{i}) not in {coalg}"}
            for j, i in bad
        ])

    # the counit law sum_mu eps(mu) A_mu = I, read on the mu with eps(mu) != 0
    p = fld.p
    values = defaultdict(int)  # (i, j) -> entry (j, i) at the identity, unreduced
    for m, e in zip(monos, coalgebras.monomial_counits(coalg, monos)):
        if e:
            for j, i, c in M.acts[m]:
                values[i, j] += e * c
    for i in range(M.dim):
        values[i, i] -= 1
    bad = sorted(ij for ij, v in values.items() if v % p)
    if bad:
        return ValidationReport(False, [
            {
                "law": "counit",
                "index": i,
                "detail": f"entry ({j},{i}) evaluates to {(values[i, j] + (i == j)) % p} "
                f"at the identity, want {int(i == j)}",
            }
            for i, j in bad
        ])

    if coalg.kind != "MatPoly" and not _coassociativity(M, True):
        return ValidationReport(True, [])
    violations = _coassociativity(M, False)
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


def linear_image(acts: dict, images: dict, p: int) -> dict:
    """sum_mu images[mu] A_mu as an ``acts``-form table {key: [(j, i, c)]}.

    ``images`` maps monomials of ``acts`` to {key: coeff}; the sum is reduced
    mod p, with zero entries and empty keys dropped.  Any linear read of the
    coaction sum_mu mu A_mu (a pullback, a filtration's constraint rows, a
    substitution) is this sum for the images of its monomials.
    """
    sums = {}  # key -> {(j, i): unreduced coeff}
    for mu, terms in images.items():
        act = acts[mu]
        for key, c in terms.items():
            entries = sums.get(key)
            if entries is None:
                entries = sums[key] = defaultdict(int)
            for j, i, a in act:
                entries[j, i] += c * a
    return acts_from_sums(sums, p)


def _row_lines(tables, ncols: int, field: PrimeField) -> list:
    """The rows of the listed A, each A its nonzero entries (j, i, c), grouped
    by j and kept once per line (which keeps their span and kernel)."""
    rows = []
    for table in tables:
        by_row = defaultdict(list)
        for j, i, c in table:
            by_row[j].append((i, c))
        rows.extend(by_row.values())
    return linalg.distinct_lines(rows, ncols, field)


def row_kernel(tables, ncols: int, field: PrimeField) -> Subspace:
    """{x : A x = 0 for every listed A}, each A its nonzero entries (j, i, c)."""
    return linalg.kernel_of(_row_lines(tables, ncols, field), ncols, field)


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
    return row_kernel((act for m, act in M.acts.items() if not inside(m)), M.dim, M.field)


def degree_filtration(M: Comodule, d: int) -> Subspace:
    """M_{<d} = {m : Delta_M(m) in M (x) k[G]_{<d}} for G = Ga or U_N, d >= 1."""
    if M.coalgebra.kind not in ("GaPoly", "UNPoly"):
        raise ValueError(f"degree filtration needs a comodule over k[Ga] or k[U_N], "
                         f"not {M.coalgebra.kind}")
    if d < 1:
        raise ValueError("d must be >= 1")
    return coideal_preimage(M, degree_below(M.coalgebra, d))


def _split_actions(M: Comodule, S: Subspace, units=()):
    """(coords, residues): each A_mu on S's RREF rows and on the unit vectors ``units``.

    An image w = A_mu v splits as sum_b w[piv_b] s_b + r over the basis rows
    s_b of S, the residue r zero at every pivot (the rows are reduced), so w
    lies in S iff r = 0.  One pass over ``acts`` applies each A_mu at once to
    every row s_a and to every e_i, i = units[a]; ``coords[mu]`` lists
    (b, a, w[piv_b]) for the rows and ``residues[mu]`` lists (l, a, r_l) for
    the units, nonzero entries only, and a monomial with no entry has no key.
    None when some residue of a row is nonzero, i.e. S is not coaction-stable.
    """
    if S.ambient != M.dim:
        raise ValueError("subspace ambient does not match module dimension")
    p = M.field.p
    n = M.dim
    pos = {piv: b for b, piv in enumerate(S.pivots)}
    rows = [[(l, c) for l, c in enumerate(row) if c] for row in S.rows]
    top = len(rows) * n  # image keys a * n + l below top belong to the rows
    cols = [[] for _ in range(n)]  # cols[i]: (a * n, v_a[i]) over the vectors v_a
    for a, row in enumerate(rows):
        for i, c in row:
            cols[i].append((a * n, c))
    for a, i in enumerate(units, len(rows)):
        cols[i].append((a * n, 1))
    coords, residues = {}, {}
    for mu, act in M.acts.items():
        w = defaultdict(int)  # a * n + l -> (A_mu v_a)_l, unreduced
        for j, i, c in act:
            for an, x in cols[i]:
                w[an + j] += c * x
        pivot_part = []  # (b, a * n, w[piv_b]) over every vector v_a
        for key, x in w.items():
            l = key % n
            if l in pos and x % p:
                pivot_part.append((pos[l], key - l, x % p))
        for b, an, c in pivot_part:
            for l, x in rows[b]:
                w[an + l] -= c * x
        residue = []
        for key, x in w.items():
            if x % p:
                if key < top:
                    return None
                residue.append((key % n, (key - top) // n, x % p))
        if residue:
            residues[mu] = residue
        on_rows = [(b, an // n, c) for b, an, c in pivot_part if an < top]
        if on_rows:
            coords[mu] = on_rows
    return coords, residues


def is_coaction_stable(M: Comodule, S: Subspace) -> bool:
    """S is stable under every dual-basis action of an occurring monomial."""
    return _split_actions(M, S) is not None


def restrict_to_subspace(M: Comodule, S: Subspace) -> Comodule:
    """The subcomodule on a coaction-stable subspace, in S's RREF basis.

    Entry (b, a) is sum_mu (A_mu s_a)[piv_b] mu.
    """
    split = _split_actions(M, S)
    if split is None:
        raise ValueError("subspace is not coaction-stable")
    return Comodule(M.field, M.coalgebra, S.dim, split[0])


def generated_submodule(M: Comodule, S) -> Subspace:
    """The subcomodule generated by the vectors S: the span of A_mu s, s in S.

    One level suffices: coassociativity gives A_nu A_mu = sum_lambda
    c^lambda_{nu mu} A_lambda over the coproduct coefficients, so the span
    is closed under every A_nu, and the counit law puts s in it.
    """
    vectors = []
    for s in S:
        for act in M.acts.values():
            v = [0] * M.dim
            for l, i, c in act:
                v[l] += c * s[i]
            vectors.append(v)
    return Subspace.from_vectors(M.field, M.dim, vectors)


def quotient_by_subspace(M: Comodule, S: Subspace) -> Comodule:
    """The quotient comodule M/S for a coaction-stable S.

    Its basis is the classes of the e_i off the pivots of S; the action of
    mu on the class of e_i is the residue of A_mu e_i modulo S, read at
    those coordinates.
    """
    keep = sorted(set(range(M.dim)) - set(S.pivots))
    split = _split_actions(M, S, keep)
    if split is None:
        raise ValueError("subspace is not coaction-stable")
    idx = {i: b for b, i in enumerate(keep)}
    acts = {mu: [(idx[l], a, r) for l, a, r in act] for mu, act in split[1].items()}
    return Comodule(M.field, M.coalgebra, len(keep), acts)


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
    return Comodule(fld, coalg, off, dict(acts))


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
    return Comodule(fld, M.coalgebra, n, acts)


# -- Frobenius kernels, radical quotients and local freeness -------------------


def restrict_frobenius(M: Comodule, r: int) -> Comodule:
    """Restrict a k[Ga]- or k[U_N]-comodule to the r-th Frobenius kernel: reduce
    the coaction mod the p^r-th powers of the generators."""
    if M.coalgebra.kind == "GaPoly":
        kernel = coalgebras.ga_trunc(r)  # rejects r < 1
    elif M.coalgebra.kind == "UNPoly":
        kernel = coalgebras.un_trunc(M.coalgebra.N, r)
    else:
        raise ValueError("restrict_frobenius needs a comodule over k[Ga] or k[U_N]")
    coalgebras.dual_algebra_dim(kernel, M.field)  # p^(r*m) under the guard before p^r
    bound = coalgebras.truncation_bound(kernel, M.field)
    acts = {m: act for m, act in M.acts.items() if all(e < bound for _, e in m)}
    return Comodule(M.field, kernel, M.dim, acts)


def radical_quotient_dim(M: Comodule) -> int:
    """dim(M / rad(A).M) over the local dual algebra A of a truncated id.

    rad(A) is spanned by the dual-basis functionals of non-identity monomials;
    only monomials occurring in the coaction can act nonzero, so rad(A).M is
    spanned by the nonzero columns of their action matrices: the rows of the
    transposed tables, kept once per line.
    """
    if not M.coalgebra.is_truncated():
        raise ValueError("radical quotient needs a truncated (finite) coalgebra")
    transposed = ([(i, j, c) for j, i, c in act] for mono, act in M.acts.items() if mono != ())
    return M.dim - linalg.mat_rank(_row_lines(transposed, M.dim, M.field), M.dim, M.field)


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
