"""Structures specific to the additive group: the divided-power family u_s/v_j,
rationality checks, the carries basis and the coalgebra splitting.  The
degree filtration and the restriction to a Frobenius kernel are
:func:`expfilt.comodule.degree_filtration` and
:func:`expfilt.comodule.restrict_frobenius`, shared with k[U_N].

A module is primarily a :class:`GaUFamily` (the matrices of the generators
u_s); the coaction form Delta(m) = sum_j v_j(m) (x) T^j is derived on demand,
with v_j = prod_s u_s^{j_s} / prod_s j_s! over the base-p digits of j.
:func:`derived_v` forms one v_j; :func:`comodule_to_family` reads the
nonzero v_j off :func:`~expfilt.linalg.digit_products`, the one walk over
the digit vectors that forms no product past a zero one (the same walk
expands a 1-parameter subgroup in :mod:`expfilt.support`).
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field

from . import coalgebras, linalg
from .comodule import Comodule, action_matrices, degree_filtration, restrict_frobenius
from .comodule import generated_submodule  # noqa: F401 (re-exported)
from .fpcomb import DESK_GUARD, PrimeField, binom_row_mod, digit_sums, digits
from .linalg import Matrix
from .polyring import monomial


@dataclass
class GaUFamily:
    """A module for the additive group given by commuting p-nilpotent u_s."""

    field: PrimeField
    dim: int
    u_mats: dict = dc_field(default_factory=dict)  # s -> dim x dim matrix

    def support(self) -> list:
        """Indices s with a nonzero u_s, sorted."""
        return sorted(
            s for s, m in self.u_mats.items() if not linalg.is_zero_matrix(m, self.field)
        )

    def u(self, s: int) -> Matrix:
        return self.u_mats.get(s, linalg.zeros(self.dim, self.dim))

    def is_trivial(self) -> bool:
        return not self.support()

    def __repr__(self):
        return f"GaUFamily(dim {self.dim}, support {self.support()}, F_{self.field.p})"


def validate_family(U: GaUFamily) -> list:
    """Violations of the family invariants (empty list when valid); the
    commutation checks run only when every u_s is dim x dim."""
    out = []
    fld = U.field
    mats = U.u_mats
    misshapen = False
    for s, m in mats.items():
        if len(m) != U.dim or any(len(r) != U.dim for r in m):
            out.append(f"u_{s} is not {U.dim}x{U.dim}")
            misshapen = True
        elif not linalg.is_p_nilpotent(m, fld):
            out.append(f"u_{s}^p != 0")
    if misshapen:
        return out
    keys = sorted(mats)
    for a_idx, s in enumerate(keys):
        for t in keys[a_idx + 1 :]:
            if not linalg.mats_commute(mats[s], mats[t], fld):
                out.append(f"u_{s} and u_{t} do not commute")
    return out


def require_valid_family(U: GaUFamily):
    bad = validate_family(U)
    if bad:
        raise ValueError("invalid u-family: " + "; ".join(bad))


def y_r_family(field: PrimeField, R: int) -> GaUFamily:
    """The 2-dimensional module with basis (v, w): u_s(v) = w for s <= R, else 0."""
    if R < 1:
        raise ValueError("R must be >= 1")
    e21 = [[0, 0], [1, 0]]
    return GaUFamily(field, 2, {s: [row[:] for row in e21] for s in range(R + 1)})


# -- the divided powers v_j ----------------------------------------------------


def derived_v(U: GaUFamily, j: int) -> Matrix:
    """The matrix of v_j = prod_s u_s^{j_s} / prod_s j_s! (base-p digits of j)."""
    fld = U.field
    if j == 0:
        return linalg.identity(U.dim)
    result = linalg.identity(U.dim)
    scalar = 1
    for s, js in enumerate(digits(j, fld.p)):
        if js == 0:
            continue
        us = U.u_mats.get(s)
        if us is None:
            return linalg.zeros(U.dim, U.dim)
        result = linalg.mat_mul(result, linalg.mat_pow(us, js, fld), fld)
        scalar = scalar * fld.inv_factorial(js) % fld.p
    return linalg.mat_scale(result, scalar, fld)


def family_to_comodule(U: GaUFamily) -> Comodule:
    """Coaction f_{ji} = sum_k (v_k)_{ji} T^k; finite by finite support."""
    require_valid_family(U)
    fld = U.field
    acts = {}
    for k in digit_sums(fld, U.support()):
        act = [(j, i, c) for j, row in enumerate(derived_v(U, k)) for i, c in enumerate(row) if c]
        if act:
            acts[monomial({"T": k})] = act
    return Comodule(fld, coalgebras.ga_poly(), U.dim, acts)


def comodule_to_family(M: Comodule) -> GaUFamily:
    """Extract u_s as the coefficient matrices of T^{p^s}.

    Raises when the extracted family violates its invariants or fails the
    consistency identity (which signals a non-comodule input).  The nonzero
    v_j of the identity come from one :func:`~expfilt.linalg.digit_products`
    walk over the divided powers of the u_s, so the work is bounded by the
    nonzero v_j, not by the p^|support| digit vectors.
    """
    if M.coalgebra.kind != "GaPoly":
        raise ValueError("comodule_to_family needs a comodule over k[Ga]")
    fld = M.field
    if any(v != "T" for m in M.acts for v, _ in m):
        raise ValueError("coaction entries must be polynomials in T")
    mats = {(m[0][1] if m else 0): A for m, A in action_matrices(M).items()}  # T power -> A
    u_mats = {}
    s = 0
    while fld.p**s <= max(mats, default=0):
        if fld.p**s in mats:
            u_mats[s] = mats[fld.p**s]
        s += 1
    fam = GaUFamily(fld, M.dim, u_mats)
    bad = validate_family(fam)
    if bad:
        raise ValueError("extracted family is invalid: " + "; ".join(bad))
    # v_j = 0 unless the nonzero base-p digits of j all sit at places in the
    # support, and the coefficient of T^j is 0 unless T^j occurs: only the
    # occurring j and the j with v_j != 0 (above the top degree too) can
    # disagree
    nonzero = linalg.digit_products(
        [(fld.p**s, linalg.divided_powers(fam.u(s), fld)) for s in fam.support()], M.dim, fld
    )
    zero = linalg.zeros(M.dim, M.dim)
    for j in sorted(mats.keys() | nonzero.keys()):
        if not linalg.mat_equal(mats.get(j, zero), nonzero.get(j, zero), fld):
            raise ValueError(f"coefficient of T^{j} disagrees with the divided-power formula")
    if not linalg.mat_equal(mats.get(0, zero), linalg.identity(M.dim), fld):
        raise ValueError("coefficient of T^0 is not the identity")
    return fam


# -- standard modules ----------------------------------------------------------


def regular_comodule(field: PrimeField, D: int) -> Comodule:
    """k[T]_{<D} with basis 1, T, ..., T^{D-1}: f_{l,n} = C(n, n-l) T^{n-l}."""
    if D < 1:
        raise ValueError("D must be >= 1")
    rows = [binom_row_mod(n, field) for n in range(D)]
    acts = {}
    for k in range(D):  # f_{l,l+k} = C(l+k, k) T^k
        act = [(l, l + k, rows[l + k][k]) for l in range(D - k) if rows[l + k][k]]
        if act:
            acts[monomial({"T": k})] = act
    return Comodule(field, coalgebras.ga_poly(), D, acts)


def regular_trunc_comodule(field: PrimeField, r: int) -> Comodule:
    """k[T]/T^{p^r} as a comodule over itself (dimension p^r)."""
    return restrict_frobenius(regular_comodule(field, field.p**r), r)


# -- the degree filtration, carries and the coalgebra splitting ----------------


# the one degree filtration, under the name the benchmark imports
degree_filtration_ga = degree_filtration


def carries_basis(n: int, field: PrimeField) -> list:
    """All m whose base-p digits are dominated by those of n, sorted; raises
    ValueError, before enumerating, when their count exceeds DESK_GUARD."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ds = digits(n, field.p)
    count = math.prod(d + 1 for d in ds)
    if count > DESK_GUARD:
        raise ValueError(f"{count} carries-basis elements exceed the desk-scale guard {DESK_GUARD}")
    return sorted(sum(c * field.p**i for i, c in enumerate(combo))
                  for combo in itertools.product(*(range(d + 1) for d in ds)))


def retract_iso_check(r: int, field: PrimeField, correspondence=None) -> dict:
    """Compare the coproduct structure constants of k[T]_{<p^r} and k[T]/T^{p^r}.

    ``correspondence`` maps exponents of the sub-coalgebra to exponents of the
    quotient (default: identity).  Returns {"ok": bool, "mismatches": [...]}.
    """
    q = field.p**r
    sigma = correspondence if correspondence is not None else (lambda k: k)
    image = [sigma(k) for k in range(q)]
    mismatches = []
    if sorted(image) != list(range(q)):
        mismatches.append("correspondence is not a bijection on exponents")
        return {"ok": False, "mismatches": mismatches}
    # counit: T^0 is the unique grouplike with value 1 at the identity
    if sigma(0) != 0:
        mismatches.append("counit: T^0 does not correspond to T^0")
    for n in range(q):
        row = binom_row_mod(n, field)
        if any(c and (n - j >= q or j >= q) for j, c in enumerate(row)):
            mismatches.append(f"Delta(T^{n}) leaves the degree piece")
            continue
        sub = {(n - j, j): c for j, c in enumerate(row) if c}
        mapped = {(sigma(a), sigma(b)): c for (a, b), c in sub.items()}
        rowq = binom_row_mod(sigma(n), field)
        target = {
            (sigma(n) - j, j): c
            for j, c in enumerate(rowq)
            if c and sigma(n) - j < q and j < q
        }
        if mapped != target:
            mismatches.append(f"structure constants differ at T^{n}")
    return {"ok": not mismatches, "mismatches": mismatches}


def ga_one_param_theta(U: GaUFamily, lambdas) -> Matrix:
    """Theta = sum_s lambda_s^{p^s} u_s; p-nilpotent since the u_s commute."""
    require_valid_family(U)
    fld = U.field
    out = linalg.zeros(U.dim, U.dim)
    for s, lam in enumerate(lambdas):
        lam %= fld.p
        if lam == 0:
            continue
        c = pow(lam, fld.p**s, fld.p)
        out = linalg.mat_add(out, linalg.mat_scale(U.u(s), c, fld), fld)
    return out
