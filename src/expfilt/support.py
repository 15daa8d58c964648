"""One-parameter subgroups as commuting p-nilpotent tuples, the p-nilpotent
operator Theta, freeness/support tests, pullback modules and per-level
Frobenius-kernel injectivity checks.

A height-r subgroup is psi = prod_{s<r} exp_{B_s}(T^{p^s}) for a commuting
tuple (B_0, ..., B_{r-1}); Theta is the operator of sum_s (coefficient of
T^{p^s} in the pullback of the coaction through exp_{B_s}).  The module is in
the support of psi exactly when Theta does not act freely, i.e. when its
Jordan type has a block of size < p.
"""

from dataclasses import dataclass

from . import coalgebras, linalg
from .comodule import Comodule, FreenessVerdict, entry_images, jordan_type, local_freeness
from .expdeg import NilpotentMatrix, exp_assignment, truncated_exp
from .fpcomb import DESK_GUARD, PrimeField
from .ga import (
    GaUFamily,
    comodule_to_family,
    family_to_comodule,
    ga_one_param_theta,
    restrict_frobenius_ga,
)
from .linalg import Matrix
from .polyring import MultiPoly, monomial
from .un import restrict_frobenius_un

@dataclass
class OneParamSubgroup:
    """Ga form: scalars (lambda_0..lambda_{r-1}); UN form: matrices (B_0..B_{r-1})."""

    field: PrimeField
    kind: str  # "Ga" | "UN"
    lambdas: tuple = ()
    mats: tuple = ()
    N: int = 0

    def __post_init__(self):
        if self.kind not in ("Ga", "UN"):
            raise ValueError(f"unknown 1-parameter subgroup kind {self.kind!r}")
        if self.kind == "Ga":
            self.lambdas = tuple(v % self.field.p for v in self.lambdas)
        else:
            if self.N < 2:
                raise ValueError("UN form needs N >= 2")
            self.mats = tuple(tuple(tuple(v % self.field.p for v in row) for row in m)
                              for m in self.mats)

    @property
    def height(self) -> int:
        return len(self.lambdas) if self.kind == "Ga" else len(self.mats)

    def mat(self, s: int) -> Matrix:
        return [list(row) for row in self.mats[s]]

    def is_zero(self) -> bool:
        if self.kind == "Ga":
            return all(v == 0 for v in self.lambdas)
        return all(
            linalg.is_zero_matrix(self.mat(s), self.field) for s in range(self.height)
        )

    def describe(self) -> dict:
        if self.kind == "Ga":
            return {"kind": "Ga", "lambdas": list(self.lambdas)}
        return {"kind": "UN", "N": self.N, "mats": [self.mat(s) for s in range(self.height)]}


def ga_psg(field: PrimeField, lambdas) -> OneParamSubgroup:
    return OneParamSubgroup(field, "Ga", lambdas=tuple(lambdas))


def un_psg(field: PrimeField, N: int, mats) -> OneParamSubgroup:
    return OneParamSubgroup(field, "UN", mats=tuple(tuple(tuple(r) for r in m) for m in mats), N=N)


def validate_1psg(psi: OneParamSubgroup) -> list:
    """Violations of the tuple invariants (empty list when valid).

    For UN tuples this includes commutation of the formal matrix exponentials
    exp_{B_s}(T) exp_{B_t}(T') in two variables, not just of the matrices.
    """
    out = []
    if psi.kind == "Ga":
        return out
    fld = psi.field
    exps = []
    for s in range(psi.height):
        m = psi.mat(s)
        try:
            B = NilpotentMatrix(fld, psi.N, m)
        except ValueError:
            out.append(f"B_{s} is not p-nilpotent")
            continue
        exps.append(truncated_exp(B))
    if out:
        return out
    for s in range(psi.height):
        for t in range(s + 1, psi.height):
            if not linalg.mats_commute(psi.mat(s), psi.mat(t), fld):
                out.append(f"B_{s} and B_{t} do not commute")
                continue
            left = _poly_mat_mul(exps[s], _rename_t(exps[t]), fld)
            right = _poly_mat_mul(_rename_t(exps[t]), exps[s], fld)
            if left != right:
                out.append(f"exponentials of B_{s} and B_{t} do not commute")
    return out


def require_valid_1psg(psi: OneParamSubgroup):
    bad = validate_1psg(psi)
    if bad:
        raise ValueError("invalid 1-parameter subgroup: " + "; ".join(bad))


def _rename_t(poly_mat):
    return [[f.rename_variables({"T": "T'"}) for f in row] for row in poly_mat]


def _poly_mat_mul(a, b, field):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = [[MultiPoly.zero(field) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            if a[i][t].is_zero():
                continue
            for j in range(m):
                if not b[t][j].is_zero():
                    out[i][j] = out[i][j] + a[i][t] * b[t][j]
    return out


def theta_operator(M, psi: OneParamSubgroup) -> Matrix:
    """The p-nilpotent operator sum_s (exp_{B_s})_*(u_s) acting on M."""
    require_valid_1psg(psi)
    if isinstance(M, GaUFamily):
        if psi.kind != "Ga":
            raise ValueError("a GaUFamily pairs with a Ga-form subgroup")
        theta = ga_one_param_theta(M, psi.lambdas)
        _check_p_nilpotent(theta, M.field)
        return theta
    if M.coalgebra.kind == "GaPoly":
        if psi.kind != "Ga":
            raise ValueError("a k[Ga]-comodule pairs with a Ga-form subgroup")
        theta = ga_one_param_theta(comodule_to_family(M), psi.lambdas)
        _check_p_nilpotent(theta, M.field)
        return theta
    if M.coalgebra.kind != "UNPoly":
        raise ValueError("theta_operator needs a k[Ga]- or k[U_N]-comodule")
    if psi.kind != "UN" or psi.N != M.coalgebra.N:
        raise ValueError("module and subgroup live over different groups")
    fld = M.field
    pulls = [
        (exp_assignment(NilpotentMatrix(fld, psi.N, psi.mat(s))), monomial({"T": fld.p**s}))
        for s in range(psi.height)
    ]

    def coefficient(m):
        # sum over s of the T^{p^s} coefficient of m pulled back along exp_{B_s}
        f = MultiPoly.from_monomial(fld, m)
        return [((), sum(f.substitute(a).coeff(target) for a, target in pulls))]

    theta = linalg.zeros(M.dim, M.dim)
    for j, i, value in entry_images(M, coefficient):
        theta[j][i] = value.get((), 0)
    _check_p_nilpotent(theta, fld)
    return theta


def _check_p_nilpotent(theta: Matrix, field: PrimeField):
    if not linalg.is_zero_matrix(linalg.mat_pow(theta, field.p, field), field):
        raise ValueError("Theta^p != 0: corrupted input module")


def is_free_at(M, psi: OneParamSubgroup):
    """(free?, JordanType) of the Theta-action; support membership is the negation."""
    fld = M.field
    jt = jordan_type(theta_operator(M, psi), fld)
    return jt.is_free(fld), jt


def support_sample(M, samples) -> list:
    """Per-sample verdicts (psi, in_support); sampling only, no completeness."""
    out = []
    for psi in samples:
        free, jt = is_free_at(M, psi)
        out.append({"psi": psi, "in_support": not free, "jordan_type": jt})
    return out


def psg_pullback_assignment(psi: OneParamSubgroup) -> dict:
    """x_{i,j} -> (i,j) entry of prod_s exp_{B_s}(T^{p^s})."""
    fld = psi.field
    prod = None
    for s in range(psi.height):
        B = NilpotentMatrix(fld, psi.N, psi.mat(s))
        E = truncated_exp(B)
        tp = MultiPoly.variable(fld, "T", fld.p**s)
        Es = [[f.substitute({"T": tp}) if not f.is_zero() else f for f in row] for row in E]
        prod = Es if prod is None else _poly_mat_mul(prod, Es, fld)
    if prod is None:
        prod = [
            [MultiPoly.one(fld) if i == j else MultiPoly.zero(fld) for j in range(psi.N)]
            for i in range(psi.N)
        ]
    return {
        f"x{i + 1}_{j + 1}": prod[i][j] for i in range(psi.N) for j in range(psi.N)
    }


def pullback_module(M, psi: OneParamSubgroup) -> GaUFamily:
    """The restriction of M along psi, as a u-family for the additive group."""
    require_valid_1psg(psi)
    if isinstance(M, GaUFamily):
        if psi.kind != "Ga":
            raise ValueError("a GaUFamily pairs with a Ga-form subgroup")
        M = family_to_comodule(M)
    if M.coalgebra.kind == "GaPoly":
        if psi.kind != "Ga":
            raise ValueError("a k[Ga]-comodule pairs with a Ga-form subgroup")
        fld = M.field
        image = MultiPoly.zero(fld)
        for s, lam in enumerate(psi.lambdas):
            if lam:
                image = image + MultiPoly.variable(fld, "T", fld.p**s, lam)
        assignment = {"T": image}
        coaction = [[f.substitute(assignment) for f in row] for row in M.coaction]
        comp = Comodule(fld, coalgebras.ga_poly(), M.dim, coaction)
        return comodule_to_family(comp)
    if M.coalgebra.kind != "UNPoly" or psi.kind != "UN" or psi.N != M.coalgebra.N:
        raise ValueError("module and subgroup live over different groups")
    fld = M.field
    assignment = psg_pullback_assignment(psi)
    coaction = [[MultiPoly.zero(fld)] * M.dim for _ in range(M.dim)]
    for j, i, terms in entry_images(
        M, lambda m: MultiPoly.from_monomial(fld, m).substitute(assignment).terms.items()
    ):
        coaction[j][i] = MultiPoly(fld, terms)
    comp = Comodule(fld, coalgebras.ga_poly(), M.dim, coaction)
    return comodule_to_family(comp)


def frobenius_injectivity_check(M: Comodule, r: int) -> FreenessVerdict:
    """Restrict to the level-r kernel and test freeness over its dual algebra."""
    if M.coalgebra.kind == "GaPoly":
        restricted = restrict_frobenius_ga(M, r)
    elif M.coalgebra.kind == "UNPoly":
        restricted = restrict_frobenius_un(M, r)
    else:
        raise ValueError("frobenius_injectivity_check needs a k[Ga]- or k[U_N]-comodule")
    if coalgebras.dual_algebra_dim(restricted.coalgebra, M.field) > DESK_GUARD:
        raise ValueError("p^(r*m) exceeds the desk-scale guard")
    return local_freeness(restricted)
