"""One-parameter subgroups as commuting p-nilpotent tuples, the p-nilpotent
operator Theta, freeness/support tests, pullback modules and per-level
Frobenius-kernel injectivity checks.

A height-r subgroup is psi = prod_{s<r} exp_{B_s}(T^{p^s}) for a commuting
tuple (B_0, ..., B_{r-1}); Theta is the operator of sum_s (coefficient of
T^{p^s} in the pullback of the coaction through exp_{B_s}).  The module is in
the support of psi exactly when Theta does not act freely, i.e. when its
Jordan type has a block of size < p.

A UN tuple is held as its divided powers B_s^k/k! (k < p), integer matrices
computed once per call; exp_{B_s}(T) = sum_k (B_s^k/k!) T^k.  The coaction
is sum_mu mu A_mu, A_mu the action matrix of mu's dual functional.  The
pullback along psi is sum_mu pullback(mu) A_mu, each pullback(mu) a
polynomial in the one variable T computed once per occurring monomial and
summed by :func:`~expfilt.comodule.linear_image`.  Theta is
sum_mu theta_mu A_mu, the :func:`~expfilt.comodule.dual_action` of the
scalars theta_mu: theta_mu multiplies the entries' coefficient lists
truncated at degree p^s, and since every entry x_{i<j} of exp_{B_s}(T) has
zero constant term, the pullback of a monomial m has no term below
T^{deg m}, so level s is skipped when deg m > p^s.  Over k[Ga] the same
dual action is Theta = sum_s lambda_s^{p^s} A_{T^{p^s}}, since u_s is the
action of T^{p^s}.  The pullback along the whole subgroup reads its T^n
coefficient prod_s B_s^{n_s}/n_s! off the base-p digits of n: the nonzero
products come from :func:`~expfilt.linalg.digit_products`, which skips
every digit vector past a zero prefix product (the walk that also yields
the v_j table of :func:`~expfilt.ga.comodule_to_family`), so a tall
subgroup costs its nonzero products, not p^height.  Monomials are expanded
through :func:`~expfilt.polyring.frobenius_images` on T exponents.  Both
raise x^e through the base-p digits e = sum_t d_t p^t, as
prod_t Frob^t(x^{d_t}), where Frob^t multiplies every T exponent by p^t:
the work grows with the number of digits of e, not with e.  The freeness
test reads Theta^p = 0 and the Jordan type off one chain of powers.
"""

from dataclasses import dataclass

from . import coalgebras, linalg
from .comodule import Comodule, FreenessVerdict, dual_action, jordan_type, linear_image, local_freeness
from .fpcomb import DESK_GUARD, PrimeField, digits
from .ga import (
    GaUFamily,
    comodule_to_family,
    family_to_comodule,
    ga_one_param_theta,
    restrict_frobenius_ga,
)
from .linalg import Matrix
from .polyring import frobenius_images, monomial, monomial_degree
from .un import restrict_frobenius_un

_NOT_P_NILPOTENT = "Theta^p != 0: corrupted input module"


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


def _divided_powers(psi: OneParamSubgroup) -> tuple:
    """(violations, exps) of a tuple, exps[s][k] = B_s^k/k! mod p ([], [] for Ga).

    exps[s] stops before the first zero power, so exp_{B_s}(T) =
    sum_k exps[s][k] T^k.  Violations are listed by s, then by pair (s, t).
    """
    if psi.kind == "Ga":
        return [], []
    fld = psi.field
    p = fld.p
    N = psi.N
    out = []
    exps = []
    for s in range(psi.height):
        B = psi.mat(s)
        if len(B) != N or any(len(row) != N for row in B):
            out.append(f"B_{s} is not N x N")
            continue
        if any(B[i][j] for i in range(N) for j in range(i + 1)):
            out.append(f"B_{s} is not strictly upper triangular")
            continue
        E = linalg.divided_powers(B, fld)
        if len(E) == p and not linalg.is_zero_matrix(linalg.mat_mul(E[-1], B, fld), fld):
            out.append(f"B_{s} is not p-nilpotent")
            continue
        exps.append(E)
    if out:
        return out, exps
    for s in range(psi.height):
        for t in range(s + 1, psi.height):
            if not linalg.mats_commute(psi.mat(s), psi.mat(t), fld):
                out.append(f"B_{s} and B_{t} do not commute")
    return out, exps


def validate_1psg(psi: OneParamSubgroup) -> list:
    """Violations of the tuple invariants (empty list when valid).

    A UN tuple must consist of N x N strictly upper triangular matrices (so
    each exp_{B_s} lands in U_N) that are p-nilpotent and commute.  The
    formal exponentials exp_{B_s}(T) exp_{B_t}(T') in two variables then
    commute too: their coefficients B_s^a/a! and B_t^b/b! are powers of
    commuting matrices.
    """
    return _divided_powers(psi)[0]


def require_valid_1psg(psi: OneParamSubgroup) -> list:
    """Raise on an invalid tuple; else the divided powers (empty for Ga)."""
    bad, exps = _divided_powers(psi)
    if bad:
        raise ValueError("invalid 1-parameter subgroup: " + "; ".join(bad))
    return exps


def _series_mul(a: list, b: list, p: int, top: int) -> list:
    """Product of two coefficient lists in T mod p, cut after degree ``top``."""
    n = min(len(a) + len(b) - 1, top + 1) if a and b else 0
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return [c % p for c in out]


def _times_power(acc: list, f: list, e: int, p: int, top: int) -> list:
    """acc * f^e mod p, cut after degree ``top``, by the base-p digits of e.

    Over F_p, Frob^t(g) = g^{p^t} is g(T^{p^t}), so f^e is the product of
    Frob^t(f^{d_t}) over the digits d_t of e, and Frob^t(g) cut after ``top``
    needs only g cut after top // p^t: there are sum_t d_t products.
    Unlike :func:`~expfilt.polyring.frobenius_images` it cuts every product at
    a degree, so no term count of the uncut power is ever bounded or built.
    """
    for t, d in enumerate(digits(e, p)):
        if d:
            q = p**t
            g = f[: top // q + 1]
            for _ in range(d - 1):
                g = _series_mul(g, f, p, top // q)
            if q > 1:
                spread = [0] * ((len(g) - 1) * q + 1)
                spread[::q] = g
                g = spread
            acc = _series_mul(acc, g, p, top)
    return acc


def _theta(M, psi: OneParamSubgroup) -> Matrix:
    """Theta on M without the p-nilpotency check (see :func:`theta_operator`)."""
    exps = require_valid_1psg(psi)
    if isinstance(M, GaUFamily):
        if psi.kind != "Ga":
            raise ValueError("a GaUFamily pairs with a Ga-form subgroup")
        return ga_one_param_theta(M, psi.lambdas)
    if M.coalgebra.kind == "GaPoly":
        if psi.kind != "Ga":
            raise ValueError("a k[Ga]-comodule pairs with a Ga-form subgroup")
        p = M.field.p  # Theta = sum_s lambda_s^{p^s} u_s, u_s = A_{T^{p^s}}
        return dual_action(M, {monomial({"T": p**s}): pow(lam, p**s, p)
                               for s, lam in enumerate(psi.lambdas) if lam})
    if M.coalgebra.kind != "UNPoly":
        raise ValueError("theta_operator needs a k[Ga]- or k[U_N]-comodule")
    if psi.kind != "UN" or psi.N != M.coalgebra.N:
        raise ValueError("module and subgroup live over different groups")
    p = M.field.p
    # level s: (p^s, {x_{i,j}: coefficients of T^1, T^2, ... of exp_{B_s}(T)_{i,j}})
    levels = [
        (p**s, {f"x{i + 1}_{j + 1}": [Ek[i][j] for Ek in E[1:]]
                for i in range(psi.N) for j in range(i + 1, psi.N)})
        for s, E in enumerate(exps)
    ]
    coalgebras.require_generators(M.coalgebra, M.acts)
    thetas = {}  # mu -> theta_mu, nonzero
    for m in M.acts:
        deg = monomial_degree(m)
        total = 0  # theta_mu
        for q, shifted in levels:
            r = q - deg
            if r < 0:
                continue
            acc = [1]
            for v, e in m:
                acc = _times_power(acc, shifted[v], e, p, r)
            if r < len(acc):
                total += acc[r]
        total %= p
        if total:
            thetas[m] = total
    return dual_action(M, thetas)


def theta_operator(M, psi: OneParamSubgroup) -> Matrix:
    """The p-nilpotent operator sum_s (exp_{B_s})_*(u_s) acting on M.

    For a k[U_N]-comodule Theta = sum_mu theta_mu A_mu over the occurring
    monomials mu, A_mu the action matrix of mu's dual functional and
    theta_mu the sum over the levels s of the T^{p^s} coefficient of mu
    pulled back along exp_{B_s}(T).  The entries x_{i<j} of exp_{B_s}(T)
    have zero constant term, so the pullback of mu is T^{deg mu} times the
    product of the entries divided by T: its T^{p^s} coefficient is that
    product's coefficient of T^{p^s - deg mu}, and level s is skipped when
    deg mu > p^s.  Raises when Theta^p != 0.
    """
    theta = _theta(M, psi)
    if not linalg.is_p_nilpotent(theta, M.field):
        raise ValueError(_NOT_P_NILPOTENT)
    return theta


def is_free_at(M, psi: OneParamSubgroup):
    """(free?, JordanType) of the Theta-action; support membership is the negation.

    The Jordan type's one chain Theta, Theta^2, ..., Theta^p also decides
    Theta^p = 0.
    """
    fld = M.field
    theta = _theta(M, psi)
    try:
        jt = jordan_type(theta, fld)
    except ValueError:  # Theta^p != 0
        raise ValueError(_NOT_P_NILPOTENT) from None
    return jt.is_free(fld), jt


def support_sample(M, samples) -> list:
    """Per-sample verdicts (psi, in_support); sampling only, no completeness."""
    out = []
    for psi in samples:
        free, jt = is_free_at(M, psi)
        out.append({"psi": psi, "in_support": not free, "jordan_type": jt})
    return out


def pullback_module(M, psi: OneParamSubgroup) -> GaUFamily:
    """The restriction of M along psi, as a u-family for the additive group.

    Every distinct coaction monomial is mapped through its generators'
    images in one :func:`~expfilt.polyring.frobenius_images` call, on T
    exponents as keys: x_{i,j} -> (i, j) entry of psi for a k[U_N]-comodule,
    read off the nonzero :func:`~expfilt.linalg.digit_products` of the
    tuple, T -> sum_s lambda_s T^{p^s} for a k[Ga]-comodule.  A power x^e is
    expanded by the base-p digits of e, and its term count is bounded by the
    desk-scale guard before it is expanded.  The pulled-back coaction is
    sum_mu pullback(mu) A_mu (:func:`~expfilt.comodule.linear_image`).
    """
    exps = require_valid_1psg(psi)
    if isinstance(M, GaUFamily):
        if psi.kind != "Ga":
            raise ValueError("a GaUFamily pairs with a Ga-form subgroup")
        M = family_to_comodule(M)
    fld = M.field
    gens = coalgebras.generator_vars(M.coalgebra)
    if M.coalgebra.kind == "GaPoly":
        if psi.kind != "Ga":
            raise ValueError("a k[Ga]-comodule pairs with a Ga-form subgroup")
        images = [{fld.p**s: lam for s, lam in enumerate(psi.lambdas) if lam}]
    else:
        if M.coalgebra.kind != "UNPoly" or psi.kind != "UN" or psi.N != M.coalgebra.N:
            raise ValueError("module and subgroup live over different groups")
        # the T^n coefficient of psi is prod_s B_s^{n_s}/n_s! over the base-p
        # digits n_s of n: the exponents sum_s n_s p^s are all distinct
        coeffs = linalg.digit_products([(fld.p**s, E) for s, E in enumerate(exps)], psi.N, fld)
        P = {f"x{i + 1}_{j + 1}": {n: C[i][j] for n, C in coeffs.items() if C[i][j]}
             for i in range(psi.N) for j in range(i + 1, psi.N)}
        images = [P[v] for v in gens]
    coalgebras.require_generators(M.coalgebra, M.acts)
    pulled = frobenius_images(fld, images, {v: s for s, v in enumerate(gens)}, M.acts,
                              "pullback along the subgroup")
    image = linear_image(M.acts, dict(zip(M.acts, pulled)), fld.p)  # {T power: [(j, i, c)]}
    acts = {(("T", k),) if k else (): act for k, act in image.items()}
    return comodule_to_family(Comodule(fld, coalgebras.ga_poly(), M.dim, acts))


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
