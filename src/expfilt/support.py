"""One-parameter subgroups as commuting p-nilpotent tuples, the p-nilpotent
operator Theta, freeness/support tests, pullback modules and per-level
Frobenius-kernel injectivity checks (the restriction to the kernel is
:func:`~expfilt.comodule.restrict_frobenius`, one for k[Ga] and k[U_N]).

A height-r subgroup is psi = prod_{s<r} exp_{B_s}(T^{p^s}) for a commuting
tuple (B_0, ..., B_{r-1}); Theta is the operator of sum_s (coefficient of
T^{p^s} in the pullback of the coaction through exp_{B_s}).  The module is in
the support of psi exactly when Theta does not act freely, i.e. when its
Jordan type has a block of size < p.

A UN tuple is held as its divided powers B_s^k/k! (k < p), integer matrices
computed once per call; exp_{B_s}(T) = sum_k (B_s^k/k!) T^k.  The coaction
is sum_mu mu A_mu, A_mu the action matrix of mu's dual functional.  Every
pullback here maps the coaction monomials through the images of the
coalgebra's generators along a subgroup (:func:`_generator_images`), on T
exponents as keys, in :func:`~expfilt.polyring.frobenius_images`, whose
work grows with the number of base-p digits of an exponent.  Along the whole
subgroup the T^n coefficient is prod_s B_s^{n_s}/n_s! over the base-p
digits of n: the nonzero products come from
:func:`~expfilt.linalg.digit_products`, which skips every digit vector past
a zero prefix product (the walk that also yields the v_j table of
:func:`~expfilt.ga.comodule_to_family`), so a tall subgroup costs its
nonzero products, not p^height; the pullback is sum_mu pullback(mu) A_mu,
summed by :func:`~expfilt.comodule.linear_image`.  Theta is
sum_mu theta_mu A_mu, the :func:`~expfilt.comodule.dual_action` of the
scalars theta_mu = sum_s [T^{p^s}] of the pullback of mu along the
height-one subgroup exp_{B_s}(T), or T -> lambda_s T over k[Ga].  Every
entry x_{i<j} of exp_{B_s}(T) has zero constant term, so the pullback of a
monomial m has no term below T^{deg m}: level s expands only the monomials
with 0 < deg m <= p^s, and a level with none is skipped.  The freeness
test reads Theta^p = 0 and the Jordan type off one chain of powers.
"""

from dataclasses import dataclass

from . import coalgebras, linalg
from .comodule import (
    Comodule,
    FreenessVerdict,
    dual_action,
    jordan_type,
    linear_image,
    local_freeness,
    restrict_frobenius,
)
from .fpcomb import PrimeField
from .ga import GaUFamily, comodule_to_family, family_to_comodule, ga_one_param_theta
from .linalg import Matrix
from .polyring import frobenius_images, monomial_degree

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


def _generator_images(M: Comodule, psi: OneParamSubgroup, exps: list, subgroups: list) -> list:
    """For each {s: w_s} in ``subgroups``, every generator's image
    {T power: coeff} along the levels s of psi in it, level s at T^{w_s}.

    Over k[Ga], T -> sum_s lambda_s T^{w_s}; over k[U_N], x_{i,j} -> the
    (i, j) entry of prod_s exp_{B_s}(T^{w_s}), read off the nonzero
    :func:`~expfilt.linalg.digit_products` of the divided powers ``exps``.
    Raises when M and psi live over different groups.
    """
    if M.coalgebra.kind == "GaPoly":
        if psi.kind != "Ga":
            raise ValueError("a k[Ga]-comodule pairs with a Ga-form subgroup")
        return [[{w: psi.lambdas[s] for s, w in ws.items() if psi.lambdas[s]}] for ws in subgroups]
    if M.coalgebra.kind != "UNPoly" or psi.kind != "UN" or psi.N != M.coalgebra.N:
        raise ValueError("module and subgroup live over different groups")
    N = psi.N
    positions = [(i, j) for i in range(N) for j in range(i + 1, N)]
    return [linalg.exp_entries([(w, exps[s]) for s, w in ws.items()], positions, N, M.field)
            for ws in subgroups]


def _theta(M, psi: OneParamSubgroup) -> Matrix:
    """Theta on M without the p-nilpotency check (see :func:`theta_operator`)."""
    exps = require_valid_1psg(psi)
    if isinstance(M, GaUFamily):
        if psi.kind != "Ga":
            raise ValueError("a GaUFamily pairs with a Ga-form subgroup")
        return ga_one_param_theta(M, psi.lambdas)
    if M.coalgebra.kind not in ("GaPoly", "UNPoly"):
        raise ValueError("theta_operator needs a k[Ga]- or k[U_N]-comodule")
    levels = _generator_images(M, psi, exps, [{s: 1} for s in range(psi.height)])
    coalgebras.require_generators(M.coalgebra, M.acts)
    fld = M.field
    pos = {v: t for t, v in enumerate(coalgebras.generator_vars(M.coalgebra))}
    degrees = [(m, monomial_degree(m)) for m in M.acts]
    thetas = {}  # mu -> theta_mu, unreduced
    for s, images in enumerate(levels):
        q = fld.p**s
        monos = [m for m, deg in degrees if 0 < deg <= q]
        if not monos:
            continue
        pulled = frobenius_images(fld, images, pos, monos, f"pullback along level {s} of the subgroup")
        for m, terms in zip(monos, pulled):
            if q in terms:
                thetas[m] = thetas.get(m, 0) + terms[q]
    return dual_action(M, thetas)


def theta_operator(M, psi: OneParamSubgroup) -> Matrix:
    """The p-nilpotent operator sum_s (exp_{B_s})_*(u_s) acting on M.

    Theta = sum_mu theta_mu A_mu, theta_mu the sum over the levels s of the
    T^{p^s} coefficient of mu pulled back along the height-one subgroup
    exp_{B_s}(T), or T -> lambda_s T over k[Ga].  Raises when Theta^p != 0.
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

    Every distinct coaction monomial is pulled back along the whole of psi,
    the levels of :func:`_generator_images` at weights p^s, in one
    :func:`~expfilt.polyring.frobenius_images` call, which bounds each
    power's term count by the desk-scale guard before expanding it.  The
    pulled-back coaction is sum_mu pullback(mu) A_mu
    (:func:`~expfilt.comodule.linear_image`).
    """
    exps = require_valid_1psg(psi)
    if isinstance(M, GaUFamily):
        if psi.kind != "Ga":
            raise ValueError("a GaUFamily pairs with a Ga-form subgroup")
        M = family_to_comodule(M)
    fld = M.field
    # the weights p^s are distinct powers of p, so distinct digit vectors
    # give distinct T exponents
    (images,) = _generator_images(M, psi, exps, [{s: fld.p**s for s in range(psi.height)}])
    gens = coalgebras.generator_vars(M.coalgebra)
    coalgebras.require_generators(M.coalgebra, M.acts)
    pulled = frobenius_images(fld, images, {v: s for s, v in enumerate(gens)}, M.acts,
                              "pullback along the subgroup")
    image = linear_image(M.acts, dict(zip(M.acts, pulled)), fld.p)  # {T power: [(j, i, c)]}
    acts = {(("T", k),) if k else (): act for k, act in image.items()}
    return comodule_to_family(Comodule(fld, coalgebras.ga_poly(), M.dim, acts))


def frobenius_injectivity_check(M, r: int) -> FreenessVerdict:
    """Restrict to the level-r kernel and test freeness over its dual algebra
    (a GaUFamily first becomes its k[Ga]-comodule)."""
    if isinstance(M, GaUFamily):
        M = family_to_comodule(M)
    return local_freeness(restrict_frobenius(M, r))
