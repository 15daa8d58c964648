"""Seeded random generators: commuting p-nilpotent tuples, u-families, and
pools of validated comodules for the property suites.

Tuples are drawn per the centralizer recipe: B_0 random strictly upper
triangular, each later B_s from the joint centralizer of the earlier picks
(computed by linear algebra), with a p-nilpotency filter and retry.  Random
comodules are assembled from standard pieces by direct sum, base change, and
random stable sub/quotient, which keeps every sample a validated comodule.
"""

import random

from . import linalg
from .comodule import (
    Comodule,
    conjugate,
    direct_sum,
    generated_submodule,
    quotient_by_subspace,
    restrict_to_subspace,
    trivial_comodule,
)
from .expdeg import enumerate_nilpotent_upper
from .fpcomb import PrimeField
from .ga import GaUFamily, regular_trunc_comodule
from .linalg import Subspace
from .support import OneParamSubgroup, ga_psg, un_psg
from .un import UNContext, natural_rep, sym_square_rep


def rng_from_seed(seed) -> random.Random:
    if seed is None or isinstance(seed, (int, float, str, bytes, bytearray)):
        return random.Random(seed)
    return random.Random(repr(seed))


# -- matrices -------------------------------------------------------------------


def random_invertible(field: PrimeField, n: int, rng: random.Random):
    while True:
        g = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        if linalg.is_invertible(g, field):
            return g


def random_strictly_upper(field: PrimeField, N: int, rng: random.Random):
    """Random strictly upper triangular matrix with B^p = 0."""
    for _ in range(200):
        mat = linalg.zeros(N, N)
        for i in range(N):
            for j in range(i + 1, N):
                mat[i][j] = rng.randrange(field.p)
        if linalg.is_p_nilpotent(mat, field):
            return mat
    raise RuntimeError("failed to sample a p-nilpotent strictly upper matrix")


def _upper_slots(N: int):
    return [(i, j) for i in range(N) for j in range(i + 1, N)]


def centralizer_upper(field: PrimeField, mats, N: int) -> list:
    """Basis of strictly upper triangular X with [B, X] = 0 for every given B."""
    slots = _upper_slots(N)
    rows = []
    for B in mats:
        for i in range(N):
            for j in range(N):
                # entry (i, j) of BX - XB as a linear form in the slots of X
                row = []
                for (a, b) in slots:
                    v = (B[i][a] if b == j else 0) - (B[b][j] if a == i else 0)
                    row.append(v % field.p)
                if any(row):
                    rows.append(row)
    basis_vecs = Subspace.from_vectors(field, len(slots), rows).annihilator_rows()
    out = []
    for vec in basis_vecs:
        mat = linalg.zeros(N, N)
        for (a, b), v in zip(slots, vec):
            mat[a][b] = v
        out.append(mat)
    return out


def random_commuting_tuple(field: PrimeField, N: int, height: int, rng: random.Random):
    """Pairwise commuting p-nilpotent strictly upper matrices of given height."""
    mats = [random_strictly_upper(field, N, rng)]
    while len(mats) < height:
        cent = centralizer_upper(field, mats, N)
        for _ in range(100):
            cand = linalg.zeros(N, N)
            for basis_mat in cent:
                c = rng.randrange(field.p)
                if c:
                    cand = linalg.mat_add(cand, linalg.mat_scale(basis_mat, c, field), field)
            if linalg.is_p_nilpotent(cand, field):
                mats.append(cand)
                break
        else:
            raise RuntimeError("failed to extend a commuting tuple")
    return mats


SAMPLED_HEIGHT = 3  # the top height of a sampled 1-parameter subgroup, Ga or U_N


def random_1psg_un(field: PrimeField, N: int, rng: random.Random,
                   max_height: int = SAMPLED_HEIGHT, nonzero: bool = False) -> OneParamSubgroup:
    height = rng.randrange(1, max_height + 1)
    for _ in range(100):
        mats = random_commuting_tuple(field, N, height, rng)
        psi = un_psg(field, N, mats)
        if not nonzero or not psi.is_zero():
            return psi
    raise RuntimeError("failed to sample a nonzero 1-parameter subgroup")


def random_1psg_ga(field: PrimeField, rng: random.Random) -> OneParamSubgroup:
    """Scalars (lambda_0, ..., lambda_{h-1}) of a random height h in 1..3."""
    height = rng.randrange(1, SAMPLED_HEIGHT + 1)
    return ga_psg(field, [rng.randrange(field.p) for _ in range(height)])


def enumerate_1psg_un(field: PrimeField, N: int, height: int) -> list:
    """Exhaustive pool of commuting tuples; guarded to N <= 3, p <= 3, height <= 2."""
    if height < 1:
        raise ValueError(f"height must be at least 1, got {height}")
    if N > 3 or field.p > 3 or height > 2:
        raise ValueError("exhaustive pool is guarded to N <= 3, p in {2,3}, height <= 2")
    singles = [B.entries for B in enumerate_nilpotent_upper(field, N)]
    if height == 1:
        return [un_psg(field, N, [m]) for m in singles]
    out = []
    for a in singles:
        for b in singles:
            if linalg.mats_commute(a, b, field):
                out.append(un_psg(field, N, [a, b]))
    return out


# -- u-families and comodules ----------------------------------------------------


def random_ga_family(field: PrimeField, dim: int, rng: random.Random,
                     max_support: int = 3) -> GaUFamily:
    """Random commuting family: each u_s a constant-free polynomial in one
    random p-nilpotent upper triangular seed (so commutation and p-nilpotency
    hold by construction)."""
    seed_mat = random_strictly_upper(field, dim, rng)
    support = sorted(rng.sample(range(max_support + 2), rng.randrange(1, max_support + 1)))
    u_mats = {}
    for s in support:
        acc = linalg.zeros(dim, dim)
        power = [row[:] for row in seed_mat]
        for _ in range(1, dim):
            c = rng.randrange(field.p)
            if c:
                acc = linalg.mat_add(acc, linalg.mat_scale(power, c, field), field)
            power = linalg.mat_mul(power, seed_mat, field)
        if not linalg.is_zero_matrix(acc, field):
            u_mats[s] = acc
    return GaUFamily(field, dim, u_mats)


def random_un_comodule(field: PrimeField, N: int, rng: random.Random,
                       max_pieces: int = 2) -> Comodule:
    """Random validated comodule over k[U_N] with coaction degree <= 2."""
    ctx = UNContext(field, N)
    pool = [
        lambda: trivial_comodule(field, ctx.coalgebra, rng.randrange(1, 3)),
        lambda: natural_rep(ctx),
        lambda: sym_square_rep(ctx),
    ]
    pieces = [pool[rng.randrange(len(pool))]() for _ in range(rng.randrange(1, max_pieces + 1))]
    M = direct_sum(pieces) if len(pieces) > 1 else pieces[0]
    M = conjugate(M, random_invertible(field, M.dim, rng))
    if M.dim > 2 and rng.random() < 0.5:
        M = _random_stable_subquotient(M, rng)
    return M


def _random_stable_subquotient(M: Comodule, rng: random.Random) -> Comodule:
    """A generated submodule or its quotient, at a random vector."""
    vec = [rng.randrange(M.field.p) for _ in range(M.dim)]
    if not any(vec):
        vec[rng.randrange(M.dim)] = 1
    S = generated_submodule(M, [vec])
    if S.dim < M.dim and rng.random() < 0.5:
        return quotient_by_subspace(M, S)
    return restrict_to_subspace(M, S)


def random_free_trunc_module(field: PrimeField, r: int, copies: int,
                             rng: random.Random) -> Comodule:
    """Direct sum of regular k[T]/T^{p^r} comodules in a random basis (free)."""
    reg = regular_trunc_comodule(field, r)
    M = direct_sum([reg] * copies) if copies > 1 else reg
    return conjugate(M, random_invertible(field, M.dim, rng))


def with_trivial_summand(M: Comodule, rng: random.Random) -> Comodule:
    """M plus a 1-dim trivial summand, re-randomized (never free for truncated ids)."""
    T = trivial_comodule(M.field, M.coalgebra, 1)
    out = direct_sum([M, T])
    return conjugate(out, random_invertible(M.field, out.dim, rng))
