"""Correctness of the F_p kernels."""

import math
import random

import pytest

from expfilt import _kernels
from expfilt.fpcomb import PrimeField
from expfilt.linalg import Subspace, identity, kernel_of


def random_matrix(rng, n, m, p):
    return [[rng.randrange(p) for _ in range(m)] for _ in range(n)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_row_matches_exact(p):
    for n in range(0, 120):
        row = _kernels.lucas_row(n, p)
        assert row == [math.comb(n, j) % p for j in range(n + 1)]


@pytest.mark.parametrize("p", [2, 5])
def test_binom_mod_matches_exact(p):
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(500)
        j = rng.randrange(600)
        want = math.comb(n, j) % p if j <= n else 0
        assert _kernels.binom_mod(n, j, p) == want


def test_rref_shape_and_idempotence():
    rng = random.Random(2)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n, m = rng.randrange(1, 8), rng.randrange(1, 8)
        mat = random_matrix(rng, n, m, p)
        red, pivots = _kernels.rref(mat, m, p)
        assert len(red) == len(pivots)
        for row, piv in zip(red, pivots):
            assert row[piv] == 1
            assert all(other[piv] == 0 for other in red if other is not row)
        again, pivots2 = _kernels.rref(red, m, p)
        assert again == red and pivots2 == pivots


def test_nullspace_is_kernel():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        mat = random_matrix(rng, n, m, p)
        basis = _kernels.nullspace(mat, m, p)
        rank = _kernels.rank(mat, m, p)
        assert len(basis) == m - rank
        for vec in basis:
            assert all(
                sum(a * b for a, b in zip(row, vec)) % p == 0 for row in mat
            )


def test_matmul_matches_naive():
    rng = random.Random(4)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        n, k, m = (rng.randrange(1, 6) for _ in range(3))
        a = random_matrix(rng, n, k, p)
        b = random_matrix(rng, k, m, p)
        got = _kernels.matmul(a, b, p)
        want = [
            [sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)
        ]
        assert got == want


def _rows_of_rank(rng, r, m, p):
    """Rows spanning a random rank-r subspace of F_p^m: r independent rows
    and as many random combinations of them, zero rows included, shuffled."""
    while True:
        gens = random_matrix(rng, r, m, p)
        if _kernels.rank(gens, m, p) == r:
            break
    rows = list(gens)
    for _ in range(rng.randrange(r + 2)):
        coeffs = [rng.randrange(p) for _ in range(r)]
        rows.append([sum(c * g[k] for c, g in zip(coeffs, gens)) % p for k in range(m)])
    rows.extend([0] * m for _ in range(rng.randrange(2)))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_of_matches_nullspace_then_rref(p):
    # the oracle: one vector per free column, then the echelon form of their span
    field = PrimeField(p)
    rng = random.Random(f"kernel-of/{p}")
    cases = 0
    for m in range(0, 9):
        for r in range(0, m + 1):
            for _ in range(6):
                rows = _rows_of_rank(rng, r, m, p)
                want = Subspace.from_vectors(field, m, _kernels.nullspace(rows, m, p))
                got = kernel_of(rows, m, field)
                assert got == want and got.pivots == want.pivots, (rows, m)
                assert got.dim == m - r
                cases += 1
    for m in range(0, 5):
        assert kernel_of([], m, field) == Subspace(field, m, identity(m), range(m))
        assert kernel_of([[0] * m] * 3, m, field).is_full()
    assert cases == 6 * 45
