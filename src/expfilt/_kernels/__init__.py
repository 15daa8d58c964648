"""The F_p kernels: dense linear algebra and batched Lucas binomials.

The implementation lives in ``pure``; ``rank`` and ``nullspace`` are built on
its ``rref``.
"""

from .pure import binom_mod, lucas_row, matmul, rref


def rank(rows, ncols, p):
    return len(rref(rows, ncols, p)[0])


def nullspace(rows, ncols, p):
    """Basis of {x : rows . x = 0} over F_p, one vector per free column."""
    red, pivots = rref(rows, ncols, p)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][f]) % p
        basis.append(v)
    return basis
