"""Pure-Python kernels: dense linear algebra over F_p and batched Lucas binomials.

Matrices are lists of row lists of ints; entries need not be pre-reduced mod p.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def _pascal_table(p):
    """Rows 0..p-1 of Pascal's triangle mod p, padded with 0 beyond the row."""
    tab = [[0] * p for _ in range(p)]
    for a in range(p):
        tab[a][0] = 1
        for b in range(1, a + 1):
            tab[a][b] = (tab[a - 1][b - 1] + tab[a - 1][b]) % p
    return tab


def binom_mod(n, j, p):
    """C(n, j) mod p by digit-wise products of base-p digits."""
    if j < 0 or j > n:
        return 0
    tab = _pascal_table(p)
    r = 1
    while j or n:
        c = tab[n % p][j % p] if j % p <= n % p else 0
        if c == 0:
            return 0
        r = r * c % p
        n //= p
        j //= p
    return r


def lucas_row(n, p):
    """[C(n, j) mod p for j in 0..n], via the digit-product block structure."""
    tab = _pascal_table(p)
    if n < p:
        return tab[n][: n + 1]
    hi = lucas_row(n // p, p)
    small = tab[n % p]
    row = [0] * (n + 1)
    for q, hq in enumerate(hi):
        if hq == 0:
            continue
        base = q * p
        lim = min(p, n + 1 - base)
        if hq == 1:
            row[base : base + lim] = small[:lim]
        else:
            for j0 in range(lim):
                s = small[j0]
                if s:
                    row[base + j0] = hq * s % p
    return row


def rref(rows, ncols, p):
    """Reduced row echelon form over F_p.

    Returns (reduced nonzero rows, pivot column indices).
    """
    mat = []
    for r in rows:
        rr = [v % p for v in r]
        if any(rr):
            mat.append(rr)
    nrows = len(mat)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = -1
        for i in range(rank, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        row = mat[rank]
        inv = pow(row[col], p - 2, p)
        if inv != 1:
            for k in range(col, ncols):
                if row[k]:
                    row[k] = row[k] * inv % p
        for i in range(nrows):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                ri = mat[i]
                for k in range(col, ncols):
                    if row[k]:
                        ri[k] = (ri[k] - c * row[k]) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    out = [r for r in mat[:rank]]
    return out, pivots


def matmul(a, b, p):
    """Matrix product mod p; a is n x k, b is k x m."""
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t] % p
            if c == 0:
                continue
            bt = b[t]
            for jj in range(m):
                v = bt[jj]
                if v:
                    oi[jj] = (oi[jj] + c * v) % p
    return out
