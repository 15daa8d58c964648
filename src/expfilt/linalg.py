"""Dense matrices and echelon-form subspaces over F_p.

Matrices are lists of row lists of ints, treated as immutable.  Subspaces are
kept in reduced row echelon form so set-level equality is matrix equality.
"""

from . import _kernels
from .fpcomb import DESK_GUARD, PrimeField

Matrix = list


def zeros(n: int, m: int) -> Matrix:
    return [[0] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mod(a: Matrix, field: PrimeField) -> Matrix:
    p = field.p
    return [[v % p for v in r] for r in a]


def mat_add(a: Matrix, b: Matrix, field: PrimeField) -> Matrix:
    p = field.p
    return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix, field: PrimeField) -> Matrix:
    p = field.p
    return [[(x - y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: int, field: PrimeField) -> Matrix:
    p = field.p
    c %= p
    return [[v * c % p for v in r] for r in a]


def mat_mul(a: Matrix, b: Matrix, field: PrimeField) -> Matrix:
    return _kernels.matmul(a, b, field.p)


def mat_pow(a: Matrix, e: int, field: PrimeField) -> Matrix:
    n = len(a)
    result = identity(n)
    for _ in range(e):
        result = mat_mul(result, a, field)
    return result


def is_p_nilpotent(a: Matrix, field: PrimeField) -> bool:
    """a^p = 0, by p products from the identity."""
    return is_zero_matrix(mat_pow(a, field.p, field), field)


def divided_powers(a: Matrix, field: PrimeField) -> list:
    """[a^k/k! for 0 <= k < p], stopping before the first zero power.

    a^p = 0 exactly when the list is shorter than p or a times its last
    entry is zero, since (p-1)! is a unit.
    """
    out = [identity(len(a))]
    for k in range(1, field.p):
        nxt = mat_scale(mat_mul(out[-1], a, field), field.inv(k), field)
        if is_zero_matrix(nxt, field):
            break
        out.append(nxt)
    return out


def digit_products(places, dim: int, field: PrimeField) -> dict:
    """{sum_s k_s w_s: prod_s E_s[k_s]} for the digit vectors (k_s) whose
    product is nonzero.

    ``places`` lists (w_s, E_s), E_s = :func:`divided_powers` of B_s, so
    E_s[0] is the identity; the weights are distinct powers of p, so
    distinct vectors have distinct sums.  The vectors are walked depth-first
    as prefix products P E_s[k_s], one matrix product per nonzero digit, and
    the subtree below a zero prefix is skipped: a product past a zero
    product is zero, and P E_s[k] = 0 gives P E_s[k+1] = P E_s[k] B_s/(k+1)
    = 0.  Every product formed counts against the desk-scale guard; past it
    the walk raises ValueError.  Keys come in lexicographic order of the
    digit vectors, first place first.
    """
    out = {}
    formed = 0
    stack = [(0, 0, identity(dim))]  # (next place, weight sum, prefix product)
    while stack:
        t, n, P = stack.pop()
        if t == len(places):
            out[n] = P
            continue
        w, E = places[t]
        children = [(t + 1, n, P)]
        for k in range(1, len(E)):
            formed += 1
            if formed > DESK_GUARD:
                raise ValueError(f"over {DESK_GUARD} digit products: past the desk-scale guard")
            Q = mat_mul(P, E[k], field)
            if is_zero_matrix(Q, field):
                break
            children.append((t + 1, n + k * w, Q))
        stack.extend(reversed(children))
    return out


def exp_entries(places, positions, dim: int, field: PrimeField) -> list:
    """The (i, j) entry of prod_s exp_{B_s}(T^{w_s}) for each (i, j) in
    ``positions``, as {T power: coeff} without zero coefficients.

    The T^n coefficient is the :func:`digit_products` product of weight sum
    n; ``places`` is as there.  The images of the coordinates x_{i,j} along
    a 1-parameter subgroup, or along exp_B(T) for one place (1, E).
    """
    coeffs = digit_products(places, dim, field)
    return [{n: C[i][j] for n, C in coeffs.items() if C[i][j]} for i, j in positions]


def is_zero_matrix(a: Matrix, field: PrimeField) -> bool:
    p = field.p
    return all(v % p == 0 for r in a for v in r)


def mat_equal(a: Matrix, b: Matrix, field: PrimeField) -> bool:
    p = field.p
    if len(a) != len(b):
        return False
    return all(
        len(ra) == len(rb) and all(x % p == y % p for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def mat_rank(a: Matrix, ncols: int, field: PrimeField) -> int:
    return _kernels.rank(a, ncols, field.p)


def commutator(a: Matrix, b: Matrix, field: PrimeField) -> Matrix:
    return mat_sub(mat_mul(a, b, field), mat_mul(b, a, field), field)


def mats_commute(a: Matrix, b: Matrix, field: PrimeField) -> bool:
    return is_zero_matrix(commutator(a, b, field), field)


def is_invertible(a: Matrix, field: PrimeField) -> bool:
    n = len(a)
    return n == 0 or mat_rank(a, n, field) == n


def mat_inverse(a: Matrix, field: PrimeField) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    n = len(a)
    aug = [list(r) + e for r, e in zip(a, identity(n))]
    red, pivots = _kernels.rref(aug, 2 * n, field.p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red[:n]]


class Subspace:
    """A subspace of F_p^ambient held as RREF basis rows."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: PrimeField, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field: PrimeField, ambient: int, vectors) -> "Subspace":
        rows, pivots = _kernels.rref(list(vectors), ambient, field.p)
        return cls(field, ambient, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def reduce(self, vec) -> list:
        """Residue of vec after eliminating against the basis rows."""
        p = self.field.p
        v = [x % p for x in vec]
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                for k in range(piv, self.ambient):
                    if row[k]:
                        v[k] = (v[k] - c * row[k]) % p
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def annihilator_rows(self) -> list:
        """Basis of {w : row . w = 0 for all basis rows} (the perp space)."""
        return _kernels.nullspace(list(self.rows), self.ambient, self.field.p)

    def __repr__(self):
        return f"Subspace(F_{self.field.p}, dim {self.dim} of {self.ambient})"


def distinct_lines(rows, ncols: int, field: PrimeField) -> list:
    """Dense rows, one for each line spanned by a nonzero sparse row.

    Each of ``rows`` lists (column, coeff) pairs, columns distinct and
    coefficients nonzero in [1, p), in any order.  It is sorted by column
    and scaled to lead with 1, so rows that are scalar multiples of one
    another are kept once; their span and kernel are unchanged.
    """
    p = field.p
    lines = set()
    for row in rows:
        row = sorted(row)
        inv = pow(row[0][1], p - 2, p)
        lines.add(tuple((i, c * inv % p) for i, c in row))
    dense = []
    for line in lines:
        v = [0] * ncols
        for i, c in line:
            v[i] = c
        dense.append(v)
    return dense


def kernel_of(rows, ncols: int, field: PrimeField) -> Subspace:
    """{x : rows . x = 0} as a Subspace of F_p^ncols, in one elimination.

    The rows are reduced with their columns reversed, so each reduced row
    red_i has its pivot P_i at its rightmost nonzero.  The nullspace vector
    e_f - sum_i red_i[f] e_{P_i} of a free column f is then zero left of f
    and at the other free columns: by f ascending, these are the kernel's RREF.
    """
    basis = _kernels.nullspace([row[::-1] for row in rows], ncols, field.p)
    basis = [v[::-1] for v in reversed(basis)]
    return Subspace(field, ncols, basis, [v.index(1) for v in basis])
