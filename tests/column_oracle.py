"""The column-major read of a comodule's action table, kept as a test oracle.

``sparse_columns`` interns the monomials of ``acts`` and files each nonzero
entry f_{ji} as a list of (id, coeff) pairs under its column i;
``column_coassociativity`` is the coassociativity pass that ran on that
form, one column at a time, before ``comodule._coassociativity`` read
``acts`` directly.  The differential tests hold the library's pass to this
one (same violation list, dicts, strings and order), and the other
differential suites use ``sparse_columns`` to rebuild entries column by
column.
"""

from collections import defaultdict

from expfilt.comodule import Comodule, _coproduct_table, _generator_power_test
from expfilt.polyring import monomial_degree


def sparse_columns(M: Comodule):
    """(monos, cols): ``monos[k]`` is the monomial with id k, in ``acts``
    order, and ``cols[i]`` lists ``(j, [(id, coeff), ...])`` for every
    nonzero f_{ji}, j ascending."""
    cols = [defaultdict(list) for _ in range(M.dim)]
    for k, act in enumerate(M.acts.values()):
        for j, i, c in act:
            cols[i][j].append((k, c))
    return list(M.acts), [sorted(col.items()) for col in cols]


def column_coassociativity(M: Comodule, generators_only: bool) -> list:
    """Coassociativity violations, component (l, i) column then row.

    For each column i the diff sum_j f_{lj} (x) f_{ji} - Delta(f_{li}) is
    accumulated over the nonzero pattern only (j in nz(col i), then l in
    nz(col j)), multiplying out the two entries' term lists.
    ``generators_only`` keeps the keys whose left factor is one generator
    to a p-power, as in the library's pass.
    """
    p = M.field.p
    monos, cols = sparse_columns(M)
    if generators_only:
        cap, left_ok = _generator_power_test(p, max(map(monomial_degree, monos), default=0))
        delta, K = _coproduct_table(M, monos, cap, left_ok)
        ok = [left_ok(m) for m in monos]
    else:
        delta, K = _coproduct_table(M, monos)
        ok = [True] * len(monos)
    KK = K * K
    lefts = [
        [(l * KK + a * K, c) for l, terms in col for a, c in terms if ok[a]] for col in cols
    ]
    violations = []
    for i, col in enumerate(cols):
        diff = defaultdict(int)  # unreduced lhs - rhs coefficients of column i
        for l, terms in col:
            base = l * KK
            for k, c in terms:
                for key, dc in delta[k]:
                    diff[base + key] -= c * dc
        for j, right in col:
            for a, ca in lefts[j]:
                for b, cb in right:
                    diff[a + b] += ca * cb
        for l in sorted({key // KK for key, v in diff.items() if v % p}):
            violations.append(
                {
                    "law": "coassociativity",
                    "index": i,
                    "detail": f"component ({l},{i}) disagrees",
                }
            )
    return violations
