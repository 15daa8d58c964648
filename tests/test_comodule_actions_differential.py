"""Differential tests: the comodule transforms on per-monomial action matrices
against their polynomial-arithmetic originals.

The oracles below are the entry-by-entry versions that the per-monomial code
replaced, kept here only as the slow reference:

- ``oracle_coideal_preimage`` re-embeds B into the union of its monomials
  and the coaction's (``CoalgebraSubspace.extended_to``) and reduces one
  ambient-length vector per coaction entry modulo B (``Subspace.reduce``);
- ``oracle_is_coaction_stable`` applies every ``action_matrices`` matrix to
  every basis row with ``mat_vec``;
- ``oracle_restrict``, ``oracle_quotient`` and ``oracle_conjugate`` form the
  new coaction with ``MultiPoly`` additions and scalings, entry by entry;
- ``column_stable``, ``column_restrict`` and ``column_quotient`` are the
  column route that the one pass over ``acts`` (``_split_actions``)
  replaced: they re-intern the module column-major
  (``column_oracle.sparse_columns``), apply it to one sparse vector at a
  time for every monomial at once
  (``column_images``), and test membership in S by rebuilding each image
  from its pivot coordinates; the quotient projects every image onto the
  non-pivot coordinates;
- ``oracle_generated_closure`` closes a vector breadth-first under every
  ``action_matrices`` matrix, testing each image against a fresh
  ``Subspace``, where ``generated_submodule`` spans one level of images;
- ``ga_exp_filtration`` on the extracted u-family is the oracle for the
  exponential filtration of a k[Ga]-comodule, which
  ``module_exp_filtration`` reads as the degree filtration one step up.

Each pooled module is checked at every degree d from 1 to its top degree + 1
(for the two Ga families of top degree 162 and 375 only at the degrees where
the set of occurring monomials of degree < d changes; the preimage is
constant in between), on the degree pieces and generated submodules, which
are stable, and on random subspaces, which mostly are not.  Results must be
equal as subspaces and as coaction entries, ``save_module`` must write the
same bytes, and unstable input must raise the same ``ValueError``.
"""

import itertools
import random
from collections import Counter, defaultdict

import pytest

from expfilt import coalgebras, linalg
from expfilt.comodule import (
    CoalgebraSubspace,
    Comodule,
    acts_from_sums,
    action_matrices,
    coideal_preimage,
    conjugate,
    degree_below,
    direct_sum,
    generated_submodule,
    is_coaction_stable,
    quotient_by_subspace,
    restrict_to_subspace,
    trivial_comodule,
)
from expfilt.fpcomb import PrimeField
from expfilt.expdeg import ga_exp_filtration, module_exp_filtration
from expfilt.ga import comodule_to_family, degree_filtration_ga, regular_comodule, regular_trunc_comodule
from expfilt.io import save_module
from expfilt.linalg import Subspace
from expfilt.polyring import MultiPoly, monomial, monomial_degree, monomial_sort_key
from expfilt.samplers import random_invertible, random_un_comodule
from expfilt.un import (
    UNContext,
    degree_filtration_un,
    degree_piece_comodule,
    natural_rep,
    sym_square_rep,
)
from column_oracle import sparse_columns
from test_comodule import matrix_comodule
from test_validate_differential import _pool

# -- oracles: the polynomial-arithmetic originals ------------------------------


def mat_vec(a, v: list, field: PrimeField) -> list:
    p = field.p
    return [sum(c * x for c, x in zip(row, v)) % p for row in a]


def full_space(field: PrimeField, ambient: int) -> Subspace:
    return Subspace(field, ambient, linalg.identity(ambient), range(ambient))


def oracle_coideal_preimage(M: Comodule, B: CoalgebraSubspace) -> Subspace:
    coaction = M.coaction  # a view rebuilt on each access: read it once
    fld = M.field
    n = M.dim
    ambient = set(M.occurring_monomials())
    ambient.update(B.monomials)
    ambient = sorted(ambient, key=monomial_sort_key)
    index = {m: k for k, m in enumerate(ambient)}
    Bext = B.extended_to(ambient).space
    constraints = []
    for j in range(n):
        cols = []
        for i in range(n):
            v = [0] * len(ambient)
            for m, c in coaction[j][i].terms.items():
                v[index[m]] = c
            cols.append(Bext.reduce(v))
        for k in range(len(ambient)):
            row = [cols[i][k] for i in range(n)]
            if any(row):
                constraints.append(row)
    return linalg.kernel_of(constraints, n, fld)


def oracle_is_coaction_stable(M: Comodule, S: Subspace) -> bool:
    for A in action_matrices(M).values():
        for row in S.rows:
            img = mat_vec(A, list(row), M.field)
            if not S.contains(img):
                return False
    return True


def oracle_restrict(M: Comodule, S: Subspace) -> Comodule:
    coaction = M.coaction  # a view rebuilt on each access: read it once
    fld = M.field
    k = S.dim
    images = []
    for a in range(k):
        col = []
        for l in range(M.dim):
            acc = MultiPoly.zero(fld)
            for i, c in enumerate(S.rows[a]):
                if c:
                    acc = acc + coaction[l][i].scale(c)
            col.append(acc)
        images.append(col)
    new_coaction = [[images[a][S.pivots[b]] for a in range(k)] for b in range(k)]
    for a in range(k):
        for l in range(M.dim):
            acc = MultiPoly.zero(fld)
            for b in range(k):
                c = S.rows[b][l]
                if c:
                    acc = acc + new_coaction[b][a].scale(c)
            if acc != images[a][l]:
                raise ValueError("subspace is not coaction-stable")
    return matrix_comodule(fld, M.coalgebra, k, new_coaction)


def oracle_quotient(M: Comodule, S: Subspace) -> Comodule:
    coaction = M.coaction  # a view rebuilt on each access: read it once
    fld = M.field
    pivset = set(S.pivots)
    keep = [i for i in range(M.dim) if i not in pivset]
    k = len(keep)
    proj = linalg.zeros(M.dim, k)
    for idx, i in enumerate(keep):
        proj[i][idx] = 1
    for row, piv in zip(S.rows, S.pivots):
        for idx, i in enumerate(keep):
            proj[piv][idx] = (-row[i]) % fld.p
    new_coaction = [[MultiPoly.zero(fld) for _ in range(k)] for _ in range(k)]
    for a_idx, a in enumerate(keep):
        for l in range(M.dim):
            f = coaction[l][a]
            if f.is_zero():
                continue
            for b_idx in range(k):
                c = proj[l][b_idx]
                if c:
                    new_coaction[b_idx][a_idx] = new_coaction[b_idx][a_idx] + f.scale(c)
    Q = matrix_comodule(fld, M.coalgebra, k, new_coaction)
    for row in S.rows:
        for b_idx in range(k):
            acc = MultiPoly.zero(fld)
            for i, c in enumerate(row):
                if c:
                    for l in range(M.dim):
                        cc = proj[l][b_idx]
                        if cc:
                            acc = acc + coaction[l][i].scale(c * cc)
            if not acc.is_zero():
                raise ValueError("subspace is not coaction-stable")
    return Q


def oracle_conjugate(M: Comodule, g) -> Comodule:
    coaction = M.coaction  # a view rebuilt on each access: read it once
    fld = M.field
    ginv = linalg.mat_inverse(g, fld)
    n = M.dim
    gf = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            acc = MultiPoly.zero(fld)
            for t in range(n):
                if g[j][t]:
                    acc = acc + coaction[t][i].scale(g[j][t])
            gf[j][i] = acc
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            acc = MultiPoly.zero(fld)
            for t in range(n):
                if ginv[t][i]:
                    acc = acc + gf[j][t].scale(ginv[t][i])
            out[j][i] = acc
    return matrix_comodule(fld, M.coalgebra, n, out)


def oracle_degree_piece(M: Comodule, d: int) -> CoalgebraSubspace:
    """The full span of every monomial of degree < d in the generators."""
    gens = coalgebras.generator_vars(M.coalgebra)
    monos = tuple(
        monomial(Counter(vs))
        for deg in range(d)
        for vs in itertools.combinations_with_replacement(gens, deg)
    )
    return CoalgebraSubspace(M.field, M.coalgebra, monos, full_space(M.field, len(monos)))


def oracle_generated_closure(M: Comodule, vectors) -> Subspace:
    """The breadth-first closure of ``vectors`` under every action matrix."""
    fld = M.field
    mats = list(action_matrices(M).values())
    span = list(vectors)
    frontier = list(vectors)
    while frontier:
        nxt = []
        for v in frontier:
            for A in mats:
                img = mat_vec(A, v, fld)
                if any(img) and not Subspace.from_vectors(fld, M.dim, span).contains(img):
                    span.append(img)
                    nxt.append(img)
        frontier = nxt
    return Subspace.from_vectors(fld, M.dim, span)


def column_images(cols, s: dict) -> dict:
    """{monomial id: {l: (A_mu s)_l}}, unreduced, for a sparse vector s = {i: s_i}."""
    out = {}
    for i, si in s.items():
        for l, terms in cols[i]:
            for k, c in terms:
                w = out.get(k)
                if w is None:
                    w = out[k] = defaultdict(int)
                w[l] += si * c
    return out


def column_pivot_images(M: Comodule, S: Subspace):
    """(monos, images), images[a][k] = {b: (A_mu s_a) at pivot b}, or None when
    some image A_mu s_a differs from sum_b (A_mu s_a)[piv_b] s_b."""
    p = M.field.p
    monos, cols = sparse_columns(M)
    pos = {piv: b for b, piv in enumerate(S.pivots)}
    rows = [{l: c for l, c in enumerate(row) if c} for row in S.rows]
    images = []
    for s in rows:
        at_pivots = {}
        for k, w in column_images(cols, s).items():
            w = {l: v % p for l, v in w.items() if v % p}
            coeffs = {pos[l]: v for l, v in w.items() if l in pos}
            recon = defaultdict(int)
            for b, v in coeffs.items():
                for l, c in rows[b].items():
                    recon[l] += v * c
            if {l: v % p for l, v in recon.items() if v % p} != w:
                return None
            if coeffs:
                at_pivots[k] = coeffs
        images.append(at_pivots)
    return monos, images


def column_stable(M: Comodule, S: Subspace) -> bool:
    return column_pivot_images(M, S) is not None


def column_restrict(M: Comodule, S: Subspace) -> Comodule:
    found = column_pivot_images(M, S)
    if found is None:
        raise ValueError("subspace is not coaction-stable")
    monos, images = found
    sums = defaultdict(dict)
    for a, at_pivots in enumerate(images):
        for mono_id, coeffs in at_pivots.items():
            for b, v in coeffs.items():
                sums[monos[mono_id]][b, a] = v
    return Comodule(M.field, M.coalgebra, S.dim, acts_from_sums(sums, M.field.p))


def column_quotient(M: Comodule, S: Subspace) -> Comodule:
    p = M.field.p
    pivset = set(S.pivots)
    keep = [i for i in range(M.dim) if i not in pivset]
    proj = [[] for _ in range(M.dim)]  # e_l in the quotient coordinates
    for idx, i in enumerate(keep):
        proj[i].append((idx, 1))
    for row, piv in zip(S.rows, S.pivots):
        proj[piv] = [(idx, -row[i] % p) for idx, i in enumerate(keep) if row[i]]
    monos, cols = sparse_columns(M)

    def project(w):
        out = defaultdict(int)
        for l, v in w.items():
            for b, c in proj[l]:
                out[b] += c * v
        return out

    sums = defaultdict(dict)
    for a, i in enumerate(keep):
        for mono_id, w in column_images(cols, {i: 1}).items():
            for b, v in project(w).items():
                sums[monos[mono_id]][b, a] = v
    for row in S.rows:
        s = {i: c for i, c in enumerate(row) if c}
        for w in column_images(cols, s).values():
            if any(v % p for v in project(w).values()):
                raise ValueError("subspace is not coaction-stable")
    return Comodule(M.field, M.coalgebra, len(keep), acts_from_sums(sums, p))


# -- pools ----------------------------------------------------------------------


def _full_pool():
    out = list(_pool())
    for p in (2, 3, 5):
        F = PrimeField(p)
        out.append((f"regular GaPoly p={p} dim {3 * p + 1}", regular_comodule(F, 3 * p + 1)))
        out.append((f"regular GaTrunc p={p} r=2", regular_trunc_comodule(F, 2)))
    for p, N, d in ((3, 3, 3), (3, 3, 4), (5, 3, 3), (3, 4, 3), (2, 4, 3)):
        ctx = UNContext(PrimeField(p), N)
        out.append((f"U_{N} degree piece p={p} d={d}", degree_piece_comodule(ctx, d)))
    return out


@pytest.fixture(scope="module")
def pool():
    return _full_pool()


def _degrees(M: Comodule) -> list:
    top = M.max_entry_degree()
    if top <= 40:
        return list(range(1, top + 2))
    degs = {monomial_degree(m) for m in M.occurring_monomials()}
    return sorted(({1, top + 1} | degs | {e + 1 for e in degs}) - {0})


def _degree_filtration(M: Comodule, d: int) -> Subspace:
    if M.coalgebra.kind == "UNPoly":
        return degree_filtration_un(M, d)
    if M.coalgebra.kind == "GaPoly":
        return degree_filtration_ga(M, d)
    return coideal_preimage(M, degree_below(M.coalgebra, d))


def _generated(M: Comodule, v) -> Subspace:
    """The subcomodule generated by v: the span of A_mu v over every mu."""
    imgs = [mat_vec(A, v, M.field) for A in action_matrices(M).values()]
    return Subspace.from_vectors(M.field, M.dim, imgs)


def _random_subspace(M: Comodule, rng: random.Random) -> Subspace:
    k = rng.randrange(1, M.dim) if M.dim > 1 else 1
    vecs = [[rng.randrange(M.field.p) for _ in range(M.dim)] for _ in range(k)]
    return Subspace.from_vectors(M.field, M.dim, vecs)


def _subspaces(M: Comodule, rng: random.Random) -> list:
    spaces = {_degree_filtration(M, d) for d in _degrees(M)}
    for _ in range(2):
        spaces.add(_generated(M, [rng.randrange(M.field.p) for _ in range(M.dim)]))
    for _ in range(3):
        spaces.add(_random_subspace(M, rng))
    return sorted(spaces, key=lambda S: (S.dim, S.rows))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _saved(M: Comodule, tmp_path):
    if M.coalgebra.kind == "MatPoly":
        return None  # no file representation
    path = tmp_path / "module.json"
    save_module(M, str(path))
    return path.read_bytes()


def _assert_same_module(label, got, want, tmp_path):
    if isinstance(want, tuple):  # the oracle raised
        assert got == want, label
        return
    assert isinstance(got, Comodule), label
    assert (got.dim, got.coalgebra, got.field) == (want.dim, want.coalgebra, want.field), label
    assert got.coaction == want.coaction, label
    assert _saved(got, tmp_path) == _saved(want, tmp_path), label


# -- tests ----------------------------------------------------------------------


def test_degree_filtration_matches_oracle(pool):
    for label, M in pool:
        for d in _degrees(M):
            want = oracle_coideal_preimage(M, oracle_degree_piece(M, d))
            assert _degree_filtration(M, d) == want, (label, d)


def test_preimage_of_monomial_sets_matches_oracle(pool):
    """B spanned by an arbitrary set of occurring monomials, coideal or not."""
    rng = random.Random("actions-differential/preimage")
    for label, M in pool:
        occurring = M.occurring_monomials()
        for _ in range(3):
            chosen = [m for m in occurring if rng.random() < 0.5]
            B = CoalgebraSubspace(M.field, M.coalgebra, tuple(chosen), full_space(M.field, len(chosen)))
            inside = set(chosen).__contains__
            assert coideal_preimage(M, inside) == oracle_coideal_preimage(M, B), (label, chosen)


def test_stability_restrict_quotient_match_oracle(pool, tmp_path):
    rng = random.Random("actions-differential/subspaces")
    verdicts = Counter()
    for label, M in pool:
        for S in _subspaces(M, rng):
            case = (label, S.rows)
            stable = oracle_is_coaction_stable(M, S)
            verdicts[stable] += 1
            assert is_coaction_stable(M, S) == stable, case
            want = _outcome(oracle_restrict, M, S)
            assert isinstance(want, Comodule) == stable, case
            _assert_same_module(case, _outcome(restrict_to_subspace, M, S), want, tmp_path)
            want = _outcome(oracle_quotient, M, S)
            assert isinstance(want, Comodule) == stable, case
            _assert_same_module(case, _outcome(quotient_by_subspace, M, S), want, tmp_path)
    # both verdicts are reached many times over
    assert verdicts[True] >= 100 and verdicts[False] >= 50, verdicts


def test_conjugate_matches_oracle(pool, tmp_path):
    rng = random.Random("actions-differential/conjugate")
    for label, M in pool:
        for _ in range(2):
            g = random_invertible(M.field, M.dim, rng)
            _assert_same_module((label, g), conjugate(M, g), oracle_conjugate(M, g), tmp_path)


def test_singular_conjugation_raises_like_oracle():
    M = regular_comodule(PrimeField(3), 3)
    g = [[1, 1, 0], [2, 2, 0], [0, 0, 1]]
    assert _outcome(conjugate, M, g) == _outcome(oracle_conjugate, M, g) == ("ValueError", "matrix is singular")


def test_generated_submodule_matches_closure(pool):
    rng = random.Random("actions-differential/generated")
    for label, M in pool:
        for _ in range(2):
            v = [rng.randrange(M.field.p) for _ in range(M.dim)]
            assert generated_submodule(M, [v]) == oracle_generated_closure(M, [v]), (label, v)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_generated_submodule_matches_closure_on_random_un_modules(p):
    F = PrimeField(p)
    rng = random.Random(f"actions-differential/generated/{p}")
    for k in range(40):
        M = random_un_comodule(F, rng.choice((2, 3)), rng)
        vectors = [[rng.randrange(p) for _ in range(M.dim)] for _ in range(rng.randrange(1, 3))]
        S = generated_submodule(M, vectors)
        assert S == oracle_generated_closure(M, vectors), (k, vectors)
        assert is_coaction_stable(M, S), (k, vectors)


def test_ga_exp_filtration_matches_family_route(pool):
    """Over k[Ga], M_[d] is the filtration of the extracted u-family at d."""
    seen = 0
    for label, M in pool:
        if M.coalgebra.kind != "GaPoly":
            continue
        fam = comodule_to_family(M)
        for d in sorted({0} | {e - 1 for e in _degrees(M)}):
            assert module_exp_filtration(M, d) == ga_exp_filtration(fam, d), (label, d)
        seen += 1
    assert seen >= 9


def _split_pool():
    """Conjugated sums of trivial, natural and symmetric-square U_3 pieces,
    random U_3 comodules and regular Ga comodules, at p = 2, 3, 5."""
    out = []
    for p in (2, 3, 5):
        F = PrimeField(p)
        rng = random.Random(f"actions-differential/split/{p}")
        ctx = UNContext(F, 3)
        make = {"T": lambda: trivial_comodule(F, ctx.coalgebra, 1),
                "Nat": lambda: natural_rep(ctx), "Sym": lambda: sym_square_rep(ctx)}
        for pieces in (("T", "Nat"), ("Nat", "Nat"), ("Sym",), ("Sym", "T"), ("Sym", "Nat")):
            M = direct_sum(make[name]() for name in pieces)
            out.append((f"{'+'.join(pieces)} p={p}", conjugate(M, random_invertible(F, M.dim, rng))))
        for k in range(3):
            out.append((f"random_un_comodule p={p} #{k}", random_un_comodule(F, 3, rng)))
        out.append((f"regular Ga p={p}", regular_comodule(F, 2 * p + 2)))
    return out


def test_split_pass_matches_the_column_route():
    """Stability, restriction and quotient from the one pass over ``acts``
    against the column route, on stable subspaces (every degree piece and
    generated submodules) and random ones, which are mostly unstable."""
    rng = random.Random("actions-differential/split")
    verdicts = Counter()
    for label, M in _split_pool():
        spaces = [_degree_filtration(M, d) for d in _degrees(M)]
        for k in range(4):
            vectors = [[rng.randrange(M.field.p) for _ in range(M.dim)] for _ in range(k % 2 + 1)]
            spaces.append(generated_submodule(M, vectors))
        spaces.extend(_random_subspace(M, rng) for _ in range(8))
        for S in spaces:
            case = (label, S.rows)
            stable = column_stable(M, S)
            verdicts[stable] += 1
            assert is_coaction_stable(M, S) == stable, case
            assert _outcome(restrict_to_subspace, M, S) == _outcome(column_restrict, M, S), case
            assert _outcome(quotient_by_subspace, M, S) == _outcome(column_quotient, M, S), case
    assert verdicts[True] >= 200 and verdicts[False] >= 150, verdicts
