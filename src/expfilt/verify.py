"""Acceptance suites: every criterion backed by an independent brute-force or
exact-integer oracle, runnable from pytest or via ``expfilt verify``.

Each suite returns a list of report records; a suite passes when every
record's verdict is truthy.  Records are deterministic for a fixed seed.
"""

import itertools
import math

from . import coalgebras, linalg
from .comodule import (
    conjugate,
    degree_filtration,
    direct_sum,
    local_freeness,
    quotient_by_subspace,
    restrict_frobenius,
    restrict_to_subspace,
    trivial_comodule,
    validate,
)
from .expdeg import (
    SymbolicNilpotentDomain,
    coalg_exp_degree,
    enumerate_nilpotent_upper,
    exp_pullback,
    exponential_degree,
    exponential_height,
    frobenius_twist,
    ga_exp_filtration,
    ga_exponential_degree,
    mock_trivial_check,
    module_exp_filtration,
    relate_inclusions_check,
)
from .fpcomb import PrimeField, digits
from .ga import (
    carries_basis,
    family_to_comodule,
    regular_comodule,
    retract_iso_check,
    y_r_family,
)
from .io import make_record
from .linalg import Subspace
from .polyring import parse_poly
from .samplers import (
    random_1psg_ga,
    random_1psg_un,
    random_ga_family,
    random_free_trunc_module,
    random_invertible,
    random_un_comodule,
    rng_from_seed,
    with_trivial_summand,
)
from .support import (
    frobenius_injectivity_check,
    pullback_module,
    support_sample,
    theta_operator,
)
from .un import (
    UNContext,
    degree_piece,
    degree_piece_comodule,
    frobenius_kernel_dims,
    natural_rep,
    natural_rep_gl,
    restrict_mat_to_un,
    sym_square_rep,
    sym_square_rep_gl,
)


def _exact_pascal_rows(nmax: int):
    """Exact integer Pascal rows 0..nmax (big ints, no Lucas shortcut)."""
    row = [1]
    yield 0, row
    for n in range(1, nmax + 1):
        new = [1] * (n + 1)
        for j in range(1, n):
            new[j] = row[j - 1] + row[j]
        row = new
        yield n, row


def _sweep(check, inputs, law, witnesses):
    """The record of a seeded sweep.

    ``witnesses`` yields None for each case that passes and a witness for
    each case that fails.  The sweep stops at the first failure, so a
    generator draws nothing from its rng past that case.
    """
    witness = next((w for w in witnesses if w is not None), None)
    return make_record(check, inputs, witness is None, law, witness=witness)


# -- criterion 1: carries / Kummer ------------------------------------------------


def _carries_witness(n, row, fld):
    """None when the basis of T^n matches the exact row, else a witness."""
    q = fld.p
    support = sorted({n - j for j, c in enumerate(row) if c % q})
    basis = carries_basis(n, fld)
    if basis != support or len(basis) != math.prod(d + 1 for d in digits(n, q)):
        return {"n": n, "basis": basis, "oracle": support}
    if n <= 80:
        # full span oracle: vectors v_j(T^n) = C(n,j) T^{n-j} in k[T]_{<n+1}
        vectors = []
        for j, c in enumerate(row):
            if c % q:
                v = [0] * (n + 1)
                v[n - j] = c % q
                vectors.append(v)
        span = Subspace.from_vectors(fld, n + 1, vectors)
        if sorted(span.pivots) != support:
            return {"n": n, "detail": "span pivots disagree"}
    return None


def suite_carries(seed=0, p=None, N=None):
    nmax = 300
    primes = [2, 3, 5] if p is None else [p]
    return [
        _sweep(f"carries-p{fld.p}", {"p": fld.p, "nmax": nmax}, "kummer-carries-basis",
               (_carries_witness(n, row, fld) for n, row in _exact_pascal_rows(nmax)))
        for fld in map(PrimeField, primes)
    ]


# -- criterion 2: Lucas consistency ------------------------------------------------


def suite_lucas(seed=0, p=None, N=None):
    from . import _kernels
    from .fpcomb import binom_mod

    nmax, scalar_samples = 2000, 500
    primes = [2, 3, 5, 7] if p is None else [p]
    modulus = math.prod(primes)
    bad = {q: None for q in primes}
    # pre-draw the scalar spot-check sample so no full triangle is retained
    rng = rng_from_seed(seed)
    wanted = {}
    for _ in range(scalar_samples):
        n = rng.randrange(nmax + 1)
        j = rng.randrange(n + 1)
        q = primes[rng.randrange(len(primes))]
        wanted.setdefault(n, []).append((j, q))
    scalar_ok = True
    for n, row in _exact_pascal_rows(nmax):
        reduced = [v % modulus for v in row]
        for q in primes:
            if bad[q] is not None:
                continue
            exact = [v % q for v in reduced]
            ours = _kernels.lucas_row(n, q)
            if exact != ours:
                j = next(i for i, (a, b) in enumerate(zip(exact, ours)) if a != b)
                bad[q] = {"n": n, "j": j, "exact": exact[j], "lucas": ours[j]}
        scalar_ok &= all(binom_mod(n, j, PrimeField(q)) == reduced[j] % q
                         for j, q in wanted.get(n, ()))
    records = [
        make_record(
            f"lucas-p{q}",
            {"p": q, "nmax": nmax},
            bad[q] is None,
            "lucas-digit-product",
            witness=bad[q],
        )
        for q in primes
    ]
    records.append(
        make_record(
            "lucas-scalar-batch", {"samples": scalar_samples}, scalar_ok, "lucas-digit-product"
        )
    )
    return records


# -- criterion 3: coalgebra splitting ----------------------------------------------


def suite_retract(seed=0, p=None, N=None):
    cases = [(2, 1), (2, 2), (3, 1), (3, 2)]
    if p is not None:
        cases = [c for c in cases if c[0] == p]
    records = []
    for q, r in cases:
        res = retract_iso_check(r, PrimeField(q))
        records.append(
            make_record(
                f"retract-p{q}-r{r}",
                {"p": q, "r": r},
                res["ok"],
                "degree-piece-splits-truncation",
                witness=res["mismatches"] or None,
            )
        )
    # a shifted correspondence must be rejected
    q, r = cases[0]
    shifted = retract_iso_check(
        r, PrimeField(q), correspondence=lambda k: (k + 1) % q ** r
    )
    records.append(
        make_record(
            f"retract-shifted-p{q}-r{r}",
            {"p": q, "r": r},
            not shifted["ok"],
            "degree-piece-splits-truncation",
        )
    )
    return records


# -- criterion 4: dimension numerics -----------------------------------------------


def _enumerated_dims_agree(ctx, rec) -> bool:
    """Oracle of ``frobenius_kernel_dims(ctx, 1)``: enumerate the p^m truncated
    exponent tuples and the degree < p piece; compare every count and flag."""
    q, m = ctx.field.p, ctx.m
    degrees = [sum(exps) for exps in itertools.product(range(q), repeat=m)]
    piece = degree_piece(ctx, q)
    embeds = len(set(piece)) == len(piece) and all(e < q for mono in piece for _, e in mono)
    return (rec.dim_kernel, rec.surjective_check, rec.dim_piece_strict, rec.injective_check,
            rec.formula_discrepancy) == (len(degrees), max(degrees) < q * m, len(piece), embeds,
                                         rec.dim_piece_formula_claimed != len(piece))


def suite_dims(seed=0, p=None, N=None):
    primes = [2, 3] if p is None else [p]
    records = []
    for q in primes:
        ctx = UNContext(PrimeField(q), 3)
        rec = frobenius_kernel_dims(ctx, 1)
        ok = (
            rec.dim_kernel == rec.dim_kernel_formula == q**3
            and rec.injective_check
            and rec.surjective_check
            and _enumerated_dims_agree(ctx, rec)
        )
        records.append(
            make_record(
                f"dims-kernel-p{q}",
                {"N": 3, "p": q, "r": 1},
                ok,
                "kernel-dimension-and-restriction-maps",
                witness=rec.as_dict(),
            )
        )
    # enumerated dim k[U_3]_{<2} = 4, flagged against the quoted closed form
    ctx2 = UNContext(PrimeField(2), 3)
    rec2 = frobenius_kernel_dims(ctx2, 1)
    records.append(
        make_record(
            "dims-piece-discrepancy",
            {"N": 3, "p": 2, "r": 1},
            rec2.dim_piece_strict == 4 and rec2.formula_discrepancy
            and _enumerated_dims_agree(ctx2, rec2),
            "degree-piece-dimension-enumerated",
            witness={
                "enumerated": rec2.dim_piece_strict,
                "closed_form": rec2.dim_piece_formula_claimed,
            },
        )
    )
    return records


# -- criterion 5: exponential flags of the natural U_3 module ----------------------


def _span(field, dim, indices):
    vecs = []
    for i in indices:
        v = [0] * dim
        v[i] = 1
        vecs.append(v)
    return Subspace.from_vectors(field, dim, vecs)


def suite_exp_natural(seed=0, p=None, N=None):
    primes = [3, 5] if p is None else [p]
    records = []
    for q in primes:
        fld = PrimeField(q)
        M = natural_rep(UNContext(fld, 3))
        ok = (
            module_exp_filtration(M, 0) == _span(fld, 3, [0])
            and module_exp_filtration(M, 1) == _span(fld, 3, [0, 1])
            and module_exp_filtration(M, 2).is_full()
            and exponential_degree(M) == 2
        )
        records.append(
            make_record(
                f"exp-natural-p{q}",
                {"p": q, "N": 3},
                ok,
                "exponential-filtration-flags",
            )
        )
    return records


# -- criterion 6: the corrected cancellation example --------------------------------


def suite_notcompare(seed=0, p=None, N=None):
    records = []
    primes = [3, 5] if p is None else [q for q in [p] if q > 2]
    for q in primes:
        fld = PrimeField(q)
        f = parse_poly("2*x1_3 - x1_2*x2_3", fld)
        deg = coalg_exp_degree(f, SymbolicNilpotentDomain(fld, 3))
        records.append(
            make_record(
                f"notcompare-cancel-p{q}",
                {"p": q, "poly": "2*x1_3 - x1_2*x2_3"},
                deg == 1,
                "exponential-degree-cancellation",
                witness={"degree": deg},
            )
        )
    if p in (None, 2):
        fld2 = PrimeField(2)
        f2 = parse_poly("x1_2*x2_3", fld2)
        points = enumerate_nilpotent_upper(fld2, 3)
        all_strict = 2 ** 3
        vanish = all(exp_pullback(f2, B).is_zero() for B in points)
        records.append(
            make_record(
                "notcompare-product-p2",
                {"p": 2, "N": 3, "points_with_B^p=0": len(points), "points_total": all_strict},
                vanish and len(points) == 6,
                "product-vanishes-on-p-unipotent-points",
            )
        )
    return records


# -- criterion 7: degree bounds for polynomial representations ----------------------


def suite_schur(seed=0, p=None, N=None):
    # exact values from the hand/symbolic oracle (top pullback terms):
    # natural U_N: x_{1,N} pulls back to T^{N-1} b_{12}...b_{N-1,N}/(N-1)!
    # Sym^2 U_2: x^2 -> b^2 T^2; Sym^2 U_3: x1_3^2 -> (1/4) b12^2 b23^2 T^4
    expected = {("nat", 2): 1, ("nat", 3): 2, ("sym2", 2): 2, ("sym2", 3): 4}
    homog_degree = {"nat": 1, "sym2": 2}
    primes = [3, 5] if p is None else [p]
    records = []
    for q in primes:
        fld = PrimeField(q)
        for NN in (2, 3):
            if N is not None and NN != N:
                continue
            for name, build_gl, build_direct in (
                ("nat", natural_rep_gl, lambda c: natural_rep(c)),
                ("sym2", sym_square_rep_gl, lambda c: sym_square_rep(c)),
            ):
                ctx = UNContext(fld, NN)
                restricted = restrict_mat_to_un(build_gl(fld, NN))
                direct = build_direct(ctx)
                same = restricted == direct
                deg = exponential_degree(restricted)
                d = homog_degree[name]
                ok = (
                    same
                    and deg == expected[(name, NN)]
                    and deg <= (q - 1) * d
                )
                records.append(
                    make_record(
                        f"schur-{name}-U{NN}-p{q}",
                        {"p": q, "N": NN, "homogeneous_degree": d},
                        ok,
                        "polynomial-rep-degree-bound",
                        witness={"degree": deg, "bound": (q - 1) * d},
                    )
                )
    return records


# -- criterion 8: filtration comparison ---------------------------------------------


def suite_relate(seed=0, p=None, N=None):
    cases = []
    if (p is None or p == 3) and (N is None or N == 2):
        cases.extend((2, 3, d, 1, 4) for d in (2, 3, 4))
    if (p is None or p == 5) and (N is None or N == 3):
        cases.append((3, 5, 4, 1, 4))
    records = []
    for NN, q, d, e, dmax in cases:
        ctx = UNContext(PrimeField(q), NN)
        res = relate_inclusions_check(ctx, d, e, dmax)
        records.append(
            make_record(
                f"relate-N{NN}-p{q}-d{d}-e{e}",
                {"N": NN, "p": q, "d": d, "e": e, "Dmax": dmax},
                res["ok"],
                "degree-vs-exponential-filtration",
                witness=res["counterexample"],
            )
        )
    # the precondition e(N-1) >= d is a rejection, not a counterexample
    ctx = UNContext(PrimeField(3), 2)
    try:
        relate_inclusions_check(ctx, 1, 1, 2)
        rejected = False
    except ValueError:
        rejected = True
    records.append(
        make_record(
            "relate-precondition",
            {"N": 2, "p": 3, "d": 1, "e": 1},
            rejected,
            "degree-vs-exponential-filtration",
        )
    )
    return records


# -- criterion 9: the Y_R suite -------------------------------------------------------


def suite_yr(seed=0, p=None, N=None):
    from .un import ga_as_u2

    samples = 100
    primes = [3, 5] if p is None else [p]
    records = []
    for q in primes:
        fld = PrimeField(q)
        for R in range(1, 6):
            fam = y_r_family(fld, R)
            raw = ga_exponential_degree(fam)
            M2 = ga_as_u2(family_to_comodule(fam))
            raw_u2 = exponential_degree(M2)
            ok = (
                raw == q**R
                and raw_u2 == q**R
                and exponential_height(raw, fld) == R
                and ga_exp_filtration(fam, q**R).is_full()
                and ga_exp_filtration(fam, q**R - 1) == _span(fld, 2, [1])
            )
            records.append(
                make_record(
                    f"yr-degree-p{q}-R{R}",
                    {"p": q, "R": R},
                    ok,
                    "yr-exponential-degree",
                    witness={"family_route": raw, "u2_route": raw_u2},
                )
            )
            rng = rng_from_seed((seed, q, R))
            psis = [random_1psg_ga(fld, rng) for _ in range(samples)]
            verdicts = support_sample(fam, psis)
            records.append(
                make_record(
                    f"yr-support-p{q}-R{R}",
                    {"p": q, "R": R, "samples": samples},
                    all(v["in_support"] for v in verdicts),
                    "yr-support-everywhere",
                )
            )
    return records


# -- criterion 10: Frobenius twist ----------------------------------------------------


def _twist_witness(k, fld, rng):
    """None when a random module's Frobenius twist keeps degree <= p * degree."""
    M = random_un_comodule(fld, 3, rng)
    d = exponential_degree(M)
    dt = exponential_degree(frobenius_twist(M))
    return {"case": k, "degree": d, "twist_degree": dt} if dt > fld.p * d else None


def suite_twist(seed=0, p=None, N=None):
    primes = [3, 5] if p is None else [p]
    records = []
    per_prime = max(1, 30 // len(primes))
    for q in primes:
        fld = PrimeField(q)
        rng = rng_from_seed((seed, q))
        records.append(
            _sweep(f"twist-bound-p{q}", {"p": q, "count": per_prime},
                   "frobenius-twist-degree-bound",
                   (_twist_witness(k, fld, rng) for k in range(per_prime)))
        )
    fld3 = PrimeField(3)
    nat = natural_rep(UNContext(fld3, 2))
    equality = exponential_degree(frobenius_twist(nat)) == 3 * exponential_degree(nat)
    records.append(
        make_record(
            "twist-equality-natural-U2-p3",
            {"p": 3, "N": 2},
            equality,
            "frobenius-twist-degree-bound",
        )
    )
    return records


# -- criterion 11: freeness at Frobenius kernels --------------------------------------


def _freeness_witness(k, p, rng):
    """None when a random free module reads free and its sum with a trivial one does not."""
    q = (2, 3)[rng.randrange(2)] if p is None else p
    r = 1 if q == 3 else rng.randrange(1, 3)
    copies = rng.randrange(1, 3)
    M = random_free_trunc_module(PrimeField(q), r, copies, rng)
    if not local_freeness(M).free:
        return {"case": k, "expected": "free"}
    if local_freeness(with_trivial_summand(M, rng)).free:
        return {"case": k, "expected": "not free"}
    return None


def suite_freeness(seed=0, p=None, N=None):
    random_cases = 50
    records = []
    cases = [(2, 1), (2, 2), (3, 1)]
    if p is not None:
        cases = [c for c in cases if c[0] == p]
    for q, r in cases:
        fld = PrimeField(q)
        M = regular_comodule(fld, q**r)
        verdict = frobenius_injectivity_check(M, r)
        records.append(
            make_record(
                f"free-regular-p{q}-r{r}",
                {"p": q, "r": r},
                verdict.free,
                "regular-piece-free-over-kernel",
                witness=verdict.witness(),
            )
        )
        # one level up the dimension obstruction must be the witness
        verdict_up = frobenius_injectivity_check(M, r + 1)
        records.append(
            make_record(
                f"free-regular-up-p{q}-r{r}",
                {"p": q, "r": r + 1},
                (not verdict_up.free)
                and verdict_up.dim_module < verdict_up.dim_dual_algebra,
                "dimension-obstruction",
                witness=verdict_up.witness(),
            )
        )
    fld2 = PrimeField(2)
    piece = degree_piece_comodule(UNContext(fld2, 3), 2)
    restricted = restrict_frobenius(piece, 1)
    verdict = local_freeness(restricted)
    records.append(
        make_record(
            "free-u3-piece-p2",
            {"p": 2, "N": 3, "r": 1},
            (not verdict.free) and verdict.dim_module == 4 and verdict.dim_dual_algebra == 8,
            "degree-piece-not-free-over-kernel",
            witness=verdict.witness(),
        )
    )
    rng = rng_from_seed(seed)
    records.append(
        _sweep("free-random-sweep", {"cases": random_cases, "seed": seed},
               "freeness-detector-random-sweep",
               (_freeness_witness(k, p, rng) for k in range(random_cases)))
    )
    return records


# -- criterion 12: filtration functor laws --------------------------------------------


def _filtration_laws(M):
    """The first law of the battery that M breaks, or None: idempotence,
    monotone chain, exhaustion, stability."""
    dmax = M.max_entry_degree() + 1
    prev = None
    for d in range(1, dmax + 1):
        S = degree_filtration(M, d)
        if prev is not None and not S.contains_space(prev):
            return f"chain not monotone at d={d}"
        prev = S
        if S.dim:
            try:
                sub = restrict_to_subspace(M, S)
            except ValueError:  # S is not coaction-stable
                return f"filtration piece not coaction-stable at d={d}"
            if not validate(sub).ok:
                return f"restricted coaction violates comodule laws at d={d}"
            if sub.max_entry_degree() >= d:
                return f"restricted coaction entries too large at d={d}"
            again = degree_filtration(sub, d)
            if not again.is_full():
                return f"idempotence fails at d={d}"
    if prev is None or not prev.is_full():
        return "filtration does not exhaust"
    return None


def _laws_witness(k, M):
    detail = _filtration_laws(M)
    return None if detail is None else {"case": k, "detail": detail}


def suite_functor_laws(seed=0, p=None, N=None):
    cases_per_kind = 50
    q = 3 if p is None else p
    fld = PrimeField(q)
    kinds = (
        ("ga", {"p": q, "cases": cases_per_kind},
         lambda rng: family_to_comodule(random_ga_family(fld, rng.randrange(2, 5), rng))),
        ("un", {"p": q, "N": 3, "cases": cases_per_kind},
         lambda rng: random_un_comodule(fld, 3, rng)),
    )
    records = []
    for kind, inputs, draw in kinds:
        rng = rng_from_seed((seed, kind))
        records.append(
            _sweep(f"functor-laws-{kind}", inputs, "degree-filtration-functor-laws",
                   (_laws_witness(k, draw(rng)) for k in range(cases_per_kind)))
        )
    return records


# -- criterion 13: mock-trivial equivalence -------------------------------------------


def _mock_positive_witness(k, fld, coalg, rng):
    """None when a random mock-trivial module has 5 trivial pullbacks and Thetas."""
    dims = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))]
    M = direct_sum([trivial_comodule(fld, coalg, d) for d in dims])
    if M.dim > 1 and rng.random() < 0.5:
        drop = Subspace.from_vectors(fld, M.dim, [[1 if i == 0 else 0 for i in range(M.dim)]])
        M = quotient_by_subspace(M, drop)
    M = conjugate(M, random_invertible(fld, M.dim, rng))
    if not mock_trivial_check(M):
        return {"case": k, "detail": "constructed module not detected mock-trivial"}
    for _ in range(5):
        psi = random_1psg_un(fld, 3, rng)
        fam = pullback_module(M, psi)
        theta = theta_operator(M, psi)
        if not fam.is_trivial() or not linalg.is_zero_matrix(theta, fld):
            return {"case": k, "detail": "nontrivial pullback or Theta"}
    return None


def _mock_negative_witness(k, fld, coalg, rng, search):
    """None when a random non-trivial module has a nonzero Theta within ``search`` draws."""
    pieces = [natural_rep(UNContext(fld, 3))]
    if rng.random() < 0.5:
        pieces.append(trivial_comodule(fld, coalg, rng.randrange(1, 3)))
    M = direct_sum(pieces) if len(pieces) > 1 else pieces[0]
    M = conjugate(M, random_invertible(fld, M.dim, rng))
    if mock_trivial_check(M):
        return {"case": k, "detail": "non-trivial module detected mock-trivial"}
    thetas = (theta_operator(M, random_1psg_un(fld, 3, rng, nonzero=True)) for _ in range(search))
    if all(linalg.is_zero_matrix(theta, fld) for theta in thetas):
        return {"case": k, "detail": f"no Theta witness within {search} samples"}
    return None


def suite_mock_trivial(seed=0, p=None, N=None):
    count, search = 20, 50
    q = 3 if p is None else p
    fld = PrimeField(q)
    coalg = coalgebras.un_poly(3)
    rng = rng_from_seed((seed, "mock"))
    return [
        _sweep("mock-trivial-positive", {"p": q, "count": count}, "mock-trivial-pullbacks-trivial",
               (_mock_positive_witness(k, fld, coalg, rng) for k in range(count))),
        _sweep("mock-trivial-negative", {"p": q, "count": count, "search": search},
               "mock-trivial-witness-search",
               (_mock_negative_witness(k, fld, coalg, rng, search) for k in range(count))),
    ]


SUITES = {
    "carries": suite_carries,
    "lucas": suite_lucas,
    "retract": suite_retract,
    "dims": suite_dims,
    "exp-natural": suite_exp_natural,
    "notcompare": suite_notcompare,
    "schur": suite_schur,
    "relate": suite_relate,
    "yr": suite_yr,
    "twist": suite_twist,
    "freeness": suite_freeness,
    "functor-laws": suite_functor_laws,
    "mock-trivial": suite_mock_trivial,
}


def run_suite(name: str, seed=0, p=None, N=None) -> list:
    if name == "all":
        return [rec for suite in SUITES.values() for rec in suite(seed=seed, p=p, N=N)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed=seed, p=p, N=N)
