"""The three benchmark workloads: seeded inputs, op schedules and verdict checks.

Every workload is a closed loop with one client and no threads.  Its ops come
in *rounds*: a round is a fixed multiset of op classes, shuffled by the seed.
The class weights are chosen so that the median and the tail percentile fall
inside one class rather than on the step between two classes (a 50/50 mix of
fast and slow classes puts the median on the step, and it then jumps between
identical runs).

The library is imported by ``run.py`` / ``probe.py`` from the checkout's
``src`` directory before this module is imported.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random

import expfilt.cli
from expfilt import PrimeField, linalg
from expfilt.comodule import (
    conjugate,
    direct_sum,
    is_coaction_stable,
    restrict_to_subspace,
    trivial_comodule,
    validate,
)
from expfilt.expdeg import (
    exponential_degree,
    ga_exp_filtration,
    mock_trivial_check,
    module_exp_filtration,
)
from expfilt.ga import (
    degree_filtration_ga,
    family_to_comodule,
    regular_comodule,
    y_r_family,
)
from expfilt.io import save_module
from expfilt.samplers import (
    random_commuting_tuple,
    random_ga_family,
    random_invertible,
    random_un_comodule,
)
from expfilt.support import support_sample, un_psg
from expfilt.un import (
    UNContext,
    degree_filtration_un,
    degree_piece_comodule,
    natural_rep,
    sym_square_rep,
)


class Op:
    """One verdict operation: ``run()`` is timed, ``check(output)`` is not.

    ``check`` returns (verdict is right, detail); ``cls`` names the op class
    for the per-class latency table.  A workload's ``rounds()`` yields lists
    of ops, one list per round.
    """

    __slots__ = ("cls", "run", "check")

    def __init__(self, cls, run, check):
        self.cls = cls
        self.run = run
        self.check = check


def _shuffled_round(entries, rng):
    entries = list(entries)
    rng.shuffle(entries)
    return entries


def cli_call(argv):
    """In-process ``expfilt`` CLI call; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = expfilt.cli.main(argv)
    return rc, out.getvalue()


def _filt_dim(stdout):
    """``dim k of n`` header of a ``filt`` result."""
    head = stdout.split("\n", 1)[0].split()
    return int(head[1]), int(head[3])


# -- laws-small -------------------------------------------------------------------
#
# The shape of the functor-laws suite, in memory.  Random validated U_3
# comodules over F_3 (dims 1-12, coaction degree <= 2), assembled by the recipe
# of samplers.random_un_comodule (direct sums of trivial, natural and
# symmetric-square pieces in a random basis) but with the piece combination
# stratified per round, so every round has the same cost profile; one slot
# per round uses random_un_comodule itself, stable subquotients included,
# with one piece (a two-piece draw of dim 9-12 would add a seed-dependent
# op above the p90 class).
# Beside them, random Ga u-families (the suite's other half) banded by top
# coaction degree.  The per-op cost is dominated by the polynomial layer and
# many small rref calls.
#
# The cost of the battery grows with the number of coaction terms, which a
# random base change spreads over a factor of two for one piece combination.
# Each module is therefore the median-size one of LAWS_DRAWS random base
# changes, so a piece combination is an input size and two seeds draw
# modules of about the same cost.

LAWS_P = 3
LAWS_N = 3
LAWS_VARIANTS = 6  # distinct modules per slot; a 30 s run completes about 5 rounds
LAWS_DRAWS = 3  # random base changes per module; the one of median term count is kept
LAWS_PSI_HEIGHTS = (1, 2, 3)  # one random U_3 1-parameter subgroup of each height
# (pieces, copies per round).  "sampler" draws from random_un_comodule;
# ("ga", lo, hi) is a samplers.random_ga_family of dim 2-3 (dim <= p, beyond
# which the sampler gives up) whose top coaction degree lies in [lo, hi]; the
# Ga battery's cost grows with that degree.  In cost order a round has 10
# ops below the median class, the 10-op median class (Sym, with ga-deg50-60
# at its top edge), 3 ops above it, the 7-op p90 class and the dim-12 module
# on top, so the median and p90 each fall in the middle of one class.
LAWS_ROUND = (
    (("T1",), 1),
    (("T2",), 1),
    (("Nat",), 1),
    (("Nat", "T1"), 1),
    (("Nat", "T2"), 1),
    (("Nat", "Nat"), 1),
    (("sampler",), 1),
    (("ga", 1, 10), 1),
    (("ga", 18, 30), 2),
    (("Sym",), 10),  # the median class
    (("Sym", "T1"), 1),
    (("ga", 50, 60), 1),
    (("ga", 75, 90), 1),
    (("Sym", "T2"), 1),
    (("Sym", "Nat"), 7),  # the p90 class
    (("Sym", "Sym"), 1),
)


def _coaction_terms(M):
    return sum(len(f.terms) for row in M.coaction for f in row)


def _laws_module(pieces, ctx, rng):
    fld = ctx.field
    if pieces == ("sampler",):
        return random_un_comodule(fld, LAWS_N, rng, max_pieces=1)
    if pieces[0] == "ga":
        for _ in range(1000):
            fam = random_ga_family(fld, rng.randrange(2, LAWS_P + 1), rng)
            if pieces[1] <= exponential_degree(fam) <= pieces[2]:
                return fam
        raise RuntimeError(f"no Ga family with top degree in {pieces[1:]}")
    make = {
        "T1": lambda: trivial_comodule(fld, ctx.coalgebra, 1),
        "T2": lambda: trivial_comodule(fld, ctx.coalgebra, 2),
        "Nat": lambda: natural_rep(ctx),
        "Sym": lambda: sym_square_rep(ctx),
    }
    parts = [make[name]() for name in pieces]
    M = direct_sum(parts) if len(parts) > 1 else parts[0]
    if all(name in ("T1", "T2") for name in pieces):
        return conjugate(M, random_invertible(fld, M.dim, rng))
    draws = sorted((conjugate(M, random_invertible(fld, M.dim, rng)) for _ in range(LAWS_DRAWS)),
                   key=_coaction_terms)
    return draws[LAWS_DRAWS // 2]


def _laws_psis(fld, rng):
    return [un_psg(fld, LAWS_N, random_commuting_tuple(fld, LAWS_N, h, rng))
            for h in LAWS_PSI_HEIGHTS]


def _degree_laws(M, filt, out):
    """Degree filtration laws (the functor-laws battery); None when all hold."""
    dmax = M.max_entry_degree() + 1
    prev = None
    for d in range(1, dmax + 1):
        S = filt(M, d)
        out.append(f"deg{d}={S.dim}")
        if prev is not None and not S.contains_space(prev):
            return f"degree chain not monotone at d={d}"
        prev = S
        if S.dim:
            if not is_coaction_stable(M, S):
                return f"degree piece not coaction-stable at d={d}"
            sub = restrict_to_subspace(M, S)
            if not validate(sub).ok:
                return f"restricted piece violates the comodule laws at d={d}"
            if sub.max_entry_degree() >= d:
                return f"restricted entries too large at d={d}"
            if not filt(sub, d).is_full():
                return f"idempotence fails at d={d}"
    if not prev.is_full():
        return "degree filtration does not exhaust"
    return None


def un_law_battery(M, psis):
    """Law battery on a U_N comodule; returns (all laws hold, summary)."""
    p = M.field.p
    out = [f"dim={M.dim}"]
    bad = _degree_laws(M, degree_filtration_un, out)
    if bad:
        return False, bad
    e = exponential_degree(M)
    out.append(f"expdeg={e}")
    chain = []
    for d in range(e + 1):
        S = module_exp_filtration(M, d)
        out.append(f"exp{d}={S.dim}")
        if chain and not S.contains_space(chain[-1]):
            return False, f"exp chain not monotone at d={d}"
        chain.append(S)
    if not chain[-1].is_full():
        return False, "exp filtration not full at the exponential degree"
    if e > 0 and chain[-2].is_full():
        return False, "exp filtration full below the exponential degree"
    mock = mock_trivial_check(M)
    out.append(f"mock={int(mock)}")
    if mock != (e == 0):
        return False, "mock-trivial verdict disagrees with the exponential degree"
    for v in support_sample(M, psis):
        parts = v["jordan_type"].parts
        free = all(x == p for x in parts)
        out.append("jt=" + ",".join(map(str, parts)))
        if sum(parts) != M.dim or v["in_support"] == free:
            return False, "support verdict disagrees with its Jordan type"
        if M.dim % p and not v["in_support"]:
            return False, "free at a subgroup although p does not divide dim"
    return True, " ".join(out)


def ga_law_battery(fam):
    """Law battery on a Ga u-family, the other half of the functor-laws suite."""
    M = family_to_comodule(fam)
    out = [f"dim={M.dim}"]
    bad = _degree_laws(M, degree_filtration_ga, out)
    if bad:
        return False, bad
    e = exponential_degree(fam)
    out.append(f"expdeg={e}")
    if e != M.max_entry_degree():
        return False, "exponential degree differs from the top T-degree"
    # the exponential filtration at d equals the degree filtration at d + 1
    for d in (e // 2, e):
        if ga_exp_filtration(fam, d) != degree_filtration_ga(M, d + 1):
            return False, f"exp filtration differs from the degree filtration at d={d}"
    return True, " ".join(out)


class LawsSmall:
    name = "laws-small"
    tail_level = 90.0

    def setup(self, seed, workdir):
        fld = PrimeField(LAWS_P)
        ctx = UNContext(fld, LAWS_N)
        rng = random.Random(f"laws-small/{seed}")
        self.pool = {}
        for slot, (pieces, copies) in enumerate(LAWS_ROUND):
            for c in range(copies):
                for v in range(LAWS_VARIANTS):
                    M = _laws_module(pieces, ctx, rng)
                    psis = [] if pieces[0] == "ga" else _laws_psis(fld, rng)
                    self.pool[slot, c, v] = (M, psis)
        self.rng = random.Random(f"laws-small/order/{seed}")

    def rounds(self):
        keys = [(slot, c) for slot, (_, copies) in enumerate(LAWS_ROUND) for c in range(copies)]
        for r in itertools.count():
            ops = []
            for slot, c in _shuffled_round(keys, self.rng):
                M, psis = self.pool[slot, c, r % LAWS_VARIANTS]
                pieces = LAWS_ROUND[slot][0]
                if pieces[0] == "ga":
                    ops.append(Op("ga-deg%d-%d" % pieces[1:],
                                  lambda fam=M: ga_law_battery(fam), _battery_verdict))
                else:
                    ops.append(Op("+".join(pieces),
                                  lambda M=M, psis=psis: un_law_battery(M, psis),
                                  _battery_verdict))
            yield ops


def _battery_verdict(output):
    return output  # the battery returns (all laws hold, summary or first failure)


# -- wide-comodule ----------------------------------------------------------------
#
# A size ladder of canonical module files (dims 25-84): U_N degree pieces at
# p = 5 and regular comodules k[T]_{<D} at p = 3, 5.  Each op is one CLI call
# that loads, parses and validates its file, so the n^3 coassociativity loop
# of comodule.validate takes most of the time.  The ladder stops at dim 84:
# the next rungs (U_3 d=8 at dim 120, regular D=125) take 2-7 s per op, too
# few ops for a stable percentile in one run.
#
# Each rung runs the commands listed for it, ``passes`` times per round.
# Every command loads and validates the file, so the rungs order the ops by
# cost and the commands on one rung stay within a third of each other; the
# four commands on u3-p5-d5 are within 5%.  In cost order a round has 10 ops below the median class (dims
# 25-28), the 12-op median class (u3-p5-d5, dim 35), 4 mid ops and the 7-op
# p90 cluster (dims 50 and 84, about 0.5 s): about as many ops above the
# median class as below it, so the median falls in its middle.

CMDS = ("expdeg", "filt-degree", "filt-exp", "frobcheck")
# (name, kind, p, N or D, d, commands, passes per round)
WIDE_LADDER = (
    ("u4-p5-d3", "UN", 5, 4, 3, CMDS, 1),
    ("reg-p5-D25", "Ga", 5, 25, None, ("expdeg", "filt-degree", "frobcheck"), 1),
    ("reg-p3-D27", "Ga", 3, 27, None, ("expdeg", "filt-degree", "frobcheck"), 1),
    ("u3-p5-d5", "UN", 5, 3, 5, CMDS, 3),  # the median class
    ("reg-p3-D40", "Ga", 3, 40, None, ("expdeg", "filt-degree"), 1),
    ("u3-p5-d6", "UN", 5, 3, 6, ("filt-exp", "frobcheck"), 1),
    ("reg-p5-D50", "Ga", 5, 50, None, ("expdeg", "filt-degree", "frobcheck"), 1),
    ("u4-p5-d4", "UN", 5, 4, 4, CMDS, 1),
)


def _un_closed_form(N, p, d):
    """Closed forms for k[U_N]_{<d} (N - 1 < p): dim, degree piece dims, expdeg."""
    m = N * (N - 1) // 2
    return {
        "dim": math.comb(m + d - 1, m),
        "deg": lambda k: math.comb(m + min(k, d) - 1, m),
        # x_{1N}^{d-1} pulls back to a T^{(N-1)(d-1)} term, the top T-degree
        "expdeg": (N - 1) * (d - 1),
        "dual": p**m,
    }


class WideComodule:
    name = "wide-comodule"
    tail_level = 90.0

    def setup(self, seed, workdir):
        self.files = []
        for name, kind, p, size, d, cmds, passes in WIDE_LADDER:
            fld = PrimeField(p)
            if kind == "UN":
                M = degree_piece_comodule(UNContext(fld, size), d)
                form = _un_closed_form(size, p, d)
            else:
                M = regular_comodule(fld, size)
                form = {
                    "dim": size,
                    "deg": lambda k, D=size: min(k, D),
                    "expdeg": size - 1,
                    "free1": size % p == 0,
                }
            path = os.path.join(workdir, f"{name}.json")
            save_module(M, path)
            self.files.append((name, d if kind == "UN" else size, path, form, cmds, passes))
        self.rng = random.Random(f"wide-comodule/{seed}")

    def _op(self, rung, top, path, form, cmd):
        n = form["dim"]
        name = f"{rung} {cmd}"
        if cmd == "expdeg":
            return Op(name, lambda: cli_call(["expdeg", path]),
                      lambda out: _expect_stdout(out, f"{form['expdeg']}\n"))
        if cmd == "filt-degree":
            k = self.rng.randrange(1, top + 1)
            return Op(name, lambda: cli_call(["filt", path, "--kind", "degree", "--d", str(k)]),
                      lambda out: _expect_dim(out, form["deg"](k), n))
        if cmd == "filt-exp":  # U_N rungs only (N <= p)
            e = form["expdeg"] - self.rng.randrange(2)
            full = e == form["expdeg"]
            return Op(name, lambda: cli_call(["filt", path, "--kind", "exp", "--d", str(e)]),
                      lambda out: _expect_exp_dim(out, n, full))
        return Op(name, lambda: cli_call(["frobcheck", path, "--r", "1"]),
                  lambda out: _expect_frob(out, n, form))

    def rounds(self):
        while True:
            ops = [self._op(name, top, path, form, cmd)
                   for name, top, path, form, cmds, passes in self.files
                   for _ in range(passes) for cmd in cmds]
            yield _shuffled_round(ops, self.rng)


def _expect_stdout(out, want):
    rc, text = out
    return rc == 0 and text == want, f"rc={rc} got {text!r}, want {want!r}"


def _expect_dim(out, want, n):
    rc, text = out
    ok = rc == 0 and _filt_dim(text) == (want, n)
    return ok, f"rc={rc} got {text[:40]!r}, want dim {want} of {n}"


def _expect_exp_dim(out, n, full):
    rc, text = out
    if rc != 0:
        return False, f"rc={rc}"
    k, amb = _filt_dim(text)
    ok = amb == n and (k == n) == full
    return ok, f"got dim {k} of {amb}, want {'full' if full else 'proper'} of {n}"


def _expect_frob(out, n, form):
    rc, text = out
    if rc != 0:
        return False, f"rc={rc}"
    doc = json.loads(text)
    if "free1" in form:
        want = form["free1"]
    else:
        # a free module over the dual algebra has dim divisible by p^m > n
        want = False
        if doc["witness"]["dim_dual_algebra"] != form["dual"]:
            return False, "dual algebra dimension differs from p^m"
    ok = doc["free"] == want and doc["witness"]["dim_module"] == n
    return ok, f"free={doc['free']}, want {want}"


# -- ga-families ------------------------------------------------------------------
#
# Additive-group u-families written as u_mats files: y_r_family, and random
# commuting families u_s = g P_s(J) g^{-1} with J the n x n nilpotent Jordan
# block (n <= p keeps J^p = 0), P_s a random polynomial without constant term
# of valuation val_s, and g a random base change.  Then
#     v_j = unit * J^{w(j)},  w(j) = sum_s j_s val_s  (base-p digits j_s of j),
# which gives closed forms for every verdict, independent of the library.
# Every op enumerates the p^|supp| digit vectors (10^2-10^4), so the work
# is the tiny-matrix derived_v -> mat_pow -> matmul chain.

# (kind, p, support size, dim, copies per round, commands); a copy of a random
# entry draws its own support, valuations and base change.  y_r entries have dim 2 and
# support 0..R.  The dims are fixed per entry because the per-op cost grows
# with dim^3, and so is the enumeration size p^|supp|.  In cost order a round
# has 32 ops below the median cluster (support calls, enumerations of
# 125-243 vectors, expdeg/filt on 625-729), the 11-op median cluster (expdeg
# and filt on random p=5 families of dim 3 with 625 vectors, about 40 ms), 16
# ops above it (up to 2187 vectors), the 10-op p90 cluster (expdeg and filt
# on Y_4 at p = 5, 3125 vectors) and its five frobchecks on top: as many ops
# above the median cluster as below it, so the median falls in its middle.
# The p90 cluster is a fixed family: the cost of a random family with 3125
# vectors depends on its support and valuations (170-320 ms for one shape),
# which would move the tail with the seed.  Y_5 at p = 5 (15625 vectors,
# about 1 s per op) is left out: it would hold too few ops for a stable tail.
GA_ALL = ("expdeg", "filt", "support", "frobcheck")
GA_NO_FROB = ("expdeg", "filt", "support")
GA_ROUND = (
    ("yr", 5, 2, 2, 1, GA_ALL),
    ("yr", 3, 4, 2, 1, GA_ALL),
    ("yr", 5, 3, 2, 1, GA_ALL),
    ("yr", 3, 5, 2, 1, GA_ALL),
    ("rand", 3, 6, 2, 1, GA_ALL),
    ("rand", 5, 4, 3, 5, GA_NO_FROB),  # the median cluster
    ("rand", 3, 6, 3, 2, GA_ALL),
    ("rand", 5, 4, 4, 1, GA_ALL),
    ("rand", 3, 7, 2, 1, GA_ALL),
    ("rand", 3, 7, 3, 1, GA_NO_FROB),  # its frobcheck (190-220 ms) would reach the p90 cluster
    ("yr", 5, 4, 2, 5, GA_ALL),  # the p90 cluster
)
GA_VARIANTS = 8  # distinct families per slot, enough that a run rarely repeats one
GA_SUPPORT_SAMPLES = 8


def _jordan_power_type(n, v):
    """Jordan type of J^v for the n x n nilpotent Jordan block J."""
    if v >= n:
        return [1] * n
    q, r = divmod(n, v)
    return sorted([q + 1] * r + [q] * (v - r), reverse=True)


class GaSpec:
    """A family u_s = g P_s(J) g^{-1} with closed-form verdicts."""

    def __init__(self, p, n, coeffs):
        self.p = p
        self.n = n
        self.coeffs = coeffs  # s -> [a_{s,0}=0, a_{s,1}, ..., a_{s,n-1}]
        self.val = {s: next(k for k, a in enumerate(c) if a) for s, c in coeffs.items()}

    def _weights(self):
        supp = sorted(self.val)
        for digs in itertools.product(range(self.p), repeat=len(supp)):
            j = sum(js * self.p**s for js, s in zip(digs, supp))
            yield j, sum(js * self.val[s] for js, s in zip(digs, supp))

    def expdeg(self):
        return max(j for j, w in self._weights() if w < self.n)

    def exp_filt_dim(self, e):
        return min([w for j, w in self._weights() if j > e and w < self.n] + [self.n])

    def theta_type(self, lambdas):
        """Jordan type of Theta = sum_s lambda_s^(p^s) u_s = sum_s lambda_s u_s."""
        c = [0] * self.n
        for s, lam in enumerate(lambdas):
            for k, a in enumerate(self.coeffs.get(s, ())):
                c[k] = (c[k] + lam * a) % self.p
        v = next((k for k, x in enumerate(c) if x), self.n)
        return _jordan_power_type(self.n, v)


def _random_ga_spec(p, n, support_size, rng):
    support = sorted(rng.sample(range(support_size + 2), support_size))
    coeffs = {}
    for s in support:
        val = rng.randrange(1, n)
        c = [0] * n
        c[val] = rng.randrange(1, p)
        for k in range(val + 1, n):
            c[k] = rng.randrange(p)
        coeffs[s] = c
    return GaSpec(p, n, coeffs)


def _ga_family_doc(spec, rng):
    fld = PrimeField(spec.p)
    n = spec.n
    J = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    g = random_invertible(fld, n, rng)
    ginv = linalg.mat_inverse(g, fld)
    u_mats = {}
    for s, c in spec.coeffs.items():
        P = linalg.zeros(n, n)
        Jk = linalg.identity(n)
        for a in c:
            P = linalg.mat_add(P, linalg.mat_scale(Jk, a, fld), fld)
            Jk = linalg.mat_mul(Jk, J, fld)
        u_mats[str(s)] = linalg.mat_mul(linalg.mat_mul(g, P, fld), ginv, fld)
    return {"p": spec.p, "group": {"kind": "Ga"}, "module": {"dim": n, "u_mats": u_mats}}


class GaFamilies:
    name = "ga-families"
    tail_level = 90.0

    def setup(self, seed, workdir):
        rng = random.Random(f"ga-families/{seed}")
        self.pool = {}
        for slot, (kind, p, size, dim, copies, _) in enumerate(GA_ROUND):
            for c in range(copies):
                for v in range(GA_VARIANTS):
                    path = os.path.join(workdir, f"ga-{slot}-{c}-{v}.json")
                    if kind == "yr":
                        spec = GaSpec(p, 2, {s: [0, 1] for s in range(size + 1)})
                        save_module(y_r_family(PrimeField(p), size), path)
                    else:
                        spec = _random_ga_spec(p, dim, size, rng)
                        with open(path, "w", encoding="utf-8") as fh:
                            json.dump(_ga_family_doc(spec, rng), fh, sort_keys=True, indent=2)
                            fh.write("\n")
                    self.pool[slot, c, v] = (f"{kind}-p{p}-s{size}-n{dim}", path, spec)
        self.rng = random.Random(f"ga-families/order/{seed}")

    def _op(self, family, path, spec, cmd):
        cls = f"{family} {cmd}"
        if cmd == "expdeg":
            deg = spec.expdeg()
            return Op(cls, lambda: cli_call(["expdeg", path]),
                      lambda out: _expect_stdout(out, f"{deg}\n"))
        if cmd == "filt":
            d = spec.expdeg() - 1
            want = spec.exp_filt_dim(d)
            return Op(cls, lambda: cli_call(["filt", path, "--kind", "exp", "--d", str(d)]),
                      lambda out: _expect_dim(out, want, spec.n))
        if cmd == "support":
            seed = self.rng.randrange(10**6)
            return Op("support", lambda: cli_call(["support", path, "--samples",
                                                   str(GA_SUPPORT_SAMPLES), "--seed", str(seed)]),
                      lambda out: _expect_support(out, spec))
        free = spec.n == spec.p and spec.val.get(0) == 1
        return Op(cls, lambda: cli_call(["frobcheck", path, "--r", "1"]),
                  lambda out: _expect_ga_frob(out, spec, free))

    def rounds(self):
        for r in itertools.count():
            ops = [self._op(*self.pool[slot, c, r % GA_VARIANTS], cmd)
                   for slot, (_, _, _, _, copies, cmds) in enumerate(GA_ROUND)
                   for c in range(copies) for cmd in cmds]
            yield _shuffled_round(ops, self.rng)


def _expect_support(out, spec):
    rc, text = out
    if rc != 0:
        return False, f"rc={rc}"
    checks = json.loads(text)["checks"]
    for rec in checks:
        parts = spec.theta_type(rec["inputs"]["lambdas"])
        free = all(x == spec.p for x in parts)
        if rec["witness"]["jordan_type"] != parts or rec["verdict"] == free:
            return False, f"{rec['check']}: got {rec['witness']['jordan_type']}, want {parts}"
    return len(checks) == GA_SUPPORT_SAMPLES, f"{len(checks)} samples"


def _expect_ga_frob(out, spec, free):
    rc, text = out
    if rc != 0:
        return False, f"rc={rc}"
    doc = json.loads(text)
    ok = doc["free"] == free and doc["witness"]["dim_module"] == spec.n
    return ok, f"free={doc['free']}, want {free}"


WORKLOADS = {w.name: w for w in (LawsSmall, WideComodule, GaFamilies)}
