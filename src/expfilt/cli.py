"""Command-line surface.

Subcommands: carries, filt, expdeg, support, pullback, frobcheck, dims,
verify.  Exit codes: 0 success, 2 validation failure (bad input: a malformed,
law-violating, missing or unreadable module file, a bad option value or an
unwritable ``--output``; :func:`main` prints it as one ``error:`` line),
3 property violation (an oracle or suite found falsified mathematics).
"""

import argparse
import itertools
import json
import sys

from .comodule import degree_filtration, generated_submodule
from .expdeg import exponential_degree, exponential_height, module_exp_filtration
from .fpcomb import DESK_GUARD, PrimeField, desk_power
from .ga import GaUFamily, carries_basis, family_to_comodule, regular_comodule
from .io import (
    canonical_dumps,
    load_module,
    make_record,
    module_to_doc,
    report_doc,
    report_ok,
)
from .samplers import SAMPLED_HEIGHT, enumerate_1psg_un, random_1psg_ga, random_1psg_un, rng_from_seed
from .support import (
    frobenius_injectivity_check,
    ga_psg,
    pullback_module,
    support_sample,
    un_psg,
)
from .un import UNContext, frobenius_kernel_dims
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROPERTY = 3


def _emit(text: str, output):
    text = text if text.endswith("\n") else text + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, output):
    _emit(canonical_dumps(doc), output)


def cmd_carries(args) -> int:
    field = PrimeField(args.p)
    basis = carries_basis(args.n, field)
    result = {"n": args.n, "p": args.p, "basis": basis}
    if args.oracle:
        entries = (args.n + 1) * (args.n + 2) // 2  # the i <= j coaction entries it builds
        if entries > DESK_GUARD:
            raise ValueError(f"--oracle: the {entries} coaction entries of the regular comodule "
                             f"of dimension {args.n + 1} exceed the desk-scale guard {DESK_GUARD}")
        M = regular_comodule(field, args.n + 1)
        target = [0] * (args.n + 1)
        target[args.n] = 1
        span = generated_submodule(M, [target])
        oracle = sorted(span.pivots)
        result["oracle"] = oracle
        result["agrees"] = oracle == basis
    _emit_json(result, args.output)
    return EXIT_OK if result.get("agrees", True) else EXIT_PROPERTY


def cmd_filt(args) -> int:
    obj = load_module(args.file)
    if args.kind == "exp":
        space = module_exp_filtration(obj, args.d)
    else:
        if isinstance(obj, GaUFamily):
            obj = family_to_comodule(obj)
        space = degree_filtration(obj, args.d)
    lines = [f"dim {space.dim} of {space.ambient}"]
    lines.extend(" ".join(map(str, row)) for row in space.rows)
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_expdeg(args) -> int:
    obj = load_module(args.file)
    deg = exponential_degree(obj)
    value = exponential_height(deg, obj.field) if args.scale == "height" else deg
    _emit(str(value), args.output)
    return EXIT_OK


def _sample_psis(obj, args):
    """The subgroups of a ``support`` report.  Each record holds an n x n
    Theta and its subgroup, up to h scalars over k[Ga] or h N x N matrices
    over k[U_N] (h the exhaustive height, or the samplers' top height), so
    records * (n^2 + h * s), s = 1 or N^2, must fit the desk-scale guard:
    checked before a sampled or Ga subgroup is built, and on the exhaustive
    U_N pool (at most 297 tuples under its own guard) once it is built."""
    field = obj.field
    ga_form = isinstance(obj, GaUFamily) or obj.coalgebra.kind == "GaPoly"
    if args.exhaustive:
        if args.height < 1:
            raise ValueError(f"--height must be at least 1, got {args.height}")
        if ga_form:
            count = desk_power(field, args.height, "Ga subgroups of height h")
            psis = (ga_psg(field, combo)
                    for combo in itertools.product(range(field.p), repeat=args.height))
        else:
            psis = enumerate_1psg_un(field, obj.coalgebra.N, args.height)
            count = len(psis)
    else:
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        count = args.samples
        rng = rng_from_seed(args.seed)
        if ga_form:
            psis = (random_1psg_ga(field, rng) for _ in range(count))
        else:
            psis = (random_1psg_un(field, obj.coalgebra.N, rng) for _ in range(count))
    n = obj.dim
    height = args.height if args.exhaustive else SAMPLED_HEIGHT
    per_psi = height * (1 if ga_form else obj.coalgebra.N**2)
    entries = count * (n * n + per_psi)
    if entries > DESK_GUARD:
        raise ValueError(f"{count} support records, each a {n} x {n} Theta and up to {per_psi} "
                         f"subgroup entries: {entries} entries exceed the desk-scale guard "
                         f"{DESK_GUARD}")
    return psis


def cmd_support(args) -> int:
    obj = load_module(args.file)
    if not isinstance(obj, GaUFamily) and obj.coalgebra.kind not in ("GaPoly", "UNPoly"):
        raise ValueError("support sampling needs a polynomial (non-truncated) group kind")
    psis = _sample_psis(obj, args)
    verdicts = support_sample(obj, psis)
    records = [
        make_record(
            f"support-sample-{k:04d}",
            v["psi"].describe(),
            v["in_support"],
            "support-not-free",
            witness={"jordan_type": list(v["jordan_type"].parts)},
        )
        for k, v in enumerate(verdicts)
    ]
    doc = report_doc(records, seed=None if args.exhaustive else args.seed)
    _emit_json(doc, args.output)
    return EXIT_OK


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_psi(text: str, obj):
    """The --psi subgroup for a loaded module; a UN form takes N from the module."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("psi is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("psi must be a JSON object")
    if data.get("kind") == "Ga":
        lambdas = data.get("lambdas")
        if not isinstance(lambdas, list) or not all(_is_int(v) for v in lambdas):
            raise ValueError("psi 'lambdas' must be a list of integers")
        return ga_psg(obj.field, lambdas)
    if data.get("kind") == "UN":
        mats = data.get("mats")
        if not isinstance(mats, list) or not all(
            isinstance(m, list)
            and all(isinstance(row, list) and all(_is_int(v) for v in row) for row in m)
            for m in mats
        ):
            raise ValueError("psi 'mats' must be a list of integer matrices")
        coalg = getattr(obj, "coalgebra", None)
        if coalg is None or coalg.kind != "UNPoly":
            raise ValueError("a UN-form subgroup pairs with a k[U_N]-comodule")
        return un_psg(obj.field, coalg.N, mats)
    raise ValueError("psi must have kind 'Ga' or 'UN'")


def cmd_pullback(args) -> int:
    obj = load_module(args.file)
    fam = pullback_module(obj, _parse_psi(args.psi, obj))
    _emit_json(module_to_doc(fam), args.output)
    return EXIT_OK


def cmd_frobcheck(args) -> int:
    verdict = frobenius_injectivity_check(load_module(args.file), args.r)
    doc = {"r": args.r, "free": verdict.free, "witness": verdict.witness()}
    _emit_json(doc, args.output)
    return EXIT_OK


def cmd_dims(args) -> int:
    rec = frobenius_kernel_dims(UNContext(PrimeField(args.p), args.N), args.r)
    _emit_json(rec.as_dict(), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    records = run_suite(args.suite, seed=args.seed, p=args.p, N=args.N)
    doc = report_doc(records, seed=args.seed, extra={"suite": args.suite})
    _emit_json(doc, args.output)
    ok = report_ok(doc)
    if not ok:
        failing = [r["check"] for r in doc["checks"] if not r["verdict"]]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expfilt",
        description="Degree and exponential-degree filtrations over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--output", metavar="PATH", help="write the result to PATH")

    sp = sub.add_parser("carries", help="digit-domination basis of the orbit span of T^n")
    sp.add_argument("n", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("--oracle", action="store_true",
                    help="recompute via the generated-submodule span and compare")
    add_output(sp)
    sp.set_defaults(func=cmd_carries)

    sp = sub.add_parser("filt", help="filtration piece of a module file")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=("degree", "exp"), required=True)
    sp.add_argument("--d", type=int, required=True)
    add_output(sp)
    sp.set_defaults(func=cmd_filt)

    sp = sub.add_parser("expdeg", help="exponential degree of a module file")
    sp.add_argument("file")
    sp.add_argument("--scale", choices=("raw", "height"), default="raw",
                    help="raw degree d, or the base-p height (minimal r with d <= p^r)")
    add_output(sp)
    sp.set_defaults(func=cmd_expdeg)

    sp = sub.add_parser("support", help="sampled support verdicts for a module file")
    sp.add_argument("file")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--height", type=int, default=1, help="height for --exhaustive")
    add_output(sp)
    sp.set_defaults(func=cmd_support)

    sp = sub.add_parser("pullback", help="pull a module back along a 1-parameter subgroup")
    sp.add_argument("file")
    sp.add_argument("--psi", required=True,
                    help='JSON, e.g. {"kind": "Ga", "lambdas": [1]} or {"kind": "UN", "mats": [...]}')
    add_output(sp)
    sp.set_defaults(func=cmd_pullback)

    sp = sub.add_parser("frobcheck", help="freeness of the restriction to a Frobenius kernel")
    sp.add_argument("file")
    sp.add_argument("--r", type=int, required=True)
    add_output(sp)
    sp.set_defaults(func=cmd_frobcheck)

    sp = sub.add_parser("dims", help="dimension numerics for U_N Frobenius kernels")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    add_output(sp)
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("verify", help="run an acceptance suite")
    sp.add_argument("--suite", required=True,
                    help="one of: " + ", ".join(sorted(SUITES)) + ", all")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=int)
    sp.add_argument("--N", type=int)
    add_output(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls.

    It holds no state from a call: every option's default is immutable
    (None, a number, a string or ``store_true``'s False).
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
