"""Module and report files.

A module file is a UTF-8 JSON document::

    {"p": 3,
     "group": {"kind": "Ga" | "UN" | "GaTrunc" | "UNTrunc", "N"?: int, "r"?: int},
     "module": {"dim": n, "coaction": [[polystring, ...], ...]}
               | {"u_mats": {"0": [[int, ...], ...], ...}}}

Coaction matrices are row-major (entry [j][i] is the coefficient of e_j in
Delta(e_i)); polystrings follow the polynomial text grammar.  The u_mats form
is only meaningful for kind "Ga".  Integer fields are JSON integers or
decimal strings; floats and booleans are rejected.  :func:`parse_module`
checks the type of every matrix entry, row by row, before it parses any
string, then makes one pass over the coaction rows: it skips each "0",
parses each other distinct string once per call, at its first occurrence,
through one term-body memo for the whole file
(:func:`polyring.parse_terms`), and files every term c mu of entry [j][i]
straight into the module's action table as (j, i, c) under mu;
:func:`module_to_doc` formats each entry straight from that table.  Parsing
always checks the module: a u_mats family must hold the family invariants,
and a coaction must pass the comodule laws, whose Delta table expands every
distinct monomial once through base-p Frobenius digits and a per-call prefix
memo, and rejects, before expanding it, a monomial whose coproduct's term
bound exceeds the desk-scale guard (``ValueError``, exit code 2 in the CLI).
Canonical serialization sorts keys and uses two-space indentation, so
serialize(parse(file)) is byte-identical for canonical files.

A report file is {"seed": ..., "checks": [record, ...]} with records
{check, inputs, verdict, witness?, law} sorted by check id; ``law`` is a short
tag of the mathematical property the record checked.
"""

import json
import math
from collections import defaultdict

from . import coalgebras
from .comodule import Comodule, validate
from .fpcomb import DESK_GUARD, PrimeField
from .ga import GaUFamily, require_valid_family
from .polyring import format_poly, parse_terms

GROUP_KINDS = ("Ga", "UN", "GaTrunc", "UNTrunc")

# Largest u_mats index s of a module file, on load and on save.  Every Ga
# command works with T^(p^s), so its cost grows with s: with u_0 and u_s at
# p = 97 a command took 1.2 s at s = 64 and 15 s at s = 1,000 (2-vCPU host),
# and s = 10^4 overflows int-to-str.
U_INDEX_BOUND = 64


class ModuleFileError(ValueError):
    """Malformed or law-violating module file."""


def _field(obj: dict, key: str, what: str = "field"):
    try:
        return obj[key]
    except KeyError:
        raise ModuleFileError(f"missing {what} {key!r}") from None


def _as_int(value, what: str) -> int:
    """A JSON integer, or a decimal string such as "3"; floats and booleans are rejected."""
    if isinstance(value, (bool, float)):
        raise ModuleFileError(f"{what} must be an integer")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModuleFileError(f"{what} must be an integer") from exc


def _u_index(s: int) -> int:
    if not 0 <= s <= U_INDEX_BOUND:
        raise ModuleFileError(f"u_mats index {s} is outside [0, {U_INDEX_BOUND}]")
    return s


def _dim(n: int) -> int:
    """n, when every n x n action matrix fits the desk-scale guard (n^2 <=
    DESK_GUARD, so n <= 1,000); checked before anything of size n is built."""
    bound = math.isqrt(DESK_GUARD)
    if not 0 <= n <= bound:
        raise ModuleFileError(f"dim {n} is outside [0, {bound}]: an action matrix has dim^2 "
                              f"entries, at most the desk-scale guard {DESK_GUARD}")
    return n


def _int_field(obj: dict, key: str, what: str = "field") -> int:
    return _as_int(_field(obj, key, what), f"{what} {key!r}")


def _coalgebra_from_group(group: dict, field: PrimeField) -> coalgebras.CoalgebraId:
    """The group's coalgebra; rejected past the desk-scale guard: p^(r*m) for a
    truncated group, the (N-1)N(N+4)/6 generator coproduct terms of k[U_N]."""
    kind = group.get("kind")
    what = f"group {kind!r} field"
    if kind == "Ga":
        return coalgebras.ga_poly()
    if kind == "UN":
        N = _int_field(group, "N", what)
        terms = (N - 1) * N * (N + 4) // 6
        if terms > DESK_GUARD:
            raise ModuleFileError(f"N = {N}: the {terms} generator coproduct terms of k[U_N] "
                                  f"exceed the desk-scale guard {DESK_GUARD}")
        return coalgebras.un_poly(N)
    if kind == "GaTrunc":
        coalg = coalgebras.ga_trunc(_int_field(group, "r", what))
    elif kind == "UNTrunc":
        coalg = coalgebras.un_trunc(_int_field(group, "N", what), _int_field(group, "r", what))
    else:
        raise ModuleFileError(f"unknown group kind {kind!r}")
    coalgebras.dual_algebra_dim(coalg, field)
    return coalg


def _group_from_coalgebra(coalg: coalgebras.CoalgebraId) -> dict:
    if coalg.kind == "GaPoly":
        return {"kind": "Ga"}
    if coalg.kind == "GaTrunc":
        return {"kind": "GaTrunc", "r": coalg.r}
    if coalg.kind == "UNPoly":
        return {"kind": "UN", "N": coalg.N}
    if coalg.kind == "UNTrunc":
        return {"kind": "UNTrunc", "N": coalg.N, "r": coalg.r}
    raise ModuleFileError(f"{coalg} has no file representation")


def _require_matrix(value, what: str, entry_type):
    """Reject anything but a list of lists whose entries are ``entry_type`` (not bool)."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ModuleFileError(f"{what} must be a list of lists")
    allowed = {entry_type}  # by exact type: a bool is not an int
    if not all(set(map(type, row)) <= allowed for row in value):
        raise ModuleFileError(f"{what} entries must be {entry_type.__name__}")


def parse_module(doc: dict):
    """Parse a module-file document into a Comodule or GaUFamily and check its laws."""
    if not isinstance(doc, dict):
        raise ModuleFileError("module file must be a JSON object")
    p = _int_field(doc, "p")
    group = _field(doc, "group")
    module = _field(doc, "module")
    if not isinstance(group, dict) or not isinstance(module, dict):
        raise ModuleFileError("group and module must be JSON objects")
    field = PrimeField(p)
    if "u_mats" in module:
        if group.get("kind") != "Ga":
            raise ModuleFileError("u_mats form is only valid for group kind 'Ga'")
        if not isinstance(module["u_mats"], dict):
            raise ModuleFileError("u_mats must map indices to matrices")
        mats = {}
        dim = None
        for key, mat in module["u_mats"].items():
            s = _u_index(_as_int(key, f"u_mats index {key!r}"))
            _require_matrix(mat, "u_mats matrix", int)
            mats[s] = [[v % p for v in row] for row in mat]
            dim = len(mats[s]) if dim is None else dim
        dim = _dim(_as_int(module.get("dim", dim if dim is not None else 0), "field 'dim'"))
        fam = GaUFamily(field, dim, mats)
        if any(len(m) != dim or any(len(r) != dim for r in m) for m in mats.values()):
            raise ModuleFileError("u_mats rows must be dim x dim")
        require_valid_family(fam)
        return fam
    coalg = _coalgebra_from_group(group, field)
    dim = _dim(_int_field(module, "dim"))
    rows = _field(module, "coaction")
    _require_matrix(rows, "coaction", str)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ModuleFileError("coaction matrix must be dim x dim")
    # one parse per distinct string, in first-occurrence order so the first
    # malformed string is the one reported; one term-body memo for the file
    parsed = {}
    memo = {}
    acts = defaultdict(list)
    for j, row in enumerate(rows):
        for i, t in enumerate(row):
            if t == "0":
                continue
            terms = parsed.get(t)
            if terms is None:
                terms = parsed[t] = parse_terms(t, field.p, memo)
            for m, c in terms.items():
                acts[m].append((j, i, c))
    M = Comodule(field, coalg, dim, dict(acts))
    rep = validate(M)
    if not rep.ok:
        raise ModuleFileError(f"comodule law violation: {rep.summary()}")
    return M


def module_to_doc(obj) -> dict:
    """Canonical module-file document for a Comodule or GaUFamily."""
    if isinstance(obj, GaUFamily):
        return {
            "p": obj.field.p,
            "group": {"kind": "Ga"},
            "module": {
                "dim": obj.dim,
                "u_mats": {str(_u_index(s)): [list(r) for r in obj.u_mats[s]]
                           for s in sorted(obj.u_mats)},
            },
        }
    if isinstance(obj, Comodule):
        n = obj.dim
        entries = [[{} for _ in range(n)] for _ in range(n)]
        for m, act in obj.acts.items():
            for j, i, c in act:
                entries[j][i][m] = c
        return {
            "p": obj.field.p,
            "group": _group_from_coalgebra(obj.coalgebra),
            "module": {
                "dim": n,
                "coaction": [[format_poly(terms) for terms in row] for row in entries],
            },
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_module(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ModuleFileError("module file is nested too deeply") from None
    return parse_module(doc)


def save_module(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(module_to_doc(obj)))


# -- reports ----------------------------------------------------------------------


def make_record(check: str, inputs: dict, verdict, law: str, witness=None) -> dict:
    rec = {"check": check, "inputs": inputs, "verdict": verdict, "law": law}
    if witness is not None:
        rec["witness"] = witness
    return rec


def report_doc(records, seed=None, extra=None) -> dict:
    doc = {"checks": sorted(records, key=lambda r: r["check"])}
    if seed is not None:
        doc["seed"] = seed
    if extra:
        doc.update(extra)
    return doc


def report_ok(doc: dict) -> bool:
    return all(bool(r["verdict"]) for r in doc["checks"])
