"""Outside-in tracing: spans around calls into the library's public functions.

Nothing in the library is edited.  ``Tracer.install`` replaces each traced
function by a wrapper at every place it is bound: the defining module, every
module that imported it by name (``from .comodule import validate`` binds it
again in ``io``, ``verify``, ``un``, ...), the benchmark's own modules, and
every class attribute that holds it (``MultiPoly.__radd__ is __add__``).
``uninstall`` puts the originals back.

A span is (id, name, start, end, parent id, op index).  Self time is a span's
duration minus the durations of its direct children.  Calls and self time are
aggregated for every span; the spans themselves are kept in memory up to a
cap and written out when the run ends.
"""

import json
import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self, max_spans):
        self.max_spans = max_spans
        self.names = []
        self.calls = []
        self.self_s = []
        self.total_s = []  # inclusive: the span's whole duration, children included
        self.counts = {}  # extra per-layer counts computed from arguments and results
        self.total_spans = 0
        self.op = -1  # index of the op being run: the spans' request identifier
        self._stack = []
        self._spans = {key: array(code) for key, code in
                       (("id", "q"), ("name", "H"), ("start", "d"), ("end", "d"),
                        ("parent", "q"), ("op", "q"))}
        self._restore = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        spans = self._spans
        cap = self.max_spans
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.total_spans
            tracer.total_spans = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                self_s[nid] += own
                total_s[nid] += dur
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                if sid < cap:
                    spans["id"].append(sid)
                    spans["name"].append(nid)
                    spans["start"].append(start)
                    spans["end"].append(end)
                    spans["parent"].append(stack[-1][0] if stack else -1)
                    spans["op"].append(tracer.op)
            if hook is not None:
                hook(tracer, args, result, own)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, targets, modules):
        """Wrap each (name, owner, attribute, hook) target at all its bindings.

        ``owner`` is the defining module or class; ``modules`` are the modules
        whose by-name imports are rebound too.
        """
        for name, owner, attr, hook in targets:
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, hook)
            holders = [owner] if isinstance(owner, type) else [owner, *modules]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def layer_table(self):
        """{name: (calls, self seconds, total seconds)} for every traced function."""
        return {n: (c, s, t) for n, c, s, t in
                zip(self.names, self.calls, self.self_s, self.total_s)}

    def write_spans(self, path):
        s = self._spans
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(s["id"])):
                fh.write(json.dumps({
                    "id": s["id"][k],
                    "name": self.names[s["name"][k]],
                    "start": s["start"][k],
                    "end": s["end"][k],
                    "parent": s["parent"][k],
                    "op": s["op"][k],
                }) + "\n")
        return len(s["id"])


# -- the traced layers -------------------------------------------------------------


def _rref_hook(t, args, result, own):
    rows, ncols = args[0], args[1]
    t.add("kernels.rref.cells", len(rows) * ncols)
    t.add("kernels.rref.rows", len(rows))
    t.add("kernels.rref.rank", len(result[0]))


def _matmul_hook(t, args, result, own):
    a, b = args[0], args[1]
    if a and b:
        t.add("kernels.matmul.mults", len(a) * len(b) * len(b[0]))


def _mul_hook(t, args, result, own):
    other = args[1]
    if not isinstance(other, int):
        t.add("polyring.mul.term_pairs", len(args[0].terms) * len(other.terms))


def _validate_hook(t, args, result, own):
    n = args[0].dim
    t.add("comodule.validate.triples", n**3)
    t.add(f"comodule.validate.self_s.dim{n}", own)


def _derived_v_hook(t, args, result, own):
    if any(any(row) for row in result):
        t.add("ga.derived_v.nonzero", 1)


def layer_targets():
    """(metric prefix, owner, attribute, hook) for every traced function."""
    from expfilt import (
        _kernels, cli, coalgebras, comodule, expdeg, ga, io, polyring, support, un,
    )

    MP = polyring.MultiPoly
    return [
        ("kernels.rref", _kernels, "rref", _rref_hook),
        ("kernels.matmul", _kernels, "matmul", _matmul_hook),
        ("kernels.lucas_row", _kernels, "lucas_row", None),
        ("polyring.mul", MP, "__mul__", _mul_hook),
        ("polyring.add", MP, "__add__", None),
        ("polyring.var_key", polyring, "var_key", None),
        ("polyring.substitute", MP, "substitute", None),
        ("polyring.parse_poly", polyring, "parse_poly", None),
        ("coalgebras.coproduct", coalgebras, "coproduct", None),
        ("coalgebras.is_member", coalgebras, "is_member", None),
        ("comodule.validate", comodule, "validate", _validate_hook),
        ("comodule.coideal_preimage", comodule, "coideal_preimage", None),
        ("comodule.extended_to", comodule.CoalgebraSubspace, "extended_to", None),
        ("comodule.restrict_to_subspace", comodule, "restrict_to_subspace", None),
        ("comodule.is_coaction_stable", comodule, "is_coaction_stable", None),
        ("comodule.jordan_type", comodule, "jordan_type", None),
        ("comodule.local_freeness", comodule, "local_freeness", None),
        ("un.degree_filtration_un", un, "degree_filtration_un", None),
        ("ga.derived_v", ga, "derived_v", _derived_v_hook),
        ("ga.family_to_comodule", ga, "family_to_comodule", None),
        ("expdeg.exp_pullback", expdeg, "exp_pullback", None),
        ("expdeg.module_exp_filtration", expdeg, "module_exp_filtration", None),
        ("expdeg.ga_exponential_degree", expdeg, "ga_exponential_degree", None),
        ("expdeg.ga_exp_filtration", expdeg, "ga_exp_filtration", None),
        ("support.theta_operator", support, "theta_operator", None),
        ("support.support_sample", support, "support_sample", None),
        ("io.parse_module", io, "parse_module", None),
        ("cli.main", cli, "main", None),
    ]


def binding_modules(extra=()):
    """Every loaded library module except the kernel implementation module,
    whose own recursive calls are not a layer boundary; plus ``extra``."""
    mods = [m for n, m in sorted(sys.modules.items())
            if (n == "expfilt" or n.startswith("expfilt."))
            and n != "expfilt._kernels.pure" and m is not None]
    return mods + list(extra)


def per_layer_metrics(tracer):
    """Flat {metric: value} of calls, self time and the derived counts."""
    out = {}
    for name, (calls, self_s, _) in tracer.layer_table().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        layer = name.split(".", 1)[0] + ".self_s"
        out[layer] = out.get(layer, 0.0) + self_s
    c = tracer.counts
    out["kernels.rref.cells"] = c.get("kernels.rref.cells", 0)
    out["kernels.rref.rank_ratio"] = (
        c.get("kernels.rref.rank", 0) / c["kernels.rref.rows"] if c.get("kernels.rref.rows") else 0.0
    )
    out["kernels.matmul.mults"] = c.get("kernels.matmul.mults", 0)
    out["polyring.mul.term_pairs"] = c.get("polyring.mul.term_pairs", 0)
    out["comodule.validate.triples"] = c.get("comodule.validate.triples", 0)
    calls_v = out["ga.derived_v.calls"]
    out["ga.derived_v.nonzero_ratio"] = c.get("ga.derived_v.nonzero", 0) / calls_v if calls_v else 0.0
    for key in sorted(k for k in c if k.startswith("comodule.validate.self_s.dim")):
        out[key] = c[key]
    return out
