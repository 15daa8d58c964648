"""The expfilt benchmark: one seeded, single-process, closed-loop workload run.

    python3 perfbench/run.py --workload laws-small --seed 1 --seconds 30 --trace 0

Workloads (workloads.py; BENCHMARK.json gives their reasons): laws-small,
wide-comodule, ga-families.  One client runs verdict ops back to back
(closed loop, no threads, no think time) against the library and the
in-process CLI, and checks every verdict.  The run always completes the
first round of ops, so the digest of that round's outputs is comparable
across commits for a seed.

--trace 0 prints the end-to-end metrics: ops_per_s (ops completed per second
of time spent in ops; verdict checks are not counted), op_p50_ms, op_tail_ms
(a percentile fixed per workload, so commits compare the same level; a run
with fewer than ten samples beyond it falls back to a lower level and says
so), setup_s (median of fresh-interpreter set-ups) and peak_rss_mb.
failed_ratio is printed in the report; the JSON line carries it as
``failed`` / ``attempted``.  --trace 1 runs the same loop with every layer
function wrapped (tracing.py), prints the per-layer calls, self and total
time, then replays the same ops untraced to report the tracing overhead.
The last line of stdout is one JSON object.

The program is single-threaded and has no queues, so no wait-time metrics
are defined.  The kernel backend is whatever ``expfilt`` selects (``pure``
unless the Cython extension is built).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import probe
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3  # fresh-interpreter set-ups per run; setup_s is the median
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MAX_SPANS = 100_000  # spans kept for the trace file; aggregates cover all spans


def _commit():
    """Commit of the checkout from .git, or 'unknown' (a plain file tree)."""
    git = os.path.join(probe.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _measure_setup(workload, seed, workdir):
    """setup_s samples from fresh interpreters running probe.py."""
    samples = []
    for k in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", os.path.join(workdir, f"probe{k}")],
            capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _quantile(sorted_vals, level):
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_vals)
    rank = max(1, math.ceil(level / 100.0 * n))
    return sorted_vals[rank - 1], n - rank


def _tail(sorted_vals, level):
    """The workload's tail level, or the highest lower level that still has
    ten samples beyond it when the run completed too few ops."""
    for lv in [level] + [x for x in reversed(TAIL_LEVELS) if x < level]:
        value, beyond = _quantile(sorted_vals, lv)
        if beyond >= 10:
            return lv, value, beyond
    value, beyond = _quantile(sorted_vals, TAIL_LEVELS[0])
    return TAIL_LEVELS[0], value, beyond


class Loop:
    """Closed-loop runner: latencies, failures and the round-0 digest."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.latencies = []
        self.classes = []
        self.executed = []
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def run_op(self, op, index, digest):
        if self.tracer is not None:
            self.tracer.op = index
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op; keep measuring
            dt = time.perf_counter() - t0
            ok, detail, out = False, f"raised {type(exc).__name__}: {exc}", repr(exc)
        else:
            dt = time.perf_counter() - t0
            ok, detail = op.check(out)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.cls}: {detail}")
        if digest:
            self.digest.update(repr(out).encode())
            self.digest_ops += 1
        return dt

    def run(self, seconds):
        deadline = time.perf_counter() + seconds
        for r, ops in enumerate(self.wl.rounds()):
            for op in ops:
                if r > 0 and time.perf_counter() >= deadline:
                    return
                dt = self.run_op(op, len(self.executed), digest=(r == 0))
                self.executed.append(op)
                self.latencies.append(dt)
                self.classes.append(op.cls)

    def replay(self):
        """Run the executed ops again, untraced; returns their summed latency."""
        return sum(self.run_op(op, k, digest=False) for k, op in enumerate(self.executed))


def _class_table(loop):
    by_cls = {}
    for cls, dt in zip(loop.classes, loop.latencies):
        by_cls.setdefault(cls, []).append(dt)
    rows = sorted(by_cls.items(), key=lambda kv: statistics.median(kv[1]))
    print("op class latency (median ms, count), fastest first:")
    for cls, vals in rows:
        print(f"  {cls:22s} {statistics.median(vals) * 1e3:10.2f} ms  n={len(vals)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not probe.library_present():
        print(f"error: no library sources under {probe.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(probe.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    build = os.path.join(probe.ROOT, ".bench_build", "perfbench")
    os.makedirs(build, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=build)
    try:
        probes = [] if args.trace else _measure_setup(args.workload, args.seed, work)
        wl, in_process = probe.timed_setup(args.workload, args.seed, os.path.join(work, "main"))
        setup_samples = probes + [in_process]
        import expfilt

        print(f"workload {args.workload}: {why[args.workload]}")
        print(f"provenance: kernel backend {expfilt.KERNEL_BACKEND}, "
              f"python {platform.python_version()}, nproc {os.cpu_count()}, commit {_commit()}")
        print(f"closed loop, 1 client, no threads; seed {args.seed}, {args.seconds:g} s")

        tracer = None
        if args.trace:
            tracer = tracing.Tracer(MAX_SPANS)
            tracer.install(tracing.layer_targets(),
                           tracing.binding_modules(extra=[sys.modules["workloads"]]))
        loop = Loop(wl, tracer)
        try:
            loop.run(args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()

        lat = sorted(loop.latencies)
        attempted = len(lat)
        busy = sum(lat)
        _class_table(loop)
        print(f"round-0 digest: sha256 {loop.digest.hexdigest()} over {loop.digest_ops} ops")
        for line in loop.failures:
            print(f"FAILED {line}")

        if args.trace:
            replay_s = loop.replay()
            attempted += len(loop.executed)
            metrics = _trace_report(tracer, loop, busy, replay_s, args, spec["per_layer"])
        else:
            level, tail, beyond = _tail(lat, wl.tail_level)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            e2e = {
                "ops_per_s": (attempted / busy, "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "op_tail_ms": (tail * 1e3, "ms"),
                "setup_s": (statistics.median(setup_samples), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            print("end-to-end metrics:")
            for name, (value, u) in e2e.items():
                print(f"  {name:12s} {value:14.6f} {u}")
            print(f"  {'failed_ratio':12s} {loop.failed / attempted:14.6f} ratio "
                  f"({loop.failed} of {attempted})")
            print(f"  op_tail_ms is p{level:g} of {attempted} ops, {beyond} samples beyond it; "
                  f"setup_s is the median of {len(setup_samples)} set-ups")
            print("  no wait-time metrics: the program is single-threaded and has no queues")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}

        result = {
            "correct": loop.failed == 0,
            "attempted": attempted,
            "failed": loop.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _trace_report(tracer, loop, traced_s, replay_s, args, wanted):
    flat = tracing.per_layer_metrics(tracer)
    table = tracer.layer_table()
    total_self = sum(s for _, s, _ in table.values()) or 1.0
    print("per-layer calls, self time and total (inclusive) time, as shares of the "
          "traced op time; largest self time first:")
    for name, (calls, self_s, total_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:32s} calls {calls:10d}  self {self_s:10.4f} s {100 * self_s / traced_s:5.1f}%"
              f"  total {total_s:10.4f} s {100 * total_s / traced_s:5.1f}%")
    print(f"  rref cells {flat['kernels.rref.cells']}, rank_ratio "
          f"{flat['kernels.rref.rank_ratio']:.4f}; matmul mults {flat['kernels.matmul.mults']}; "
          f"mul term_pairs {flat['polyring.mul.term_pairs']}; validate triples "
          f"{flat['comodule.validate.triples']}; derived_v nonzero_ratio "
          f"{flat['ga.derived_v.nonzero_ratio']:.4f}")
    layers = sorted({name.split(".", 1)[0] for name in table})
    print("  self time by layer: " + ", ".join(
        f"{layer} {100 * flat[layer + '.self_s'] / traced_s:.1f}%" for layer in layers))
    print(f"  (traced functions' self time covers {100 * total_self / traced_s:.1f}% of the "
          "op time; the rest is untraced code)")
    dims = sorted(int(k.rsplit("dim", 1)[1]) for k in flat if k.startswith("comodule.validate.self_s.dim"))
    for n in dims:
        print(f"  comodule.validate.self_s at dim {n:<4d} {flat[f'comodule.validate.self_s.dim{n}']:.4f} s")
    overhead = traced_s - replay_s
    print(f"tracing overhead: traced {traced_s:.3f} s - untraced {replay_s:.3f} s = "
          f"{overhead:.3f} s ({100 * overhead / replay_s:.0f}%) over {len(loop.executed)} ops")
    path = os.path.join(probe.ROOT, ".bench_build", "perfbench",
                        f"trace-{args.workload}-{args.seed}.jsonl")
    kept = tracer.write_spans(path)
    print(f"spans: {tracer.total_spans} recorded, first {kept} written to {path}")
    flat["trace.overhead_s"] = overhead
    return {m["name"]: {"value": flat.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


if __name__ == "__main__":
    sys.exit(main())
