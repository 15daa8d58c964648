"""Time one benchmark set-up: import the library, build the seeded inputs and
write the module files.

``run.py`` runs this script in fresh interpreters to measure ``setup_s`` (an
import is only cold once per process), and imports ``timed_setup`` to build
the inputs it then runs.

    python3 perfbench/probe.py --workload laws-small --seed 1 --workdir DIR
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def library_present():
    return os.path.isfile(os.path.join(SRC, "expfilt", "__init__.py"))


def timed_setup(workload, seed, workdir):
    """(workload object with its inputs built, seconds spent) in this process."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import expfilt
    import expfilt.cli  # noqa: F401  (part of what a CLI user pays for)

    if os.path.dirname(os.path.abspath(expfilt.__file__)) != os.path.join(SRC, "expfilt"):
        raise RuntimeError(f"expfilt imported from {expfilt.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]()
    os.makedirs(workdir, exist_ok=True)
    wl.setup(seed, workdir)
    return wl, time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    if not library_present():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    _, seconds = timed_setup(args.workload, args.seed, args.workdir)
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
