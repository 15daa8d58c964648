"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is exact (no numerical tolerance); the stated time budgets
are design targets for the pure-Python kernels and the elapsed time is
printed next to each verdict.  Each suite runs once per session
(``conftest.suite_run``, with ``MultiPoly`` arithmetic patched to raise), and
``test_library_paths_use_no_multipoly_arithmetic`` reads the same run.  Run
with ``pytest tests/test_acceptance.py -v -s`` or equivalently
``expfilt verify --suite all``.
"""

import types

import pytest

from expfilt.verify import SUITES

BUDGETS = {
    "carries": 10,
    "lucas": 10,
    "retract": 5,
    "dims": 10,
    "exp-natural": 5,
    "notcompare": 5,
    "schur": 30,
    "relate": 60,
    "yr": 30,
    "twist": 60,
    "freeness": 30,
    "functor-laws": 60,
    "mock-trivial": 60,
}

TITLES = {
    "carries": "01 carries/Kummer basis vs exact-integer span oracle",
    "lucas": "02 Lucas binomials vs exact-integer binomials",
    "retract": "03 coalgebra splitting of the truncation",
    "dims": "04 kernel dimension numerics and restriction maps",
    "exp-natural": "05 exponential flags of the natural U_3 module",
    "notcompare": "06 corrected cancellation example",
    "schur": "07 polynomial-representation degree bounds",
    "relate": "08 degree vs exponential filtration comparison",
    "yr": "09 Y_R degrees and support",
    "twist": "10 Frobenius twist degree bound",
    "freeness": "11 freeness at Frobenius kernels",
    "functor-laws": "12 filtration functor laws",
    "mock-trivial": "13 mock-trivial equivalence (one direction)",
}


def run_criterion(name, suite_run):
    records, elapsed = suite_run(name)
    failures = [r for r in records if not r["verdict"]]
    status = "PASS" if not failures else "FAIL"
    print(
        f"ACCEPT-{TITLES[name]}: {status} "
        f"({len(records)} checks, {elapsed:.2f}s, budget {BUDGETS[name]}s)"
    )
    assert not failures, failures
    return elapsed


@pytest.mark.parametrize("name", list(SUITES), ids=[TITLES[n][:2] for n in SUITES])
def test_criterion(name, suite_run):
    run_criterion(name, suite_run)


def test_a_failing_sweep_stops_at_its_first_witness(monkeypatch):
    """free-random-sweep with local_freeness reading not-free at the third
    sampled module: the verdict is False, the witness is that case's, and the
    sampler draws no later case."""
    from expfilt import verify

    drawn = []
    sampler, freeness = verify.random_free_trunc_module, verify.local_freeness

    def counting_sampler(*args):
        drawn.append(sampler(*args))
        return drawn[-1]

    def not_free_at_third(M):
        if len(drawn) == 3 and M is drawn[-1]:
            return types.SimpleNamespace(free=False)
        return freeness(M)

    monkeypatch.setattr(verify, "random_free_trunc_module", counting_sampler)
    monkeypatch.setattr(verify, "local_freeness", not_free_at_third)
    records = {r["check"]: r for r in verify.suite_freeness(seed=0)}
    assert records.pop("free-random-sweep") == {
        "check": "free-random-sweep",
        "inputs": {"cases": 50, "seed": 0},
        "verdict": False,
        "law": "freeness-detector-random-sweep",
        "witness": {"case": 2, "expected": "free"},
    }
    assert len(drawn) == 3
    assert all(r["verdict"] for r in records.values())
