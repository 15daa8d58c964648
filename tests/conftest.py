"""Shared fixtures: each ``verify`` suite runs once per session, with the
arithmetic of ``MultiPoly`` patched to raise, and every test that checks a
suite reads that one run."""

import time

import pytest

from expfilt.polyring import MultiPoly
from expfilt.verify import SUITES


def _forbid_multipoly_arithmetic(mp):
    def forbidden(*args, **kwargs):
        raise AssertionError("MultiPoly arithmetic on a library path")

    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "__pow__", "substitute", "scale"):
        mp.setattr(MultiPoly, name, forbidden)


@pytest.fixture
def no_multipoly_arithmetic(monkeypatch):
    _forbid_multipoly_arithmetic(monkeypatch)


@pytest.fixture(scope="session")
def suite_run():
    """suite_run(name) -> (records, seconds) of ``SUITES[name](seed=0)``, run on
    first request with ``MultiPoly`` arithmetic patched to raise."""
    runs = {}

    def run(name):
        if name not in runs:
            with pytest.MonkeyPatch.context() as mp:
                _forbid_multipoly_arithmetic(mp)
                t0 = time.perf_counter()
                records = SUITES[name](seed=0)
                runs[name] = records, time.perf_counter() - t0
        return runs[name]

    return run
