"""The CLI tests start ``python -m diocurve.cli`` in child processes; give
them the package from ./src, as ``pythonpath`` in pyproject.toml gives it to
the test process, so the suite needs no PYTHONPATH set.  Neither the test
process nor its children write bytecode, so a run leaves no ``__pycache__``
under src for a later timing of the checkout to pick up."""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True


@pytest.fixture
def factorizations(monkeypatch):
    """The n of every factorization made while the test runs: each call of
    the two sources ``arithmetic.factor_pairs_over`` picks between, the
    shared sieve's ``factor_pairs`` and ``_factor_pairs_beyond_sieve``."""
    from diocurve import arithmetic

    calls = []
    from_sieve = arithmetic.SpfSieve.factor_pairs
    past_sieve = arithmetic._factor_pairs_beyond_sieve

    def sieve_pairs(self, n):
        calls.append(n)
        return from_sieve(self, n)

    def beyond_pairs(n):
        calls.append(n)
        return past_sieve(n)

    monkeypatch.setattr(arithmetic.SpfSieve, "factor_pairs", sieve_pairs)
    monkeypatch.setattr(arithmetic, "_factor_pairs_beyond_sieve", beyond_pairs)
    return calls
