"""The public surface: the names ``diocurve`` exports, and every function
the benchmark's tracer wraps (``perfbench/tracer.py`` ``SPANS``), with the
keywords its hooks bind.  A trim that drops or renames one of these shows
here instead of as a silently empty benchmark span."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import diocurve

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_exported_names():
    assert sorted(diocurve.__all__) == [
        "ConstrainedHit",
        "CoverRecord",
        "DerivativeBound",
        "Factorization",
        "GcdBand",
        "HitFlags",
        "IntPolynomial",
        "PreconditionError",
        "ResidueSet",
        "arithmetic",
        "banded_center_count",
        "count_curve",
        "count_solutions",
        "counting",
        "cover_measure",
        "covers",
        "curve",
        "derivative_sup_bound",
        "distinct_prime_count",
        "divisor_count",
        "euler_phi",
        "eval_scaled",
        "factorize",
        "find_hits",
        "hensel_lift",
        "iroot",
        "is_power_residue",
        "is_primitive_power_residue",
        "lift_constrained",
        "power_residue_count",
        "power_residues",
        "reduce_simultaneous",
        "residues",
        "restricted_series_partial",
        "scaled_power_residue_count",
        "tail_sum",
        "unit_power_count",
        "unity_roots_count",
    ]


def test_every_traced_span_resolves():
    spans = _tracer().SPANS
    assert spans
    for name, module, attr in spans:
        assert callable(_resolve(module, attr)), name


def test_hooked_signatures_keep_their_keywords():
    # the tracer's hooks bind find_hits' qmax and the sums' bits (with its
    # default applied)
    tracer = _tracer()
    modules = {name: (module, attr) for name, module, attr in tracer.SPANS}
    assert set(tracer._HOOKS) <= set(modules)
    params = inspect.signature(_resolve(*modules["counting.find_hits"])).parameters
    assert "qmax" in params
    for name in ("covers.tail_sum", "covers.restricted_series_partial"):
        params = inspect.signature(_resolve(*modules[name])).parameters
        assert "bits" in params, name
        assert params["bits"].default is not inspect.Parameter.empty, name
