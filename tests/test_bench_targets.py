"""The layer functions the traced benchmark run wraps still exist, with the
parameters and result types its counters read.

bench/tracing.py reports a layer whose function is gone as missing (a null
value), so a rename in the program would otherwise only show up in a traced
benchmark run."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from conftest import m
from hd0l import matrices
from hd0l.factors import FactorEngine
from hd0l.hdol import class_limits, decide_hd0l, stabilized_power_exponent
from hd0l.words import HD0LSystem, expand_fixed_point, identity

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402

sys.path.remove(str(BENCH))


@pytest.mark.parametrize("span", sorted(tracing.TARGETS))
def test_target_resolves_to_a_callable(span):
    module_name, qualname = tracing.TARGETS[span]
    importlib.import_module(module_name)
    assert tracing._resolve(module_name, qualname) is not None, span


def test_every_counter_belongs_to_a_target():
    for metric, (span, _) in tracing.COUNTERS.items():
        assert span in tracing.TARGETS, metric


def test_counter_signatures_and_results():
    params = inspect.signature(FactorEngine.coded_window_floor).parameters
    assert {"n", "sample_len"} <= set(params)

    sigma = m({"a": "ab", "b": "bb"})
    e = stabilized_power_exponent(sigma)
    assert type(e) is int and e >= 1

    system = HD0LSystem(("a", "b"), ("a", "b"), sigma, identity("ab"),
                        ("a", "a"))
    assert len(class_limits(system)) >= 1
    assert len(system.term(3)) == 16
    assert len(expand_fixed_point(sigma, "a", 5)) == 5


def test_analysis_reads_the_names_the_tracer_rebinds(monkeypatch):
    """The tracer counts the decomposition and the letter-set orbit by
    rebinding their names in hd0l.matrices; a caller that captured the
    functions at import time would leave both counts at 0."""
    calls = []
    for name in ("component_decomposition", "letterset_orbit"):
        def counted(*args, real=getattr(matrices, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(matrices, name, counted)

    sigma = m({"a": "ab", "b": "a"})
    system = HD0LSystem(("a", "b"), ("a", "b"), sigma, identity("ab"), ("a",))
    decide_hd0l(system)
    assert set(calls) == {"component_decomposition", "letterset_orbit"}
