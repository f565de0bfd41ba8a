"""Tests of the benchmark's own code: every checker rejects a wrong answer,
the hand-derived answers agree with raw iteration, the seed changes only
what it should, and the tracer reports a vanished function as missing.

    python3 -m pytest -q bench/test_reference.py
"""

import ast
import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def _verdict(answer, certified=True, diagnostic=None, u=None, v=None):
    doc = {"answer": answer, "certified": certified,
           "diagnostic": diagnostic, "trace": []}
    if u is not None:
        doc["u"], doc["v"] = list(u), list(v)
    return json.dumps(doc, indent=2)


def _all_systems():
    seen = {}
    for build in workloads.WORKLOADS.values():
        for op in build():
            seen.setdefault(op.system.name, op.system)
    return list(seen.values())


@pytest.mark.parametrize("system", _all_systems(), ids=lambda s: s.name)
def test_hand_derived_answers_agree_with_raw_iteration(system):
    ev = reference.Evidence(system)
    assert ev.property_problem() is None
    if system.kind == "positive":
        assert reference.check_witness(ev, list(system.witness[0]),
                                       list(system.witness[1])) is None


def test_right_answers_pass():
    mirror = reference.Evidence(workloads.mirror_insertion())
    assert reference.check_decide(
        mirror, _verdict("yes", u="", v="ac"), 0) is None
    fib = reference.Evidence(workloads.fibonacci())
    assert reference.check_decide(
        fib, _verdict("no", diagnostic="AperiodicSubComponent"), 3) is None
    prefix = fib.expand_prefix(1000)
    assert reference.check_expand(fib, prefix + "\n", 0, 1000) is None


def test_rotated_period_is_rejected():
    ev = reference.Evidence(workloads.mirror_insertion())
    assert reference.check_decide(ev, _verdict("yes", u="", v="ca"), 0)
    # the raw iterates reject it even when the expectation is wrong too
    wrong = reference.Evidence(
        replace(workloads.mirror_insertion(), witness=("", "ca")))
    assert reference.check_witness(wrong, [], ["c", "a"])


def test_prefix_with_one_flipped_letter_is_rejected():
    ev = reference.Evidence(workloads.thue_morse())
    prefix = ev.expand_prefix(5000)
    flipped = prefix[:2500] + ("b" if prefix[2500] == "a" else "a") \
        + prefix[2501:]
    assert reference.check_expand(ev, flipped, 0, 5000) == \
        "prefix differs from raw iteration at letter 2500"
    assert reference.check_expand(ev, prefix[:-1], 0, 5000)


@pytest.mark.parametrize("system", [
    workloads.fibonacci(), workloads.case3_acac(),
    workloads.parity_split(3, False), workloads.rotation(20, False)],
    ids=lambda s: s.name)
def test_wrong_verdict_is_rejected(system):
    ev = reference.Evidence(system)
    assert reference.check_decide(ev, _verdict("yes", u="", v="0"), 0)
    assert reference.check_decide(
        ev, _verdict("no", diagnostic="SomethingElse"), 3)


def test_negative_on_a_positive_is_rejected():
    ev = reference.Evidence(workloads.parity_split(4, True))
    assert reference.check_decide(
        ev, _verdict("no", diagnostic="ClassLimitsDiffer"), 3)


def test_wrong_kind_fails_its_raw_property():
    for system, kind in ((workloads.mirror_insertion(), workloads.APERIODIC),
                         (workloads.parity_split(3, True),
                          workloads.CLASS_SPLIT),
                         (workloads.rotation(8, True), workloads.BOUNDED)):
        wrong = replace(system, kind=kind)
        assert reference.Evidence(wrong).property_problem()


def test_certified_negative_must_stay_certified():
    base = _verdict("no", diagnostic="AperiodicSubComponent")
    lost = _verdict("no", certified=False,
                    diagnostic="AperiodicSubComponent")
    assert reference.check_pair(base, lost)
    assert reference.check_pair(base, base) is None
    assert reference.check_pair(lost, lost) is None


def test_uncertified_negative_is_rejected_where_a_certificate_is_due():
    ev = reference.Evidence(workloads.parity_split(3, False))
    bare = _verdict("no", certified=False, diagnostic=ev.system.diagnostic)
    assert reference.check_decide(ev, bare, 3) == "verdict 'no' not certified"
    assert reference.check_decide(ev, bare, 3, certified=False) is None


def test_only_named_scans_may_come_back_uncertified():
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1):
            expected = name != "aperiodic-scan" or \
                op.name in workloads.CERTIFIED_SCANS
            assert op.certified is expected, op.name
    scans = {op.name for op in workloads.build("aperiodic-scan", 1)}
    assert workloads.CERTIFIED_SCANS <= scans


def test_seed_renames_only_the_letters_of_a():
    for name in workloads.WORKLOADS:
        one, two = workloads.build(name, 1), workloads.build(name, 2)
        assert sorted(op.name for op in one) == sorted(op.name for op in two)
        assert [op.name for op in one] == \
            [op.name for op in workloads.build(name, 1)]
        two_by_name = {op.name: op.system for op in two}
        for op in one:
            a, b = op.system, two_by_name[op.name]
            assert a.alphabet_b == b.alphabet_b
            assert sorted(a.phi.values()) == sorted(b.phi.values())
            if a.name in workloads.FIXED_SYSTEMS:
                assert a == b


def test_known_failing_operation_does_not_depend_on_the_seed():
    docs = set()
    for seed in range(1, 6):
        for op in workloads.build("expand-prefix", seed):
            if op.length == workloads.KNOWN_FAILING_LENGTH:
                docs.add(workloads.document(op.system))
    assert len(docs) == 1


def test_benchmark_json_lists_the_workloads_and_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_s", "peak_rss_mb",
        "certified_verdicts"}


def test_every_per_layer_metric_has_a_source():
    kinds = ("self_s", "total_s", "calls")
    for name, _ in tracing.PER_LAYER:
        span, _, kind = name.rpartition(".")
        assert name in tracing.COUNTERS or \
            (span in tracing.TARGETS and kind in kinds), name


@pytest.mark.parametrize("name", ["reference.py", "workloads.py"])
def test_reference_code_never_imports_hd0l(name):
    tree = ast.parse((HERE / name).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("hd0l") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("hd0l")


@pytest.fixture
def fake_program(monkeypatch):
    """A module 'hd0l.fake' whose outer() calls inner(), bound in a second
    namespace as well, in place of the real targets."""
    clock = iter(range(1000))
    monkeypatch.setattr(tracing, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(clock))))
    fake = types.ModuleType("hd0l.fake")
    other = types.ModuleType("hd0l.other")

    def inner(n):
        return "x" * n

    def outer(n):
        return len(fake.inner(n))

    fake.inner, fake.outer, other.inner = inner, outer, inner
    monkeypatch.setitem(sys.modules, "hd0l.fake", fake)
    monkeypatch.setitem(sys.modules, "hd0l.other", other)
    monkeypatch.setattr(tracing, "TARGETS", {
        "words.term": ("hd0l.fake", "inner"),
        "hdol.stabilized_power_exponent": ("hd0l.fake", "outer"),
        "words.compose": ("hd0l.fake", "gone"),
    })
    return fake, other


def test_tracer_self_time_counts_and_missing(fake_program):
    fake, other = fake_program
    tracer = tracing.Tracer()
    tracer.install()
    assert other.inner is fake.inner
    tracer.op = "0:0"
    assert fake.outer(5) == 5
    totals = tracer.take_totals()
    # the fake clock ticks once per reading: outer spans 3 ticks, inner 1
    assert totals["words.term.total_s"] == 1
    assert totals["hdol.stabilized_power_exponent.total_s"] == 3
    assert totals["hdol.stabilized_power_exponent.self_s"] == 2
    assert totals["words.term.letters"] == 5
    assert totals["hdol.couples"] == 5
    assert [s[1] for s in tracer.spans] == [None, 0]
    report = tracer.report([totals], lambda xs: xs[0])
    assert report["words.compose.self_s"] == {
        "value": None, "unit": "s", "missing": True}
    assert report["words.term.self_s"]["value"] == 1
    assert report["words.power.calls"]["value"] == 0


def test_twisted_thue_morse_codes_the_thue_morse_word():
    twisted = reference.RawSystem(
        workloads.twisted_thue_morse()).limit_prefix(1024)
    plain = reference.RawSystem(workloads.thue_morse()).limit_prefix(1024)
    assert twisted == plain.translate({ord("a"): "0", ord("b"): "1"})
