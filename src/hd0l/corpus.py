"""Bundled regression corpus: named systems with frozen expected verdicts.

Each entry records what the decision procedure must answer; check_entry
re-runs the procedure and compares, and run_corpus evaluates all entries in
corpus order.
"""

from dataclasses import dataclass
from typing import Optional

from .hdol import decide_hd0l
from .periodicity import (
    APERIODIC_SUB_COMPONENT,
    BOUNDED_IMAGE,
    CLASS_LIMITS_DIFFER,
    DecisionOutcome,
    Limits,
)
from .words import HD0LSystem, Morphism, UltimatelyPeriodicWord, up_equal


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    note: str
    system: HD0LSystem
    periodic: bool
    up: Optional[UltimatelyPeriodicWord] = None
    diagnostic: Optional[str] = None


def _words(mapping):
    return {k: tuple(v) for k, v in mapping.items()}


def _system(sigma, phi, w, b=None):
    sig = Morphism(_words(sigma))
    if phi is None:
        phi = {k: k for k in sigma}
    phm = Morphism(_words(phi), codomain=set(b) if b else None)
    return HD0LSystem(tuple(sorted(sigma)),
                      tuple(sorted(b if b else phm.codomain | phm.domain)),
                      sig, phm, tuple(w))


def _up(u, v):
    return UltimatelyPeriodicWord(tuple(u), tuple(v))


CORPUS = (
    CorpusEntry(
        "fibonacci",
        "classic aperiodic fixed point",
        _system({"a": "ab", "b": "a"}, None, "a"),
        periodic=False, diagnostic=APERIODIC_SUB_COMPONENT),
    CorpusEntry(
        "thue-morse",
        "classic aperiodic fixed point, constant image lengths",
        _system({"a": "ab", "b": "ba"}, None, "a"),
        periodic=False, diagnostic=APERIODIC_SUB_COMPONENT),
    CorpusEntry(
        "twisted-thue-morse",
        "first letters of sigma^n(a) never settle, yet the coded images "
        "converge to an aperiodic limit",
        _system({"a": "cb", "b": "ba", "c": "ab"},
                {"a": "0", "b": "1", "c": "0"}, "a", b="01"),
        periodic=False, diagnostic=APERIODIC_SUB_COMPONENT),
    CorpusEntry(
        "unreachable-letter",
        "a letter never occurs in the limit and is restricted away",
        _system({"a": "ab", "b": "a", "c": "c"}, None, "a"),
        periodic=False, diagnostic=APERIODIC_SUB_COMPONENT),
    CorpusEntry(
        "preperiod-doubling",
        "one transient letter, doubling periodic tail",
        _system({"a": "ab", "b": "bb"}, None, "a"),
        periodic=True, up=_up("a", "b")),
    CorpusEntry(
        "tail-appender",
        "non-growing appender, purely bounded tail letter",
        _system({"b": "bc", "c": "c"}, None, "b"),
        periodic=True, up=_up("b", "c")),
    CorpusEntry(
        "mirror-insertion",
        "periodic limit only up to a phase rotation of the period",
        _system({"a": "aca", "c": "c"}, None, "a"),
        periodic=True, up=_up("", "ac")),
    CorpusEntry(
        "erasing-vanishing",
        "erasing morphisms with letters whose image lengths vanish",
        _system({"g": "gc", "c": "cs", "s": "t", "t": "t"},
                {"g": "", "c": "x", "s": "y", "t": ""}, "g", b="xy"),
        periodic=True, up=_up("x", "xy")),
    CorpusEntry(
        "parity-split-matching",
        "two growing principal components after squaring; both index "
        "classes reach the same periodic limit",
        _system({"x": "yy", "y": "xx"}, {"x": "01", "y": "01"}, "x", b="01"),
        periodic=True, up=_up("", "01")),
    CorpusEntry(
        "parity-split-mismatching",
        "same skeleton, but the two index classes settle on different "
        "rotations of the period",
        _system({"x": "yy", "y": "xx"}, {"x": "01", "y": "10"}, "x", b="01"),
        periodic=False, diagnostic=CLASS_LIMITS_DIFFER),
    CorpusEntry(
        "bounded-seed",
        "the image sequence stays finite, so no infinite limit exists",
        _system({"a": "ab", "b": "b"}, None, "b"),
        periodic=False, diagnostic=BOUNDED_IMAGE),
)


@dataclass(frozen=True)
class CorpusResult:
    entry: CorpusEntry
    outcome: DecisionOutcome
    ok: bool
    detail: str


def check_entry(entry, limits=None):
    """Decide the entry's system and compare against the frozen verdict."""
    outcome = decide_hd0l(entry.system, limits=limits)
    if outcome.periodic != entry.periodic:
        return CorpusResult(entry, outcome, False,
                            f"expected periodic={entry.periodic}")
    if entry.periodic:
        if not up_equal(outcome.up, entry.up):
            return CorpusResult(entry, outcome, False,
                                f"expected {entry.up}, got {outcome.up}")
        return CorpusResult(entry, outcome, True, str(outcome.up))
    if outcome.diagnostic != entry.diagnostic:
        return CorpusResult(entry, outcome, False,
                            f"expected {entry.diagnostic}, "
                            f"got {outcome.diagnostic}")
    return CorpusResult(entry, outcome, True, outcome.diagnostic)


def run_corpus(limits=None):
    """Check every corpus entry; results come back in corpus order."""
    limits = limits or Limits()
    return tuple(check_entry(e, limits) for e in CORPUS)
