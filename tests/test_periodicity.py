"""Tests for the periodicity decision layers: component extraction, the
primitive oracle, the growing case, and the non-growing reductions."""

import pytest

from conftest import m, random_endomorphism, seeded
from hd0l.errors import (
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
)
from hd0l.errors import BoundedImageError
from hd0l.factors import FactorEngine
from hd0l.matrices import classify_letters, is_primitive
from hd0l.normalization import CODING, P4, substitutive_representation
from hd0l.periodicity import (
    CASE_BOUNDED_BLOCKS,
    CASE_FLANK,
    APERIODIC_SUB_COMPONENT,
    FINALCHECK_FAILED,
    PERIOD_LANGUAGE_MISMATCH,
    Case3Witness,
    Limits,
    _flank_scan,
    case3_period_candidate,
    convert_case2_to_growing,
    decide_growing,
    decide_substitutive,
    make_sub_substitutions,
    pansiot_classify,
    primitive_periodicity,
)
from hd0l.words import (
    Morphism,
    expand_fixed_point,
    identity,
    minimal_period,
    power,
)
from helpers import factors_of_length, flank_scan_every_occurrence

FIB = m({"a": "ab", "b": "a"})
TM = m({"a": "ab", "b": "ba"})


def rep_of(images, phi=None, seed="a"):
    sigma = m(images)
    if phi is None:
        phi = identity(sorted(sigma.domain))
    else:
        phi = m(phi)
    return substitutive_representation(sigma, phi, seed)


def ident(sigma):
    return identity(sorted(sigma.domain))


# ---------------------------------------------------------------- components


def test_sub_substitutions_single_closed_component():
    k, subs = make_sub_substitutions(m({"a": "ab", "b": "bb"}))
    assert k == 1
    assert len(subs) == 1
    assert subs[0].letters == ("b",)
    assert subs[0].seed == "b"
    assert subs[0].exponent == 1


def test_sub_substitutions_exchange_needs_square():
    # first letters swap, so prolongability needs the square
    k, subs = make_sub_substitutions(m({"a": "ba", "b": "ab"}))
    assert k == 2
    assert [s.letters for s in subs] == [("a", "b")]
    assert subs[0].seed == "a"
    sq = m({"a": "ba", "b": "ab"})
    assert sq(sq(("a",))) == ("a", "b", "b", "a")


def test_sub_substitutions_two_components():
    k, subs = make_sub_substitutions(m({"s": "sab", "a": "aa", "b": "bb"}))
    assert k == 1
    assert sorted(s.seed for s in subs) == ["a", "b"]
    for s in subs:
        assert s.sigma.domain == frozenset(s.letters)


def test_sub_substitutions_skip_fixed_letter():
    # the closed {b} component is a single fixed letter, nothing to analyze
    k, subs = make_sub_substitutions(m({"a": "ab", "b": "b"}))
    assert k == 1
    assert subs == []


def test_sub_substitutions_whole_alphabet_primitive():
    k, subs = make_sub_substitutions(FIB)
    assert (k, len(subs)) == (1, 1)
    assert subs[0].letters == ("a", "b")


# ---------------------------------------------------------- primitive oracle


def test_primitive_oracle_periodic_two_letter():
    sigma = m({"a": "ab", "b": "ab"})
    v = primitive_periodicity(sigma, "a", ident(sigma))
    assert v.periodic and v.certified
    assert v.period == ("a", "b")


def test_primitive_oracle_fib_aperiodic_certified():
    v = primitive_periodicity(FIB, "a", ident(FIB))
    assert not v.periodic
    assert v.period is None
    assert v.certified
    assert v.bound == v.formula_bound == 162


def test_primitive_oracle_tm_aperiodic():
    v = primitive_periodicity(TM, "a", ident(TM))
    assert not v.periodic and v.certified


def test_primitive_oracle_collapsing_coding():
    # aperiodic core, constant image
    kappa = m({"a": "0", "b": "0"})
    v = primitive_periodicity(TM, "a", kappa)
    assert v.periodic
    assert v.period == ("0",)


def test_primitive_oracle_exponent_for_prolongability():
    swap = m({"a": "ba", "b": "ab"})
    v = primitive_periodicity(swap, "a", ident(swap), exponent=2)
    assert not v.periodic  # square of the exchange is Thue-Morse
    kappa = m({"a": "0", "b": "0"})
    v = primitive_periodicity(swap, "a", kappa, exponent=2)
    assert v.periodic and v.period == ("0",)


def test_primitive_oracle_rejects_non_primitive():
    with pytest.raises(PreconditionError):
        primitive_periodicity(m({"a": "ab", "b": "bb"}), "a",
                              ident(m({"a": "ab", "b": "bb"})))


def test_primitive_oracle_bound_override_uncertified():
    v = primitive_periodicity(FIB, "a", ident(FIB),
                              limits=Limits(primitive_bound=5))
    assert not v.periodic
    assert not v.certified
    assert v.bound == 5


def test_primitive_oracle_rejects_empty_bound():
    with pytest.raises(PreconditionError):
        primitive_periodicity(FIB, "a", ident(FIB),
                              limits=Limits(primitive_bound=0))


def _count_closures(monkeypatch):
    lengths = []
    real = FactorEngine.factors

    def counted(self, seed_word, n, *args):
        lengths.append(n)
        return real(self, seed_word, n, *args)

    monkeypatch.setattr(FactorEngine, "factors", counted)
    return lengths


def test_primitive_oracle_sample_refutes_without_closure(monkeypatch):
    # the first 4 letters aaaa have period 1, a long sample does not
    lengths = _count_closures(monkeypatch)
    tau = m({"a": "aaaaab", "b": "ab"})
    v = primitive_periodicity(tau, "a", ident(tau),
                              limits=Limits(primitive_bound=2))
    assert not v.periodic and not v.certified
    assert lengths == []


def test_primitive_oracle_closure_refutes(monkeypatch):
    # the first 20,000 letters are all a: only the closure sees the b
    lengths = _count_closures(monkeypatch)
    tau = m({"a": "a" * 20_000 + "b", "b": "ab"})
    v = primitive_periodicity(tau, "a", ident(tau),
                              limits=Limits(primitive_bound=3))
    assert not v.periodic and not v.certified
    assert lengths == [1]


def test_primitive_oracle_matches_exact_factor_count():
    # periodic with least period <= N iff the coded factor count at N is
    # at most N, which is then the least period
    rng = seeded(0x0AC1)
    seen = set()
    cases = 0
    while cases < 160:
        letters = "abc"[:rng.randint(2, 3)]
        tau = random_endomorphism(rng, letters, max_len=3, allow_empty=False)
        if rng.random() < 0.3:
            # one image u for every letter: the fixed point is u u u ...
            u = "".join(rng.choice(letters) for _ in range(rng.randint(2, 5)))
            tau = m({a: u for a in letters})
        if not is_primitive(tau):
            continue
        k, (sub,) = make_sub_substitutions(tau)
        kappa = Morphism({a: rng.choice("012") for a in letters})
        n = rng.choice([1, 2, 3, 4, 5, 7, 8, 13, 20, 40])
        eng = FactorEngine(tau)
        count = len({kappa(f) for f in factors_of_length(tau, sub.seed, n)})
        assert eng.coded_window_floor(kappa, (sub.seed,), n, 300) <= count
        v = primitive_periodicity(tau, sub.seed, kappa,
                                  Limits(primitive_bound=n), exponent=k)
        assert v.periodic == (count <= n), (tau, kappa, n)
        assert v.certified == (v.periodic or n >= v.formula_bound)
        if v.periodic:
            assert len(v.period) == count
            prefix = kappa(expand_fixed_point(power(tau, k), sub.seed, 400))
            assert prefix == (v.period * (400 // count + 1))[:400]
        seen.add(v.periodic)
        cases += 1
    assert seen == {True, False}


# ------------------------------------------------------------- growing case


def test_decide_growing_requires_certification():
    rep = rep_of({"a": "ab", "b": "bb"})
    bare = type(rep)(rep.tau, rep.kappa, rep.seed, frozenset())
    with pytest.raises(PreconditionError):
        decide_growing(bare)


def test_decide_growing_rejects_bounded_letters():
    rep = rep_of({"b": "bc", "c": "c"}, seed="b")
    if not classify_letters(rep.tau).bounded:
        pytest.skip("pipeline already removed the bounded letter")
    with pytest.raises(PreconditionError):
        decide_growing(rep)


def test_decide_yes_with_preperiod():
    out = decide_substitutive(rep_of({"a": "ab", "b": "bb"}))
    assert out.periodic and out.certified
    assert out.up.preperiod == ("a",)
    assert out.up.period == ("b",)


def test_decide_yes_purely_periodic():
    out = decide_substitutive(rep_of({"a": "ab", "b": "ab"}))
    assert out.periodic
    assert out.up.preperiod == ()
    assert out.up.period == ("a", "b")


def test_decide_fib_no():
    out = decide_substitutive(rep_of({"a": "ab", "b": "a"}))
    assert not out.periodic
    assert out.up is None
    assert out.certified
    assert out.diagnostic == APERIODIC_SUB_COMPONENT


def test_decide_tm_no():
    out = decide_substitutive(rep_of({"a": "ab", "b": "ba"}))
    assert not out.periodic and out.certified
    assert out.diagnostic == APERIODIC_SUB_COMPONENT


def test_decide_two_components_agreeing():
    out = decide_substitutive(rep_of(
        {"s": "sab", "a": "aa", "b": "bb"},
        phi={"s": "0", "a": "0", "b": "0"}, seed="s"))
    assert out.periodic
    assert out.up.preperiod == ()
    assert out.up.period == ("0",)


def test_decide_two_components_mismatched():
    out = decide_substitutive(rep_of(
        {"s": "sab", "a": "aa", "b": "bb"},
        phi={"s": "0", "a": "0", "b": "1"}, seed="s"))
    assert not out.periodic
    assert out.diagnostic == PERIOD_LANGUAGE_MISMATCH


def test_decide_trace_is_populated():
    out = decide_substitutive(rep_of({"a": "ab", "b": "bb"}))
    assert out.trace and all(isinstance(s, str) for s in out.trace)


# --------------------------------------------------------------- dichotomy


def test_pansiot_requires_bounded_letters():
    with pytest.raises(PreconditionError):
        pansiot_classify(FIB, "a")


def test_pansiot_requires_prolongable_seed():
    with pytest.raises(PreconditionError):
        pansiot_classify(m({"a": "ba", "b": "b"}), "a")


def test_pansiot_right_flank():
    case = pansiot_classify(m({"b": "bc", "c": "c"}), "b")
    assert case.case == CASE_FLANK
    assert case.witness == Case3Witness(1, "b", "right", ("c",))


def test_pansiot_left_flank():
    case = pansiot_classify(m({"a": "ab", "b": "cb", "c": "c"}), "a")
    assert case.case == CASE_FLANK
    assert case.witness.side == "left"
    assert case.witness.flank == ("c",)


def test_pansiot_growing_flank_run():
    # runs of c lengthen by one per level: still case 3, witnessed inside sigma(a)
    case = pansiot_classify(m({"a": "acac", "c": "c"}), "a")
    assert case.case == CASE_FLANK
    assert case.witness.letter == "a"


def test_pansiot_bounded_runs():
    case = pansiot_classify(m({"a": "aca", "c": "c"}), "a")
    assert case.case == CASE_BOUNDED_BLOCKS
    assert case.rep is not None and case.chi is not None
    assert {P4, CODING} <= case.rep.certified


def test_flank_scan_matches_every_occurrence_scan():
    rng = seeded(83)
    growing = frozenset("ab")
    cases = [(), ("a",), ("c",), ("a", "c"), ("c", "a"), ("c", "a", "c"),
             ("a", "c", "a"), ("b", "c", "a"), ("a", "c", "b", "c"),
             ("c", "c"), ("b",)]
    for _ in range(600):
        n = rng.randint(0, 9)
        cases.append(tuple(rng.choice("aabcd") for _ in range(n)))
    for word in cases:
        for b in sorted(growing):
            want = flank_scan_every_occurrence(word, b, growing, 3)
            assert _flank_scan(word, b, growing, 3) == want, (word, b)
    # the kinds of word the comparison has to cover
    assert any(w and w[0] == "a" for w in cases)
    assert any(w and w[-1] == "a" for w in cases)
    assert any("a" not in w for w in cases)
    assert any(sum(c in growing for c in w) == 1 for w in cases)


def test_case3_candidate_two_cycle_orders():
    sig = Morphism({"c": "d", "d": "c"})
    right = Case3Witness(1, "b", "right", ("c", "d"))
    left = Case3Witness(1, "b", "left", ("c", "d"))
    assert case3_period_candidate(sig, right) == ("c", "d", "d", "c")
    assert case3_period_candidate(sig, left) == ("d", "c", "c", "d")


def test_case3_candidate_drops_transient_prefix():
    sig = Morphism({"c": "d", "d": "d"})
    wit = Case3Witness(1, "b", "right", ("c",))
    assert case3_period_candidate(sig, wit) == ("d",)


def test_case3_candidate_respects_exponent():
    sig = Morphism({"c": "d", "d": "c"})
    wit = Case3Witness(2, "b", "right", ("c",))
    assert case3_period_candidate(sig, wit) == ("c",)


# -------------------------------------------------------- case-2 conversion


def test_convert_case2_basic():
    sigma = m({"a": "aca", "c": "c"})
    rep, chi = convert_case2_to_growing(sigma, "a")
    assert not classify_letters(rep.tau).bounded
    assert chi(expand_fixed_point(rep.tau, rep.seed, 400)) == \
        expand_fixed_point(sigma, "a", 400)


def test_convert_case2_interleaved_skeleton():
    sigma = m({"a": "asb", "b": "bsa", "s": "s"})
    rep, chi = convert_case2_to_growing(sigma, "a")
    assert chi(expand_fixed_point(rep.tau, rep.seed, 600)) == \
        expand_fixed_point(sigma, "a", 600)
    assert rep.tau.image(rep.seed)[0] == rep.seed


def test_convert_rejects_non_growing_seed():
    with pytest.raises(PreconditionError):
        convert_case2_to_growing(m({"a": "ac", "c": "c"}), "c")


def test_convert_blows_up_outside_case2():
    # unbounded runs: the closure cannot finish, the cap turns it into a failure
    with pytest.raises((InternalCheckError, ResourceLimitError)):
        convert_case2_to_growing(
            m({"a": "acac", "c": "c"}), "a", Limits(max_triples=50))


# ----------------------------------------------------- non-growing, end to end


def test_decide_right_flank_yes():
    out = decide_substitutive(rep_of({"b": "bc", "c": "c"}, seed="b"))
    assert out.periodic
    assert out.up.preperiod == ("b",)
    assert out.up.period == ("c",)


def test_decide_case2_yes():
    out = decide_substitutive(rep_of({"a": "aca", "c": "c"}))
    assert out.periodic
    assert out.up.preperiod == ()
    assert out.up.period == ("a", "c")


def test_decide_case2_spacer_yes():
    out = decide_substitutive(rep_of({"a": "aba", "b": "b"}))
    assert out.periodic and out.up.period == ("a", "b")
    out = decide_substitutive(rep_of({"a": "abba", "b": "b"}))
    assert out.periodic and out.up.period == ("a", "b", "b")


def test_decide_case2_aperiodic_skeleton():
    out = decide_substitutive(rep_of({"a": "asb", "b": "bsa", "s": "s"}))
    assert not out.periodic
    assert out.diagnostic == APERIODIC_SUB_COMPONENT
    assert not out.certified  # refined alphabet pushes the bound past the cap


def test_decide_case2_collapsed_skeleton():
    out = decide_substitutive(rep_of(
        {"a": "asb", "b": "bsa", "s": "s"},
        phi={"a": "t", "b": "t", "s": "s"}))
    assert out.periodic
    assert out.up.preperiod == ()
    assert out.up.period == ("t", "s")


def test_decide_case3_growing_runs_no():
    out = decide_substitutive(rep_of({"a": "acac", "c": "c"}))
    assert not out.periodic
    assert out.diagnostic == FINALCHECK_FAILED


def test_decide_case3_left_no_and_collapsed_yes():
    images = {"a": "ab", "b": "cb", "c": "c"}
    out = decide_substitutive(rep_of(images))
    assert not out.periodic
    assert out.diagnostic == FINALCHECK_FAILED
    out = decide_substitutive(rep_of(
        images, phi={"a": "c", "b": "c", "c": "c"}))
    assert out.periodic
    assert out.up.preperiod == ()
    assert out.up.period == ("c",)


def test_decide_case3_flank_cycle_no():
    out = decide_substitutive(rep_of({"a": "ab", "b": "cdb", "c": "d", "d": "c"}))
    assert not out.periodic
    assert out.diagnostic == FINALCHECK_FAILED
    assert any("dccd" in line for line in out.trace)


def test_decide_yes_matches_expansion():
    for images, seed in [
        ({"a": "ab", "b": "bb"}, "a"),
        ({"a": "aca", "c": "c"}, "a"),
        ({"b": "bc", "c": "c"}, "b"),
    ]:
        rep = rep_of(images, seed=seed)
        out = decide_substitutive(rep)
        assert out.periodic
        assert rep.expand_image(500) == out.up.prefix(500)


def test_minimal_period_examples():
    assert minimal_period(()) == 0
    assert minimal_period(tuple("aaaa")) == 1
    assert minimal_period(tuple("abab")) == 2
    assert minimal_period(tuple("ababa")) == 2
    assert minimal_period(tuple("abaab")) == 3
    assert minimal_period(tuple("abcde")) == 5


# ------------------------------------------------------------ random probes


def _matches_up(prefix, pre, per):
    if len(prefix) < pre + 2 * per:
        return False
    return all(prefix[i] == prefix[i + per] for i in range(pre, len(prefix) - per))


def test_random_systems_decisions_are_consistent():
    # the capped oracle bound keeps this fast; the consistency check below
    # only needs periods up to 20, which the oracle at N = 64 cannot miss
    fast = Limits(primitive_hard_cap=64)
    rng = seeded(0xD011)
    decided = 0
    for _ in range(150):
        letters = "abc"[: rng.randint(2, 3)]
        images = {}
        for a in letters:
            images[a] = "".join(
                rng.choice(letters) for _ in range(rng.randint(0, 3)))
        images["a"] = "a" + images["a"]
        sigma = m(images)
        try:
            rep = substitutive_representation(sigma, ident(sigma), "a")
            out = decide_substitutive(rep, fast)
        except (BoundedImageError, PreconditionError, ResourceLimitError):
            continue
        decided += 1
        prefix = rep.expand_image(800)
        if out.periodic:
            assert prefix == out.up.prefix(800)
        else:
            # a missed small ultimately periodic structure would show up here
            for per in range(1, 21):
                for pre in range(0, 61, 4):
                    assert not _matches_up(prefix, pre, per)
    assert decided >= 40
