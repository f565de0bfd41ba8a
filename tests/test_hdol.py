"""Top-level decision procedure: length trichotomy, first letters, bounded
tables, class limits, and the full periodicity verdict."""

import time
from collections import Counter
from itertools import islice

import pytest

from conftest import m, random_endomorphism, seeded
from hd0l import hdol, matrices, periodicity
from hd0l.errors import PreconditionError, ResourceLimitError
from hd0l.hdol import (
    BOUNDED,
    TO_INFINITY,
    TO_ZERO,
    bounded_prefix_cycle,
    class_limits,
    decide_hd0l,
    first_letter_orbit,
    phi_length_class,
    stabilized_power_exponent,
)
from hd0l.normalization import SubstitutiveRepresentation, substitutive_representation
from helpers import brute_force_up_check
from hd0l.periodicity import (
    APERIODIC_SUB_COMPONENT,
    BOUNDED_IMAGE,
    CLASS_LIMITS_DIFFER,
    Limits,
    decide_substitutive,
)
from hd0l.hdol import PeriodicTail
from hd0l.words import (
    HD0LSystem,
    Morphism,
    UltimatelyPeriodicWord,
    identity,
    power,
    up_equal,
)

TMV = m({"a": "cb", "b": "ba", "c": "ab"})
FIB = m({"a": "ab", "b": "a"})
TM2 = m({"a": "ab", "b": "ba"})


def ident(sigma):
    return identity(sorted(sigma.domain))


def hd0l(sigma, phi, w):
    a = tuple(sorted(sigma.domain))
    b = tuple(sorted(phi.codomain | phi.domain))
    return HD0LSystem(a, b, sigma, phi, tuple(w))


def id_system(sigma, w):
    return hd0l(sigma, ident(sigma), w)


def simulated_lengths(sigma, phi, c, horizon):
    """|phi(sigma^n(c))| for n = 1..horizon via occurrence counts."""
    counts = {c: 1}
    out = []
    for _ in range(horizon):
        nxt = {}
        for d, k in counts.items():
            for e in sigma.image(d):
                nxt[e] = nxt.get(e, 0) + k
        counts = nxt
        out.append(sum(k * len(phi.image(d)) for d, k in counts.items()))
    return out


# ------------------------------------------------------- length trichotomy


def test_length_class_all_erasing_coding():
    sigma = m({"a": "ab", "b": "b"})
    phi = Morphism({"a": "", "b": ""}, codomain={"0"})
    assert phi_length_class(sigma, phi, "a") == TO_ZERO
    assert phi_length_class(sigma, phi, "b") == TO_ZERO


def test_length_class_flank_erased_stays_bounded():
    sigma = m({"a": "ab", "b": "b"})
    phi = Morphism({"a": "0", "b": ""}, codomain={"0"})
    assert phi_length_class(sigma, phi, "a") == BOUNDED
    assert phi_length_class(sigma, phi, "b") == TO_ZERO


def test_length_class_thue_morse_variant_needs_power():
    # image letter sets only stabilize at the third power; the class is
    # still well defined because every residue agrees
    for c in "abc":
        assert phi_length_class(TMV, ident(TMV), c) == TO_INFINITY


def test_length_class_growing_flank():
    sigma = m({"a": "ca", "c": "c"})
    assert phi_length_class(sigma, ident(sigma), "a") == TO_INFINITY
    assert phi_length_class(sigma, ident(sigma), "c") == BOUNDED


def test_length_class_unknown_letter_rejected():
    sigma = m({"a": "aa"})
    with pytest.raises(PreconditionError):
        phi_length_class(sigma, ident(sigma), "z")


def test_length_class_mixed_residues_rejected():
    # phi(sigma^n(c)) is empty for odd n and huge for even n
    sigma = m({"c": "dd", "d": "cc"})
    phi = Morphism({"c": "x", "d": ""}, codomain={"x"})
    with pytest.raises(PreconditionError):
        phi_length_class(sigma, phi, "c")


def test_length_trichotomy_matches_simulated_lengths():
    rng = seeded(40)
    checked = 0
    for _ in range(150):
        base = random_endomorphism(rng, "abcd", max_len=3)
        phi = Morphism({
            a: "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
            for a in "abcd"}, codomain={"0", "1"})
        try:
            e = stabilized_power_exponent(base)
            sigma = power(base, e)
        except ResourceLimitError:
            continue
        for c in "abcd":
            cls = phi_length_class(sigma, phi, c)
            lens = simulated_lengths(sigma, phi, c, 120)
            if cls == TO_ZERO:
                assert all(v == 0 for v in lens)
            elif cls == BOUNDED:
                assert all(v >= 1 for v in lens)
                assert max(lens) == max(lens[:60])
            else:
                assert all(v >= 1 for v in lens)
                assert lens[109] > lens[49]
            checked += 1
    assert checked >= 300


def test_non_growing_letters_closed_under_images():
    rng = seeded(41)
    for _ in range(80):
        base = random_endomorphism(rng, "abc", max_len=3)
        phi = Morphism({
            a: "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
            for a in "abc"}, codomain={"0", "1"})
        try:
            e = stabilized_power_exponent(base)
            sigma = power(base, e)
        except ResourceLimitError:
            continue
        classes = {c: phi_length_class(sigma, phi, c) for c in "abc"}
        small = {c for c, v in classes.items() if v != TO_INFINITY}
        for c in small:
            assert set(sigma.image(c)) <= small


# ------------------------------------------------------ first letter orbit


def test_first_letter_orbit_two_cycle():
    orb = first_letter_orbit(TMV, "a")
    assert (orb.j0, orb.n0) == (0, 2)
    assert orb.letters == ("a", "c")


def test_first_letter_orbit_prolongable_fixed():
    orb = first_letter_orbit(m({"a": "ab", "b": "a"}), "a")
    assert (orb.j0, orb.n0) == (0, 1)
    assert orb.letters == ("a",)


def test_first_letter_orbit_transient_step():
    orb = first_letter_orbit(m({"a": "ca", "c": "c"}), "a")
    assert (orb.j0, orb.n0) == (1, 1)
    assert orb.letters == ("c",)


def test_first_letter_orbit_rejects_erasing():
    with pytest.raises(PreconditionError):
        first_letter_orbit(m({"a": "b", "b": ""}), "a")


def test_first_letter_orbit_random_agrees_with_iteration():
    rng = seeded(42)
    for _ in range(120):
        sigma = random_endomorphism(rng, "abcd", max_len=3, allow_empty=False)
        orb = first_letter_orbit(sigma, "a")
        assert orb.j0 + orb.n0 <= 5
        cur = "a"
        seq = []
        for _ in range(orb.j0 + 2 * orb.n0):
            seq.append(cur)
            cur = sigma.image(cur)[0]
        for k, letter in enumerate(seq[orb.j0:]):
            assert letter == orb.letters[k % orb.n0]


# ----------------------------------------------------- bounded prefix cycle


def test_bounded_table_constant():
    bpc = bounded_prefix_cycle(m({"c": "c"}), m({"c": "0"}), {"c"})
    assert (bpc.preperiod, bpc.cycle) == (0, 1)
    assert bpc.value(7, "c") == ("0",)


def test_bounded_table_alternates_with_swap():
    bpc = bounded_prefix_cycle(
        m({"c": "d", "d": "c"}), m({"c": "0", "d": "1"}), {"c", "d"})
    assert (bpc.preperiod, bpc.cycle) == (0, 2)
    assert bpc.value(0, "c") == ("0",)
    assert bpc.value(1, "c") == ("1",)
    assert bpc.value(8, "c") == ("0",)
    assert bpc.word_value(1, ("c", "d")) == ("1", "0")


def test_bounded_table_erased_letters_stay_empty():
    phi = Morphism({"c": "", "d": ""}, codomain={"0"})
    bpc = bounded_prefix_cycle(m({"c": "d", "d": "c"}), phi, {"c", "d"})
    assert (bpc.preperiod, bpc.cycle) == (0, 1)
    assert bpc.value(3, "d") == ()


def test_bounded_table_matches_direct_expansion():
    sigma = m({"c": "d", "d": "e", "e": "c"})
    phi = m({"c": "0", "d": "11", "e": "2"})
    bpc = bounded_prefix_cycle(sigma, phi, {"c", "d", "e"})
    assert (bpc.preperiod, bpc.cycle) == (0, 3)
    for n in range(12):
        word = ("c",)
        for _ in range(n):
            word = sigma(word)
        assert bpc.value(n, "c") == phi(word)


def test_bounded_table_requires_closure():
    with pytest.raises(PreconditionError):
        bounded_prefix_cycle(m({"a": "ab", "b": "b"}), m({"a": "0", "b": "1"}),
                             {"a"})


def test_bounded_table_growing_letter_hits_cap():
    with pytest.raises(ResourceLimitError):
        bounded_prefix_cycle(m({"a": "aa"}), m({"a": "0"}), {"a"})


# ------------------------------------------------------------ class limits


def test_class_limits_single_periodic_tail():
    cls = class_limits(id_system(m({"a": "ca", "c": "c"}), "a"))
    assert len(cls) == 1
    assert cls[0].prefix == ()
    assert isinstance(cls[0].tail, PeriodicTail)
    assert cls[0].tail.word == ("c",)
    assert cls[0].limit_prefix(6) == ("c",) * 6


def test_class_limits_two_classes_for_alternating_first_letters():
    sig3 = power(TMV, 3)
    cls = class_limits(hd0l(sig3, ident(TMV), "a"))
    assert len(cls) == 2
    assert all(isinstance(c.tail, SubstitutiveRepresentation) for c in cls)
    assert [c.group for c in cls] == [0, 1]
    # each class limit is the corresponding subsequence limit of sigma^3n(a)
    for rho in (0, 1):
        word = ("a",)
        for _ in range(12 + 3 * rho):
            word = TMV(word)
        assert cls[rho].limit_prefix(60) == word[:60]


def test_class_limits_substitutive_tail_expands():
    cls = class_limits(id_system(m({"a": "ab", "b": "bb"}), "a"))
    assert len(cls) == 1
    assert isinstance(cls[0].tail, SubstitutiveRepresentation)
    assert cls[0].limit_prefix(12) == ("a",) + ("b",) * 11


def test_class_limits_requires_stable_letter_sets():
    with pytest.raises(PreconditionError):
        class_limits(id_system(TMV, "a"))


def test_class_limits_requires_growing_seed_letter():
    with pytest.raises(PreconditionError):
        class_limits(id_system(m({"a": "ab", "b": "b"}), "b"))


def test_class_limits_interleaved_subclass_split():
    # the chain of leading growing letters flips h <-> i with empty flanks
    # while the seed settles on a fixed first letter, so one declared class
    # splits into two interleaved subclasses
    sigma = m({"g": "chiu", "c": "c", "h": "iuh", "i": "hui", "u": "u"})
    trace = []
    cls = class_limits(id_system(sigma, "g"), trace=trace)
    assert [(c.index, c.group) for c in cls] == [(0, 0), (1, 0)]
    assert any("2 interleaved subclasses" in line for line in trace)


def test_class_limits_drops_vanishing_letters():
    # s maps to the erased letter t, so its image lengths vanish from n = 1
    # on even though phi keeps s itself; both letters are deleted after the
    # one-step index shift
    sigma = m({"g": "gcst", "c": "cst", "s": "t", "t": "t"})
    phi = Morphism({"g": "", "c": "x", "s": "y", "t": ""}, codomain={"x", "y"})
    trace = []
    cls = class_limits(hd0l(sigma, phi, "g"), trace=trace)
    assert any("dropped vanishing letters ['s', 't']" in line
               for line in trace)
    assert len(cls) == 1
    assert cls[0].limit_prefix(7) == ("x", "y", "x", "y", "x", "y", "x")


# ----------------------------------------------------------- full decision


def test_decide_periodic_with_transient_first_letter():
    out = decide_hd0l(id_system(m({"a": "ca", "c": "c"}), "a"))
    assert out.periodic and out.certified
    assert up_equal(out.up, UltimatelyPeriodicWord((), ("c",)))


def test_decide_periodic_with_preperiod():
    out = decide_hd0l(id_system(m({"a": "ab", "b": "bb"}), "a"))
    assert out.periodic
    assert up_equal(out.up, UltimatelyPeriodicWord(("a",), ("b",)))


def test_decide_purely_periodic_fixed_point():
    out = decide_hd0l(id_system(m({"a": "ab", "b": "ab"}), "a"))
    assert out.periodic
    assert up_equal(out.up, UltimatelyPeriodicWord((), ("a", "b")))


def test_decide_flagship_aperiodic():
    out = decide_hd0l(id_system(TMV, "a"))
    assert not out.periodic
    assert out.diagnostic == APERIODIC_SUB_COMPONENT


def test_decide_class_limits_differ():
    out = decide_hd0l(id_system(m({"g": "cg", "c": "d", "d": "c"}), "g"))
    assert not out.periodic
    assert out.diagnostic == CLASS_LIMITS_DIFFER
    assert any("class limits differ" in line for line in out.trace)


def test_decide_bounded_seed():
    out = decide_hd0l(id_system(m({"a": "ab", "b": "b"}), "b"))
    assert not out.periodic
    assert out.diagnostic == BOUNDED_IMAGE


def test_decide_bounded_when_coding_erases_everything():
    sigma = m({"a": "ab", "b": "bb"})
    phi = Morphism({"a": "", "b": ""}, codomain={"0"})
    out = decide_hd0l(hd0l(sigma, phi, "a"))
    assert not out.periodic
    assert out.diagnostic == BOUNDED_IMAGE


def test_decide_periodic_through_vanishing_letters():
    sigma = m({"g": "gc", "c": "cs", "s": "t", "t": "t"})
    phi = Morphism({"g": "", "c": "x", "s": "y", "t": ""}, codomain={"x", "y"})
    out = decide_hd0l(hd0l(sigma, phi, "g"))
    assert out.periodic
    assert up_equal(out.up, UltimatelyPeriodicWord(("x",), ("x", "y")))


def test_decide_confirmation_stays_within_its_letter_budget():
    # c is erased but grows tenfold, so the tenth b of sigma^n(a a) lies past
    # 10^8 letters: the direct re-check runs out of letters and is skipped,
    # and the verdict stands
    sigma = m({"a": "abc", "b": "b", "c": "c" * 10})
    phi = Morphism({"a": "x", "b": "y", "c": ""}, codomain={"x", "y"})
    out = decide_hd0l(hd0l(sigma, phi, "a"))
    assert out.periodic and out.certified
    assert up_equal(out.up, UltimatelyPeriodicWord(("x",), ("y",)))
    assert ("direct confirmation skipped (no stabilized window in range)"
            in out.trace)


def test_decide_seed_word_with_leading_bounded_letter():
    out = decide_hd0l(id_system(m({"a": "ca", "c": "c"}), "ca"))
    assert out.periodic
    assert up_equal(out.up, UltimatelyPeriodicWord((), ("c",)))


def test_decide_interleaved_subclasses_aperiodic():
    sigma = m({"g": "chiu", "c": "c", "h": "iuh", "i": "hui", "u": "u"})
    out = decide_hd0l(id_system(sigma, "g"))
    assert not out.periodic
    assert out.diagnostic == APERIODIC_SUB_COMPONENT


def test_decide_class_count_cap_surfaces_as_resource_limit():
    sigma = m({"x": "yx", "y": "zy", "z": "xz"})
    with pytest.raises(ResourceLimitError):
        decide_hd0l(id_system(sigma, "x"), limits=Limits(class_count_cap=2))


def test_decide_consistent_with_substitutive_path():
    # single growing prolongable seed letter: same verdict through the
    # general driver and through the direct representation
    for sigma in (FIB, TM2, m({"a": "ab", "b": "bb"}), m({"a": "ab", "b": "b"})):
        driver = decide_hd0l(id_system(sigma, "a"))
        rep = substitutive_representation(sigma, ident(sigma), "a")
        direct = decide_substitutive(rep)
        assert driver.periodic == direct.periodic
        if driver.periodic:
            assert up_equal(driver.up, direct.up)


def test_decide_positive_verdicts_match_direct_expansion():
    cases = [
        (m({"a": "ca", "c": "c"}), "a"),
        (m({"b": "bc", "c": "c"}), "b"),
        (m({"a": "aca", "c": "c"}), "a"),
        (m({"a": "ab", "b": "bb"}), "a"),
    ]
    for sigma, w in cases:
        system = id_system(sigma, w)
        out = decide_hd0l(system)
        assert out.periodic
        target = len(out.up.preperiod) + 10 * len(out.up.period)
        doubled = hd0l(sigma, ident(sigma), w + w)
        for n in (14, 16, 18):
            word = doubled.term(n)
            k = min(len(word), target)
            assert word[:k] == out.up.prefix(k)
        assert len(doubled.term(18)) >= target


def test_decide_deterministic():
    systems = [
        id_system(m({"a": "ca", "c": "c"}), "a"),
        id_system(TMV, "a"),
        id_system(m({"g": "cg", "c": "d", "d": "c"}), "g"),
    ]
    for system in systems:
        assert decide_hd0l(system) == decide_hd0l(system)


def test_decide_analyses_each_morphism_instance_once(monkeypatch):
    # c0 -> c1 -> ... -> c15 -> c0 c0 with every letter coded to 0: 16
    # couples, each with its own class limits and normalization
    letters = [f"c{i}" for i in range(16)]
    images = {a: (b,) for a, b in zip(letters, letters[1:])}
    images[letters[-1]] = (letters[0], letters[0])
    sigma = Morphism(images)
    phi = Morphism({a: ("0",) for a in letters})
    # keep every morphism alive so no id is reused
    decomposed, walked = [], []
    decompose = matrices.component_decomposition
    orbit = matrices.letterset_orbit

    def counted_decomposition(sigma, *args):
        decomposed.append(sigma)
        return decompose(sigma, *args)

    def counted_orbit(sigma, *args):
        walked.append(sigma)
        return orbit(sigma, *args)

    monkeypatch.setattr(matrices, "component_decomposition",
                        counted_decomposition)
    monkeypatch.setattr(matrices, "letterset_orbit", counted_orbit)
    out = decide_hd0l(hd0l(sigma, phi, [letters[0]]))
    assert out.periodic and out.up == UltimatelyPeriodicWord((), ("0",))
    for calls in (decomposed, walked):
        assert calls
        assert max(Counter(map(id, calls)).values()) == 1


def growing_rotation(n):
    # c0 -> c1 -> ... -> c(n-1) -> c0 c0 with every letter coded to 0: n
    # couples whose class limits all normalize to the same fixed point
    letters = [f"c{i}" for i in range(n)]
    images = {a: (b,) for a, b in zip(letters, letters[1:])}
    images[letters[-1]] = (letters[0], letters[0])
    return hd0l(Morphism(images), Morphism({a: ("0",) for a in letters}),
                [letters[0]])


def test_decide_work_does_not_grow_with_value_equal_couples(monkeypatch):
    counts = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(matrices, "component_decomposition")
    counted(hdol, "substitutive_representation")
    counted(hdol, "decide_substitutive")
    seen = []
    for n in (16, 32):
        counts.clear()
        out = decide_hd0l(growing_rotation(n))
        assert out.periodic and out.up == UltimatelyPeriodicWord((), ("0",))
        assert sum(1 for line in out.trace if line.endswith("limit e(0)^w")) == n
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[1]["substitutive_representation"] == 1
    assert seen[1]["decide_substitutive"] == 1


def prime_cycles(doubled=False):
    # disjoint letter cycles of lengths 2, 3, 5, 7, 11, 13 and 17, every
    # letter coded to 0, one seed letter per cycle: the letter-set orbit
    # has period 510,510; doubled makes one image c17_0 c17_0
    images, seed = {}, []
    for n in (2, 3, 5, 7, 11, 13, 17):
        names = [f"c{n}_{i}" for i in range(n)]
        images.update((a, (b,)) for a, b in zip(names, names[1:] + names[:1]))
        seed.append(names[0])
    if doubled:
        images["c17_16"] = ("c17_0", "c17_0")
    return hd0l(Morphism(images), Morphism(dict.fromkeys(images, ("0",))),
                seed)


def test_decide_needs_no_orbit_walk_past_a_large_period():
    system = prime_cycles()
    assert system.sigma.facts.orbit.period == 510_510
    out = decide_hd0l(system)
    assert (out.periodic, out.diagnostic, out.certified) == (
        False, BOUNDED_IMAGE, True)
    # raw iteration: every image is one letter, so the length stays 7
    assert {len(word) for word in islice(system.prefixes(), 600)} == {7}

    # a growing letter needs the stabilized power, 510,510 here
    with pytest.raises(ResourceLimitError,
                       match="no stable exponent up to 256"):
        decide_hd0l(prime_cycles(doubled=True))


def test_couples_that_differ_on_the_anchor_letters_are_each_decided():
    # x_i -> x_(i+1) x_(i+1) with x0 coded to 10 and the rest to 01: couple
    # 0 codes its anchor x0 differently from the others, so its fixed point
    # is not shared with theirs
    letters = [f"x{i}" for i in range(4)]
    sigma = Morphism({x: (letters[(i + 1) % 4],) * 2
                      for i, x in enumerate(letters)})
    phi = Morphism({x: ("1", "0") if x == "x0" else ("0", "1")
                    for x in letters})
    out = decide_hd0l(hd0l(sigma, phi, ["x0"]))
    assert not out.periodic and out.diagnostic == CLASS_LIMITS_DIFFER
    couple = [
        "classes modulo 1 from offset 0 (first letters 0+1, tables 0+1)",
        "chain of leading unbounded letters cycles with period 1 and empty "
        "bounded flanks: coded fixed point tails",
    ]
    assert list(out.trace) == [
        "splitting indices modulo 4",
        *(line
          for i, limit in enumerate(["e(10)^w", "e(01)^w", "e(01)^w",
                                     "e(01)^w"])
          for line in [*(f"couple {i}: {c}" for c in couple),
                       f"couple {i} class 0.0: limit {limit}"]),
        "class limits differ: couple 0 class 0 gives e(10)^w, couple 1 "
        "class 0 gives e(01)^w",
    ]


def parity_split(k, matching):
    # x_i -> x_(i+1) x_(i+1) (indices mod k), every letter coded to 01, or
    # x0 to 10 when not matching: sigma^n(x0) = x_(n mod k)^(2^n), so the
    # split modulo k gives couples x_i -> x_i^(2^k) coded to words of
    # 2^(i+1) letters
    letters = [f"x{i}" for i in range(k)]
    sigma = Morphism({x: (letters[(i + 1) % k],) * 2
                      for i, x in enumerate(letters)})
    phi = Morphism({x: ("1", "0") if x == "x0" and not matching
                    else ("0", "1") for x in letters})
    return hd0l(sigma, phi, ["x0"])


def test_parity_split_7_to_16_decide_with_both_codings():
    # every couple codes with phi on the seed x_i, so no image grows with k
    start = time.perf_counter()
    for k in range(7, 17):
        for matching in (True, False):
            system = parity_split(k, matching)
            out = decide_hd0l(system)
            # raw iteration: phi(sigma^n(x0)) is phi(x_(n mod k))^(2^n)
            firsts = {n % k: word for n, word in
                      islice(enumerate(system.prefixes(64)), 6, 6 + 2 * k)}
            assert all(len(word) == 64 for word in firsts.values())
            if matching:
                assert set(firsts.values()) == {("0", "1") * 32}
                assert out.periodic and out.certified
                assert out.up == UltimatelyPeriodicWord((), ("0", "1"))
            else:
                assert firsts[0] == ("1", "0") * 32
                assert {firsts[i] for i in range(1, k)} == {("0", "1") * 32}
                assert (out.periodic, out.diagnostic, out.certified) == (
                    False, CLASS_LIMITS_DIFFER, True)
    elapsed = time.perf_counter() - start
    assert elapsed < 6.0, f"parity split k = 7 to 16 took {elapsed:.2f}s"


def test_growing_rotations_up_to_1024_decide():
    start = time.perf_counter()
    for n in (256, 512, 1024):
        system = growing_rotation(n)
        out = decide_hd0l(system, Limits(couple_power_cap=4096))
        assert out.periodic and out.certified
        assert out.up == UltimatelyPeriodicWord((), ("0",))
        # raw iteration: sigma^(jn)(c0) is c0^(2^j), every letter coded to 0
        words = list(islice(system.prefixes(), 3 * n + 1))
        assert {x for word in words for x in word} == {"0"}
        assert [len(words[j * n]) for j in range(4)] == [1, 2, 4, 8]
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"growing rotations to 1024 took {elapsed:.2f}s"


def test_head_tables_skip_erased_letters_without_expanding():
    sigma = m({"x": "yy", "y": "xx", "g": "gg"})
    classes = {"x": TO_ZERO, "y": TO_ZERO, "g": TO_INFINITY}
    # sigma^60(x g) holds 2^60 erased letters before its first g
    start = time.perf_counter()
    table = next(islice(hdol._head_tables(sigma, classes), 60, None))
    assert hdol._head(table, "xg") == ((), "g")
    assert table["x"] == ((), None) and table["g"] == ((), "g")
    assert time.perf_counter() - start < 0.05
    # with y bounded, against the raw iterates sigma^k(x g)
    classes["y"] = BOUNDED
    word = "xg"
    for table in islice(hdol._head_tables(sigma, classes), 9):
        cut = word.index("g")
        assert hdol._head(table, "xg") == (
            tuple(c for c in word[:cut] if c == "y"), "g")
        word = "".join(sigma.image(c)[0] * 2 for c in word)


def settled_prefixes(system, length, steps=40):
    """The first length letters of phi(sigma^n(w)) once they settle, by
    plain iteration: the first p full-length prefixes that the next p
    repeat, for the least period p."""
    words = list(islice(system.prefixes(length), steps))
    for p in range(1, steps // 3):
        for n in range(steps - 2 * p):
            window = words[n:n + p]
            if all(len(w) == length for w in window) \
                    and window == words[n + p:n + 2 * p]:
                return window
    raise AssertionError("the prefixes do not settle")


# systems whose composed codings phi o sigma^i or phi_bar o sigma_bar^k
# would pass the compose or slot-image caps, with their period v on yes.
# random-i is draw i of random.Random(1): per system 1-4 letters, then
# sigma-images of 0-3 letters, phi-images of 0-2 letters over 01, and a
# seed of 1-2 letters
SHIFTED_SEED_CASES = {
    "bbb": ({"a": "bbb", "b": "bab"}, {"a": "01", "b": ""}, "aa", "01"),
    "one-letter-output": ({"a": "cad", "b": "aa", "c": "cba", "d": "cc"},
                          {"a": "", "b": "11", "c": "1", "d": "1"}, "a",
                          "1"),
    "random-41": ({"a": "a", "b": "c", "c": "cca"},
                  {"a": "11", "b": "00", "c": ""}, "bb", "1"),
    "random-102": ({"a": "ac", "b": "ac", "c": "bb"},
                   {"a": "00", "b": "", "c": "00"}, "bb", "0"),
    "random-117": ({"a": "ac", "b": "da", "c": "ad", "d": ""},
                   {"a": "01", "b": "1", "c": "", "d": ""}, "b", "01"),
    "random-124": ({"a": "aca", "b": "ab", "c": "bb"},
                   {"a": "11", "b": "", "c": "0"}, "ba", None),
    "random-138": ({"a": "bab", "b": "c", "c": "aa"},
                   {"a": "1", "b": "01", "c": "1"}, "cb", None),
    "random-207": ({"a": "cd", "b": "", "c": "dba", "d": "ba"},
                   {"a": "10", "b": "1", "c": "01", "d": "0"}, "da", None),
}


@pytest.mark.parametrize("case", sorted(SHIFTED_SEED_CASES))
def test_systems_decided_on_shifted_seeds(case):
    sigma, phi, w, v = SHIFTED_SEED_CASES[case]
    system = hd0l(m(sigma), m(phi), w)
    out = decide_hd0l(system)
    settled = settled_prefixes(system, 2000)
    if v is not None:
        assert out.periodic and out.certified
        assert out.up == UltimatelyPeriodicWord((), tuple(v))
        assert set(settled) == {out.up.prefix(2000)}
        return
    # an uncertified no: no residue class of the raw iterates admits a
    # u v^omega with |u|, |v| <= 200
    assert (out.periodic, out.diagnostic, out.certified) == (
        False, APERIODIC_SUB_COMPONENT, False)
    for prefix in settled:
        assert brute_force_up_check(prefix, 200, 200) is None


def test_growing_couples_skip_the_pansiot_dichotomy(monkeypatch):
    # every couple of parity-split-6 is x_i -> x_i^64 coded to 2^(i+1)
    # letters, so its slot images at least double and the slot coding grows
    counts = Counter()
    for name in ("pansiot_classify", "convert_case2_to_growing",
                 "decide_growing"):
        fn = getattr(periodicity, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(periodicity, name, counted)
    out = decide_hd0l(parity_split(6, True))
    assert out.periodic and out.up == UltimatelyPeriodicWord((), ("0", "1"))
    assert counts["decide_growing"] > 0
    assert counts["pansiot_classify"] == counts["convert_case2_to_growing"] == 0


def test_nothing_carries_over_between_decides():
    # 3-bonacci is uncertified under the default bound and certified at the
    # formula bound, so a decision kept from the first call would show
    system = id_system(m({"a": "ab", "b": "ac", "c": "a"}), "a")
    first = decide_hd0l(system)
    second = decide_hd0l(system, Limits(primitive_bound=98304))
    for out in (first, second):
        assert not out.periodic
        assert out.diagnostic == APERIODIC_SUB_COMPONENT
    assert (first.certified, second.certified) == (False, True)


def test_tribonacci_scans_past_the_word_cap_image():
    # the oracle's 40,000 letters have least period q = 19,513, so it
    # expands 80 q = 1,561,040 letters: the whole image of the last chunk
    # would pass the word cap, the letters needed do not
    system = id_system(m({"a": "ab", "b": "ac", "c": "a"}), "a")
    out = decide_hd0l(system, Limits(primitive_bound=20000))
    assert not out.periodic and not out.certified
    assert out.diagnostic == APERIODIC_SUB_COMPONENT


# ------------------------------------------------------- canonical equality


def test_up_equal_absorbs_preperiod_into_period():
    assert up_equal(UltimatelyPeriodicWord(("a",), ("b",)),
                    UltimatelyPeriodicWord(("a", "b"), ("b", "b")))


def test_up_equal_distinguishes_rotations():
    assert not up_equal(UltimatelyPeriodicWord((), ("a", "b")),
                        UltimatelyPeriodicWord((), ("b", "a")))


def test_up_equal_accepts_shifted_presentations():
    assert up_equal(UltimatelyPeriodicWord(("x",), ("y", "z")),
                    UltimatelyPeriodicWord(("x", "y"), ("z", "y")))
