"""Tests for the factor machinery and the period certification check."""

import pytest

from conftest import m, random_endomorphism, seeded
from hd0l.errors import BoundedImageError, PreconditionError, ResourceLimitError
from hd0l.factors import (
    POWER_THRESHOLD,
    FactorEngine,
    finalcheck,
    lang_eq_periodic,
)
from hd0l.normalization import (
    SubstitutiveRepresentation,
    recurrent_letter_set,
    substitutive_representation,
)
from helpers import (
    block_substitution,
    brute_force_up_check,
    factors_of_length,
    periodic_factors,
    recurrent_factors,
)
from hd0l.words import (
    Morphism,
    UltimatelyPeriodicWord,
    canonicalize_up,
    expand_fixed_point,
    identity,
    is_prolongable,
)

FIB = m({"a": "ab", "b": "a"})
TM = m({"a": "ab", "b": "ba"})


def windows(word, n):
    return frozenset(word[i:i + n] for i in range(len(word) - n + 1))


def test_engine_roundtrip_and_apply():
    eng = FactorEngine(FIB)
    w = ("a", "b", "a", "a")
    s = eng.encode(w)
    assert eng.decode(s) == w
    assert eng.decode(eng.apply(s)) == FIB(w)


def test_engine_rejects_erasing():
    with pytest.raises(PreconditionError):
        FactorEngine(m({"a": "ab", "b": ""}))


def test_expand_until_matches_whole_word_iteration():
    # reference: re-apply tau to the whole word at every step
    rng = seeded(73)
    for _ in range(400):
        letters = "abc"[: rng.randint(1, 3)]
        sigma = random_endomorphism(rng, letters, allow_empty=False)
        seed = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        n = rng.randint(1, 300)
        want = seed
        for _ in range(10_000):
            if len(want) >= n or sigma(want) == want:
                break
            want = sigma(want)
        eng = FactorEngine(sigma)
        if len(want) >= n:
            assert eng.decode(eng.expand_until(seed, n)) == want[:n]
        else:
            # a finite fixed word, or a cycle that hits the step cap
            with pytest.raises((BoundedImageError, ResourceLimitError)):
                eng.expand_until(seed, n)


def test_uncapped_expand_until_matches_the_tuple_engine():
    # past POWER_THRESHOLD an uncapped expansion runs on a power T of tau;
    # words.expand_fixed_point, the tuple engine, iterates tau itself
    systems = [(FIB, "a"), (TM, "a"), (m({"b": "bc", "c": "c"}), "b"),
               (m({"a": "abc", "b": "bc", "c": "c"}), "a"),
               (m({"a": "ab", "b": "bc", "c": "cd", "d": "d"}), "a"),
               (m({"a": "aab", "b": "b"}), "a")]
    rng = seeded(29)
    while len(systems) < 18:
        # prolongable and non-erasing: the fixed point at a is infinite
        letters = "abcd"[: rng.randint(1, 4)]
        sigma = random_endomorphism(rng, letters, allow_empty=False)
        if is_prolongable(sigma, "a"):
            systems.append((sigma, "a"))
    for sigma, a in systems:
        want = expand_fixed_point(sigma, a, 4 * POWER_THRESHOLD)
        eng = FactorEngine(sigma)
        # every |T(x[:r])| is where one T-image of the fixed point x ends
        t_len = dict(eng._power[1])
        end = 0
        for c in eng.encode(want):
            end += t_len[c]
            if end >= 2 * POWER_THRESHOLD:
                break
        for n in (POWER_THRESHOLD + 1, end, end + 1, 4 * POWER_THRESHOLD):
            assert eng.decode(eng.expand_until(
                (a,), n, max_word=None)) == want[:n], (sigma, n)


def test_fibonacci_small_factor_sets():
    assert factors_of_length(FIB, "a", 1) == {("a",), ("b",)}
    assert factors_of_length(FIB, "a", 2) == {
        ("a", "b"), ("b", "a"), ("a", "a")}
    # the Fibonacci word has n + 1 factors of each length n
    for n in range(1, 9):
        assert len(factors_of_length(FIB, "a", n)) == n + 1


def test_thue_morse_factor_counts():
    counts = [len(factors_of_length(TM, "a", n)) for n in range(1, 7)]
    assert counts == [2, 4, 6, 10, 12, 16]


def test_factors_match_long_prefix_windows():
    # both words are uniformly recurrent with small recurrence constants, so
    # every short factor already shows up in a modest prefix
    for sigma in (FIB, TM):
        x = expand_fixed_point(sigma, "a", 2000)
        for n in (2, 3, 5):
            assert factors_of_length(sigma, "a", n) == windows(x, n)


def test_factors_of_eventually_constant_word():
    sigma = m({"a": "ab", "b": "b"})
    assert factors_of_length(sigma, "a", 2) == {("a", "b"), ("b", "b")}
    assert factors_of_length(sigma, "a", 3) == {
        ("a", "b", "b"), ("b", "b", "b")}


def test_prefix_windows_always_inside_closure():
    rng = seeded(71)
    checked = 0
    for _ in range(120):
        letters = "ab" if rng.random() < 0.5 else "abc"
        sigma = random_endomorphism(rng, letters, max_len=3, allow_empty=False)
        seed_letter = next(
            (a for a in sigma.letters if is_prolongable(sigma, a)), None)
        if seed_letter is None:
            continue
        try:
            x = expand_fixed_point(sigma, seed_letter, 1200)
        except Exception:
            continue
        for n in (2, 3):
            closure = factors_of_length(sigma, seed_letter, n)
            assert windows(x[:600], n) <= closure
        checked += 1
    assert checked >= 30


def test_block_substitution_images():
    fib2 = m({"a": "aba", "b": "ab"})
    bs = block_substitution(fib2, "a", 2)
    assert bs.seed_name == "[a|b]"
    assert bs.morphism.image("[a|b]") == ("[a|b]", "[b|a]", "[a|a]")
    edge = m({"a": "ab", "b": "b"})
    bs2 = block_substitution(edge, "a", 2)
    assert bs2.morphism.image("[a|b]") == ("[a|b]", "[b|b]")


def test_block_substitution_recodes_fixed_point():
    for sigma, n in ((FIB, 2), (FIB, 3), (TM, 2), (m({"a": "ab", "b": "b"}), 2)):
        bs = block_substitution(sigma, "a", n)
        x = expand_fixed_point(sigma, "a", 400)
        xb = expand_fixed_point(bs.morphism, bs.seed_name, 300)
        eng = FactorEngine(sigma)
        for i, name in enumerate(xb):
            assert eng.decode(bs.factor_of[name]) == x[i:i + n]


def test_recurrent_letters():
    fib2 = m({"a": "aba", "b": "ab"})
    assert recurrent_letter_set(fib2, "a") == {"a", "b"}
    assert recurrent_letter_set(m({"a": "ab", "b": "b"}), "a") == {"b"}
    assert recurrent_letter_set(m({"a": "aa"}), "a") == {"a"}


def test_recurrent_letters_requires_stable_sets():
    # letters(sigma(b)) = {a} changes to letters(sigma^2(b)) = {a, b}
    with pytest.raises(PreconditionError):
        recurrent_letter_set(FIB, "a")


def test_recurrent_factors_uniformly_recurrent():
    # every factor of the Fibonacci and Thue-Morse words recurs
    for sigma in (FIB, TM):
        for n in (1, 2, 4):
            factors, recurrent, _ = recurrent_factors(sigma, "a", n)
            assert recurrent == factors


def test_recurrent_factors_with_transient_prefix():
    factors, recurrent, _ = recurrent_factors(m({"a": "ab", "b": "b"}), "a", 2)
    assert recurrent == {("b", "b")}
    assert factors == {("a", "b"), ("b", "b")}
    factors, recurrent, _ = recurrent_factors(m({"a": "ab", "b": "b"}), "a", 1)
    assert recurrent == {("b",)}
    assert factors == {("a",), ("b",)}


def test_recurrent_factors_periodic_word():
    _, recurrent, _ = recurrent_factors(m({"a": "ab", "b": "ab"}), "a", 4)
    assert recurrent == {
        ("a", "b", "a", "b"), ("b", "a", "b", "a")}


def test_recurrent_index_semantics():
    # the window at every position at or past the index must be recurrent
    cases = [(FIB, 3), (TM, 2), (m({"a": "ab", "b": "b"}), 2),
             (m({"a": "abb", "b": "bb"}), 3)]
    for sigma, n in cases:
        _, recurrent, index = recurrent_factors(sigma, "a", n)
        x = expand_fixed_point(sigma, "a", index + 60 + n)
        for i in range(index, index + 60):
            assert x[i:i + n] in recurrent


def test_periodic_factors():
    assert periodic_factors(("a", "b"), 3) == {
        ("a", "b", "a"), ("b", "a", "b")}
    assert periodic_factors("a", 4) == {("a", "a", "a", "a")}
    assert periodic_factors("abc", 2) == {
        ("a", "b"), ("b", "c"), ("c", "a")}


def test_lang_eq_periodic():
    assert lang_eq_periodic("ab", "ba")
    assert lang_eq_periodic("abab", "ab")
    assert not lang_eq_periodic("ab", "aab")
    assert lang_eq_periodic("abcabc", "cab")
    assert not lang_eq_periodic("ab", "aa")
    assert lang_eq_periodic("aaa", "a")


def test_lang_eq_periodic_matches_factor_sets():
    rng = seeded(9)
    for _ in range(200):
        u = tuple(rng.choice("ab") for _ in range(rng.randint(1, 12)))
        v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 12)))
        n = len(u) + len(v)
        brute = periodic_factors(u, n) == periodic_factors(v, n)
        assert lang_eq_periodic(u, v) == brute


def _rep(images, phi=None, seed="a"):
    sigma = m(images)
    if phi is None:
        phi = identity(sigma.letters)
    return substitutive_representation(sigma, phi, seed)


def test_finalcheck_simple_tail():
    rep = _rep({"a": "ab", "b": "bb"})
    up = finalcheck(rep, ("b",))
    assert up == UltimatelyPeriodicWord(("a",), ("b",))
    # a non-primitive candidate is rooted first
    assert finalcheck(rep, ("b", "b")) == up


def test_finalcheck_purely_periodic():
    rep = _rep({"a": "ab", "b": "ab"})
    up = finalcheck(rep, ("a", "b"))
    assert up == UltimatelyPeriodicWord((), ("a", "b"))
    # a rotated candidate lands on the same canonical form
    assert finalcheck(rep, ("b", "a")) == up


def test_finalcheck_rejects_wrong_period():
    rep = _rep({"a": "ab", "b": "bb"})
    assert finalcheck(rep, ("a", "b")) is None


def test_finalcheck_aperiodic():
    for images in ({"a": "ab", "b": "a"}, {"a": "ab", "b": "ba"}):
        rep = _rep(images)
        assert finalcheck(rep, ("a", "b")) is None
        assert finalcheck(rep, ("a",)) is None


def test_finalcheck_with_coding():
    # collapsing Thue-Morse onto one letter makes it periodic
    phi = m({"a": "0", "b": "0"})
    rep = _rep({"a": "ab", "b": "ba"}, phi=phi)
    assert finalcheck(rep, ("0",)) == UltimatelyPeriodicWord((), ("0",))


def test_finalcheck_longer_preperiod():
    rep = _rep({"b": "bcc", "c": "c"}, seed="b")
    assert finalcheck(rep, ("c",)) == UltimatelyPeriodicWord(("b",), ("c",))


def test_finalcheck_agrees_with_brute_force_on_random_codings():
    # random prolongable substitutions, bounded letters and collapsing
    # codings included; the candidates are the period the brute force finds
    # on a long prefix, a rotation of it, its square and a wrong word
    rng = seeded(2024)
    length, max_pre, max_per = 1500, 60, 12
    accepted = rejected = 0
    for _ in range(150):
        letters = "ab" if rng.random() < 0.5 else "abc"
        images = {a: "".join(rng.choice(letters)
                             for _ in range(rng.randint(1, 3)))
                  for a in letters}
        images["a"] = "a" + images["a"][:2]
        tau = m(images)
        kappa = Morphism({a: rng.choice("01") for a in letters})
        rep = SubstitutiveRepresentation(tau, kappa, "a", frozenset())
        y = rep.expand_image(length)
        found = brute_force_up_check(y, max_pre, max_per)
        if found is None:
            candidates = [("0",), ("0", "1")]
        else:
            v = found[1]
            wrong = v[:-1] + ({"0": "1", "1": "0"}[v[-1]],)
            candidates = [v, v[1:] + v[:1], v + v, wrong]
        for cand in candidates:
            up = finalcheck(rep, cand)
            agrees = found is not None and lang_eq_periodic(found[1], cand)
            if up is not None:
                assert up.prefix(length) == y
                if len(up.preperiod) <= max_pre and len(up.period) <= max_per:
                    assert agrees
            if agrees:
                assert up == canonicalize_up(*found)
            accepted += up is not None
            rejected += up is None
    assert accepted >= 100 and rejected >= 100
