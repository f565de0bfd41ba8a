"""Words, morphisms, fixed-point expansion, canonical ultimately periodic forms."""

import pytest

from conftest import m, random_endomorphism, seeded
from hd0l.errors import (
    BoundedImageError,
    LetterDomainError,
    PreconditionError,
    ResourceLimitError,
    SystemValidationError,
)
from hd0l.words import (
    HD0LSystem,
    Morphism,
    UltimatelyPeriodicWord,
    as_word,
    canonicalize_up,
    compose,
    expand_fixed_point,
    identity,
    is_prolongable,
    power,
    primitive_root,
    up_equal,
    validate_system,
    word_str,
)


def test_as_word_and_str():
    assert as_word("abc") == ("a", "b", "c")
    assert as_word(["x", "yy"]) == ("x", "yy")
    assert word_str(()) == "e"
    assert word_str(("a", "b")) == "ab"
    assert word_str(("a", "b1")) == "a.b1"
    # mixed widths: the plain join would be ambiguous
    assert word_str(("ab", "c")) == "ab.c"
    assert word_str(("a", "bc", "d", "(e,0)")) == "a.bc.d.(e,0)"
    assert word_str(("ab",)) == "ab"
    # a str is a word of one-character letters, returned as it is
    assert (word_str("aab"), word_str("")) == ("aab", "e")


def test_morphism_apply_and_properties():
    sigma = m({"a": "ab", "b": "a"})
    assert sigma(("a", "b", "a")) == ("a", "b", "a", "a", "b")
    assert sigma.is_endomorphism
    assert not sigma.is_coding
    assert sigma.is_non_erasing
    assert sigma.max_image_len() == 2
    with pytest.raises(LetterDomainError):
        sigma(("c",))


def test_morphism_equality_reads_the_value():
    sigma = Morphism({"a": "ab", "b": "a"})
    same = Morphism({"b": ("a",), "a": ("a", "b")}, codomain={"a", "b", "c"})
    assert sigma.key == same.key == (("a", ("a", "b")), ("b", ("a",)))
    assert sigma == same and hash(sigma) == hash(same)
    assert {sigma: 1}[same] == 1
    assert sigma != Morphism({"a": "ab", "b": "b"})
    assert sigma != Morphism({"a": "ab"})


def test_morphism_codomain_check():
    phi = Morphism({"a": "01", "b": "1"}, codomain={"0", "1"})
    assert phi.codomain == {"0", "1"}
    assert not phi.is_endomorphism
    with pytest.raises(LetterDomainError):
        Morphism({"a": "0x"}, codomain={"0"})


def test_morphism_erasing_and_restrict():
    sigma = m({"a": "ab", "b": "", "c": "c"})
    assert sigma.erasing_letters() == {"b"}
    assert not sigma.is_non_erasing
    sub = sigma.restrict(["c"])
    assert sub.domain == {"c"}
    assert sub(("c",)) == ("c",)
    with pytest.raises(LetterDomainError):
        sigma.restrict(["z"])


def test_compose_and_power():
    sigma = m({"a": "ab", "b": "a"})
    tau = m({"a": "b", "b": "ab"})
    st = compose(sigma, tau)
    # (sigma o tau)(a) = sigma(b) = a, (sigma o tau)(b) = sigma(ab) = ab a
    assert st.image("a") == ("a",)
    assert st.image("b") == ("a", "b", "a")
    assert power(sigma, 0) == identity(["a", "b"])
    s3 = power(sigma, 3)
    assert s3.image("a") == sigma(sigma(sigma.image("a"))) == ("a", "b", "a", "a", "b")
    with pytest.raises(PreconditionError):
        power(m({"a": "x"}), 2)
    with pytest.raises(ResourceLimitError):
        power(m({"a": "aa"}), 40, cap=10_000)


def test_compose_domain_mismatch():
    with pytest.raises(PreconditionError):
        compose(m({"a": "aa"}), m({"a": "ab", "b": "a"}))


def test_expand_fixed_point_fibonacci():
    sigma = m({"a": "ab", "b": "a"})
    assert is_prolongable(sigma, "a")
    assert not is_prolongable(sigma, "b")
    # hand-expanded: a, ab, aba, abaab, abaababa, ...
    assert expand_fixed_point(sigma, "a", 13) == tuple("abaababaabaab")


def test_expand_fixed_point_finite_raises():
    sigma = m({"a": "ab", "b": ""})
    with pytest.raises(BoundedImageError):
        expand_fixed_point(sigma, "a", 10)


def test_expand_fixed_point_matches_whole_word_iteration():
    # reference: sigma^k(a) is a prefix of sigma^(k+1)(a), and an iterate
    # equal to its image is the whole (finite) fixed point
    rng = seeded(29)
    finite = erasing = 0
    for _ in range(300):
        letters = "abc"[: rng.randint(1, 3)]
        a = letters[0]
        images = random_endomorphism(rng, letters).images
        images[a] = (a,) + tuple(
            rng.choice(letters) for _ in range(rng.randint(1, 3)))
        sigma, n, want = Morphism(images), rng.randint(0, 200), (a,)
        while len(want) < n and sigma(want) != want:
            want = sigma(want)
        erasing += not sigma.is_non_erasing
        finite += len(want) < n
        if len(want) < n:
            with pytest.raises(BoundedImageError):
                expand_fixed_point(sigma, a, n)
        else:
            assert expand_fixed_point(sigma, a, n) == want[:n]
    assert finite and erasing


def test_expand_fixed_point_with_erasing_tail():
    # b is erased but every a respawns one, so the limit is (aba)^w.
    sigma = m({"a": "aba", "b": ""})
    assert expand_fixed_point(sigma, "a", 8) == tuple("abaabaab")


def test_primitive_root():
    assert primitive_root(tuple("abab")) == ("a", "b")
    assert primitive_root(tuple("ababa")) == tuple("ababa")
    assert primitive_root(tuple("aaa")) == ("a",)
    assert primitive_root(()) == ()
    assert primitive_root(tuple("abcabcabc")) == ("a", "b", "c")


def test_canonicalize_up_rotation():
    one = canonicalize_up(tuple("abb"), tuple("ab"))
    two = canonicalize_up(tuple("ab"), tuple("ba"))
    assert one == two == UltimatelyPeriodicWord(("a", "b"), ("b", "a"))
    assert up_equal(one, two)


def test_canonicalize_up_absorbs_preperiod():
    u = canonicalize_up(tuple("aaa"), tuple("a"))
    assert u.preperiod == () and u.period == ("a",)
    v = canonicalize_up((), tuple("abab"))
    assert v.period == ("a", "b")
    with pytest.raises(PreconditionError):
        canonicalize_up(("a",), ())


def test_up_prefix():
    w = UltimatelyPeriodicWord(("a",), ("b", "c"))
    assert w.prefix(6) == tuple("abcbcb")
    assert w.prefix(1) == ("a",)
    assert w.prefix(0) == ()
    assert str(w) == "a(bc)^w"


def test_up_prefix_consistency_random():
    rng = seeded(7)
    for _ in range(100):
        u = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        w = UltimatelyPeriodicWord(u, v)
        n = rng.randint(0, 30)
        expected = (u + v * 40)[:n]
        assert w.prefix(n) == expected
        c = canonicalize_up(u, v)
        assert c.prefix(40) == w.prefix(40)


def test_system_validation_collects_problems():
    sigma = m({"a": "ab", "b": "b"})
    phi = Morphism({"a": "0", "b": "1"}, codomain={"0", "1"})
    problems = validate_system(("a", "b"), ("0", "1"), sigma, phi, ("a",))
    assert problems == []
    bad = validate_system(("a",), ("0",), sigma, phi, ())
    assert any("sigma domain" in p for p in bad)
    assert any("phi" in p for p in bad)
    assert any("seed" in p for p in bad)
    with pytest.raises(SystemValidationError):
        HD0LSystem(("a",), ("0",), sigma, phi, ())


def test_system_term():
    sigma = m({"a": "ab", "b": "b"})
    phi = Morphism({"a": "0", "b": "1"}, codomain={"0", "1"})
    sys = HD0LSystem(("a", "b"), ("0", "1"), sigma, phi, ("a",))
    assert sys.term(0) == ("0",)
    assert sys.term(3) == tuple("0111")


def test_term_prefix_matches_full_term():
    # cutting the iterates must keep every letter phi reads, also when
    # sigma and phi erase
    rng = seeded(31)
    erasing = 0
    for _ in range(300):
        letters = "abc"[: rng.randint(1, 3)]
        sigma = random_endomorphism(rng, letters)
        phi = random_endomorphism(rng, letters)
        seed = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        system = HD0LSystem(tuple(letters), tuple(letters), sigma, phi, seed)
        k = rng.randint(0, 8)
        full = system.term(k)
        erasing += not (sigma.is_non_erasing or phi.is_non_erasing)
        for n in (0, 1, rng.randint(1, 40), len(full), len(full) + 1):
            assert system.term(k, n) == full[:n]
    assert erasing


def test_prefixes_end_at_the_letter_budget():
    # sigma builds 2, 4, 6 letters (cut at 3), then 6 more would pass 14
    sigma = m({"a": "aa"})
    system = HD0LSystem(("a",), ("a",), sigma, identity("a"), ("a",))
    assert list(system.prefixes(3, budget=14)) == [
        ("a",), ("a",) * 2, ("a",) * 3, ("a",) * 3]


def test_power_agrees_with_iterated_apply_random():
    rng = seeded(13)
    for _ in range(60):
        letters = "abc"[: rng.randint(1, 3)]
        sigma = random_endomorphism(rng, letters)
        k = rng.randint(0, 4)
        pk = power(sigma, k)
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        expect = w
        for _ in range(k):
            expect = sigma(expect)
        assert pk(w) == expect
