"""Normalization pipeline: exponents, eliminations, growth, coding construction."""

from itertools import chain

import pytest

from conftest import m, random_endomorphism, seeded
from hd0l.errors import BoundedImageError, PreconditionError, ResourceLimitError
from hd0l.matrices import (
    classify_letters,
    component_decomposition,
    image_lengths,
    letterset_orbit,
    satisfies_p2_at,
    stabilizing_exponent,
)
from hd0l.normalization import (
    MAX_POWER_DOUBLINGS,
    _growth_candidate,
    achieve_growth_inequalities,
    eliminate_erasing,
    eliminate_phi_dead,
    image_is_infinite,
    phi_dead_letters,
    SubstitutiveRepresentation,
    reachable_letters,
    recurrent_letter_set,
    split_evenly,
    substitutive_representation,
    to_coding,
)
from hd0l.words import Morphism, expand_fixed_point, is_prolongable, power


def coding(table):
    return Morphism({a: (v,) for a, v in table.items()})


def p1_p2_exponent(sigma, scale=1):
    """Smallest multiple of scale times the component power with stable
    image letter sets, as the normalization pipeline computes it."""
    p = component_decomposition(sigma).p
    return stabilizing_exponent(letterset_orbit(sigma), p * scale)


def test_minimal_exponent_fibonacci():
    assert p1_p2_exponent(m({"a": "ab", "b": "a"})) == 2


def test_minimal_exponent_with_swap_component():
    # p = 2 and the letter sets of sigma^2 are already stable
    assert p1_p2_exponent(m({"a": "ab", "b": "c", "c": "b"})) == 2


def test_normalize_p1_p2_pins_alphabet_multiple():
    sigma = m({"a": "ab", "b": "c", "c": "b"})
    e = p1_p2_exponent(sigma, scale=len(sigma.letters))
    assert e == 6
    se = power(sigma, e)
    assert se.image("b") == ("b",)
    assert se.facts.p2


def test_normalize_p1_p2_escalates():
    sigma = m({"a": "b", "b": "c", "c": "ab"})
    e = p1_p2_exponent(sigma, scale=len(sigma.letters))
    assert e == 6  # p * |A| = 3 fails stability and must be doubled
    orbit = letterset_orbit(sigma)
    assert not satisfies_p2_at(orbit, 3) and satisfies_p2_at(orbit, 6)
    assert power(sigma, e).facts.p2


def test_reachable_letters():
    sigma = m({"a": "ab", "b": "b", "c": "ca"})
    assert reachable_letters(sigma, ("a",)) == {"a", "b"}
    assert reachable_letters(sigma, ("c",)) == {"a", "b", "c"}


def test_eliminate_erasing_folds_phi():
    sigma = m({"a": "aeb", "b": "eb", "e": ""})
    phi = coding({"a": "a", "b": "b", "e": "e"})
    s2, p2, a = eliminate_erasing(sigma, phi, "a")
    assert s2.images == {"a": ("a", "b"), "b": ("b",)}
    assert p2.image("a") == ("a", "e", "b")
    assert p2.image("b") == ("e", "b")
    # fixed point of s2 at a is a b^w; its p2-image must be the original limit
    x = expand_fixed_point(s2, "a", 6)
    assert p2(x) == tuple("aeb" + "eb" * 5)[: len(p2(x))]


def test_eliminate_erasing_requires_stability():
    # b is mortal but takes two steps to die, so letter sets are not stable
    with pytest.raises(PreconditionError):
        eliminate_erasing(m({"a": "ab", "b": "c", "c": ""}), coding({"a": "0", "b": "0", "c": "0"}), "a")


def test_phi_dead_letters():
    sigma = m({"a": "ab", "b": "c", "c": "c"})
    phi = Morphism({"a": "0", "b": "", "c": ""})
    assert phi_dead_letters(sigma, phi) == {"b", "c"}
    s2, p2, _ = eliminate_phi_dead(sigma, phi, "a")
    assert s2.images == {"a": ("a",)}


def test_recurrent_letters_and_infinite_check():
    sigma = m({"a": "ab", "b": "b"})
    assert recurrent_letter_set(sigma, "a") == {"b"}
    assert image_is_infinite(sigma, Morphism({"a": "0", "b": "1"}), "a")
    assert not image_is_infinite(sigma, Morphism({"a": "0", "b": ""}), "a")


def test_achieve_growth_inequalities():
    sigma = m({"a": "ab", "b": "c", "c": "c"})
    phi = Morphism({"a": "0", "b": "111", "c": "2"})
    s2, p2 = achieve_growth_inequalities(sigma, phi, "a")
    assert p2.is_non_erasing
    for b in s2.letters:
        assert len(p2(s2.image(b))) >= len(p2.image(b)) >= 1
    # the pair still presents the same image sequence
    x = expand_fixed_point(s2, "a", 30)
    y = expand_fixed_point(sigma, "a", 200)
    k = min(len(p2(x)), len(phi(y)), 50)
    assert k >= 25
    assert p2(x)[:k] == phi(y)[:k]


def test_growth_candidate_settles_every_candidate():
    # c holds 3 phi-letters only at even powers and a 4 from power 5 on:
    # the first candidate past 1..4 is the doubling 8
    sigma = m({"a": "c", "b": "cc", "c": "b"})
    assert _growth_candidate(sigma, Morphism({"a": "0000", "b": "0",
                                              "c": "000"})) == 8
    # b shrinks to the fixed letter c for good: no power works
    sigma = m({"a": "ab", "b": "c", "c": "c"})
    assert _growth_candidate(sigma, Morphism({"a": "0", "b": "111",
                                              "c": "2"})) is None
    rng = seeded(17)
    for _ in range(300):
        letters = "abcd"[: rng.randint(1, 4)]
        sigma = random_endomorphism(rng, letters)
        phi = Morphism({a: "0" * rng.randint(1, 6) for a in letters})
        targets = {b: len(phi.image(b)) for b in letters}
        ceiling = max(targets.values())
        candidates = [*range(1, ceiling + 1), *(
            ceiling << i for i in range(1, MAX_POWER_DOUBLINGS + 1))]
        want = next((k for k in candidates if k <= 48 and all(
            n >= targets[b] for b, n in image_lengths(sigma, k, phi).items())),
            None)
        got = _growth_candidate(sigma, phi)
        if want is None:
            assert got is None or got > 48, (sigma, phi)
        else:
            assert got == want, (sigma, phi)


def test_to_coding_slots():
    sigma = m({"a": "ab", "b": "b"})
    phi = Morphism({"a": "01", "b": "1"})
    tau, kappa, d0 = to_coding(sigma, phi, "a")
    assert d0 == "(a,0)"
    assert kappa.is_coding
    assert tau.image("(a,0)") == ("(a,0)", "(a,1)")
    assert tau.image("(a,1)") == ("(b,0)",)
    assert kappa(expand_fixed_point(tau, d0, 12)) == tuple("011111111111")


def test_to_coding_random():
    # the even split is kept exactly when its letter sets are stable at the
    # first power; it then makes every slot grow once slot images double
    rng = seeded(0x5107)
    kept = grown = absorbed = 0
    for _ in range(400):
        letters = "abcd"[: rng.randint(1, 4)]
        sigma = random_endomorphism(rng, letters, allow_empty=False)
        sigma = Morphism({**sigma.images, "a": ("a",) + sigma.image("a")})
        phi = Morphism({b: "".join(rng.choice("01")
                                   for _ in range(rng.randint(1, 3)))
                        for b in letters})
        ratio = {b: len(phi(sigma.image(b))) / len(phi.image(b))
                 for b in letters}
        if min(ratio.values()) < 1:
            continue
        tau, kappa, d0 = to_coding(sigma, phi, "a")
        slots = {b: tuple(f"({b},{i})" for i in range(len(phi.image(b))))
                 for b in letters}
        for b in letters:
            assert kappa(tau(slots[b])) == phi(sigma.image(b)), (sigma, phi)
        assert kappa.is_coding and d0 == "(a,0)" and is_prolongable(tau, d0)

        blocks = {b: tuple(chain.from_iterable(map(slots.__getitem__,
                                                   sigma.image(b))))
                  for b in letters}
        even = Morphism({
            name: run for b in letters
            for name, run in zip(slots[b], split_evenly(blocks[b],
                                                        len(slots[b])))})
        if even.facts.stable_exponent() == 1:
            assert tau == even, (sigma, phi)
            kept += 1
            if min(ratio.values()) >= 2:
                assert not classify_letters(tau).bounded, (sigma, phi)
                grown += 1
        else:
            # the first slot takes the surplus, every other slot one letter
            first = {b: len(blocks[b]) - len(slots[b]) + 1 for b in letters}
            assert tau == Morphism({
                name: run for b in letters
                for name, run in zip(slots[b], [
                    blocks[b][:first[b]],
                    *((c,) for c in blocks[b][first[b]:])])}), (sigma, phi)
            absorbed += 1
    assert kept >= 50 and grown >= 20 and absorbed >= 20, (kept, grown,
                                                           absorbed)


def test_to_coding_rejects_bad_input():
    with pytest.raises(PreconditionError):
        to_coding(m({"a": "ab", "b": ""}), Morphism({"a": "0", "b": "1"}), "a")
    with pytest.raises(PreconditionError):
        # |phi(sigma(b))| = 1 < 2 = |phi(b)|
        to_coding(m({"a": "ab", "b": "c", "c": "c"}),
                  Morphism({"a": "0", "b": "11", "c": "2"}), "a")


def test_representation_fibonacci_identity():
    rep = substitutive_representation(
        m({"a": "ab", "b": "a"}), coding({"a": "a", "b": "b"}), "a")
    rep.verify()
    assert rep.expand_image(13) == tuple("abaababaabaab")


def test_representation_thue_morse():
    rep = substitutive_representation(
        m({"a": "ab", "b": "ba"}), coding({"a": "0", "b": "1"}), "a")
    assert rep.expand_image(8) == tuple("01101001")


def test_representation_erasing_system():
    rep = substitutive_representation(
        m({"a": "aeb", "b": "eb", "e": ""}), coding({"a": "a", "b": "b", "e": "e"}), "a")
    assert rep.expand_image(9) == tuple("aebebebeb")
    rep.verify()


def test_representation_with_dead_letters():
    rep = substitutive_representation(
        m({"a": "ab", "b": "c", "c": "b"}), Morphism({"a": "0", "b": "1", "c": ""}), "a")
    assert rep.expand_image(6) == tuple("011111")


def _random_representation(rng, size, outputs):
    """A prolongable non-erasing tau on size letters with a random coding
    onto the given output letters (usually fewer, so several letters share
    one)."""
    letters = [f"t{i}" for i in range(size)]
    images = {a: [rng.choice(letters) for _ in range(rng.randint(1, 3))]
              for a in letters}
    seed = rng.choice(letters)
    images[seed] = [seed] + images[seed]
    kappa = Morphism({a: (rng.choice(outputs),) for a in letters})
    return SubstitutiveRepresentation(Morphism(images), kappa, seed, frozenset())


@pytest.mark.parametrize("size, outputs", [
    (5, "01"),                      # ASCII codes, one-character output
    (6, ("x", "y1", "zz2")),        # ASCII codes, output decoded
    (150, "abc"),                   # codes past ASCII
    (150, ("p", "q0", "r00")),      # codes past ASCII, output decoded
    (300, ("0", "1", "22")),        # two-byte codes
])
def test_expand_image_matches_the_tuple_engine(size, outputs):
    rng = seeded(size)
    for _ in range(6):
        rep = _random_representation(rng, size, outputs)
        for n in (0, 1, 2, 37, 3000):
            assert rep.expand_image(n) == rep.kappa(
                expand_fixed_point(rep.tau, rep.seed, n))


def test_representation_bounded_cases():
    with pytest.raises(BoundedImageError):
        substitutive_representation(
            m({"a": "ab", "b": ""}), coding({"a": "0", "b": "1"}), "a")
    with pytest.raises(BoundedImageError):
        # infinite core but phi kills every recurrent letter
        substitutive_representation(
            m({"a": "ab", "b": "b"}), Morphism({"a": "0", "b": ""}), "a")
    with pytest.raises(PreconditionError):
        substitutive_representation(
            m({"a": "ba", "b": "a"}), coding({"a": "0", "b": "1"}), "a")


def test_representation_random_systems_match_direct_expansion():
    """Random prolongable systems: the pipeline's fidelity check re-verifies
    200 letters against direct expansion; bounded images must raise cleanly."""
    rng = seeded(97)
    built = 0
    for _ in range(120):
        letters = "abc"
        sigma = random_endomorphism(rng, letters, max_len=3)
        img = sigma.image("a")
        if not (len(img) >= 2 and img[0] == "a"):
            continue
        phi = Morphism({
            c: "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
            for c in letters}, codomain={"0", "1"})
        try:
            rep = substitutive_representation(sigma, phi, "a", fidelity=200)
        except BoundedImageError:
            continue
        except ResourceLimitError:
            continue
        rep.verify()
        built += 1
    assert built >= 10
