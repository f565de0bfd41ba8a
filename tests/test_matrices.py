"""Letter graph: primitivity, decomposition, image lengths, growth
classification, checked against a dense incidence matrix reference."""

import weakref

import pytest

from conftest import m, random_endomorphism, seeded
from helpers import (
    block_index,
    incidence_matrix,
    letters_of,
    morphism_from_rows,
    state_at,
    walked_blocks,
    walked_classes,
    walked_orbit,
    walked_stable_exponent,
)
from hd0l.errors import ResourceLimitError
from hd0l.matrices import (
    NULL,
    PRIMITIVE,
    UNIT,
    classify_letters,
    component_decomposition,
    image_lengths,
    is_primitive,
    letterset_orbit,
    satisfies_p2_at,
    stabilizing_exponent,
)
from hd0l.words import Morphism, compose, power


def naive_is_primitive(rows):
    """Reference oracle: some power up to n^2-2n+2 is entrywise positive."""
    n = len(rows)
    if n == 1:
        return rows[0][0] > 0
    cur = [row[:] for row in rows]
    for _ in range(n * n - 2 * n + 2):
        if all(all(v > 0 for v in r) for r in cur):
            return True
        cur = [[sum(cur[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        cur = [[min(v, 1) for v in r] for r in cur]
    return all(all(v > 0 for v in r) for r in cur)


def naive_growth(sigma, steps=200):
    """Reference growth oracle: track per-letter occurrence vectors of sigma^k.
    A repeating vector means bounded; tiny bounded systems repeat within a few
    steps, so surviving all steps without a repeat means growing."""
    mat = incidence_matrix(sigma)
    letters = mat.letters
    out = {}
    for j, a in enumerate(letters):
        vec = tuple(1 if i == j else 0 for i in range(len(letters)))
        seen = {vec}
        out[a] = "growing"
        for _ in range(steps):
            vec = tuple(
                sum(mat.rows[i][k] * vec_k for k, vec_k in enumerate(vec))
                for i in range(len(letters)))
            if vec in seen:
                out[a] = "bounded"
                break
            seen.add(vec)
    return out


def test_incidence_matrix_entries():
    mat = incidence_matrix(m({"a": "ab", "b": "a"}))
    assert mat.letters == ("a", "b")
    assert mat.rows == ((1, 1), (1, 0))
    assert mat.entry("b", "a") == 1
    assert mat.entry("b", "b") == 0


def test_incidence_multiplicative_random():
    rng = seeded(11)
    for _ in range(80):
        letters = "abcd"[: rng.randint(1, 4)]
        s = random_endomorphism(rng, letters)
        t = random_endomorphism(rng, letters)
        lhs = incidence_matrix(compose(s, t), letters=tuple(letters))
        rhs = incidence_matrix(s, letters=tuple(letters)).matmul(
            incidence_matrix(t, letters=tuple(letters)))
        assert lhs == rhs


def test_image_lengths_match_direct_expansion():
    s5 = power(m({"a": "ab", "b": "a"}), 5)
    assert image_lengths(s5, 2) == {"a": 144, "b": 89}
    assert image_lengths(s5, 1, m({"a": "", "b": "xyz"})) == {"a": 15, "b": 9}
    rng = seeded(5)
    for _ in range(80):
        letters = "abcd"[: rng.randint(1, 4)]
        sigma = random_endomorphism(rng, letters)
        phi = random_endomorphism(rng, letters, max_len=2)
        words = {b: (b,) for b in letters}
        for k in range(5):
            got, plain = image_lengths(sigma, k, phi), image_lengths(sigma, k)
            for b, word in words.items():
                assert got[b] == len(phi(word)), (sigma, phi, k, b)
                assert plain[b] == len(word), (sigma, k, b)
            words = {b: sigma(word) for b, word in words.items()}


def test_is_primitive_small_cases():
    assert is_primitive(morphism_from_rows([[1]]))
    assert not is_primitive(morphism_from_rows([[0]]))
    assert is_primitive(morphism_from_rows([[0, 1], [1, 1]]))
    # pure swap: period 2, never positive
    assert not is_primitive(morphism_from_rows([[0, 1], [1, 0]]))
    # directed 3-cycle: irreducible but period 3
    assert not is_primitive(morphism_from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    # 3-cycle plus one chord gives gcd(3, 2) = 1
    assert is_primitive(morphism_from_rows([[0, 0, 1], [1, 0, 1], [0, 1, 0]]))


def test_is_primitive_matches_naive_random():
    rng = seeded(23)
    for _ in range(250):
        n = rng.randint(1, 5)
        rows = [[1 if rng.random() < 0.35 else 0 for _ in range(n)]
                for _ in range(n)]
        assert is_primitive(morphism_from_rows(rows)) == naive_is_primitive(rows)


def test_decomposition_fibonacci():
    dec = component_decomposition(m({"a": "ab", "b": "a"}))
    assert dec.p == 1
    assert len(dec.blocks) == 1
    blk = dec.blocks[0]
    assert blk.letters == ("a", "b") and blk.kind == PRIMITIVE and blk.principal
    assert dec.q == 0


def test_decomposition_swap():
    dec = component_decomposition(m({"a": "b", "b": "a"}))
    assert dec.p == 2
    assert [b.kind for b in dec.blocks] == [UNIT, UNIT]
    assert all(b.principal for b in dec.blocks)


def test_decomposition_cascade():
    dec = component_decomposition(m({"s": "sab", "a": "aa", "b": "bb"}))
    assert dec.p == 1
    assert dec.q == 1
    assert not dec.blocks[0].principal and dec.blocks[0].letters == ("s",)
    assert dec.blocks[0].kind == UNIT
    assert {b.letters for b in dec.blocks[1:]} == {("a",), ("b",)}
    assert all(b.kind == PRIMITIVE and b.principal for b in dec.blocks[1:])


def test_decomposition_null_block():
    dec = component_decomposition(m({"a": "ab", "b": ""}))
    kinds = {b.letters: b.kind for b in dec.blocks}
    assert kinds == {("a",): UNIT, ("b",): NULL}


def test_decomposition_chord_cycle():
    # one strongly connected component, cyclicity gcd(3,2)=1
    dec = component_decomposition(m({"a": "b", "b": "c", "c": "ab"}))
    assert dec.p == 1
    assert len(dec.blocks) == 1 and dec.blocks[0].kind == PRIMITIVE


def test_decomposition_triangular_random():
    rng = seeded(31)
    for _ in range(120):
        letters = "abcde"[: rng.randint(1, 5)]
        sigma = random_endomorphism(rng, letters)
        dec = component_decomposition(sigma)
        # triangularity is also self-checked inside; re-verify independently
        mp = incidence_matrix(power(sigma, dec.p))
        pos = block_index(dec)
        for i, x in enumerate(mp.letters):
            for j, y in enumerate(mp.letters):
                if mp.rows[i][j]:
                    assert pos[x] >= pos[y]
        for blk in dec.blocks:
            if blk.principal:
                for a in blk.letters:
                    assert set(power(sigma, dec.p).image(a)) <= set(blk.letters)


def test_letterset_orbit_basics():
    orbit = letterset_orbit(m({"a": "ab", "b": "c", "c": "b"}))
    assert letters_of(orbit, 0, "a") == {"a"}
    assert letters_of(orbit, 1, "a") == {"a", "b"}
    assert letters_of(orbit, 2, "a") == {"a", "b", "c"}
    assert letters_of(orbit, 3, "b") == {"c"}
    assert letters_of(orbit, 1002, "b") == {"b"}
    assert letters_of(orbit, 1003, "b") == {"c"}


def test_letter_graph_matches_the_walked_orbit_random():
    # images of 0-3 letters, or a permutation with a few images erased or
    # lengthened, so erasing letters, long letter cycles and growing
    # letters all occur
    rng = seeded(53)
    for _ in range(400):
        letters = "abcdefghi"[: rng.randint(1, 9)]
        if rng.random() < 0.5:
            sigma = m({a: "".join(rng.choices(letters, k=rng.choice(
                (0, 1, 1, 1, 2, 3)))) for a in letters})
        else:
            sigma = m({a: b * rng.choice((0, 1, 1, 1, 1, 1, 2)) + rng.choice(
                ("",) * 6 + tuple(letters)) for a, b in zip(
                    letters, rng.sample(letters, len(letters)))})
        phi = random_endomorphism(rng, letters, max_len=2)
        ref = walked_orbit(sigma)
        orbit = letterset_orbit(sigma)
        assert (orbit.preperiod, orbit.period) == (
            ref.preperiod, ref.period), sigma
        for k in range(ref.preperiod + 2 * ref.period + 3):
            assert state_at(orbit, k) == ref.state_at(k), (sigma, k)

        dec = component_decomposition(sigma)
        p, blocks = walked_blocks(sigma, ref)
        assert dec.p == p, sigma
        assert {(frozenset(b.letters), b.kind, b.principal)
                for b in dec.blocks} == blocks, sigma
        pos = block_index(dec)
        assert all(pos[c] >= pos[b] for b, image in
                   zip(letters, ref.state_at(p)) for c in image), sigma

        for weights in (None, phi):
            cls = classify_letters(sigma, weights)
            assert (cls.growing, cls.bounded, cls.mortal) == walked_classes(
                sigma, weights, ref, dec), (sigma, weights)

        for step in (1, 2, 3):
            assert stabilizing_exponent(orbit, step) == \
                walked_stable_exponent(ref, step), (sigma, step)
            cap = rng.randint(1, 12)
            want = walked_stable_exponent(ref, step, cap)
            if want is None:
                with pytest.raises(ResourceLimitError, match=f"up to {cap}"):
                    stabilizing_exponent(orbit, step, cap)
            else:
                assert stabilizing_exponent(orbit, step, cap) == want


def test_satisfies_p2():
    orbit = letterset_orbit(m({"a": "ab", "b": "c", "c": "b"}))
    assert not satisfies_p2_at(orbit, 1)
    assert satisfies_p2_at(orbit, 2)
    assert stabilizing_exponent(orbit) == 2
    # letters(sigma(b)) = {a} but letters(sigma^2(b)) = {a,b}, so e=1 fails
    fib = letterset_orbit(m({"a": "ab", "b": "a"}))
    assert stabilizing_exponent(fib) == 2


def test_p2_needs_escalation_past_alphabet_size():
    # p = 1 here, yet letters(sigma^3(a)) = {a,b} != letters(sigma^6(a)):
    # the alphabet-size candidate fails and must be scaled.
    sigma = m({"a": "b", "b": "c", "c": "ab"})
    orbit = letterset_orbit(sigma)
    assert not satisfies_p2_at(orbit, 3)
    e = stabilizing_exponent(orbit, step=3)
    assert e % 3 == 0 and satisfies_p2_at(orbit, e)
    assert e == 6


def test_stabilizing_exponent_steps_and_cap():
    # the swap stabilizes only at even powers
    orbit = letterset_orbit(m({"a": "b", "b": "a"}))
    assert stabilizing_exponent(orbit) == 2
    assert stabilizing_exponent(orbit, step=3) == 6
    with pytest.raises(ResourceLimitError, match="up to 5"):
        stabilizing_exponent(orbit, step=3, cap=5)


def test_facts_match_a_fresh_analysis_random():
    rng = seeded(47)
    for _ in range(120):
        letters = "abcde"[: rng.randint(1, 5)]
        sigma = random_endomorphism(rng, letters)
        facts = sigma.facts
        dec = component_decomposition(Morphism(sigma.images))
        orbit = letterset_orbit(Morphism(sigma.images))
        assert facts.decomposition == dec and facts.orbit == orbit, sigma
        assert facts.p2 == satisfies_p2_at(orbit, 1)
        assert facts.stable_exponent() == stabilizing_exponent(orbit, dec.p)
        cap = rng.randint(1, 6)
        try:
            want = stabilizing_exponent(orbit, dec.p, cap)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                facts.stable_exponent(cap)
        else:
            assert facts.stable_exponent(cap) == want
        assert sigma.facts is facts
        assert facts.decomposition is facts.decomposition
        assert facts.orbit is facts.orbit
        assert power(sigma, 1) is sigma
        assert sigma.restrict(sigma.domain) is sigma
        # no reference cycle keeps an analysed morphism alive
        ref = weakref.ref(sigma)
        del sigma
        assert ref() is None


def test_mortal_letters():
    sigma = m({"a": "ab", "b": "c", "c": "", "d": "d"})
    assert classify_letters(sigma).mortal == {"b", "c"}
    assert classify_letters(m({"a": "aa"})).mortal == frozenset()


def test_classify_letters_frozen_cases():
    cls = classify_letters(m({"a": "ab", "b": "a"}))
    assert cls.growing == {"a", "b"} and cls.mortal == frozenset()

    cls = classify_letters(m({"a": "ab", "b": "b"}))
    assert cls.growing == {"a"} and cls.bounded == {"b"}

    # the self-copy of a only ever emits a mortal letter, so a stays bounded
    cls = classify_letters(m({"a": "ab", "b": ""}))
    assert cls.growing == frozenset()
    assert cls.bounded == {"a", "b"} and cls.mortal == {"b"}

    cls = classify_letters(m({"a": "aca", "c": "c"}))
    assert cls.growing == {"a"} and cls.bounded == {"c"}

    cls = classify_letters(m({"s": "sab", "a": "aa", "b": "bb"}))
    assert cls.growing == {"s", "a", "b"}


def test_classify_letters_matches_simulation_random():
    rng = seeded(41)
    for _ in range(150):
        letters = "abcd"[: rng.randint(1, 4)]
        sigma = random_endomorphism(rng, letters)
        want = naive_growth(sigma)
        got = classify_letters(sigma)
        for a in letters:
            assert (a in got.growing) == (want[a] == "growing"), (sigma, a)


def test_classify_letters_internal_consistency_random():
    rng = seeded(43)
    for _ in range(100):
        letters = "abcde"[: rng.randint(1, 5)]
        sigma = random_endomorphism(rng, letters)
        cls = classify_letters(sigma)
        assert cls.growing | cls.bounded == set(letters)
        assert not (cls.growing & cls.bounded)
        assert cls.mortal <= cls.bounded
