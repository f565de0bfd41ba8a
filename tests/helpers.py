"""Test-only helpers: public wrappers over the factor machinery and
independent reference computations the suite checks the program against."""

from dataclasses import dataclass

from hd0l.errors import PreconditionError
from hd0l.factors import (
    DEFAULT_MAX_FACTORS,
    DEFAULT_MAX_WORD,
    FactorEngine,
    _block_substitution,
    _recurrent_interned,
)
from hd0l.matrices import NULL, PRIMITIVE, UNIT
from hd0l.periodicity import Case3Witness
from hd0l.words import Morphism, as_word


@dataclass(frozen=True)
class IncidenceMatrix:
    """rows[i][j] = number of occurrences of letters[i] in the image of
    letters[j]; the dense reference the letter-graph routines are checked
    against."""

    letters: tuple
    rows: tuple

    def entry(self, a, b):
        return self.rows[self.letters.index(a)][self.letters.index(b)]

    def matmul(self, other):
        if self.letters != other.letters:
            raise PreconditionError("matmul: letter orders differ")
        cols = tuple(zip(*other.rows))
        return IncidenceMatrix(self.letters, tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
            for row in self.rows))


def incidence_matrix(sigma, letters=None):
    """Incidence matrix of an endomorphism over a fixed letter order."""
    letters = tuple(sigma.letters if letters is None else letters)
    return IncidenceMatrix(letters, tuple(
        tuple(sigma.image(b).count(a) for b in letters) for a in letters))


def morphism_from_rows(rows):
    """The morphism over a, b, c, ... whose incidence matrix has the support
    of rows: the image of letter j lists every letter i with rows[i][j]."""
    letters = [chr(ord("a") + i) for i in range(len(rows))]
    return Morphism({b: tuple(a for i, a in enumerate(letters) if rows[i][j])
                     for j, b in enumerate(letters)})


def state_at(orbit, k):
    """letters(sigma^k(b)) for every letter b of a LetterSetOrbit, decoded
    from its masks and aligned with its letters."""
    return tuple(map(orbit.letters_in, orbit.masks_at(k)))


def letters_of(orbit, k, a):
    """letters(sigma^k(a)) from a LetterSetOrbit."""
    return state_at(orbit, k)[orbit.letters.index(a)]


@dataclass(frozen=True)
class WalkedOrbit:
    """The letter-set orbit listed state by state: states[k][i] is
    letters(sigma^k(letters[i])), up to the first repeated state.  The
    step-by-step reference the letter-graph masks are checked against."""

    letters: tuple
    states: tuple
    preperiod: int
    period: int

    def state_at(self, k):
        if k < len(self.states):
            return self.states[k]
        s, t = self.preperiod, self.period
        return self.states[s + (k - s) % t]


def walked_orbit(sigma):
    """letters(sigma^(k+1)(b)) is the union of letters(sigma^k(c)) over the
    letters c of sigma(b); walk k = 0, 1, ... until a state repeats."""
    letters = sigma.letters
    image_letters = [set(sigma.image(a)) for a in letters]
    state = tuple(frozenset((a,)) for a in letters)
    states, seen = [state], {state: 0}
    while True:
        prev = dict(zip(letters, state)).__getitem__
        state = tuple(frozenset().union(*map(prev, img))
                      for img in image_letters)
        if state in seen:
            s = seen[state]
            return WalkedOrbit(letters, tuple(states), s, len(states) - s)
        seen[state] = len(states)
        states.append(state)


def walked_stable_exponent(orbit, step=1, cap=None):
    """The least multiple e of step with state_at(e) == state_at(2e),
    searched one multiple at a time; None when it passes cap."""
    e = step
    while orbit.state_at(e) != orbit.state_at(2 * e):
        e += step
    return None if cap is not None and e > cap else e


def walked_blocks(sigma, orbit):
    """(p, blocks) from the walk: p is the orbit period and the blocks are
    the sets of mutually reachable letters in the graph of sigma^p, as
    (letters, kind, principal).  A block {b} is null when b is not in
    letters(sigma^p(b)), unit when sigma^p(b) holds b exactly once (by
    occurrence counts capped at 2), and primitive otherwise."""
    p, letters = orbit.period, orbit.letters
    step = dict(zip(letters, orbit.state_at(p)))
    reach = {}
    for b in letters:
        seen, todo = {b}, [b]
        while todo:
            for c in step[todo.pop()] - seen:
                seen.add(c)
                todo.append(c)
        reach[b] = seen
    counts = {b: {b: 1} for b in letters}
    for _ in range(p):
        counts = {b: {c: min(2, sum(counts[d].get(c, 0)
                                    for d in sigma.image(b)))
                      for c in letters} for b in letters}
    blocks = set()
    for b in letters:
        block = frozenset(c for c in reach[b] if b in reach[c])
        if len(block) > 1 or counts[b][b] == 2:
            kind = PRIMITIVE
        else:
            kind = UNIT if counts[b][b] else NULL
        blocks.add((block, kind, all(step[c] <= block for c in block)))
    return p, blocks


def walked_classes(sigma, phi, orbit, dec):
    """(growing, bounded, mortal) by the block rules of classify_letters,
    with mortal letters read off the walk's cycle states."""
    cycle = orbit.states[orbit.preperiod:]
    mortal = frozenset(
        a for i, a in enumerate(orbit.letters)
        if not any(phi is None or phi.image(c)
                   for state in cycle for c in state[i]))
    growing = set()
    for blk in reversed(dec.blocks):
        if blk.kind == PRIMITIVE:
            growing.update(set(blk.letters) - mortal)
            continue
        b = blk.letters[0]
        image = orbit.state_at(dec.p)[orbit.letters.index(b)]
        if (not image - {b} <= mortal if blk.kind == UNIT
                else image & growing):
            growing.add(b)
    return growing, set(orbit.letters) - growing, mortal


def letter_order(dec):
    """The letters of a decomposition, block after block."""
    return tuple(a for blk in dec.blocks for a in blk.letters)


def block_index(dec):
    return {a: i for i, blk in enumerate(dec.blocks) for a in blk.letters}


def factors_of_length(sigma, a, n, max_factors=DEFAULT_MAX_FACTORS):
    """All length-n factors of the limit word generated from a (letter or word)."""
    eng = FactorEngine(sigma)
    return frozenset(
        eng.decode(w) for w in eng.factors(as_word(a), n, max_factors))


def block_substitution(sigma, a, n, max_factors=DEFAULT_MAX_FACTORS):
    return _block_substitution(FactorEngine(sigma), as_word(a), n, max_factors)


def recurrent_factors(sigma, a, n, max_factors=DEFAULT_MAX_FACTORS,
                      max_word=DEFAULT_MAX_WORD):
    """(factors, recurrent factors, index) for the length-n factors of the
    fixed point at a (letter or word); the window at every position at or
    past index is recurrent."""
    eng = FactorEngine(sigma)
    facs, rec, index = _recurrent_interned(
        eng, as_word(a), n, max_factors, max_word)
    return ({eng.decode(w) for w in facs}, {eng.decode(w) for w in rec},
            index)


def periodic_factors(v, n):
    """All length-n factors of v v v ..."""
    v = as_word(v)
    if not v:
        raise PreconditionError("periodic_factors: empty period")
    reps = v * (n // len(v) + 2)
    return frozenset(reps[i:i + n] for i in range(len(v)))


def brute_force_up_check(prefix, max_pre, max_per):
    """Smallest (|u|, |v|) in lexicographic order with |u| <= max_pre and
    1 <= |v| <= max_per such that the whole prefix agrees with u v^w, or
    None when no admissible pair exists.

    Independent of the decision procedure: it knows nothing about morphisms
    and simply searches preperiod/period pairs against an explicitly
    expanded prefix. A candidate only counts when the prefix shows three
    full periods past its preperiod, so short accidental alignments never
    qualify. Returning None additionally requires the prefix to cover
    max_pre + 3 * max_per letters; a shorter prefix cannot refute the whole
    bound rectangle and raises instead of reporting a hollow absence.
    """
    prefix = as_word(prefix)
    for pre in range(max_pre + 1):
        for per in range(1, max_per + 1):
            if pre + 3 * per > len(prefix):
                continue
            if all(prefix[i] == prefix[i - per]
                   for i in range(pre + per, len(prefix))):
                return prefix[:pre], prefix[pre:pre + per]
    if len(prefix) < max_pre + 3 * max_per:
        raise PreconditionError(
            "brute_force_up_check: prefix of length %d cannot refute "
            "bounds (%d, %d)" % (len(prefix), max_pre, max_per))
    return None


def flank_scan_every_occurrence(word, b, growing, m):
    """Reference flank scan: re-reads both sides of every occurrence of b,
    right side first, and returns the first witness found."""
    for pos, c in enumerate(word):
        if c != b:
            continue
        suffix = word[pos + 1:]
        if suffix and not any(d in growing for d in suffix):
            return Case3Witness(m, b, "right", suffix)
        prefix = word[:pos]
        if prefix and not any(d in growing for d in prefix):
            return Case3Witness(m, b, "left", prefix)
    return None
