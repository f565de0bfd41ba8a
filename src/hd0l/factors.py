"""Factor (subword) machinery for fixed points of non-erasing substitutions,
plus the period certification check used by every positive verdict.

That check rests on one criterion: for a primitive word v, a sequence y is
ultimately periodic with a period conjugate to v iff every recurrent
|v|-window of y is a rotation of v.  If: past the recurrence index every
window is recurrent, and two consecutive windows y[i:i+|v|] and
y[i+1:i+1+|v|] that are both rotations of v hold the same letter counts,
so y[i] == y[i+|v|] there.  Only if: the recurrent windows are the windows
of the periodic tail.

Words are interned into one-char-per-letter Python strings so window slicing
and image application run at C speed; public results decode back to tuples.
One encoding rule holds throughout: the i-th letter of tau (in `letters`
order) is chr(i), and a coding numbers its distinct output letters j = 0,
1, ... in that order and writes the j-th as chr(j).  Below 128 letters
both a word and its coded image are then ASCII strings, which CPython
stores one byte per letter and maps with str.translate on its ASCII fast
path: a coding runs as a byte table lookup, and an image word is built one
byte per letter, about twice as fast as with codes past the ASCII range.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, count

from .errors import (
    BoundedImageError,
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
)
from .matrices import stabilizing_exponent
from .words import (DEFAULT_COMPOSE_CAP, Morphism, as_word, canonicalize_up,
                    is_prolongable, primitive_root)

DEFAULT_MAX_FACTORS = 200_000
DEFAULT_MAX_WORD = 2_000_000
POWER_BUDGET = 1024
POWER_THRESHOLD = 4 * POWER_BUDGET


class FactorEngine:
    """Interned view of a non-erasing substitution."""

    def __init__(self, tau):
        if not tau.is_endomorphism:
            raise PreconditionError("FactorEngine: not an endomorphism")
        if not tau.is_non_erasing:
            raise PreconditionError("FactorEngine: erasing substitution")
        self.tau = tau
        self._enc = {a: chr(i) for i, a in enumerate(tau.letters)}
        self._dec = {c: a for a, c in self._enc.items()}
        self.table = {self._enc[a]: self.encode(tau.image(a))
                      for a in tau.letters}
        self._by_ord = {ord(c): img for c, img in self.table.items()}
        self._tau = (self._by_ord, {c: len(img) for c, img in self.table.items()},
                     tau.max_image_len())

    def encode(self, word):
        return "".join(map(self._enc.__getitem__, word))

    def decode(self, s):
        return tuple(map(self._dec.__getitem__, s))

    def apply(self, s):
        return s.translate(self._by_ord)

    def expand_until(self, word, n, max_word=DEFAULT_MAX_WORD):
        """The first n letters of the first iterate tau^k(word) with at least
        n letters; unless max_word is None, n may not pass it.  Whole
        iterates are mapped, under a step cap as a bounded word can cycle,
        until one, s, is a prefix of its image s + c; from then on the
        iterates grow by the chunks c, tau(c), tau^2(c), ..., as in
        words.fixed_point_chunks.  With no max_word and POWER_THRESHOLD
        letters to go, the chunks are those of T = tau^K: s is a prefix of
        T(s) = s C, and the fixed point is s C T(C) T^2(C) ...  Each word is
        mapped by _image_reaching the letters still missing, so the word
        held passes n by at most 3n letters, or by less than one image when
        images are longer, and the words held stay within about 5n letters."""
        if max_word is not None and n > max_word:
            raise ResourceLimitError("expand_until: word cap exceeded")
        s = self.encode(word)
        for _ in range(10_000):
            if len(s) >= n:
                return s[:n]
            nxt = _image_reaching(s, n, self._tau)
            if nxt == s:
                raise BoundedImageError("expand_until: word is a finite fixed word")
            if nxt.startswith(s):
                break
            s = nxt
        else:
            raise ResourceLimitError("expand_until: step cap exceeded")
        table = self._tau
        if max_word is None and n - len(nxt) >= POWER_THRESHOLD:
            s, table = nxt, self._power
            nxt = _image_reaching(s, n, table)
        chunk, s = nxt[len(s):], nxt
        while len(s) < n:
            chunk = _image_reaching(chunk, n - len(s), table)
            s += chunk
        return s[:n]

    @cached_property
    def _power(self):
        """T in the form of _tau: tau squared while the square, sized first,
        changes a length within POWER_BUDGET."""
        table, lengths, _ = self._tau
        while True:
            square = {c: sum(map(lengths.__getitem__, table[ord(c)]))
                      for c in lengths}
            if square == lengths or max(square.values()) > POWER_BUDGET:
                return table, lengths, max(lengths.values())
            table = {i: img.translate(table) for i, img in table.items()}
            lengths = square

    def factors(self, seed_word, n, max_factors=DEFAULT_MAX_FACTORS):
        """All length-n factors of the limit language generated from seed_word:
        the closure of the n-windows of an expanded seed under taking n-windows
        of images. Sound and complete for the fixed point when seed_word is a
        prefix, and for the minimal subshift when tau is primitive."""
        if n < 1:
            raise PreconditionError("factors: n must be positive")
        base = self.expand_until(seed_word, n)
        found = set(_windows(base, n))
        queue = list(found)
        while queue:
            w = queue.pop()
            img = self.apply(w)
            for win in _windows(img, n):
                if win not in found:
                    found.add(win)
                    if len(found) > max_factors:
                        raise ResourceLimitError("factors: factor cap exceeded")
                    queue.append(win)
        return frozenset(found)

    def coding_table(self, kappa):
        """(table, letter_of): the str.translate table taking each interned
        letter to the code chr(j) of its kappa-image, j numbering the
        distinct images in letter order (the module's encoding rule), so
        coded words slice and compare at C speed; and the kappa-image letter
        of each code.  kappa must have single-letter images."""
        table, codes = {}, {}
        for a in self.tau.letters:
            img = kappa.image(a)
            if len(img) != 1:
                raise PreconditionError("coding table: kappa not a coding")
            table[ord(self._enc[a])] = codes.setdefault(img[0], chr(len(codes)))
        return table, {c: x for x, c in codes.items()}

    def coded_prefix(self, word, n, kappa):
        """kappa of the first n letters of the fixed point at word, expanded
        with no word cap: one expand_until, one str.translate through the
        coding.  That string of letters is the result when every letter is
        one character; otherwise one decode map turns the codes to a word."""
        s = self.expand_until(word, n, max_word=None)
        table, letter_of = self.coding_table(kappa)
        if all(len(x) == 1 for x in letter_of.values()):
            return s.translate({i: letter_of[c] for i, c in table.items()})
        return tuple(map(letter_of.__getitem__, s.translate(table)))

    def coded_window_floor(self, kappa, seed_word, n, sample_len,
                           max_word=DEFAULT_MAX_WORD):
        """Number of distinct kappa-coded n-windows in an expanded sample of
        the limit word: a sound lower bound on the coded factor count, since
        the sample can only miss factors (hash collisions only merge windows,
        never split them).  The decision procedures do not call it; it stays,
        with this signature, because the benchmark's traced run wraps it by
        name."""
        if n < 1:
            raise PreconditionError("coded_window_floor: n must be positive")
        s = self.expand_until(seed_word, max(n, sample_len), max_word)
        coded = s.translate(self.coding_table(kappa)[0])
        return len({hash(coded[i:i + n]) for i in range(len(coded) - n + 1)})


def _image_reaching(s, need, table):
    """The image of s[:need] under table = (translate table, image length
    of each letter, longest image length), or, when that image would pass
    4 * need letters, of the least prefix of s whose image has need letters
    (it lies in s[:need], as no letter is erased).  The image length is
    counted only when the longest image could take it past 4 * need, and
    the prefix is found by summing letter lengths up to it."""
    translate, lengths, longest = table
    s = s[:need]
    if (len(s) * longest > 4 * need
            and sum(s.count(c) * k for c, k in lengths.items()) > 4 * need):
        ends = accumulate(map(lengths.__getitem__, s))
        s = s[:next(compress(count(1), map(need.__le__, ends)))]
    return s.translate(translate)


def _windows(s, n):
    return {s[i:i + n] for i in range(len(s) - n + 1)}


@dataclass(frozen=True)
class BlockSubstitution:
    """Substitution on length-n factors whose fixed point at seed_name is the
    n-block recoding of the original fixed point (block at position i covers
    positions i..i+n-1). The image of a block is the run of windows of its
    image word covering the image of the block's first letter."""

    morphism: Morphism
    seed_name: str
    factor_of: dict


def _block_substitution(engine, seed_word, n, max_factors):
    base = engine.expand_until(seed_word, n)
    facs = engine.factors(seed_word, n, max_factors)
    # one block per letter of a factor's first-letter image, sized as compose does
    if sum(len(engine.table[w[0]]) for w in facs) > DEFAULT_COMPOSE_CAP:
        raise ResourceLimitError(
            f"block substitution: image table exceeds {DEFAULT_COMPOSE_CAP} letters")
    names = {w: "[" + "|".join(engine.decode(w)) + "]" for w in sorted(facs)}
    images = {}
    for w in facs:
        img = engine.apply(w)
        blocks = tuple(names.get(img[j:j + n])
                       for j in range(len(engine.table[w[0]])))
        if None in blocks:
            raise InternalCheckError("block image leaves the factor set")
        images[names[w]] = blocks
    return BlockSubstitution(
        morphism=Morphism(images),
        seed_name=names[base],
        factor_of={v: k for k, v in names.items()})


def _recurrent_interned(engine, seed_word, n, max_factors, max_word):
    """Interned (factors, recurrent, index) for the fixed point at seed_word.

    Works on the n-block substitution raised to its minimal letter-set
    stabilization power r: the block fixed point is c u s(u) s^2(u) ... with
    s the raised substitution, so the letters of s(u) are the recurrent
    blocks and everything past c u is one. Letter sets of s(u) are ORs of
    sigma_n's letter-graph masks; only s(c) = c u is ever materialized."""
    bs = _block_substitution(engine, seed_word, n, max_factors)
    sigma_n = bs.morphism
    if not is_prolongable(sigma_n, bs.seed_name):
        raise PreconditionError("recurrent factors: block seed not prolongable")
    orbit = sigma_n.facts.orbit
    r = stabilizing_exponent(orbit)
    word = (bs.seed_name,)
    for _ in range(r):
        word = sigma_n(word)
        if len(word) > max_word:
            raise ResourceLimitError("recurrent factors: block word cap exceeded")
    if word[0] != bs.seed_name:
        raise InternalCheckError("block power lost prolongability")
    image, rec = orbit.masks_at(r), 0
    for b in set(word[1:]):
        rec |= image[orbit.index[b]]
    all_factors = frozenset(bs.factor_of[v] for v in sigma_n.letters)
    recurrent = frozenset(bs.factor_of[v] for v in orbit.letters_in(rec))
    return all_factors, recurrent, len(word)


def lang_eq_periodic(u, v):
    """Whether u^omega and v^omega have the same factors: conjugate roots."""
    ru, rv = primitive_root(as_word(u)), primitive_root(as_word(v))
    if not (ru and rv):
        raise PreconditionError("lang_eq_periodic: empty word")
    return len(ru) == len(rv) and any(
        ru[i:] + ru[:i] == rv for i in range(len(ru)))


def period_fits(windows, v):
    """Whether every |v|-window is a rotation of v: read over the windows of
    a sequence from some position on, it says the sequence has period |v|
    there, with a conjugate of v (see the module docstring)."""
    rotations = {v[i:] + v[:i] for i in range(len(v))}
    return all(w in rotations for w in windows)


def finalcheck(rep, v, max_factors=DEFAULT_MAX_FACTORS):
    """Decide whether y = kappa(core fixed point) is ultimately periodic with
    a period conjugate to v; return the canonical form, or None.

    The module's criterion for the primitive root v, q = |v|: as kappa is a
    coding, the recurrent q-windows of y are the kappa-images of the
    recurrent q-blocks of the fixed point, and the onset is one past the
    last i below their index with y[i] != y[i+q]."""
    v = primitive_root(as_word(v))
    q = len(v)
    engine = rep.engine
    _, recurrent, index = _recurrent_interned(
        engine, (rep.seed,), q, max_factors, DEFAULT_MAX_WORD)
    if not period_fits((rep.kappa(engine.decode(b)) for b in recurrent), v):
        return None
    y = rep.expand_image(index + q)
    c = next((i + 1 for i in reversed(range(index)) if y[i] != y[i + q]), 0)
    return canonicalize_up(y[:c], y[c:c + q])
