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
"""

from dataclasses import dataclass

from .errors import (
    BoundedImageError,
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
)
from .matrices import letterset_orbit, stabilizing_exponent
from .words import Morphism, as_word, canonicalize_up, is_prolongable, primitive_root

DEFAULT_MAX_FACTORS = 200_000
DEFAULT_MAX_WORD = 2_000_000


class FactorEngine:
    """Interned view of a non-erasing substitution."""

    def __init__(self, tau):
        if not tau.is_endomorphism:
            raise PreconditionError("FactorEngine: not an endomorphism")
        if not tau.is_non_erasing:
            raise PreconditionError("FactorEngine: erasing substitution")
        self.tau = tau
        self._enc = {a: chr(0x100 + i) for i, a in enumerate(tau.letters)}
        self._dec = {c: a for a, c in self._enc.items()}
        self.table = {
            self._enc[a]: "".join(self._enc[c] for c in tau.image(a))
            for a in tau.letters}
        self._by_ord = {ord(c): img for c, img in self.table.items()}
        self._longest = tau.max_image_len()

    def encode(self, word):
        return "".join(self._enc[a] for a in word)

    def decode(self, s):
        return tuple(self._dec[c] for c in s)

    def apply(self, s):
        return s.translate(self._by_ord)

    def expand_until(self, word, n, max_word=DEFAULT_MAX_WORD):
        """The first n letters of the first iterate tau^k(word) with at least
        n letters.  Whole iterates are mapped, under a step cap as a bounded
        word can cycle, until one, s, is a prefix of its image s + c; from
        then on the iterates grow by the chunks c, tau(c), tau^2(c), ..., as
        in words.fixed_point_chunks, and as tau does not erase, the first
        n - len(s) letters of a chunk are enough.  The word held may not
        pass max_word, which is checked from the image lengths before an
        image is built."""
        s = self.encode(word)
        for _ in range(10_000):
            if len(s) >= n:
                return s[:n]
            nxt = self._apply_within(s, 0, max_word)
            if nxt == s:
                raise BoundedImageError("expand_until: word is a finite fixed word")
            if nxt.startswith(s):
                break
            s = nxt
        else:
            raise ResourceLimitError("expand_until: step cap exceeded")
        chunk, s = nxt[len(s):], nxt
        while len(s) < n:
            chunk = self._apply_within(chunk[:n - len(s)], len(s), max_word)
            s += chunk
        return s[:n]

    def _apply_within(self, s, held, max_word):
        # the image lengths are summed only when the longest one could
        # take held + |image| past max_word
        if (held + self._longest * len(s) > max_word
                and held + sum(map(len, map(self.table.__getitem__, s))) > max_word):
            raise ResourceLimitError("expand_until: word cap exceeded")
        return self.apply(s)

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
        """str.translate table taking each interned letter to one char that
        stands for its kappa-image, so coded words slice and compare at C
        speed.  kappa must have single-letter images."""
        table = {}
        codes = {}
        for a in self.tau.letters:
            img = kappa.image(a)
            if len(img) != 1:
                raise PreconditionError("coding table: kappa not a coding")
            table[ord(self._enc[a])] = codes.setdefault(
                img[0], 0x8000 + len(codes))
        return table

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
        coded = s.translate(self.coding_table(kappa))
        return len({hash(coded[i:i + n]) for i in range(len(coded) - n + 1)})


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
    blocks and everything past c u is one. Letter sets of s(u) come from the
    orbit table; only s(c) = c u is ever materialized."""
    bs = _block_substitution(engine, seed_word, n, max_factors)
    sigma_n = bs.morphism
    if not is_prolongable(sigma_n, bs.seed_name):
        raise PreconditionError("recurrent factors: block seed not prolongable")
    orbit = letterset_orbit(sigma_n)
    r = stabilizing_exponent(orbit)
    word = (bs.seed_name,)
    for _ in range(r):
        word = sigma_n(word)
        if len(word) > max_word:
            raise ResourceLimitError("recurrent factors: block word cap exceeded")
    if word[0] != bs.seed_name:
        raise InternalCheckError("block power lost prolongability")
    rec_names = set().union(*(orbit.letters_of(r, b) for b in set(word[1:])))
    all_factors = frozenset(bs.factor_of[v] for v in sigma_n.letters)
    recurrent = frozenset(bs.factor_of[v] for v in rec_names)
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
    engine = FactorEngine(rep.tau)
    _, recurrent, index = _recurrent_interned(
        engine, (rep.seed,), q, max_factors, DEFAULT_MAX_WORD)
    if not period_fits((rep.kappa(engine.decode(b)) for b in recurrent), v):
        return None
    y = rep.expand_image(index + q)
    c = next((i + 1 for i in reversed(range(index)) if y[i] != y[i + q]), 0)
    return canonicalize_up(y[:c], y[c:c + q])
