"""Finite words, morphisms, and ultimately periodic word forms.

Words are tuples of letter strings. Letters are arbitrary non-empty strings so
derived alphabets (pairs, blocks, position slots) can carry readable names.
"""

from dataclasses import dataclass, field
from itertools import chain, islice

from .errors import (
    BoundedImageError,
    LetterDomainError,
    PreconditionError,
    ResourceLimitError,
    SystemValidationError,
)
from .matrices import MorphismFacts


def as_word(x):
    """Coerce a str / list / tuple into a word (tuple of 1-char strings for str input)."""
    return x if isinstance(x, tuple) else tuple(x)


def word_str(w):
    """Human-readable rendering; joins single-char letters, brackets multi-char ones."""
    if not w:
        return "e"
    s = w if isinstance(w, str) else "".join(w)
    # letters are non-empty, so only one-char letters join to len(w) chars
    return s if len(s) == len(w) else ".".join(w)


class Morphism:
    """A morphism between free monoids, stored as a letter -> image-word table."""

    __slots__ = ("images", "domain", "codomain", "letters", "key", "_facts",
                 "__weakref__")

    def __init__(self, images, codomain=None):
        table = {}
        for a, img in images.items():
            if not isinstance(a, str) or not a:
                raise SystemValidationError([f"invalid letter {a!r}"])
            table[a] = as_word(img)
        self.images = table
        self.domain = frozenset(table)
        self.letters = tuple(sorted(table))
        # the value of the morphism, which equality and hashing read
        self.key = tuple((a, table[a]) for a in self.letters)
        self._facts = None
        used = frozenset(chain.from_iterable(table.values()))
        if codomain is None:
            self.codomain = used
        else:
            self.codomain = frozenset(codomain)
            extra = used - self.codomain
            if extra:
                raise LetterDomainError(
                    f"images use letters outside codomain: {sorted(extra)}")

    @property
    def facts(self):
        """The MorphismFacts of this instance, made on first read."""
        if self._facts is None:
            self._facts = MorphismFacts(self)
        return self._facts

    def __call__(self, word):
        out = []
        for a in word:
            img = self.images.get(a)
            if img is None:
                raise LetterDomainError(f"letter {a!r} not in domain")
            out.extend(img)
        return tuple(out)

    def image(self, a):
        img = self.images.get(a)
        if img is None:
            raise LetterDomainError(f"letter {a!r} not in domain")
        return img

    @property
    def is_endomorphism(self):
        return self.codomain <= self.domain

    @property
    def is_coding(self):
        return all(len(img) == 1 for img in self.images.values())

    @property
    def is_non_erasing(self):
        return all(img for img in self.images.values())

    def erasing_letters(self):
        return frozenset(a for a, img in self.images.items() if not img)

    def max_image_len(self):
        return max(len(img) for img in self.images.values())

    def restrict(self, letters):
        """Restriction to a sub-domain; images must not leave the kept codomain."""
        keep = frozenset(letters)
        missing = keep - self.domain
        if missing:
            raise LetterDomainError(f"cannot restrict to unknown letters {sorted(missing)}")
        if keep == self.domain:
            return self  # the same instance keeps its facts
        return Morphism({a: self.images[a] for a in keep})

    def pretty(self):
        return "{" + ", ".join(
            f"{a}->{word_str(self.images[a])}" for a in self.letters) + "}"

    def __eq__(self, other):
        return isinstance(other, Morphism) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Morphism({self.pretty()})"


def identity(letters):
    return Morphism({a: (a,) for a in letters})


# Caps guard against runaway image growth when composing accumulated powers.
DEFAULT_COMPOSE_CAP = 4_000_000


def compose(outer, inner, cap=DEFAULT_COMPOSE_CAP):
    """outer o inner. Raises ResourceLimitError when total image size passes cap,
    sizing the result from image lengths before materializing anything."""
    if not inner.codomain <= outer.domain:
        raise PreconditionError(
            f"compose: inner codomain {sorted(inner.codomain - outer.domain)} "
            "not covered by outer domain")
    total = 0
    for a in inner.letters:
        total += sum(len(outer.images[c]) for c in inner.images[a])
        if total > cap:
            raise ResourceLimitError(f"compose: image table exceeds {cap} letters")
    return Morphism({a: outer(inner.images[a]) for a in inner.letters})


def power(sigma, n, cap=DEFAULT_COMPOSE_CAP):
    """sigma^n by binary exponentiation. sigma must be an endomorphism, n >= 0."""
    if not sigma.is_endomorphism:
        raise PreconditionError("power: not an endomorphism")
    if n < 0:
        raise PreconditionError("power: negative exponent")
    result, base = None, sigma  # so sigma^1 is sigma, facts included
    while n:
        if n & 1:
            result = base if result is None else compose(base, result, cap=cap)
        n >>= 1
        if n:
            base = compose(base, base, cap=cap)
    return identity(sorted(sigma.domain)) if result is None else result


def is_prolongable(sigma, a):
    """sigma(a) = a u with u non-empty."""
    img = sigma.image(a)
    return len(img) >= 2 and img[0] == a


def fixed_point_chunks(sigma, a, n=None):
    """The fixed point of sigma at the prolongable letter a, chunk by chunk.

    With sigma(a) = a u, sigma^(k+1)(a) = sigma^k(a) sigma^k(u), so the fixed
    point reads a, u, sigma(u), sigma^2(u), ...; every chunk is the image of
    the one before it.  An empty chunk means the fixed point is finite, which
    raises BoundedImageError.  With n the chunks stop once they hold n
    letters, and each image is built only until they do: the last chunk is
    a prefix of the image, exact when sigma erases.
    """
    if not sigma.is_endomorphism:
        raise PreconditionError("fixed_point_chunks: not an endomorphism")
    if not is_prolongable(sigma, a):
        raise PreconditionError(f"fixed_point_chunks: sigma not prolongable at {a!r}")
    yield (a,)
    chunk, length = sigma.image(a)[1:], 1
    while chunk:
        yield chunk
        length += len(chunk)
        if n is not None and length >= n:
            return
        images = chain.from_iterable(map(sigma.images.__getitem__, chunk))
        chunk = tuple(islice(images, None if n is None else n - length))
    raise BoundedImageError(f"fixed point at {a!r} is finite ({length} letters)")


def expand_fixed_point(sigma, a, n):
    """First n letters of the fixed point of sigma at prolongable letter a;
    a finite fixed point shorter than n raises BoundedImageError."""
    return tuple(islice(chain.from_iterable(fixed_point_chunks(sigma, a, n)), n))


def eventual_cycle(start, step):
    """(path, j): the distinct values start, step(start), ... in order up to
    the first repeat, which is path[j]; from index j on the sequence cycles
    through path[j:]."""
    index = {}
    path = []
    while start not in index:
        index[start] = len(path)
        path.append(start)
        start = step(start)
    return path, index[start]


def minimal_period(word):
    """Smallest p with word[i] == word[i + p] wherever both sides exist,
    via the KMP failure function (p = length minus longest border)."""
    m = len(word)
    if m == 0:
        return 0
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k and word[i] != word[k]:
            k = fail[k - 1]
        if word[i] == word[k]:
            k += 1
        fail[i] = k
    return m - fail[-1]


def primitive_root(word):
    """Shortest r with word = r^k."""
    r = minimal_period(word)
    return word[:r] if r and len(word) % r == 0 else word


@dataclass(frozen=True)
class UltimatelyPeriodicWord:
    """u v^omega with v non-empty. Use canonicalize_up for the normal form."""

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise PreconditionError("period must be non-empty")

    def prefix(self, n):
        u, v = self.preperiod, self.period
        return (u + v * (max(0, n - len(u)) // len(v) + 1))[:n]

    def __str__(self):
        return f"{word_str(self.preperiod)}({word_str(self.period)})^w"


def canonicalize_up(u, v):
    """Normal form of u v^omega: primitive period, then shortest preperiod.

    Shrinking u rotates v (u ending in the last letter of v can absorb it), so
    equal words get equal forms.
    """
    u, v = as_word(u), as_word(v)
    if not v:
        raise PreconditionError("canonicalize_up: empty period")
    v = primitive_root(v)
    u = list(u)
    while u and u[-1] == v[-1]:
        u.pop()
        v = v[-1:] + v[:-1]
    return UltimatelyPeriodicWord(tuple(u), v)


def up_equal(x, y):
    a = canonicalize_up(x.preperiod, x.period)
    b = canonicalize_up(y.preperiod, y.period)
    return a == b


@dataclass(frozen=True)
class HD0LSystem:
    """(A, B, sigma, phi, w): endomorphism sigma on A, morphism phi into B, seed w."""

    alphabet_a: tuple
    alphabet_b: tuple
    sigma: Morphism
    phi: Morphism
    seed: tuple = field(default=())

    def __post_init__(self):
        problems = validate_system(
            self.alphabet_a, self.alphabet_b, self.sigma, self.phi, self.seed)
        if problems:
            raise SystemValidationError(problems)

    def term(self, k, n=None):
        """phi(sigma^k(w)), the k-th word of the image sequence, or its first
        n letters."""
        return next(islice(self.prefixes(n), k, None))

    def prefixes(self, n=None, budget=None):
        """phi(sigma^k(w)) for k = 0, 1, 2, ..., or their first n letters.

        For a prefix every iterate is cut at m letters, which keeps a prefix
        of the true iterate; when a cut lost letters that phi still needed,
        m doubles and the walk restarts from the seed, so erasing sigma and
        phi stay exact.  With a budget the walk ends once the images of
        sigma it built pass that many letters in all."""
        m, spent, done = n, 0, 0
        while True:
            w, cut, k = self.seed, False, 0
            while True:
                y = self.phi(w)
                if cut and len(y) < n:
                    break
                if k == done:
                    yield y[:n]
                    done += 1
                w, k = self.sigma(w), k + 1
                spent += len(w)
                if budget is not None and spent > budget:
                    return
                if m is not None and len(w) > m:
                    w, cut = w[:m], True
            m *= 2


def validate_system(alphabet_a, alphabet_b, sigma, phi, seed):
    """Collect every structural violation; empty list means valid."""
    problems = []
    set_a, set_b = set(alphabet_a), set(alphabet_b)
    if len(set_a) != len(alphabet_a):
        problems.append("alphabet A has duplicate letters")
    if len(set_b) != len(alphabet_b):
        problems.append("alphabet B has duplicate letters")
    if not alphabet_a:
        problems.append("alphabet A is empty")
    if not alphabet_b:
        problems.append("alphabet B is empty")
    if sigma.domain != set_a:
        problems.append(
            f"sigma domain {sorted(sigma.domain)} does not match A {sorted(set_a)}")
    extra = sigma.codomain - set_a
    if extra:
        problems.append(f"sigma images leave A: {sorted(extra)}")
    if phi.domain != set_a:
        problems.append(
            f"phi domain {sorted(phi.domain)} does not match A {sorted(set_a)}")
    extra = phi.codomain - set_b
    if extra:
        problems.append(f"phi images leave B: {sorted(extra)}")
    if not seed:
        problems.append("seed word is empty")
    bad = [a for a in seed if a not in set_a]
    if bad:
        problems.append(f"seed uses letters outside A: {sorted(set(bad))}")
    return problems
