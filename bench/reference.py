"""Reference computations and output checkers; this module never imports hd0l.

The reference is raw iteration: phi(sigma^n(w w)) computed letter by
letter over interned one-character letters with str.translate, the
sequence of lengths |phi(sigma^n(w))| from per-letter length vectors, and
windows counted in a raw prefix.  Every checker returns None when the
program's output is right and a one-line reason when it is not.
"""

import json

from workloads import APERIODIC, BOUNDED, CLASS_SPLIT, POSITIVE

# parameters of the checked properties
WINDOW_MAX = 32          # window lengths n = 1..WINDOW_MAX are counted
WINDOW_PREFIX = 4096     # in a raw prefix of this many letters
WITNESS_FACTOR = 10      # positives are compared on >= 10 (|u| + |v|) letters
MAX_RAW_LETTERS = 50_000_000
MAX_STEPS = 1_000_000


class RawSystem:
    """Raw iteration of one system, with no analysis at all."""

    def __init__(self, system):
        letters = sorted(system.sigma)
        base = 0x30 if len(letters) <= 0x4F else 0x100
        enc = {a: chr(base + i) for i, a in enumerate(letters)}
        self.sigma = {ord(enc[a]): "".join(enc[c] for c in img)
                      for a, img in system.sigma.items()}
        self.phi = {ord(enc[a]): "".join(img)
                    for a, img in system.phi.items()}
        self.seed = "".join(enc[c] for c in system.seed)
        self.non_erasing = all(self.sigma.values()) and all(self.phi.values())
        self._letters = letters
        self._images = [[letters.index(c) for c in system.sigma[a]]
                        for a in letters]
        self._phi_len = [len(system.phi[a]) for a in letters]
        self._seed_idx = [letters.index(c) for c in system.seed]

    def _length_vectors(self):
        cur = list(self._phi_len)
        while True:
            yield sum(cur[i] for i in self._seed_idx)
            cur = [sum(cur[j] for j in img) for img in self._images]

    def lengths(self, count):
        """|phi(sigma^n(w))| for n = 0 .. count - 1."""
        gen = self._length_vectors()
        return [next(gen) for _ in range(count)]

    def prefixes(self, length, start, count):
        """phi(sigma^n(w w))[:length] for n = start .. start + count - 1.

        With sigma and phi both non-erasing the first `length` letters of
        an image depend only on the first `length` letters of its argument,
        so each iterate is cut there; otherwise iterates stay whole."""
        x = self.seed + self.seed
        out = []
        for n in range(start + count):
            if n >= start:
                out.append(x.translate(self.phi)[:length])
            x = x.translate(self.sigma)
            if self.non_erasing:
                x = x[:length]
            elif len(x) > MAX_RAW_LETTERS:
                raise OverflowError("raw iterate exceeds the letter cap")
        return out

    def settled(self, length, classes):
        """The prefixes of phi(sigma^n(w w)) of `length` letters for the
        2 * classes iterates n that follow n0 = (first n with
        |phi(sigma^n(w))| >= length) + |A| + 2.  From there on the first
        copy of w alone covers the prefix, and bounded flanks and first
        letters have had |A| steps to enter their cycles."""
        span = 2 * classes
        gen = self._length_vectors()
        n = 0
        while next(gen) < length:
            n += 1
            if n == MAX_STEPS:
                raise ValueError("images never reach the requested length")
        n0 = n + len(self._letters) + 2
        for _ in range(n + 1, n0 + span):
            if next(gen) < length:
                raise ValueError("image lengths fall back below the request")
        return self.prefixes(length, n0, span)

    def limit_prefix(self, length, classes=1):
        """A prefix of the limit, shared by 2 * classes settled iterates;
        ValueError when they disagree."""
        pres = self.settled(length, classes)
        if len(set(pres)) != 1:
            raise ValueError("raw iterates do not agree on a prefix")
        return pres[0]


def distinct_windows(word, n):
    return len({word[i:i + n] for i in range(len(word) - n + 1)})


def window_profile(word, up_to=WINDOW_MAX):
    """[count of distinct n-windows of word for n = 1 .. up_to]."""
    return [distinct_windows(word, n) for n in range(1, up_to + 1)]


def up_prefix(u, v, length):
    reps = (length - len(u)) // len(v) + 1 if length > len(u) else 0
    return (u + v * reps)[:length]


# ------------------------------------------------------------------ evidence


class Evidence:
    """What raw iteration shows about one system, computed once per run."""

    def __init__(self, system):
        self.system = system
        self.raw = RawSystem(system)
        self._expand = ""
        if system.kind == APERIODIC:
            prefix = self.raw.limit_prefix(WINDOW_PREFIX, system.classes)
            self.profile = window_profile(prefix)
        elif system.kind == CLASS_SPLIT:
            self.class_prefixes = self.raw.settled(
                WITNESS_FACTOR * 4, system.classes)
        elif system.kind == BOUNDED:
            self.lengths = self.raw.lengths(3 * len(system.sigma) + 3)
        elif system.kind == POSITIVE:
            u, v = system.witness
            self.witness_prefixes = self.raw.settled(
                WITNESS_FACTOR * (len(u) + len(v)), system.classes)

    def expand_prefix(self, length):
        """The first `length` letters of the limit; one raw computation
        serves every shorter request."""
        have = self._expand
        if len(have) < length:
            self._expand = have = self.raw.limit_prefix(length)
        return have[:length]

    def property_problem(self):
        """Why raw iteration contradicts the hand-derived kind, or None."""
        kind = self.system.kind
        if kind == APERIODIC:
            bad = [n for n, c in enumerate(self.profile, 1) if c <= n]
            if bad:
                return (f"only {self.profile[bad[0] - 1]} distinct windows "
                        f"of length {bad[0]} in a raw prefix")
        elif kind == CLASS_SPLIT:
            return class_split_problem(self.class_prefixes,
                                       self.system.classes)
        elif kind == BOUNDED:
            if len(set(self.lengths)) != 1:
                return f"raw lengths change: {self.lengths[:8]}"
        return None


def class_split_problem(prefixes, classes):
    """None when each index class settles (iterates `classes` apart agree)
    and two classes settle on different prefixes."""
    for i in range(classes):
        if prefixes[i] != prefixes[i + classes]:
            return f"index class {i} does not settle under raw iteration"
    if len(set(prefixes)) < 2:
        return "every index class settles on the same prefix"
    return None


# ------------------------------------------------------------------ checkers


def parse_answer(stdout):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def check_decide(evidence, stdout, exit_code, certified=True):
    """Check one `decide --json` answer against the system's evidence;
    with `certified` the answer must also be certified."""
    system = evidence.system
    doc = parse_answer(stdout)
    if doc is None:
        return "output is not a JSON verdict"
    answer = doc.get("answer")
    want = "yes" if system.kind == POSITIVE else "no"
    if answer != want:
        return f"answer {answer!r}, expected {want!r}"
    if exit_code != (0 if want == "yes" else 3):
        return f"exit code {exit_code} does not match answer {answer!r}"
    if (certified or want == "yes") and doc.get("certified") is not True:
        return f"verdict {answer!r} not certified"
    if want == "no":
        if doc.get("diagnostic") != system.diagnostic:
            return (f"diagnostic {doc.get('diagnostic')!r}, expected "
                    f"{system.diagnostic!r}")
        return evidence.property_problem()
    return check_witness(evidence, doc.get("u"), doc.get("v"))


def check_witness(evidence, u, v):
    """(u, v) must be the hand-derived pair and must match raw iteration
    over at least WITNESS_FACTOR * (|u| + |v|) letters."""
    if not (isinstance(u, list) and isinstance(v, list) and v):
        return "witness missing"
    u, v = "".join(u), "".join(v)
    want_u, want_v = evidence.system.witness
    if (u, v) != (want_u, want_v):
        return f"witness ({u!r}, {v!r}), expected ({want_u!r}, {want_v!r})"
    pres = evidence.witness_prefixes
    target = up_prefix(u, v, len(pres[0]))
    for i, p in enumerate(pres):
        if p != target:
            return f"raw iterate {i} past settling reads {p[:20]!r}..."
    return None


def check_expand(evidence, stdout, exit_code, length):
    if exit_code != 0:
        return f"exit code {exit_code}"
    got = stdout.rstrip("\n")
    want = evidence.expand_prefix(length)
    if got != want:
        if len(got) != len(want):
            return f"prefix has {len(got)} letters, expected {len(want)}"
        i = next(i for i in range(len(want)) if got[i] != want[i])
        return f"prefix differs from raw iteration at letter {i}"
    return None


def check_pair(default_stdout, wide_stdout):
    """A negative certified at default Limits stays certified, with the
    same verdict, at the wider bound."""
    base, wide = parse_answer(default_stdout), parse_answer(wide_stdout)
    if base is None or wide is None:
        return "missing verdict"
    if base.get("answer") == "no" and base.get("certified") is True:
        if wide.get("answer") != "no" or wide.get("certified") is not True:
            return "certified negative lost at the wider bound"
    return None
