"""Deciding ultimate periodicity for the full morphic-image setting.

This is the top of the package: an endomorphism sigma iterated on a seed
word w, a morphism phi applied to every iterate, and the question whether
the word sequence phi(sigma^n(w)) converges to u v^omega.

The sequence rarely converges along all indices at once, so the indices
are split into finitely many arithmetic classes.  First a stabilizing
power e turns the problem into e couples (sigma^e, phi) on the seeds
sigma^i(w), each with stable image letter sets and a trivial component
power; every letter then has a sharp length trichotomy (image lengths
vanish, stay bounded, or tend to infinity), one for all couples, and a
seed is read only up to its first unbounded letter.  Vanishing letters are
deleted after one index shift, bounded letters contribute eventually
cyclic constant words, and the unbounded first letters drive either a
literal periodic tail or a coded fixed point that the substitutive
decision procedure can settle.  The final verdict compares the canonical
limits of all classes.
"""

from dataclasses import dataclass
from functools import cache
from itertools import islice
from math import lcm

from .errors import (
    BoundedImageError,
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
)
from .matrices import classify_letters
from .normalization import (
    SubstitutiveRepresentation,
    restrict_to_reachable,
    substitutive_representation,
)
from .periodicity import (
    BOUNDED_IMAGE,
    CLASS_LIMITS_DIFFER,
    DEFAULT_LIMITS,
    DIVERGENT_LIMIT,
    _no,
    _yes,
    decide_substitutive,
)
from .words import (
    DEFAULT_COMPOSE_CAP,
    HD0LSystem,
    Morphism,
    UltimatelyPeriodicWord,
    canonicalize_up,
    eventual_cycle,
    power,
    up_equal,
)

TO_ZERO = "ToZero"
BOUNDED = "Bounded"
TO_INFINITY = "ToInfinity"
DIVERGENT = "Divergent"


# ---------------------------------------------------------------------------
# length trichotomy


def _couple_classes(sigma, phi):
    """Per-letter class of the sequence |phi(sigma^n(c))|, assuming image
    letter sets already stable at the first power (which forces component
    power 1).

    Under that hypothesis letters(sigma^n(c)) is one constant set L_c for
    every n >= 1, which makes the trichotomy exact from n = 1 on: the
    lengths are all zero iff phi erases L_c, and otherwise they are all
    positive, growing exactly when the growth walk with phi as the weights
    says so.
    """
    if not sigma.facts.p2:
        raise PreconditionError("length classes: image letter sets not stable")
    cls = classify_letters(sigma, phi)
    return {c: TO_ZERO if c in cls.mortal
            else TO_INFINITY if c in cls.growing else BOUNDED
            for c in sigma.letters}


def _head_tables(sigma, classes):
    """The head tables of sigma under a length classification, for k = 0,
    1, 2, ...: table k maps each letter c to (f, h), with h the first
    TO_INFINITY letter of sigma^k(c), or None, and f the letters before it,
    TO_ZERO letters left out.  Table k + 1 reads table k over the images,
    so no iterate is spelled out and only the current table is held."""
    table = {c: ((), c) if classes[c] == TO_INFINITY
             else ((c,) if classes[c] == BOUNDED else (), None)
             for c in sigma.letters}
    while True:
        yield table
        table = {c: _head(table, img) for c, img in sigma.images.items()}


def _head(table, word):
    """(f, h) of a word, read through a head table of its letters."""
    f = ()
    for c in word:
        g, h = table[c]
        f += g
        if h is not None:
            return f, h
    return f, None


def stabilized_power_exponent(sigma, cap=None):
    """sigma.facts.stable_exponent, under the couple power cap by default."""
    cap = cap if cap is not None else DEFAULT_LIMITS.couple_power_cap
    return sigma.facts.stable_exponent(cap)


def phi_length_classes(sigma, phi):
    """The phi_length_class of every letter, as one table; at residue i the
    class of c is read from its head at depth i, the letters of sigma^i(c)."""
    e = stabilized_power_exponent(sigma)
    merged = _couple_classes(power(sigma, e), phi)
    for table in islice(_head_tables(sigma, merged), 1, e):
        bad = sorted(c for c, (f, h) in table.items() if merged[c] != (
            TO_INFINITY if h else BOUNDED if f else TO_ZERO))
        if bad:
            raise PreconditionError(
                f"length classes: residues disagree at {bad}")
    return merged


def phi_length_class(sigma, phi, c):
    """Eventual behaviour of the lengths |phi(sigma^n(c))|: TO_ZERO when
    they vanish, BOUNDED when they stay positive and bounded, TO_INFINITY
    when they diverge.  Letters whose behaviour depends on the residue of n
    have no single class and are rejected."""
    classes = phi_length_classes(sigma, phi)
    if c not in classes:
        raise PreconditionError(f"phi_length_class: {c!r} not in the domain")
    return classes[c]


# ---------------------------------------------------------------------------
# first letters and bounded prefixes


@dataclass(frozen=True)
class FirstLetterOrbit:
    """Eventually periodic sequence of first letters of sigma^n(a): j0
    transient steps, then the cycle letters repeat with period n0."""

    j0: int
    n0: int
    letters: tuple


def first_letter_orbit(sigma, a):
    """Track first(sigma^n(a)) until the first repeat.

    Needs a non-erasing sigma, so the first letter of the next iterate is a
    function of the current first letter alone; j0 and n0 are then both
    minimal and j0 + n0 <= |domain| + 1 by pigeonhole.
    """
    if not sigma.is_non_erasing:
        raise PreconditionError("first_letter_orbit: erasing endomorphism")
    if a not in sigma.domain:
        raise PreconditionError(f"first_letter_orbit: {a!r} not in the domain")
    seq, j0 = eventual_cycle(a, lambda c: sigma.image(c)[0])
    return FirstLetterOrbit(j0, len(seq) - j0, tuple(seq[j0:]))


@dataclass(frozen=True)
class BoundedPrefixCycle:
    """Orbit of the finite tables n -> (c -> phi(sigma^n(c))) over a closed
    set of bounded letters: preperiod transient tables, then a cycle."""

    preperiod: int
    cycle: int
    tables: tuple

    def table_at(self, n):
        if n < self.preperiod:
            return self.tables[n]
        return self.tables[self.preperiod + (n - self.preperiod) % self.cycle]

    def value(self, n, c):
        return self.table_at(n)[c]

    def word_value(self, n, word):
        table = self.table_at(n)
        return tuple(x for c in word for x in table[c])


def bounded_prefix_cycle(sigma, phi, letters, limits=None):
    """Iterate the table c -> phi(sigma^n(c)) until it repeats.

    The table at n + 1 concatenates the table at n over sigma(c), so the
    family is one self-map on finitely many table values.  letters must be
    closed under sigma and have bounded image lengths; a growing letter
    pushes some entry past the configured cap instead of ever cycling.
    """
    limits = limits or DEFAULT_LIMITS
    letters = frozenset(letters)
    for c in sorted(letters):
        if not set(sigma.image(c)) <= letters:
            raise PreconditionError(
                f"bounded_prefix_cycle: image of {c!r} leaves the letter set")
    order = sorted(letters)
    table = {c: tuple(phi.image(c)) for c in order}
    seen = {}
    tables = []
    while True:
        key = tuple(table[c] for c in order)
        if key in seen:
            start = seen[key]
            return BoundedPrefixCycle(start, len(tables) - start, tuple(tables))
        if len(tables) >= limits.table_rounds:
            raise ResourceLimitError(
                f"bounded_prefix_cycle: no repeat within "
                f"{limits.table_rounds} rounds")
        seen[key] = len(tables)
        tables.append(dict(table))
        nxt = {}
        for c in order:
            img = tuple(x for d in sigma.image(c) for x in table[d])
            if len(img) > limits.table_entry_cap:
                raise ResourceLimitError(
                    f"bounded_prefix_cycle: entry for {c!r} exceeds "
                    f"{limits.table_entry_cap} letters")
            nxt[c] = img
        table = nxt


# ---------------------------------------------------------------------------
# class limits for one stabilized couple


@dataclass(frozen=True)
class PeriodicTail:
    """The class limit continues as word^omega after the stabilized prefix."""

    word: tuple

    def __post_init__(self):
        if not self.word:
            raise PreconditionError("PeriodicTail: empty repeating word")


@dataclass(frozen=True)
class ClassLimit:
    """Limit of the image sequence along one arithmetic index class.

    group identifies the declared residue class; when an empty flank cycle
    forces a finer split, several subclasses share one group and the whole
    group only converges if their limits agree.  prefix is the stabilized
    bounded part, tail one of PeriodicTail, SubstitutiveRepresentation, or
    the DIVERGENT marker.
    """

    index: int
    group: int
    prefix: tuple
    tail: object

    def limit_prefix(self, n):
        """First n letters of the class limit, as a word."""
        return tuple(self.limit_letters(n))

    def limit_letters(self, n):
        """First n letters of the class limit: one string when the prefix
        and a coded tail have one-character letters only, else a word."""
        if isinstance(self.tail, PeriodicTail):
            return UltimatelyPeriodicWord(self.prefix, self.tail.word).prefix(n)
        if isinstance(self.tail, SubstitutiveRepresentation):
            tail = self.tail.expand_letters(max(0, n - len(self.prefix)))
            head = "".join(self.prefix)
            if isinstance(tail, str) and len(head) == len(self.prefix):
                return (head + tail)[:n]
            return (self.prefix + tuple(tail))[:n]
        raise PreconditionError("limit_prefix: divergent class has no limit")


def _renamed_key(tau, coding, a):
    """tau and coding on the letters tau reaches from a, renamed in
    first-visit order, and those letters in that order.  Fixed points that
    differ only in their letter names share the key, so one normalization."""
    seen, order = {a: 0}, [a]
    for c in order:
        for d in dict.fromkeys(tau.image(c)):
            if d not in seen:
                seen[d] = len(order)
                order.append(d)
    images = tuple(tuple(map(seen.__getitem__, tau.image(c))) for c in order)
    return (images, tuple(map(coding.image, order))), order


def class_limits(system, limits=None, trace=None, classes=None, shared=None):
    """Limits of phi(sigma^n(w)) along arithmetic classes of n, for one
    stabilized couple.

    Preconditions: image letter sets of sigma stable at the first power,
    component power 1, and some seed letter with unbounded image lengths.

    One shift of the coding (phi o sigma in place of phi, n in place of
    n + 1) makes every vanishing letter literally erased, after which those
    letters are deleted exactly; the shifted coding and the restricted
    endomorphism are then both non-erasing.  Classes run modulo
    lcm(first-letter period of the leading unbounded seed letter, bounded
    table cycle), offset by the larger preperiod.  Along one class the
    bounded letters left of the leading unbounded letter contribute a
    constant prefix, and the tail unrolls the chain of leading unbounded
    letters with constant bounded flanks in front: a non-empty flank cycle
    yields a literal periodic tail, an empty one a prolongable power tau
    whose coded fixed points are the limits (one subclass per interleaved
    index when the chain cycle is longer than one).

    Subclass r of class rho codes sigma_bar^k(x), for k = offset + rho and
    x the fixed point of tau at the r-th cycle letter.  As tau commutes
    with sigma_bar, sigma_bar^k(x) is a fixed point of tau; with f h its
    head, tau(f) is bounded and no shorter than f, so tau(f) = f and tau
    is prolongable at h: sigma_bar^k(x) = f tau^omega(h), a bounded word
    that tau fixes followed by the fixed point at h, under the one coding.

    classes is the couple's _couple_classes table when the caller already
    has it.  shared is a dict that one decide passes to all its couples: a
    coded fixed point is normalized once per _renamed_key of (tau,
    phi_bar, h), which holds all that substitutive_representation reads up
    to the names of tau's letters.
    """
    limits = limits or DEFAULT_LIMITS
    trace = trace if trace is not None else []
    shared = shared if shared is not None else {}
    sigma, phi, w = system.sigma, system.phi, system.seed

    if classes is None:
        classes = _couple_classes(sigma, phi)
    if not any(classes[c] == TO_INFINITY for c in w):
        raise PreconditionError(
            "class_limits: no seed letter with unbounded image lengths")

    gone = frozenset(c for c in sigma.letters if classes[c] == TO_ZERO)
    if gone or not (sigma.is_non_erasing and phi.is_non_erasing):
        # replacing phi by phi o sigma makes the image of every vanishing
        # letter literally empty (their image letter sets are erased), so
        # deleting them is exact up to one index shift, and both morphisms
        # come out non-erasing on what remains
        kept = [c for c in sigma.letters if c not in gone]
        sig_bar = Morphism(
            {c: tuple(d for d in sigma.image(c) if d not in gone)
             for c in kept})
        phi_bar = Morphism({c: phi(sigma.image(c)) for c in kept})
        for c in kept:
            if not sig_bar.image(c) or not phi_bar.image(c):
                raise InternalCheckError(
                    "class_limits: cleaning produced an erasing image")
        trace.append(
            f"dropped vanishing letters {sorted(gone)} after one index shift")
    else:
        sig_bar, phi_bar = sigma, phi
    base = next(_head_tables(sig_bar, classes))
    lead, g = _head(base, (c for c in w if c not in gone))

    bounded = frozenset(c for c in sig_bar.letters if classes[c] == BOUNDED)
    bpc = bounded_prefix_cycle(sig_bar, phi_bar, bounded, limits)
    orbit = first_letter_orbit(sig_bar, g)
    modulus = lcm(orbit.n0, bpc.cycle)
    offset = max(orbit.j0, bpc.preperiod)
    if modulus > limits.class_count_cap:
        raise ResourceLimitError(
            f"class_limits: {modulus} classes exceed the cap "
            f"{limits.class_count_cap}")
    trace.append(
        f"classes modulo {modulus} from offset {offset} "
        f"(first letters {orbit.j0}+{orbit.n0}, tables "
        f"{bpc.preperiod}+{bpc.cycle})")

    pi = power(sig_bar, modulus)

    @cache
    def chain_step(h):
        # leading bounded flank and first unbounded letter of pi(h); the
        # latter exists because h itself has unbounded image lengths
        f, d = _head(base, pi.image(h))
        if d is None:
            raise InternalCheckError(
                f"class_limits: no unbounded letter in the image of {h!r}")
        return f, d

    hs, start = eventual_cycle(g, lambda h: chain_step(h)[1])
    q = len(hs) - start
    betas = [chain_step(h)[0] for h in hs]
    cycle_empty = all(not b for b in betas[start:])

    if not cycle_empty:
        trace.append(
            f"chain of leading unbounded letters cycles with period {q} "
            "and non-empty bounded flanks: periodic tails")
    else:
        # every flank on the cycle is empty, so sigma_bar^(modulus*q) is
        # prolongable at the cycle letters and the limits are coded fixed
        # points; interleaved indices give one subclass each
        tau = power(sig_bar, modulus * q) if q > 1 else pi
        if tau.image(hs[start])[0] != hs[start]:
            raise InternalCheckError(
                "class_limits: empty flank cycle but no prolongation")
        keys = {}
        at_offset = islice(_head_tables(sig_bar, classes), offset, None)
        trace.append(
            f"chain of leading unbounded letters cycles with period {q} "
            "and empty bounded flanks: coded fixed point tails")

    out = []
    for rho in range(modulus):
        n_hat = offset + rho
        prefix = bpc.word_value(n_hat, lead + sum(betas[:start], ()))
        if not cycle_empty:
            v = bpc.word_value(n_hat, sum(betas[start:], ()))
            out.append(ClassLimit(len(out), rho, prefix, PeriodicTail(v)))
            continue
        if q > 1:
            trace.append(f"class {rho}: split into {q} interleaved subclasses")
        table = next(at_offset)
        for r in range(q):
            f, h = table[hs[start + r]]
            if h not in keys:
                keys[h], reach = _renamed_key(tau, phi_bar, h)
                if keys[h] not in shared:
                    try:
                        shared[keys[h]] = substitutive_representation(
                            tau.restrict(reach), phi_bar.restrict(reach), h)
                    except BoundedImageError as exc:
                        raise InternalCheckError(
                            "class_limits: unbounded chain letter produced "
                            "a bounded fixed point image") from exc
            out.append(ClassLimit(len(out), rho, prefix + phi_bar(f),
                                  shared[keys[h]]))
    return out


# ---------------------------------------------------------------------------
# the decision procedure


def _confirm_limit(system, up, e, trace, limits):
    """Belt and braces on a positive verdict: expand phi(sigma^n(w w)) for
    a few n and compare a stabilized window against the agreed limit.

    A window only counts once it has the full target length and repeats
    across three expansions spaced e apart; such a stabilized window that
    still disagrees is a genuine internal failure.  One group of three
    indices starts at base, the other at the first index first + j e with
    a full-length window, j < want (else at j = want).  The windows come
    from one walk over the iterates, cut to what the windows need, which
    stops once its images pass DEFAULT_COMPOSE_CAP letters; anything not
    settled by then is recorded as unconfirmed and skipped.
    """
    want = len(up.preperiod) + 10 * max(1, len(up.period))
    doubled = HD0LSystem(
        system.alphabet_a, system.alphabet_b, system.sigma, system.phi,
        system.seed + system.seed)
    base = max(2 * e + 2, 8)
    first = base + e * max(0, -(-(want - base) // e))
    windows, aligned = {}, None
    walk = doubled.prefixes(want, budget=DEFAULT_COMPOSE_CAP)
    for n, window in enumerate(walk):
        if n < base or (n - base) % e:
            continue
        if aligned is None and n >= first and (
                len(window) == want or n == first + want * e):
            aligned = n
        if n <= base + 2 * e or aligned is not None:
            windows[n] = window
        if aligned is not None and n == aligned + 2 * e:
            break
    ns = sorted(windows)
    for n0, n1, n2 in zip(ns, ns[1:], ns[2:]):
        w0, w1, w2 = windows[n0], windows[n1], windows[n2]
        if n1 - n0 == e and n2 - n1 == e and w0 == w1 == w2 \
                and len(w2) == want:
            if w2 != up.prefix(want):
                raise InternalCheckError(
                    "direct expansion disagrees with the agreed class limit")
            trace.append(f"direct expansion at step {n2} matches the limit")
            return
    trace.append("direct confirmation skipped (no stabilized window in range)")


def decide_hd0l(system, limits=None):
    """Decide whether the words phi(sigma^n(w)), read as prefixes of
    phi(sigma^n(w w ...)), converge to an ultimately periodic word, with
    the canonical limit as witness on Yes.

    The indices split modulo the stabilizing power e into couples: couple
    i is (sigma^e, phi) on the seed sigma^i(w), read from the head table
    at depth i, since phi(sigma^(en+i)(w)) = phi(sigma^(en)(sigma^i(w))).
    A couple whose seed has no letter with unbounded image lengths bounds
    the whole subsequence, which denies any infinite limit; otherwise every
    arithmetic class inside the couple gets an exact limit, either
    literally periodic or as a coded fixed point settled by the
    substitutive procedure.  The verdict is Yes exactly when all class
    limits share one canonical form.

    Value-equal couples are common (every couple of a growing letter
    rotation codes to the same fixed point up to letter names), so one
    dict, local to this call, holds each normalization by its renamed key
    and each substitutive decision by its representation: every distinct
    value is normalized and decided once, with every check, under this
    call's limits.
    """
    limits = limits or DEFAULT_LIMITS
    trace = []
    seed = tuple(system.seed)
    sigma, phi, _ = restrict_to_reachable(system.sigma, system.phi, seed)
    # with no growing seed letter, couple 0 below answers the same at its
    # first check, so the split and its stabilizing power are not needed
    if classify_letters(sigma, phi).growing.isdisjoint(seed):
        trace.append("every seed letter keeps bounded image lengths")
        return _no(BOUNDED_IMAGE, trace)

    e = stabilized_power_exponent(sigma, limits.couple_power_cap)
    sig_e = power(sigma, e)
    trace.append(f"splitting indices modulo {e}")
    classes = _couple_classes(sig_e, phi)

    # the limit is read as a prefix of phi(sigma^n(w w ...)); the copies
    # of w add nothing past the first unbounded letter, where seeds end
    entries, shared = [], {}
    for i, table in zip(range(e), _head_tables(sigma, classes)):
        lead, g = _head(table, seed)
        if g is None:
            trace.append(
                f"couple {i}: every seed letter keeps bounded image lengths")
            return _no(BOUNDED_IMAGE, trace)
        couple = HD0LSystem(
            sig_e.letters, system.alphabet_b, sig_e, phi, lead + (g,))
        lines = []
        cls = class_limits(couple, limits, lines, classes, shared)
        trace.extend(f"couple {i}: {line}" for line in lines)
        for cl in cls:
            label = f"couple {i} class {cl.group}.{cl.index}"
            if isinstance(cl.tail, PeriodicTail):
                up = canonicalize_up(cl.prefix, cl.tail.word)
            else:
                # a representation is never equal to a normalization key,
                # which is a tuple, so both kinds of entry share the dict
                if cl.tail not in shared:
                    shared[cl.tail] = decide_substitutive(cl.tail, limits)
                outcome = shared[cl.tail]
                if not outcome.periodic:
                    trace.append(f"{label}: no periodic limit "
                                 f"({outcome.diagnostic})")
                    trace.extend(outcome.trace)
                    return _no(outcome.diagnostic, trace,
                               certified=outcome.certified)
                up = canonicalize_up(
                    cl.prefix + outcome.up.preperiod, outcome.up.period)
            trace.append(f"{label}: limit {up}")
            entries.append(((i, cl.group), up))

    groups = {}
    for key, up in entries:
        groups.setdefault(key, []).append(up)
    keys = sorted(groups)
    for key in keys:
        ups = groups[key]
        for other in ups[1:]:
            if not up_equal(ups[0], other):
                trace.append(
                    f"couple {key[0]} class {key[1]}: interleaved subclass "
                    f"limits disagree: {ups[0]} vs {other}")
                return _no(DIVERGENT_LIMIT, trace)
    base = groups[keys[0]][0]
    for key in keys[1:]:
        other = groups[key][0]
        if not up_equal(base, other):
            trace.append(
                f"class limits differ: couple {keys[0][0]} class "
                f"{keys[0][1]} gives {base}, couple {key[0]} class "
                f"{key[1]} gives {other}")
            return _no(CLASS_LIMITS_DIFFER, trace)
    up = canonicalize_up(base.preperiod, base.period)
    _confirm_limit(system, up, e, trace, limits)
    trace.append(f"all {len(entries)} class limits agree: {up}")
    return _yes(up, trace)
