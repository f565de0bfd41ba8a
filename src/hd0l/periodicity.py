"""Ultimate periodicity decisions for coded fixed points of substitutions.

Three layers: an exact test of primitive components for a period of at
most N, the all-growing case built on it, and the reduction of mixed
alphabets through the bounded-runs / unbounded-runs dichotomy for the
non-growing letters.
"""

import math
from dataclasses import dataclass

from .errors import InternalCheckError, PreconditionError, ResourceLimitError
from .factors import FactorEngine, finalcheck, lang_eq_periodic, period_fits
from .matrices import (
    NULL,
    PRIMITIVE,
    classify_letters,
    image_lengths,
    incidence_matrix,
    is_primitive,
)
from .normalization import (
    ALL_PROPERTIES,
    CODING,
    P4,
    SubstitutiveRepresentation,
    reachable_letters,
    substitutive_representation,
)
from .words import (
    Morphism,
    UltimatelyPeriodicWord,
    compose,
    eventual_cycle,
    expand_fixed_point,
    is_prolongable,
    minimal_period,
    power,
    primitive_root,
    word_str,
)

APERIODIC_SUB_COMPONENT = "AperiodicSubComponent"
PERIOD_LANGUAGE_MISMATCH = "PeriodLanguageMismatch"
FINALCHECK_FAILED = "FinalcheckFailed"
BOUNDED_IMAGE = "BoundedImage"
DIVERGENT_LIMIT = "DivergentLimit"
CLASS_LIMITS_DIFFER = "ClassLimitsDiffer"

CASE_BOUNDED_BLOCKS = 2
CASE_FLANK = 3


@dataclass(frozen=True)
class Limits:
    """Resource configuration for the decision procedures.

    primitive_bound overrides the bound N of the primitive oracle (the
    largest least period it looks for) outright; otherwise N is the formula
    bound capped at primitive_hard_cap (capping is recorded as an
    uncertified negative)."""

    primitive_bound: int | None = None
    primitive_hard_cap: int = 600
    pansiot_rounds: int = 16
    pansiot_word_cap: int = 500_000
    max_triples: int = 20_000
    max_factors: int = 200_000
    max_chain: int = 100_000
    couple_power_cap: int = 256
    table_rounds: int = 2048
    table_entry_cap: int = 100_000
    class_count_cap: int = 4096


DEFAULT_LIMITS = Limits()


@dataclass(frozen=True)
class DecisionOutcome:
    """Verdict on ultimate periodicity of an image sequence. A positive
    verdict always carries the canonical form and passed the alignment
    check; certified goes false only on negatives that rest on a capped
    oracle bound."""

    periodic: bool
    up: UltimatelyPeriodicWord | None
    certified: bool
    diagnostic: str | None
    trace: tuple


def _yes(up, trace):
    return DecisionOutcome(True, up, True, None, tuple(trace))


def _no(diagnostic, trace, certified=True):
    return DecisionOutcome(False, None, certified, diagnostic, tuple(trace))


@dataclass(frozen=True)
class SubSubstitution:
    """Restriction of a substitution to a principal primitive component,
    with a letter whose first-letter cycle makes the exponent-th power
    prolongable there."""

    letters: tuple
    sigma: Morphism
    seed: str
    exponent: int


def make_sub_substitutions(sigma):
    """One SubSubstitution per principal primitive component.

    Within a closed component the first letters of images form a functional
    graph, so some letter a_i lies on a cycle of length k_i <= |component|
    and sigma_i^{k_i}(a_i) starts with a_i. The shared exponent is the lcm
    of the k_i, which every component accepts."""
    picks = []
    for blk in sigma.facts.decomposition.blocks:
        if not blk.principal:
            continue
        if blk.kind == NULL:
            raise InternalCheckError(
                "principal component erases everything (null kind)")
        if blk.kind != PRIMITIVE:
            continue  # closed unit component: a fixed letter, nothing to raise
        sub = sigma.restrict(blk.letters)
        path, j = eventual_cycle(min(blk.letters), lambda b: sub.image(b)[0])
        cycle = path[j:]
        picks.append((blk.letters, sub, min(cycle), len(cycle)))
    k = math.lcm(*(k_i for *_, k_i in picks))
    subs = []
    for letters, sub, a_i, _ in picks:
        if image_lengths(sub, k)[a_i] < 2:
            raise InternalCheckError(
                f"component power at {a_i!r} stays a single letter")
        subs.append(SubSubstitution(letters, sub, a_i, k))
    return k, subs


@dataclass(frozen=True)
class PrimitiveVerdict:
    periodic: bool
    period: tuple | None
    certified: bool
    bound: int
    formula_bound: int


def primitive_periodicity(tau_i, a_i, kappa, limits=None, exponent=1):
    """Decide whether the coded fixed point y = kappa(x) of a primitive
    substitution (tau_i^exponent at a_i; factor sets do not depend on the
    exponent, so everything runs on tau_i) has least period p <= N.  As y
    is uniformly recurrent, that holds iff count(N) <= N (Morse-Hedlund).

    Let q be the least period of a 2N-letter factor of y.  If p <= N, q = p
    (by Fine-Wilf a period q < p of 2N letters makes gcd(q, p) a period of
    a factor holding a whole period of y), every sample has period p and
    every p-factor is a rotation of a sample's first p letters.  If every
    q-factor is a rotation of one word, two consecutive q-windows hold the
    same letter counts, so y has period q; so an aperiodic y, whose every
    factor recurs, never passes.  The long sample only spares the closure
    when it already breaks period q; it never decides a verdict.  A
    negative is certified only when N honors the formula bound."""
    limits = limits or DEFAULT_LIMITS
    if not is_primitive(incidence_matrix(tau_i).support()):
        raise PreconditionError("primitive_periodicity: not primitive")
    letters = tau_i.letters
    formula = len(letters) * (1 + tau_i.max_image_len()) ** (len(letters) + 2)
    bound = (limits.primitive_bound if limits.primitive_bound is not None
             else min(formula, limits.primitive_hard_cap))
    if bound < 1:
        raise PreconditionError("primitive_periodicity: bound must be positive")
    eng = FactorEngine(tau_i)
    table = eng.coding_table(kappa)
    q = minimal_period(eng.expand_until((a_i,), 2 * bound).translate(table))
    if q <= bound:
        s = eng.expand_until((a_i,), max(20_000, 80 * q)).translate(table)
        if s[q:] == s[:-q] and period_fits(
                (w.translate(table) for w in eng.factors(
                    (a_i,), q, limits.max_factors)), s[:q]):
            tau_pow = tau_i if exponent == 1 else power(tau_i, exponent)
            v = kappa(expand_fixed_point(tau_pow, a_i, q))
            return PrimitiveVerdict(True, v, True, bound, formula)
    return PrimitiveVerdict(False, None, bound >= formula, bound, formula)


def _confirm_prefix(rep, up):
    # belt and braces behind every positive verdict: re-expand and compare
    horizon = (len(up.preperiod) + 20 * len(up.period)
               + len(rep.tau.image(rep.seed)))
    if rep.expand_image(horizon) != up.prefix(horizon):
        raise InternalCheckError(
            "confirmed period does not match the expanded prefix")


def decide_growing(rep, limits=None, trace=None):
    """Decide ultimate periodicity of the image sequence when every letter
    of the core substitution grows.

    Each principal component carries a minimal sub-system whose coded
    factors all recur in the tail of the image; so the image can only be
    ultimately periodic if every component's coded sequence is periodic and
    all their period languages agree, and that shared period is then the
    only candidate left for the alignment check."""
    limits = limits or DEFAULT_LIMITS
    trace = list(trace or ())
    if not ALL_PROPERTIES <= rep.certified:
        raise PreconditionError("decide_growing: representation not certified")
    if classify_letters(rep.tau).bounded:
        raise PreconditionError("decide_growing: non-growing letters present")
    k, subs = make_sub_substitutions(rep.tau)
    if not subs:
        raise InternalCheckError("no principal component on a growing alphabet")
    trace.append(
        f"growing case: {len(subs)} principal component(s), exponent {k}")
    periods = []
    for sub in subs:
        verdict = primitive_periodicity(
            sub.sigma, sub.seed, rep.kappa, limits, exponent=sub.exponent)
        label = "{" + ",".join(sub.letters) + "}"
        if not verdict.periodic:
            note = "" if verdict.certified else (
                f" (scan capped at {verdict.bound} below the formula bound"
                f" {verdict.formula_bound}; uncertified)")
            trace.append(
                f"component {label}: factor count exceeds n for every"
                f" n <= {verdict.bound}{note}")
            return _no(APERIODIC_SUB_COMPONENT, trace,
                       certified=verdict.certified)
        trace.append(
            f"component {label}: periodic image, period {word_str(verdict.period)}")
        periods.append(verdict.period)
    base = periods[0]
    for other in periods[1:]:
        if not lang_eq_periodic(base, other):
            trace.append(
                f"period languages differ: {word_str(base)}"
                f" vs {word_str(other)}")
            return _no(PERIOD_LANGUAGE_MISMATCH, trace)
    up = finalcheck(rep, base, limits.max_factors)
    if up is None:
        trace.append(
            f"candidate period {word_str(base)} rejected by the alignment check")
        return _no(FINALCHECK_FAILED, trace)
    _confirm_prefix(rep, up)
    trace.append(f"alignment check passed: {up}")
    return _yes(up, trace)


@dataclass(frozen=True)
class Case3Witness:
    """sigma^exponent maps the growing letter to an image where one side of
    some occurrence of the letter is a non-empty all-non-growing word."""

    exponent: int
    letter: str
    side: str
    flank: tuple


@dataclass(frozen=True)
class PansiotCase:
    """Outcome of the dichotomy: bounded non-growing runs come with the
    re-presentation over a growing alphabet and its recovery coding."""

    case: int
    witness: Case3Witness | None = None
    rep: SubstitutiveRepresentation | None = None
    chi: Morphism | None = None


def _segment(word, growing):
    """Split as (leading non-growing run, [(growing letter, following run)])."""
    at = [i for i, c in enumerate(word) if c in growing] + [len(word)]
    return word[:at[0]], [(word[i], word[i + 1:j]) for i, j in zip(at, at[1:])]


def _spell(triple):
    left, g, right = triple
    return left + (g,) + right


def _triple_image(sigma, triple, growing):
    """Image units of a flanked letter: segment the image word, the leading
    non-growing run going to the first unit."""
    nu, segments = _segment(sigma(_spell(triple)), growing)
    if not segments:
        raise InternalCheckError("image of a growing letter lost its growth")
    return tuple((nu if i == 0 else (), h, run)
                 for i, (h, run) in enumerate(segments))


class _TripleClosure:
    """Breadth-first closure of the flanked-letter alphabet, one level per
    advance() call so the caller can interleave it with the flank scan;
    images maps every unit of a finished closure to its image units."""

    def __init__(self, sigma, a, growing, cap):
        self.sigma = sigma
        self.growing = growing
        self.cap = cap
        start = ((), a, ())
        self.seen = {start}
        self.frontier = [start]
        self.images = {}

    def advance(self):
        nxt = []
        for triple in self.frontier:
            img = _triple_image(self.sigma, triple, self.growing)
            self.images[triple] = img
            for unit in img:
                if unit not in self.seen:
                    self.seen.add(unit)
                    if len(self.seen) > self.cap:
                        raise ResourceLimitError(
                            "flanked-letter closure exceeded cap")
                    nxt.append(unit)
        self.frontier = nxt
        return not nxt


def _apply_capped(sigma, word, cap):
    total = sum(len(sigma.images[c]) for c in word)
    if total > cap:
        raise ResourceLimitError("image word exceeds the scan cap")
    return sigma(word)


def _flank_scan(word, b, growing, m):
    """A flank witness for the growing letter b in word, or None: the first
    occurrence of b, left to right, whose right side (checked first) or
    left side is non-empty and all non-growing.

    Everything right of an occurrence is non-growing only at the last
    growing position, everything left of it only at the first, so only
    those two positions are looked at."""
    first = next((i for i, c in enumerate(word) if c in growing), None)
    if first is None:
        return None
    last = len(word) - 1 - next(
        i for i, c in enumerate(reversed(word)) if c in growing)
    if word[first] == b:
        if first == last and last < len(word) - 1:
            return Case3Witness(m, b, "right", word[last + 1:])
        if first > 0:
            return Case3Witness(m, b, "left", word[:first])
    if word[last] == b and last < len(word) - 1:
        return Case3Witness(m, b, "right", word[last + 1:])
    return None


def pansiot_classify(sigma, a, limits=None):
    """Dichotomy for a fixed point with non-growing letters: either the
    non-growing runs are bounded (case 2: returns the growing
    re-presentation) or some power of sigma maps a growing letter b to an
    image where everything on one side of an occurrence of b is non-growing
    and non-empty (case 3: returns the witness). Exactly one side holds, but
    which power exhibits case 3 is not known in advance, so the scan over
    rising powers interleaves with rounds of the case-2 closure and returns
    whichever terminates."""
    limits = limits or DEFAULT_LIMITS
    classes = classify_letters(sigma)
    if not classes.bounded:
        raise PreconditionError("pansiot_classify: every letter grows")
    if not is_prolongable(sigma, a):
        raise PreconditionError("pansiot_classify: not prolongable at the seed")
    growing = classes.growing
    targets = sorted(b for b in reachable_letters(sigma, (a,)) if b in growing)
    words = {b: (b,) for b in targets}
    closure = _TripleClosure(sigma, a, growing, limits.max_triples)
    for m in range(1, limits.pansiot_rounds + 1):
        for b in targets:
            words[b] = _apply_capped(sigma, words[b], limits.pansiot_word_cap)
            wit = _flank_scan(words[b], b, growing, m)
            if wit is not None:
                return PansiotCase(CASE_FLANK, witness=wit)
        if closure.advance():
            rep, chi = convert_case2_to_growing(sigma, a, limits)
            return PansiotCase(CASE_BOUNDED_BLOCKS, rep=rep, chi=chi)
    raise ResourceLimitError("pansiot_classify: power/closure cap exceeded")


def convert_case2_to_growing(sigma, a, limits=None):
    """Re-present the fixed point at a over an all-growing alphabet with a
    letter-to-letter decoder back onto it.

    Three steps. Close the flanked-letter alphabet: units <left|g|right>
    with one growing letter each, images read off the segmentation of the
    unit's spelled image (the decoder identity spell(tau(T)) = sigma(spell(T))
    is asserted unit by unit). Stabilize: the first-unit chain is eventually
    cyclic, giving a unit that tau^K prolongs; K is then raised until every
    unit's spelled image at least doubles. Refine: one letter per spelled
    position of each unit, tau^K-images chunked into consecutive runs of at
    least two refined letters each (the doubling makes that possible), so
    every refined letter grows and the position coding gamma(<T>:i) =
    spell(T)[i] carries the refined fixed point onto the original one."""
    limits = limits or DEFAULT_LIMITS
    classes = classify_letters(sigma)
    growing = classes.growing
    if not sigma.is_non_erasing or not is_prolongable(sigma, a):
        raise PreconditionError(
            "convert_case2_to_growing: needs a non-erasing prolongable seed")
    if a not in growing:
        raise PreconditionError("convert_case2_to_growing: seed does not grow")

    closure = _TripleClosure(sigma, a, growing, limits.max_triples)
    while not closure.advance():
        pass
    images = closure.images
    start = ((), a, ())
    for triple, img in images.items():
        if sum(map(_spell, img), ()) != sigma(_spell(triple)):
            raise InternalCheckError("convert: decoder does not commute")

    path, j = eventual_cycle(start, lambda t: images[t][0])
    seed_triple, cycle_len = path[j], len(path) - j

    K = cycle_len
    while True:
        lens = image_lengths(sigma, K)
        if all(sum(lens[c] for c in _spell(t)) >= 2 * len(_spell(t))
               for t in images):
            break
        K += cycle_len
        if K > 10_000 * cycle_len:
            raise ResourceLimitError("convert: doubling power out of reach")

    rho = {}
    for t in images:
        word = (t,)
        for _ in range(K):
            word = tuple(u for v in word for u in images[v])
            if len(word) > limits.pansiot_word_cap:
                raise ResourceLimitError("convert: raised image exceeds cap")
        rho[t] = word

    tname = {}
    used = set()
    for t in sorted(images):
        name = "<{}|{}|{}>".format(".".join(t[0]), t[1], ".".join(t[2]))
        while name in used:
            name += "'"
        used.add(name)
        tname[t] = name

    def slots(t):
        return [f"{tname[t]}:{i}" for i in range(len(_spell(t)))]

    tau_images = {}
    gamma_images = {}
    for t in images:
        spelled = _spell(t)
        refined_run = [s for u in rho[t] for s in slots(u)]
        n = len(spelled)
        total = len(refined_run)
        if total < 2 * n:
            raise InternalCheckError("convert: doubling check failed to hold")
        size, rem = divmod(total, n)
        idx = 0
        for i, (nm, letter) in enumerate(zip(slots(t), spelled)):
            take = size + (1 if i < rem else 0)
            tau_images[nm] = tuple(refined_run[idx:idx + take])
            gamma_images[nm] = (letter,)
            idx += take

    tau_out = Morphism(tau_images)
    gamma_out = Morphism(gamma_images, codomain=sigma.domain)
    seed_name = f"{tname[seed_triple]}:0"
    keep = reachable_letters(tau_out, (seed_name,))
    tau_out = tau_out.restrict(keep)
    gamma_out = Morphism(
        {b: gamma_images[b] for b in keep}, codomain=sigma.domain)
    if not is_prolongable(tau_out, seed_name):
        raise InternalCheckError("convert: refined seed not prolongable")
    if classify_letters(tau_out).bounded:
        raise InternalCheckError("convert: a refined letter does not grow")
    check = min(400, 4 * len(tau_out.letters) + 40)
    if gamma_out(expand_fixed_point(tau_out, seed_name, check)) != \
            expand_fixed_point(sigma, a, check):
        raise InternalCheckError("convert: decoded fixed point drifts")
    rep = SubstitutiveRepresentation(
        tau_out, gamma_out, seed_name, frozenset({P4, CODING}))
    return rep, gamma_out


def case3_period_candidate(sigma, witness, limits=None):
    """Candidate period word from a flank witness: iterate rho = sigma^m on
    the non-growing flank until the word repeats (boundedness forces it),
    then concatenate one full cycle in the order the copies sit along the
    fixed point. On the right side the copies march away from the letter in
    ascending powers; on the left side they read left to right in descending
    powers, so the cycle is reversed."""
    limits = limits or DEFAULT_LIMITS
    m = witness.exponent
    seen = {witness.flank: 0}
    chain = [witness.flank]
    cur = witness.flank
    while True:
        for _ in range(m):
            cur = sigma(cur)
        if cur in seen:
            i = seen[cur]
            break
        seen[cur] = len(chain)
        chain.append(cur)
        if len(chain) > limits.max_chain:
            raise ResourceLimitError("case-3 flank orbit exceeds cap")
    cycle = chain[i:]
    if witness.side == "left":
        cycle.reverse()
    out = sum(cycle, ())
    if not out:
        raise InternalCheckError("case-3 flank vanished under a non-erasing map")
    return out


def decide_substitutive(rep, limits=None, fidelity=400):
    """Top dispatcher for a certified representation: all letters growing
    goes straight to the component analysis; otherwise the dichotomy either
    produces the one possible period for the alignment check (unbounded
    runs) or re-presents the sequence over a growing alphabet and recurses
    into the growing case (bounded runs)."""
    limits = limits or DEFAULT_LIMITS
    if not ALL_PROPERTIES <= rep.certified:
        raise PreconditionError(
            "decide_substitutive: representation not certified")
    trace = []
    if not classify_letters(rep.tau).bounded:
        return decide_growing(rep, limits, trace)
    case = pansiot_classify(rep.tau, rep.seed, limits)
    if case.case == CASE_FLANK:
        wit = case.witness
        trace.append(
            f"non-growing flank at power {wit.exponent}:"
            f" letter {wit.letter}, {wit.side} side")
        candidate = case3_period_candidate(rep.tau, wit, limits)
        v0 = primitive_root(rep.kappa(candidate))
        trace.append(f"candidate period from the flank cycle: {word_str(v0)}")
        up = finalcheck(rep, v0, limits.max_factors)
        if up is None:
            trace.append("candidate rejected by the alignment check")
            return _no(FINALCHECK_FAILED, trace)
        _confirm_prefix(rep, up)
        trace.append(f"alignment check passed: {up}")
        return _yes(up, trace)
    trace.append(
        f"bounded non-growing runs: recoded over"
        f" {len(case.rep.tau.letters)} growing letters")
    phi2 = compose(rep.kappa, case.chi)
    rep2 = substitutive_representation(
        case.rep.tau, phi2, case.rep.seed, fidelity)
    return decide_growing(rep2, limits, trace)
