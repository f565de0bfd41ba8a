"""Normalization of a morphic sequence into a coding of a clean fixed point.

The pipeline turns (sigma, phi, seed letter a) with sigma prolongable at a
into tau, kappa, d0 such that kappa is a coding, tau is non-erasing with
stable image letter sets and single-component decomposition, and
kappa(tau^omega(d0)) equals the limit of phi(sigma^n(a)).

Certified property names:
  P1      component decomposition power of the letter graph is 1
  P2      letters(tau(b)) == letters(tau^2(b)) for every b
  P3      alphabet is exactly {seed} union letters(tau(seed))
  P4      tau is non-erasing and prolongable at the seed
  CODING  kappa maps every letter to a single letter
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import or_

from .errors import (
    BoundedImageError,
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
)
from .factors import FactorEngine
from .matrices import image_lengths
from .words import (
    DEFAULT_COMPOSE_CAP,
    Morphism,
    compose,
    fixed_point_chunks,
    is_prolongable,
    power,
)

P1, P2, P3, P4, CODING = "P1", "P2", "P3", "P4", "CODING"
ALL_PROPERTIES = frozenset({P1, P2, P3, P4, CODING})


def reachable_letters(sigma, seeds):
    """Closure of seeds under b -> letters(sigma(b))."""
    out = set()
    todo = list(seeds)
    while todo:
        b = todo.pop()
        if b in out:
            continue
        out.add(b)
        todo.extend(set(sigma.image(b)) - out)
    return frozenset(out)


def restrict_to_reachable(sigma, phi, seeds):
    keep = reachable_letters(sigma, seeds)
    return sigma.restrict(keep), phi.restrict(keep), keep


def _delete_letters(word, gone):
    return tuple(c for c in word if c not in gone)


def phi_dead_letters(sigma, phi):
    """Letters whose entire sigma-future is erased by phi: phi(sigma^k(d)) = e
    for all k >= 0. Computed on the reachability closure, no stability needed."""
    return frozenset(
        d for d in sigma.letters if not phi.image(d)
        and not any(phi.image(c) for c in reachable_letters(sigma, (d,))))


def eliminate_erasing(sigma, phi, a):
    """Remove erasing letters, folding their one-step contribution into phi.

    Requires stable letter sets (P2), under which erasing letters are exactly
    the mortal ones and die in a single step; then for the fixed point x,
    sigma(x) = x makes (delete o sigma, phi o sigma) exact: the new fixed point
    is delete(x) and its phi o sigma image is phi(x).
    """
    if not sigma.facts.p2:
        raise PreconditionError("eliminate_erasing: image letter sets not stable")
    gone = sigma.erasing_letters()
    if not gone:
        return sigma, phi, a
    if a in gone:
        raise BoundedImageError("seed letter is erasing")
    keep = sigma.domain - gone
    new_sigma = Morphism({b: _delete_letters(sigma.image(b), gone) for b in keep})
    new_phi = Morphism(
        {b: phi(sigma.image(b)) for b in keep}, codomain=phi.codomain)
    if not new_sigma.is_non_erasing:
        raise InternalCheckError("erasing letters not mortal in one step")
    return new_sigma, new_phi, a


def eliminate_phi_dead(sigma, phi, a):
    """Remove letters invisible to phi forever; phi is unchanged on the rest.

    The dead set is closed under sigma, so deleting it commutes with sigma and
    the new fixed point is delete(x) with the same phi-image."""
    dead = phi_dead_letters(sigma, phi)
    if not dead:
        return sigma, phi, a
    if a in dead:
        raise BoundedImageError("the image sequence is empty from the seed on")
    keep = sigma.domain - dead
    new_sigma = Morphism({b: _delete_letters(sigma.image(b), dead) for b in keep})
    new_phi = phi.restrict(keep)
    return new_sigma, new_phi, a


def recurrent_letter_set(sigma, a):
    """Letters occurring infinitely often in the fixed point at a, under P2:
    with sigma(a) = a u the fixed point reads a u sigma(u) sigma^2(u) ...,
    so these are exactly letters(sigma(u))."""
    img = sigma.image(a)
    if not (len(img) >= 1 and img[0] == a):
        raise PreconditionError("recurrent_letter_set: sigma(a) must start with a")
    if not sigma.facts.p2:
        raise PreconditionError("recurrent_letter_set: letter sets not stable")
    return frozenset(chain.from_iterable(map(sigma.image, set(img[1:]))))


def image_is_infinite(sigma, phi, a):
    """Whether lim phi(sigma^n(a)) is an infinite word (needs P2)."""
    rec = recurrent_letter_set(sigma, a)
    return any(phi.image(c) for c in rec)


MAX_PHI_COMPOSITIONS = 8
MAX_POWER_DOUBLINGS = 24


def achieve_growth_inequalities(sigma, phi, a):
    """Replace (sigma, phi) by (sigma^k, phi o sigma^j) so that phi' never
    erases and |phi'(sigma'(b))| >= |phi'(b)| for every letter.

    Both replacements fix the fixed point x and its phi-image. Candidates are
    verified on image lengths and escalated until they hold; bounded
    letters stabilize to fixed words, so a valid (j, k) always exists.
    """
    cap = len(sigma.letters) + MAX_PHI_COMPOSITIONS
    j = 0
    cur = phi
    while not cur.is_non_erasing or not _growth_candidate(sigma, cur):
        j += 1
        if j > cap:
            raise InternalCheckError("growth inequalities unobtainable by composition")
        cur = compose(cur, sigma)
    k = _growth_candidate(sigma, cur)
    new_sigma = power(sigma, k)
    new_phi = cur
    if not is_prolongable(new_sigma, a):
        raise InternalCheckError("power lost prolongability")
    lengths_now = {b: len(new_phi.image(b)) for b in new_sigma.letters}
    after = image_lengths(new_sigma, 1, new_phi)
    if any(after[b] < lengths_now[b] for b in new_sigma.letters):
        raise InternalCheckError("growth inequality verification failed")
    return new_sigma, new_phi


def _growth_candidate(sigma, phi):
    """The smallest power k with |phi(sigma^k(b))| >= |phi(b)| for all b, or
    None. Small k keeps the later slot construction small, so scan upward
    before falling back to doubling.

    The lengths are stepped over the images with every value cut at the
    largest target, which still decides every inequality and leaves finitely
    many length vectors: once one repeats, the sequence is periodic from its
    first occurrence, and that settles every later candidate."""
    targets = {b: len(phi.image(b)) for b in sigma.letters}
    ceiling = max(1, max(targets.values(), default=1))
    candidates = list(range(1, ceiling + 1)) + [
        ceiling << i for i in range(1, MAX_POWER_DOUBLINGS + 1)]
    lengths, seen, holds = dict(targets), {}, []
    for k in candidates:
        i = k
        while i >= len(holds):
            state = tuple(lengths.values())
            if state in seen:
                start = seen[state]
                i = start + (i - start) % (len(holds) - start)
                break
            seen[state] = len(holds)
            holds.append(all(lengths[b] >= t for b, t in targets.items()))
            lengths = {
                b: min(ceiling, sum(map(lengths.__getitem__, sigma.image(b))))
                for b in targets}
        if holds[i]:
            return k
    return None


def split_evenly(word, n):
    """The tuple word cut into n consecutive runs whose lengths differ by at
    most one, the longer runs first."""
    size, rem = divmod(len(word), n)
    cuts = [i * size + min(i, rem) for i in range(n + 1)]
    return [word[i:j] for i, j in zip(cuts, cuts[1:])]


def _absorb_surplus(word, n):
    """The tuple word cut into n runs, the first taking the surplus over
    n - 1 single letters."""
    head = len(word) - n + 1
    return [word[:head]] + [(c,) for c in word[head:]]


def _letter_sets_settled(tau):
    """letters(tau(b)) == letters(tau^2(b)) for every b, which holds exactly
    when tau.facts.stable_exponent() is 1; read off one bitmask per letter,
    built when first needed, with no letter-set orbit."""
    bit = {b: 1 << i for i, b in enumerate(tau.letters)}
    masks = {}

    def mask(b):
        if b not in masks:
            masks[b] = reduce(or_, map(bit.__getitem__, set(tau.image(b))))
        return masks[b]
    return all(mask(b) == reduce(or_, map(mask, set(tau.image(b))))
               for b in tau.letters)


def to_coding(sigma, phi, a):
    """Cobham slot construction: from non-erasing sigma and phi with
    |phi(sigma(b))| >= |phi(b)| >= 1, build (tau, kappa, d0) with kappa a
    coding and kappa(tau^omega(d0)) = phi(sigma^omega(a)).

    One slot (b, i) per position of phi(b).  The slot word of sigma(b) is
    split evenly over the slots of b (split_evenly, as in the proof of
    Cobham's theorem), so when |phi(sigma(b))| >= 2|phi(b)| for every b,
    every slot grows and the decision skips the Pansiot dichotomy.

    Short even runs may need a power of tau for their letter sets to
    settle, and that power multiplies every image (a 128-slot couple with
    images of up to 199 letters passes the compose cap at power 2).  So
    when the even tau is not settled at the first power, the first slot of
    b takes the surplus and every other slot one letter."""
    if not sigma.is_non_erasing or not phi.is_non_erasing:
        raise PreconditionError("to_coding: erasing input")
    if not is_prolongable(sigma, a):
        raise PreconditionError("to_coding: seed not prolongable")

    width = {b: len(phi.image(b)) for b in sigma.letters}
    if sum(sum(map(width.__getitem__, sigma.image(b)))
           for b in sigma.letters) > DEFAULT_COMPOSE_CAP:
        raise ResourceLimitError(
            f"to_coding: slot images exceed {DEFAULT_COMPOSE_CAP} letters")
    # one name per slot, shared by every image it occurs in
    slots = {b: tuple(f"({b},{i})" for i in range(width[b]))
             for b in sigma.letters}
    blocks = {}
    kappa_images = {}
    for b in sigma.letters:
        blocks[b] = tuple(
            chain.from_iterable(map(slots.__getitem__, sigma.image(b))))
        if len(blocks[b]) < width[b]:
            raise PreconditionError(f"to_coding: image of {b!r} too short")
        for name, x in zip(slots[b], phi.image(b)):
            kappa_images[name] = (x,)

    def slot_coding(split):
        return Morphism({
            name: run for b in sigma.letters
            for name, run in zip(slots[b], split(blocks[b], width[b]))})

    tau = slot_coding(split_evenly)
    # the two splits differ only where b has two slots and two surplus letters
    if any(1 < width[b] < len(blocks[b]) - 1 for b in sigma.letters) \
            and not _letter_sets_settled(tau):
        tau = slot_coding(_absorb_surplus)
    kappa = Morphism(kappa_images, codomain=phi.codomain)
    d0 = slots[a][0]
    if not is_prolongable(tau, d0):
        raise InternalCheckError("to_coding: derived seed not prolongable")
    for b in sigma.letters:
        if kappa(tau(slots[b])) != phi(sigma.image(b)):
            raise InternalCheckError("to_coding: slot identity broken")
    return tau, kappa, d0


@dataclass(frozen=True)
class SubstitutiveRepresentation:
    """y = kappa(tau^omega(seed)) with the certified properties of the module
    docstring; kappa maps into the original output alphabet."""

    tau: Morphism
    kappa: Morphism
    seed: str
    certified: frozenset

    def verify(self):
        tau, kappa, seed = self.tau, self.kappa, self.seed
        _assert_p1_p2(tau, "verify")
        if tau.domain != {seed} | set(tau.image(seed)):
            raise InternalCheckError("verify: P3 fails")
        if not (tau.is_non_erasing and is_prolongable(tau, seed)):
            raise InternalCheckError("verify: P4 fails")
        if not kappa.is_coding or kappa.domain != tau.domain:
            raise InternalCheckError("verify: kappa not a coding over the alphabet")
        return True

    @cached_property
    def engine(self):
        """The interned FactorEngine of tau, built on first use and shared
        by expand_image, finalcheck and the confirmation of this instance."""
        return FactorEngine(self.tau)

    def expand_letters(self, n):
        """The first n letters of y, uncapped, from FactorEngine.coded_prefix."""
        return self.engine.coded_prefix((self.seed,), n, self.kappa)

    def expand_image(self, n):
        """The first n letters of y, as a word."""
        return tuple(self.expand_letters(n))


def _assert_p1_p2(sigma, where):
    if sigma.facts.decomposition.p != 1:
        raise InternalCheckError(f"{where}: P1 fails")
    if not sigma.facts.p2:
        raise InternalCheckError(f"{where}: P2 fails")


def substitutive_representation(sigma, phi, a, fidelity=400):
    """Full normalization pipeline for y = lim phi(sigma^n(a)), a prolongable.

    Raises BoundedImageError when y is finite (no infinite limit word exists),
    and verifies the result against a directly expanded prefix of y."""
    if not is_prolongable(sigma, a):
        raise PreconditionError("substitutive_representation: seed not prolongable")
    original = (sigma, phi, a)

    # the stabilized power has properties P1 and P2
    cur_sigma = power(sigma, sigma.facts.stable_exponent())
    cur_sigma, cur_phi, _ = restrict_to_reachable(cur_sigma, phi, (a,))

    # alternate the two eliminations until neither applies; each round shrinks
    # the alphabet, and both preserve P1/P2
    while True:
        if not cur_sigma.is_non_erasing:
            cur_sigma, cur_phi, a = eliminate_erasing(cur_sigma, cur_phi, a)
        elif phi_dead_letters(cur_sigma, cur_phi):
            cur_sigma, cur_phi, a = eliminate_phi_dead(cur_sigma, cur_phi, a)
        else:
            break
        if len(cur_sigma.image(a)) < 2:
            raise BoundedImageError("fixed point collapses to a finite word")
    _assert_p1_p2(cur_sigma, "after elimination")

    if not image_is_infinite(cur_sigma, cur_phi, a):
        raise BoundedImageError("image sequence converges to a finite word")

    cur_sigma, cur_phi = achieve_growth_inequalities(cur_sigma, cur_phi, a)
    tau, kappa, d0 = to_coding(cur_sigma, cur_phi, a)

    tau = power(tau, tau.facts.stable_exponent())
    tau, kappa, _ = restrict_to_reachable(tau, kappa, (d0,))

    rep = SubstitutiveRepresentation(tau, kappa, d0, ALL_PROPERTIES)
    rep.verify()
    if fidelity:
        _check_fidelity(rep, original, fidelity)
    return rep


def _check_fidelity(rep, original, n):
    """Compare rep with lim phi(sigma^k(a)), which the caller has shown to be
    infinite, on its first n letters, read off the fixed point chunk by chunk."""
    sigma, phi, a = original
    want = []
    for chunk in fixed_point_chunks(sigma, a):
        want.extend(phi(chunk))
        if len(want) >= n:
            break
    if rep.expand_image(n) != tuple(want[:n]):
        raise InternalCheckError("representation disagrees with direct expansion")
