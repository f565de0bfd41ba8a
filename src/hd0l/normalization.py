"""Normalization of a morphic sequence into a coding of a clean fixed point.

The pipeline turns (sigma, phi, seed letter a) with sigma prolongable at a
into tau, kappa, d0 such that kappa is a coding, tau is non-erasing with
stable image letter sets and single-component decomposition, and
kappa(tau^omega(d0)) equals the limit of phi(sigma^n(a)).

Certified property names:
  P1      decomposition power of the incidence matrix is 1
  P2      letters(tau(b)) == letters(tau^2(b)) for every b
  P3      alphabet is exactly {seed} union letters(tau(seed))
  P4      tau is non-erasing and prolongable at the seed
  CODING  kappa maps every letter to a single letter
"""

from dataclasses import dataclass

from .errors import (
    BoundedImageError,
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
)
from .matrices import image_lengths
from .words import (
    DEFAULT_COMPOSE_CAP,
    Morphism,
    compose,
    expand_fixed_point,
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
    orbit = sigma.facts.orbit
    return frozenset().union(*(orbit.letters_of(1, b) for b in set(img[1:])))


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
    verified with incidence arithmetic and escalated until they hold; bounded
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
    before falling back to doubling."""
    targets = {b: len(phi.image(b)) for b in sigma.letters}
    ceiling = max(1, max(targets.values(), default=1))
    candidates = list(range(1, ceiling + 1)) + [
        ceiling << i for i in range(1, MAX_POWER_DOUBLINGS + 1)]
    for k in candidates:
        reached = image_lengths(sigma, k, phi)
        if all(reached[b] >= targets[b] for b in sigma.letters):
            return k
    return None


def to_coding(sigma, phi, a):
    """Cobham slot construction: from non-erasing sigma and phi with
    |phi(sigma(b))| >= |phi(b)| >= 1, build (tau, kappa, d0) with kappa a
    coding and kappa(tau^omega(d0)) = phi(sigma^omega(a)).

    One slot (b, i) per position of phi(b); the slot word of sigma(b) is split
    over the slots of b, the first slot absorbing the surplus."""
    if not sigma.is_non_erasing or not phi.is_non_erasing:
        raise PreconditionError("to_coding: erasing input")
    if not is_prolongable(sigma, a):
        raise PreconditionError("to_coding: seed not prolongable")

    if sum(len(phi.image(c)) for b in sigma.letters
           for c in sigma.image(b)) > DEFAULT_COMPOSE_CAP:
        raise ResourceLimitError(
            f"to_coding: slot images exceed {DEFAULT_COMPOSE_CAP} letters")
    # one name per slot, shared by every image it occurs in
    slots = {b: tuple(f"({b},{i})" for i in range(len(phi.image(b))))
             for b in sigma.letters}
    tau_images = {}
    kappa_images = {}
    for b in sigma.letters:
        blocks = [x for c in sigma.image(b) for x in slots[c]]
        own = slots[b]
        if len(blocks) < len(own):
            raise PreconditionError(f"to_coding: image of {b!r} too short")
        head = len(blocks) - len(own) + 1
        tau_images[own[0]] = tuple(blocks[:head])
        for i in range(1, len(own)):
            tau_images[own[i]] = (blocks[head + i - 1],)
        for name, x in zip(own, phi.image(b)):
            kappa_images[name] = (x,)
    tau = Morphism(tau_images)
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

    def expand_image(self, n):
        return self.kappa(expand_fixed_point(self.tau, self.seed, n))


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
