"""The letter graph of an endomorphism: component decomposition, primitivity,
image lengths, letter-set orbits and letter growth classes.

The graph has an edge from b to every letter of sigma(b).  It is held once
per morphism as int bitmasks, bit j for letters[j]: S_k[b] is the mask of
letters(sigma^k(b)).  S_{j+k}[b] is the OR of S_k[c] over the bits c of
S_j[b], so any S_k takes O(log k) such compositions and the orbit S_0, S_1,
... is never listed.  Its period is the lcm of the cyclicities of the
strong components (Brualdi and Ryser, Combinatorial Matrix Theory, 3.4),
which is also the decomposition's power p; its preperiod, the least k with
S_k == S_{k+period}, a predicate that stays true once true, comes from an
exponential and then a binary search.

Mortal letters read reachability.  The letters in S_k[b] for infinitely
many k (the orbit's cycle states at b) are those reachable from a cyclic
strong component that b reaches: a walk of length at least |A| repeats a
letter, so it runs through a cycle, and a walk through a cycle of length L
extends L letters at a time.  One pass over the components gives that set
as a mask per letter.
"""

from dataclasses import dataclass, field
import weakref
from functools import cached_property, reduce
from math import gcd, lcm
from operator import or_

from .errors import InternalCheckError, PreconditionError, ResourceLimitError


NULL, UNIT, PRIMITIVE = "null", "unit", "primitive"


@dataclass(frozen=True)
class ComponentBlock:
    letters: tuple
    kind: str
    principal: bool


@dataclass(frozen=True)
class Decomposition:
    """Power p and ordered letter blocks such that the image under sigma^p of
    a letter uses only letters of its own block or of later blocks, every
    block null, unit, or primitive under sigma^p.

    Non-principal blocks (images escape the block) come first in dependency
    order, principal (closed) blocks last; q counts the non-principal ones.
    """

    p: int
    blocks: tuple
    q: int


def _strong_components(n, adj):
    """Iterative Tarjan; adj[u] = sorted product-letter indices. Returns SCCs
    in a deterministic order (reverse topological: products before producers)."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            u, pi = work[-1]
            if pi == 0:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = True
            advanced = False
            while pi < len(adj[u]):
                v = adj[u][pi]
                pi += 1
                if index[v] == -1:
                    work[-1] = (u, pi)
                    work.append((v, 0))
                    advanced = True
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index[v])
            if advanced:
                continue
            work.pop()
            if low[u] == index[u]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack[v] = False
                    comp.append(v)
                    if v == u:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
    return comps


def _cyclicity(comp, adj):
    """Period of a strongly connected vertex set: gcd of level(u)+1-level(v)
    over internal edges, levels from a directed BFS inside the component."""
    inside = set(comp)
    level = {comp[0]: 0}
    queue = [comp[0]]
    while queue:
        u = queue.pop(0)
        for v in adj[u]:
            if v in inside and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in comp:
        for v in adj[u]:
            if v in inside:
                g = gcd(g, abs(level[u] + 1 - level[v]))
    return g if g else 1


def is_primitive(sigma):
    """Whether sigma is primitive: its letter graph is one strongly connected
    component with at least one edge and cyclicity 1 (some power of sigma
    then sends every letter to an image holding every letter)."""
    if not sigma.letters:
        raise PreconditionError("is_primitive: empty alphabet")
    if not sigma.is_endomorphism:
        raise PreconditionError("is_primitive: not an endomorphism")
    orbit = sigma.facts.orbit
    return len(orbit.components) == 1 == orbit.period and any(orbit.masks)


def component_decomposition(sigma, orbit=None):
    """Decompose the letter graph of sigma into p and ordered blocks.

    p is the lcm of the cyclicities of the strongly connected components of
    the graph of sigma, the period of its letter-set orbit (orbit, when
    given, is sigma's); the blocks are the components of the graph of
    sigma^p, in an order where every edge stays in its block or goes to a
    later one (verified).  A singleton block is null without a self-loop,
    unit when its component of sigma is one cycle on which every image
    holds exactly one letter of the component (sigma^p then fixes each of
    them), and primitive otherwise.  Every primitive block is verified to
    have cyclicity 1 under sigma^p: strongly connected and aperiodic, it is
    primitive.
    """
    orbit = orbit or letterset_orbit(sigma)
    letters = sigma.letters
    n = len(letters)
    p = orbit.period
    on_unit_cycle = set()
    for comp in orbit.components:
        inside = {letters[i] for i in comp}
        if all(sum(c in inside for c in sigma.image(letters[j])) == 1
               for j in comp):
            on_unit_cycle.update(comp)

    adj_p = list(map(_bits, orbit.masks_at(p)))
    comps = orbit.components if p == 1 else _strong_components(n, adj_p)

    raw = []
    # comps arrive products-first; dependency order wants producers first.
    for comp in reversed(comps):
        members = tuple(letters[i] for i in comp)
        inside = set(comp)
        outside = any(i not in inside for j in comp for i in adj_p[j])
        if len(comp) == 1:
            j = comp[0]
            if j not in adj_p[j]:
                kind = NULL
            else:
                kind = UNIT if j in on_unit_cycle else PRIMITIVE
        else:
            kind = PRIMITIVE
        if kind == PRIMITIVE and _cyclicity(comp, adj_p) != 1:
            raise InternalCheckError(
                f"diagonal block {members} not primitive at p={p}")
        raw.append((members, kind, not outside))

    blocks = tuple(ComponentBlock(m, k, pr) for m, k, pr in raw if not pr) + \
        tuple(ComponentBlock(m, k, pr) for m, k, pr in raw if pr)
    q = sum(1 for b in blocks if not b.principal)

    pos = {a: bi for bi, blk in enumerate(blocks) for a in blk.letters}
    if any(pos[letters[i]] < pos[letters[j]]
           for j in range(n) for i in adj_p[j]):
        raise InternalCheckError("decomposition not block triangular")
    return Decomposition(p=p, blocks=blocks, q=q)


def image_lengths(sigma, k, phi=None):
    """|phi(sigma^k(b))| for every letter b (phi the identity when None),
    by k steps of a length vector over the images."""
    lengths = {b: 1 if phi is None else len(phi.image(b))
               for b in sigma.letters}
    for _ in range(k):
        lengths = {b: sum(map(lengths.__getitem__, sigma.image(b)))
                   for b in sigma.letters}
    return lengths


# ---------------------------------------------------------------------------
# Letter-set orbits: letters(sigma^k(b)) for all k, as masks (module docstring).

def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _then(first, second):
    """S_{j+k} from first = S_j and second = S_k."""
    done = {mask: reduce(or_, map(second.__getitem__, _bits(mask)), 0)
            for mask in set(first)}
    return tuple(map(done.__getitem__, first))


def _masks_at(powers, k):
    """S_k = S_{k//2} S_{k//2} (S_1), memoized; powers starts at S_0, S_1."""
    if k not in powers:
        half = _masks_at(powers, k // 2)
        whole = _then(half, half)
        powers[k] = _then(whole, powers[1]) if k & 1 else whole
    return powers[k]


@dataclass(frozen=True)
class LetterSetOrbit:
    """The letter graph of sigma as masks, and the orbit S_0, S_1, ..."""

    letters: tuple
    masks: tuple         # S_1, aligned with letters
    components: tuple    # strong components of sigma's graph, products first
    cyclic_reach: tuple  # letters reachable from a cyclic component b reaches
    preperiod: int
    period: int
    index: dict = field(compare=False, repr=False)
    _powers: dict = field(compare=False, repr=False)

    def masks_at(self, k):
        """S_k, memoized per k."""
        s, t = self.preperiod, self.period
        return _masks_at(self._powers, s + (k - s) % t if k >= s + t else k)

    def letters_in(self, mask):
        return frozenset(map(self.letters.__getitem__, _bits(mask)))


def letterset_orbit(sigma):
    """The letter graph of sigma, its strong components, and the preperiod
    and period of its letter-set orbit, found without listing the orbit."""
    if not sigma.is_endomorphism:
        raise PreconditionError("letterset_orbit: not an endomorphism")
    letters, n = sigma.letters, len(sigma.letters)
    index = {a: i for i, a in enumerate(letters)}
    masks = tuple(sum(1 << index[c] for c in set(sigma.image(a)))
                  for a in letters)
    adj = [_bits(mask) for mask in masks]
    comps = _strong_components(n, adj)
    period = lcm(1, *(_cyclicity(comp, adj) for comp in comps))

    # per letter, products first: the letters it reaches, and those past a cycle
    reach, cyclic = [0] * n, [0] * n
    for comp in comps:
        edges = [i for j in comp for i in adj[j]]
        mine = reduce(or_, map(reach.__getitem__, edges),
                      sum(1 << j for j in comp))
        down = reduce(or_, map(cyclic.__getitem__, edges), 0)
        if len(comp) > 1 or comp[0] in edges:
            down |= mine
        for j in comp:
            reach[j], cyclic[j] = mine, down

    powers = {0: tuple(1 << i for i in range(n)), 1: masks}

    def settled(k):
        return _masks_at(powers, k) == _masks_at(powers, k + period)

    lo, hi = -1, 0
    while not settled(hi):
        if hi > n * n:  # the index of an n x n Boolean matrix
            raise InternalCheckError("letterset_orbit: index past (n-1)^2+1")
        lo, hi = hi, max(1, 2 * hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if settled(mid) else (mid, hi)
    return LetterSetOrbit(letters, masks, tuple(map(tuple, comps)),
                          tuple(cyclic), hi, period, index, powers)


def satisfies_p2_at(orbit, e):
    """letters(sigma^e(b)) == letters(sigma^{2e}(b)) for every b; equivalently
    the letter sets of all sigma^{ke}(b), k >= 1, coincide."""
    return orbit.masks_at(e) == orbit.masks_at(2 * e)


def stabilizing_exponent(orbit, step=1, cap=None):
    """Smallest multiple e of step with letters(sigma^e(b)) ==
    letters(sigma^2e(b)) for every b, i.e. sigma^e has stable image letter
    sets.  S_e == S_2e says the orbit repeats from e on with period e: e is
    at least the preperiod and a multiple of the period.  With a cap below e
    it raises ResourceLimitError."""
    unit = lcm(step, orbit.period)
    e = unit * max(1, -(-orbit.preperiod // unit))
    if cap is not None and e > cap:
        raise ResourceLimitError(
            f"stabilized power: no stable exponent up to {cap}")
    if not satisfies_p2_at(orbit, e):
        raise InternalCheckError(f"letter sets not stable at power {e}")
    return e


class MorphismFacts:
    """The analysis of one endomorphism, each part computed on first read;
    kept per instance by Morphism.facts, as images never change."""

    def __init__(self, sigma):
        self._sigma = weakref.ref(sigma)  # no cycle: freed with sigma

    @cached_property
    def decomposition(self):
        return component_decomposition(self._sigma(), self.orbit)

    @cached_property
    def orbit(self):
        return letterset_orbit(self._sigma())

    @property
    def p2(self):
        return satisfies_p2_at(self.orbit, 1)

    def stable_exponent(self, cap=None):
        """Smallest multiple of the component power with stable letter sets."""
        return stabilizing_exponent(self.orbit, self.orbit.period, cap)


# ---------------------------------------------------------------------------
# Growth classification.

@dataclass(frozen=True)
class LetterClasses:
    """growing: |phi(sigma^n(a))| unbounded; bounded: the complement; mortal:
    the letters of bounded whose images eventually vanish entirely."""

    growing: frozenset
    bounded: frozenset
    mortal: frozenset


def classify_letters(sigma, phi=None):
    """Growth classes of the lengths |phi(sigma^n(a))| (phi the identity
    when None) from the component decomposition, with no simulation.

    A letter is mortal when phi erases every letter of sigma^n(a) for all
    large n: when no letter reachable from a cyclic component it reaches
    has a non-empty phi-image (module docstring).  Block rules, resolved
    against dependency order (a block's images use only letters of the
    same or later blocks):
      primitive block: every letter that is not mortal grows;
      unit block {b} (sigma^p(b) = x b y): b bounded iff x y is all mortal;
      null block {b}: b bounded iff every letter of sigma^p(b) is bounded.
    """
    dec, orbit = sigma.facts.decomposition, sigma.facts.orbit
    letters, index = orbit.letters, orbit.index
    live = -1 if phi is None else sum(
        1 << i for i, a in enumerate(letters) if phi.image(a))
    dead = sum(1 << i for i, reach in enumerate(orbit.cyclic_reach)
               if not reach & live)
    image, grow = orbit.masks_at(dec.p), 0
    for blk in reversed(dec.blocks):
        i = index[blk.letters[0]]
        if blk.kind == PRIMITIVE:
            grow |= sum(1 << index[a] for a in blk.letters) & ~dead
        elif image[i] & (~(1 << i) & ~dead if blk.kind == UNIT else grow):
            grow |= 1 << i
    if dead & grow:
        raise InternalCheckError("mortal letter classified as growing")
    growing = orbit.letters_in(grow)
    return LetterClasses(growing, frozenset(letters) - growing,
                         orbit.letters_in(dead))
