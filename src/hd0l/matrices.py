"""The letter graph of an endomorphism: component decomposition, primitivity,
image lengths, letter-set orbits and letter growth classes.

Every routine reads the images and the letter sets letters(sigma^k(b)) of
the letter-set orbit; no matrix is built.  The graph has an edge from b to
every letter of sigma(b), and the graph of sigma^k an edge from b to every
letter of letters(sigma^k(b)).
"""

from dataclasses import dataclass
import weakref
from functools import cached_property
from math import gcd, lcm

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


def _edges(letters, sets):
    """adj[j] = sorted indices of the letters of sets[j]."""
    index = {a: i for i, a in enumerate(letters)}
    return [sorted(map(index.__getitem__, s)) for s in sets]


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
    letters = sigma.letters
    adj = _edges(letters, (set(sigma.image(a)) for a in letters))
    comps = _strong_components(len(letters), adj)
    return len(comps) == 1 and any(adj) and _cyclicity(comps[0], adj) == 1


def component_decomposition(sigma, orbit=None):
    """Decompose the letter graph of sigma into p and ordered blocks.

    p is the lcm of the cyclicities of the strongly connected components of
    the graph of sigma; the blocks are the components of the graph of
    sigma^p, read off the letter-set orbit (orbit, when given, is sigma's),
    in an order where every edge stays in its block or goes to a later one
    (verified).  A singleton block is null without a self-loop, unit when
    its component of sigma is one cycle on which every image holds exactly
    one letter of the component (sigma^p then fixes each of them), and
    primitive otherwise.  Every primitive block is verified to have
    cyclicity 1 under sigma^p: strongly connected and aperiodic, it is
    primitive.
    """
    if orbit is None:
        orbit = letterset_orbit(sigma)
    letters = sigma.letters
    n = len(letters)
    adj = _edges(letters, orbit.state_at(1))
    p = 1
    on_unit_cycle = set()
    for comp in _strong_components(n, adj):
        p = lcm(p, _cyclicity(comp, adj))
        inside = {letters[i] for i in comp}
        if all(sum(c in inside for c in sigma.image(letters[j])) == 1
               for j in comp):
            on_unit_cycle.update(comp)

    adj_p = _edges(letters, orbit.state_at(p))
    comps = _strong_components(n, adj_p)

    # comps arrive products-first; dependency order wants producers first.
    comps.reverse()

    raw = []
    for comp in comps:
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
# Letter-set orbits: letters(sigma^k(b)) for all k, without expanding words.

@dataclass(frozen=True)
class LetterSetOrbit:
    """Eventually periodic orbit of the per-letter image letter sets."""

    letters: tuple
    states: tuple      # states[k] = tuple of frozensets, aligned with letters
    preperiod: int
    period: int

    def state_at(self, k):
        if k < len(self.states):
            return self.states[k]
        s, t = self.preperiod, self.period
        return self.states[s + (k - s) % t]

    def letters_of(self, k, a):
        """letters(sigma^k(a))."""
        return self.state_at(k)[self.letters.index(a)]


def letterset_orbit(sigma, max_steps=100_000):
    """The letter sets letters(sigma^k(b)) for k = 0, 1, ... until a state
    repeats; letters(sigma^(k+1)(b)) is the union of letters(sigma^k(c))
    over the distinct letters c of sigma(b)."""
    if not sigma.is_endomorphism:
        raise PreconditionError("letterset_orbit: not an endomorphism")
    letters = sigma.letters
    image_letters = [set(sigma.image(a)) for a in letters]
    state = tuple(frozenset((a,)) for a in letters)
    states = [state]
    seen = {state: 0}
    for k in range(1, max_steps + 1):
        prev = dict(zip(letters, state)).__getitem__
        state = tuple(frozenset().union(*map(prev, img))
                      for img in image_letters)
        if state in seen:
            s = seen[state]
            return LetterSetOrbit(letters, tuple(states), s, k - s)
        seen[state] = k
        states.append(state)
    raise ResourceLimitError("letterset_orbit: no repetition found")


def satisfies_p2_at(orbit, e):
    """letters(sigma^e(b)) == letters(sigma^{2e}(b)) for every b; equivalently
    the letter sets of all sigma^{ke}(b), k >= 1, coincide."""
    return orbit.state_at(e) == orbit.state_at(2 * e)


def stabilizing_exponent(orbit, step=1, cap=None):
    """Smallest multiple e of step with letters(sigma^e(b)) ==
    letters(sigma^2e(b)) for every b, i.e. sigma^e has stable image letter
    sets.

    One always exists at or below step * (preperiod + period + 1): a multiple
    of the orbit period past the preperiod.  With a cap below that bound the
    search stops at the cap and raises ResourceLimitError.
    """
    limit = step * (orbit.preperiod + orbit.period + 1)
    stop = limit if cap is None else min(limit, cap)
    for e in range(step, stop + 1, step):
        if satisfies_p2_at(orbit, e):
            return e
    if cap is not None and cap < limit:
        raise ResourceLimitError(
            f"stabilized power: no stable exponent up to {cap}")
    raise InternalCheckError("no stabilizing exponent within the orbit bound")


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
        return stabilizing_exponent(self.orbit, self.decomposition.p, cap)


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
    large n, read off the cycle of the letter-set orbit.  Block rules,
    resolved against dependency order (a block's images use only letters of
    the same or later blocks):
      primitive block: every letter that is not mortal grows;
      unit block {b} (sigma^p(b) = x b y): b bounded iff x y is all mortal;
      null block {b}: b bounded iff every letter of sigma^p(b) is bounded.
    """
    dec, orbit = sigma.facts.decomposition, sigma.facts.orbit
    cycle = orbit.states[orbit.preperiod:]
    mortal = frozenset(
        a for i, a in enumerate(orbit.letters)
        if not any(phi is None or phi.image(c)
                   for state in cycle for c in state[i]))
    growing = set()
    bounded = set()
    for blk in reversed(dec.blocks):
        if blk.kind == PRIMITIVE:
            for a in blk.letters:
                (bounded if a in mortal else growing).add(a)
            continue
        b = blk.letters[0]
        image_letters = orbit.letters_of(dec.p, b)
        if blk.kind == UNIT:
            flank = image_letters - {b}
            (bounded if flank <= mortal else growing).add(b)
        else:
            (growing if image_letters & growing else bounded).add(b)
    if mortal - bounded:
        raise InternalCheckError("mortal letter classified as growing")
    return LetterClasses(frozenset(growing), frozenset(bounded), mortal)
