"""Incidence matrices, primitivity, component decomposition, letter growth classes.

Counting matrices keep exact (arbitrary precision) integer entries; reachability
questions run on boolean support matrices stored as per-row bitmasks.
"""

from dataclasses import dataclass
import weakref
from functools import cached_property
from math import gcd, lcm

from .errors import InternalCheckError, PreconditionError, ResourceLimitError


@dataclass(frozen=True)
class IncidenceMatrix:
    """rows[i][j] = number of occurrences of letters[i] in the image of letters[j]."""

    letters: tuple
    rows: tuple

    @property
    def n(self):
        return len(self.letters)

    def entry(self, a, b):
        return self.rows[self.letters.index(a)][self.letters.index(b)]

    def matmul(self, other):
        if self.letters != other.letters:
            raise PreconditionError("matmul: letter orders differ")
        n = self.n
        bt = tuple(zip(*other.rows))
        rows = tuple(
            tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt)
            for ra in self.rows)
        return IncidenceMatrix(self.letters, rows)

    def pow(self, e):
        return _binary_power(self, e, identity_matrix(self.letters))

    def support(self):
        masks = tuple(
            sum(1 << j for j, v in enumerate(row) if v) for row in self.rows)
        return SupportMatrix(self.letters, masks)


def _binary_power(base, e, result):
    """base^e by repeated squaring, result being the identity."""
    if e < 0:
        raise PreconditionError("pow: negative exponent")
    while e:
        if e & 1:
            result = result.matmul(base)
        e >>= 1
        if e:
            base = base.matmul(base)
    return result


def identity_matrix(letters):
    n = len(letters)
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return IncidenceMatrix(tuple(letters), rows)


def incidence_matrix(sigma, letters=None):
    """Incidence matrix of an endomorphism over a fixed letter order."""
    if letters is None:
        letters = sigma.letters
    letters = tuple(letters)
    if not (sigma.domain <= set(letters) and sigma.codomain <= set(letters)):
        raise PreconditionError("incidence_matrix: letters do not cover the morphism")
    index = {a: i for i, a in enumerate(letters)}
    n = len(letters)
    cols = []
    for b in letters:
        col = [0] * n
        for c in sigma.image(b):
            col[index[c]] += 1
        cols.append(col)
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return IncidenceMatrix(letters, rows)


@dataclass(frozen=True)
class SupportMatrix:
    """Boolean matrix; masks[i] has bit j set iff entry (i, j) is non-zero."""

    letters: tuple
    masks: tuple

    @property
    def n(self):
        return len(self.letters)

    def matmul(self, other):
        if self.letters != other.letters:
            raise PreconditionError("matmul: letter orders differ")
        out = []
        for r in self.masks:
            acc = 0
            while r:
                k = (r & -r).bit_length() - 1
                acc |= other.masks[k]
                r &= r - 1
            out.append(acc)
        return SupportMatrix(self.letters, tuple(out))

    def pow(self, e):
        one = SupportMatrix(self.letters, tuple(1 << i for i in range(self.n)))
        return _binary_power(self, e, one)

    def all_positive(self):
        full = (1 << self.n) - 1
        return all(m == full for m in self.masks)


def is_primitive(support):
    """Exact primitivity test: a single boolean power at the universal exponent
    n^2 - 2n + 2 is all-positive iff the matrix is primitive."""
    n = support.n
    if n == 0:
        raise PreconditionError("is_primitive: empty matrix")
    if n == 1:
        return bool(support.masks[0] & 1)
    return support.pow(n * n - 2 * n + 2).all_positive()


NULL, UNIT, PRIMITIVE = "null", "unit", "primitive"


@dataclass(frozen=True)
class ComponentBlock:
    letters: tuple
    kind: str
    principal: bool


@dataclass(frozen=True)
class Decomposition:
    """Power p and ordered letter blocks making the p-th power block lower
    triangular, every diagonal block null, unit, or primitive.

    Non-principal blocks (images escape the block) come first in dependency
    order, principal (closed) blocks last; q counts the non-principal ones.
    """

    p: int
    blocks: tuple
    q: int

    @property
    def letter_order(self):
        return tuple(a for blk in self.blocks for a in blk.letters)

    def block_index(self):
        return {a: i for i, blk in enumerate(self.blocks) for a in blk.letters}


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


def _adjacency(support):
    """adj[j] = indices i with letters[i] occurring in the image of letters[j]."""
    n = support.n
    cols = [[] for _ in range(n)]
    for i, m in enumerate(support.masks):
        while m:
            j = (m & -m).bit_length() - 1
            cols[j].append(i)
            m &= m - 1
    return [sorted(c) for c in cols]


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


def component_decomposition(matrix):
    """Decompose an incidence matrix into p and ordered diagonal blocks.

    p is the lcm of the cyclicity indices of the strongly connected components;
    the matrix of the p-th power is block lower triangular over the returned
    letter order with every diagonal block null, unit, or primitive (verified).
    The power is taken on the boolean support only: a singleton block is null
    without a self-loop there, unit when its component of the matrix itself is
    one cycle of weight-1 edges (the p-th power is then the identity on it),
    and primitive otherwise (its diagonal count is then at least 2).
    """
    letters = matrix.letters
    n = matrix.n
    support = matrix.support()
    adj = _adjacency(support)
    p = 1
    on_unit_cycle = set()
    for comp in _strong_components(n, adj):
        p = lcm(p, _cyclicity(comp, adj))
        if all(sum(matrix.rows[i][j] for i in comp) == 1 for j in comp):
            on_unit_cycle.update(comp)

    sp = support.pow(p)
    adj_p = _adjacency(sp)
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
            if not sp.masks[j] >> j & 1:
                kind = NULL
            else:
                kind = UNIT if j in on_unit_cycle else PRIMITIVE
        else:
            kind = PRIMITIVE
        if kind == PRIMITIVE:
            sub = _submatrix_support(sp, comp)
            if not is_primitive(sub):
                raise InternalCheckError(
                    f"diagonal block {members} not primitive at p={p}")
        raw.append((members, kind, not outside))

    blocks = tuple(ComponentBlock(m, k, pr) for m, k, pr in raw if not pr) + \
        tuple(ComponentBlock(m, k, pr) for m, k, pr in raw if pr)
    q = sum(1 for b in blocks if not b.principal)

    _check_triangular(sp, blocks)
    return Decomposition(p=p, blocks=blocks, q=q)


def _submatrix_support(support, comp):
    masks = tuple(sum(1 << jj for jj, j in enumerate(comp)
                      if support.masks[i] >> j & 1) for i in comp)
    return SupportMatrix(tuple(support.letters[i] for i in comp), masks)


def _check_triangular(sp, blocks):
    pos = {a: bi for bi, blk in enumerate(blocks) for a in blk.letters}
    letters = sp.letters
    for i, mask in enumerate(sp.masks):
        while mask:
            j = (mask & -mask).bit_length() - 1
            if pos[letters[i]] < pos[letters[j]]:
                raise InternalCheckError("decomposition not block triangular")
            mask &= mask - 1


def image_lengths(sigma, k, phi=None):
    """|phi(sigma^k(b))| for every letter b (phi the identity when None),
    read off the k-th power of the incidence matrix."""
    mat = incidence_matrix(sigma).pow(k)
    weights = [1 if phi is None else len(phi.image(c)) for c in mat.letters]
    return {
        b: sum(w * mat.rows[i][j] for i, w in enumerate(weights))
        for j, b in enumerate(mat.letters)}


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
    if not sigma.is_endomorphism:
        raise PreconditionError("letterset_orbit: not an endomorphism")
    letters = sigma.letters
    one = [frozenset(sigma.image(a)) for a in letters]
    idx = {a: i for i, a in enumerate(letters)}
    state = tuple(frozenset((a,)) for a in letters)
    states = [state]
    seen = {state: 0}
    for k in range(1, max_steps + 1):
        state = tuple(
            frozenset(c for b in cur for c in one[idx[b]]) for cur in state)
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
        return component_decomposition(incidence_matrix(self._sigma()))

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
