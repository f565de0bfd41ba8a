"""Systems and workloads of the benchmark.

Every system is written over construction letters, together with what is
known about it by hand: the kind of answer `hd0l decide` must give, the
witness pair (u, v) over B for positives, and the number of index classes
the raw iterates split into.  A workload is a list of operations on such
systems.  The seed renames the letters of A (never those of B) and fixes
the order of the operations, so the program sees only generated
documents, and renaming must change no verdict and no witness.

This module never imports hd0l.
"""

import json
import random
import string
from dataclasses import dataclass, replace

POSITIVE = "positive"
APERIODIC = "aperiodic"
CLASS_SPLIT = "class-split"
BOUNDED = "bounded"

# the wider scan bound of aperiodic-scan: every system still finishes at
# it, while 6-bonacci already hits the word cap at 3000
WIDE_BOUND = 2000

# the one operation that fails every time on the current program: linear
# growth past the 10,000-step cap of words.expand_fixed_point
KNOWN_FAILING_LENGTH = 10_050

# the aperiodic-scan operations whose negative the current program
# certifies; every other operation of every workload is certified, so an
# answer that loses its certificate fails its check
CERTIFIED_SCANS = frozenset({
    "decide fibonacci", "decide fibonacci --primitive-bound 2000",
    "decide thue-morse", "decide thue-morse --primitive-bound 2000",
    "decide period-doubling --primitive-bound 2000",
})


@dataclass(frozen=True)
class System:
    """An HD0L system (A, B, sigma, phi, w) with its hand-derived answer.

    sigma and phi map letters to tuples of letters; every letter of B is
    one character.  classes is the number of residues of n along which
    phi(sigma^n(w)) settles; source names where the answer comes from."""

    name: str
    sigma: dict
    phi: dict
    seed: tuple
    kind: str
    source: str
    witness: tuple = None
    diagnostic: str = None
    classes: int = 1

    @property
    def alphabet_b(self):
        return tuple(sorted({c for img in self.phi.values() for c in img}))


@dataclass(frozen=True)
class Op:
    """One call of the command line entry point on one system document.

    args are the arguments before the document path; pair names the
    default-bound operation whose certified negative this one must keep;
    certified says whether the answer must come back certified."""

    name: str
    system: System
    args: tuple
    pair: str = None
    certified: bool = True

    @property
    def command(self):
        return self.args[0]

    @property
    def length(self):
        return int(self.args[2]) if self.command == "expand" else None


def _system(name, sigma, phi=None, seed=None, **kw):
    sig = {a: tuple(img) for a, img in sigma.items()}
    if phi is None:
        phi = {a: a for a in sig}
    phm = {a: tuple(img) for a, img in phi.items()}
    if seed is None:
        seed = min(sig)
    return System(name, sig, phm, tuple(seed), **kw)


# ------------------------------------------------------------------ families


def fibonacci():
    return _system(
        "fibonacci", {"a": "ab", "b": "a"}, kind=APERIODIC,
        diagnostic="AperiodicSubComponent",
        source="Fibonacci word; Berstel, Fibonacci words - a survey (1986)")


def k_bonacci(k):
    letters = string.ascii_lowercase[:k]
    sigma = {letters[i]: letters[0] + letters[i + 1] for i in range(k - 1)}
    sigma[letters[-1]] = letters[0]
    return _system(
        f"{k}-bonacci", sigma, kind=APERIODIC,
        diagnostic="AperiodicSubComponent",
        source="k-bonacci word; Rauzy, Bull. SMF 110 (1982) for k = 3, "
               "Fogg, Substitutions in Dynamics (LNM 1794, 2002)")


def thue_morse():
    return _system(
        "thue-morse", {"a": "ab", "b": "ba"}, kind=APERIODIC,
        diagnostic="AperiodicSubComponent",
        source="Thue-Morse word; Allouche and Shallit, The ubiquitous "
               "Prouhet-Thue-Morse sequence (1999)")


def twisted_thue_morse():
    return _system(
        "twisted-thue-morse", {"a": "cb", "b": "ba", "c": "ab"},
        {"a": "0", "b": "1", "c": "0"}, kind=APERIODIC,
        diagnostic="AperiodicSubComponent",
        source="the coded limit is the Thue-Morse word over {0, 1}; "
               "Allouche and Shallit (1999)")


def period_doubling():
    return _system(
        "period-doubling", {"a": "ab", "b": "aa"}, kind=APERIODIC,
        diagnostic="AperiodicSubComponent",
        source="period-doubling word; Allouche and Shallit, Automatic "
               "Sequences (2003), section 6.3")


def rudin_shapiro():
    return _system(
        "rudin-shapiro", {"a": "ab", "b": "ac", "c": "db", "d": "dc"},
        {"a": "0", "b": "0", "c": "1", "d": "1"}, kind=APERIODIC,
        diagnostic="AperiodicSubComponent",
        source="Rudin-Shapiro word; Allouche and Shallit, Automatic "
               "Sequences (2003), section 5.3")


def thue_morse_erasing():
    # erasing m from sigma^n(a) leaves the n-th Thue-Morse iterate
    return _system(
        "thue-morse-erasing", {"a": "amb", "b": "bma", "m": "m"},
        {"a": "0", "b": "1", "m": ""}, kind=APERIODIC,
        diagnostic="AperiodicSubComponent",
        source="Thue-Morse word with an erased marker letter; Allouche "
               "and Shallit (1999)")


def preperiod_doubling():
    return _system(
        "preperiod-doubling", {"a": "ab", "b": "bb"}, kind=POSITIVE,
        witness=("a", "b"), source="sigma^n(a) = a b^(2^n - 1)")


def tail_appender():
    return _system(
        "tail-appender", {"b": "bc", "c": "c"}, kind=POSITIVE,
        witness=("b", "c"), source="sigma^n(b) = b c^n")


def mirror_insertion():
    return _system(
        "mirror-insertion", {"a": "aca", "c": "c"}, kind=POSITIVE,
        witness=("", "ac"), source="sigma^n(a) = (ac)^(2^n - 1) a")


def erasing_vanishing():
    return _system(
        "erasing-vanishing", {"g": "gc", "c": "cs", "s": "t", "t": "t"},
        {"g": "", "c": "x", "s": "y", "t": ""}, seed="g", kind=POSITIVE,
        witness=("x", "xy"),
        source="sigma^n(g) = g c (cs)(cst)(cstt)..., so phi gives "
               "x (xy)^(n-1)")


def case2_aba():
    return _system(
        "case2-aba", {"a": "aba", "b": "b"}, kind=POSITIVE,
        witness=("", "ab"),
        source="sigma^n(a) = (ab)^((3^n - 1)/2) a; bounded runs of b")


def case2_abba():
    return _system(
        "case2-abba", {"a": "abba", "b": "b"}, kind=POSITIVE,
        witness=("", "abb"),
        source="sigma^n(a) = (abb)^((4^n - 1)/3) a; bounded runs of b")


def case3_acac():
    return _system(
        "case3-acac", {"a": "acac", "c": "c"}, kind=APERIODIC,
        diagnostic="FinalcheckFailed",
        source="the runs of c follow the ruler sequence 1, 2, 1, 3, ..., "
               "so they are unbounded and no period exists")


def case3_ab_cb_c():
    return _system(
        "case3-ab-cb-c", {"a": "ab", "b": "cb", "c": "c"}, kind=APERIODIC,
        diagnostic="FinalcheckFailed",
        source="the limit is a b c b c^2 b c^3 b ..., whose runs of c grow")


def parity_split(k, matching):
    letters = [f"x{i}" for i in range(k)]
    sigma = {letters[i]: (letters[(i + 1) % k],) * 2 for i in range(k)}
    phi = {x: ("0", "1") for x in letters}
    if matching:
        return _system(
            f"parity-split-{k}-matching", sigma, phi, seed=(letters[0],),
            kind=POSITIVE, witness=("", "01"), classes=k,
            source=f"sigma^n(x0) = x(n mod {k})^(2^n) and every letter "
                   "codes to 01")
    phi[letters[0]] = ("1", "0")
    return _system(
        f"parity-split-{k}-mismatching", sigma, phi, seed=(letters[0],),
        kind=CLASS_SPLIT, diagnostic="ClassLimitsDiffer", classes=k,
        source=f"indices n = 0 mod {k} converge to (10)^omega, the others "
               "to (01)^omega")


def rotation(n, growing):
    letters = [f"c{i}" for i in range(n)]
    sigma = {letters[i]: (letters[i + 1],) for i in range(n - 1)}
    phi = {c: ("0",) for c in letters}
    if growing:
        sigma[letters[-1]] = (letters[0], letters[0])
        return _system(
            f"rotation-growing-{n}", sigma, phi, seed=(letters[0],),
            kind=POSITIVE, witness=("", "0"), classes=n,
            source="every letter codes to 0 and lengths double every "
                   f"{n} steps")
    sigma[letters[-1]] = (letters[0],)
    return _system(
        f"rotation-bounded-{n}", sigma, phi, seed=(letters[0],),
        kind=BOUNDED, diagnostic="BoundedImage", classes=n,
        source="sigma permutes the letters, so |phi(sigma^n(w))| = |w|")


def linear_growth():
    return replace(tail_appender(), name="linear-growth")


def doubling_tail():
    return replace(preperiod_doubling(), name="doubling-tail")


# ----------------------------------------------------------------- workloads


def _decide(system, bound=None, pair=None):
    args = ("decide", "--json")
    name = f"decide {system.name}"
    if bound is not None:
        args += ("--primitive-bound", str(bound))
        name += f" --primitive-bound {bound}"
    return Op(name, system, args, pair)


def _expand(system, length):
    return Op(f"expand {system.name} --length {length}", system,
              ("expand", "--length", str(length)))


def aperiodic_scan():
    systems = [fibonacci(), *(k_bonacci(k) for k in range(3, 7)),
               thue_morse(), twisted_thue_morse(), period_doubling(),
               rudin_shapiro(), thue_morse_erasing()]
    ops = []
    for s in systems:
        base = _decide(s)
        ops += [base, _decide(s, WIDE_BOUND, pair=base.name)]
    return [replace(op, certified=op.name in CERTIFIED_SCANS) for op in ops]


def periodic_classes():
    systems = [preperiod_doubling(), tail_appender(), mirror_insertion(),
               erasing_vanishing(), case2_aba(), case2_abba(),
               case3_acac(), case3_ab_cb_c()]
    for k in range(2, 6):
        systems += [parity_split(k, True), parity_split(k, False)]
    # at k = 6 the matching coding alone: its flank scan takes most of a
    # 6 s decide, and the mismatching one would double that for the same
    # layer, leaving one pass per run
    systems.append(parity_split(6, True))
    return [_decide(s) for s in systems]


def large_alphabet():
    systems = [rotation(n, False) for n in (60, 120, 180)]
    systems += [rotation(n, True) for n in (16, 32, 64)]
    return [_decide(s) for s in systems]


def expand_prefix():
    linear, fib, tm, dbl = (linear_growth(), fibonacci(), thue_morse(),
                            doubling_tail())
    ops = [_decide(s) for s in (linear, fib, tm, dbl)]
    ops += [_expand(linear, n) for n in (1000, 2000, 3000)]
    fixed = replace(linear, name="linear-growth-fixed")
    ops.append(_expand(fixed, KNOWN_FAILING_LENGTH))
    for s in (fib, tm, dbl):
        ops += [_expand(s, n) for n in (100_000, 300_000, 1_000_000)]
    return ops


WORKLOADS = {
    "aperiodic-scan": aperiodic_scan,
    "periodic-classes": periodic_classes,
    "large-alphabet": large_alphabet,
    "expand-prefix": expand_prefix,
}

# systems whose documents do not depend on the seed: the known failing
# operation must fail on the same input in every run
FIXED_SYSTEMS = frozenset({"linear-growth-fixed"})


# ---------------------------------------------------------------- generation


def rename(system, rng):
    """The same system with the letters of A renamed by rng."""
    letters = sorted(system.sigma)
    if len(letters) <= len(string.ascii_letters):
        names = rng.sample(string.ascii_letters, len(letters))
    else:
        width = len(str(len(letters)))
        order = rng.sample(range(len(letters)), len(letters))
        names = [f"q{j:0{width}d}" for j in order]
    new = dict(zip(letters, names))
    return replace(
        system,
        sigma={new[a]: tuple(new[c] for c in img)
               for a, img in system.sigma.items()},
        phi={new[a]: img for a, img in system.phi.items()},
        seed=tuple(new[c] for c in system.seed))


def build(workload, seed):
    """The workload's operations for this seed: letters of A renamed per
    system, operations in a seeded order."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    rng = random.Random(f"{workload}/{seed}")
    renamed = {}
    ops = []
    for op in WORKLOADS[workload]():
        s = op.system
        if s.name not in FIXED_SYSTEMS:
            if s.name not in renamed:
                renamed[s.name] = rename(s, rng)
            s = renamed[s.name]
        ops.append(replace(op, system=s))
    rng.shuffle(ops)
    return ops


def document(system):
    """The JSON system document the command line tool reads."""
    alphabet_a = list(system.sigma)
    return json.dumps({
        "A": alphabet_a,
        "B": list(system.alphabet_b),
        "sigma": {a: list(system.sigma[a]) for a in alphabet_a},
        "phi": {a: list(system.phi[a]) for a in alphabet_a},
        "w": list(system.seed),
    })
