"""Command line interface: JSON system documents in, verdicts out.

A system document is a JSON object with exactly five members:

    {"A": ["a", "b"], "B": ["0", "1"],
     "sigma": {"a": ["a", "b"], "b": ["a"]},
     "phi": {"a": ["0"], "b": ["1"]},
     "w": ["a"]}

Letters are arbitrary non-empty strings so derived alphabets (pairs, blocks,
position slots) stay readable in analyze/normalize output.
"""

import argparse
import json
import sys

from .corpus import run_corpus
from .errors import (
    BoundedImageError,
    HD0LError,
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
    SystemValidationError,
)
from .hdol import class_limits, decide_hd0l, phi_length_classes, stabilized_power_exponent
from .matrices import classify_letters
from .normalization import restrict_to_reachable, substitutive_representation
from .periodicity import Limits
from .words import HD0LSystem, Morphism, is_prolongable, power, word_str

EXIT_YES = 0
EXIT_INVALID = 2
EXIT_NO = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5

EXIT_CODES = {
    "yes": EXIT_YES,
    "no": EXIT_NO,
    "invalid input": EXIT_INVALID,
    "inconclusive": EXIT_INCONCLUSIVE,
    "internal assertion failure": EXIT_INTERNAL,
}

DOCUMENT_MEMBERS = ("A", "B", "sigma", "phi", "w")


# ------------------------------------------------------------ serialization


def parse_system(text):
    """Parse and validate a JSON system document.

    Collects every violation before giving up, so one round trip reports all
    problems with their locations."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemValidationError([f"not valid JSON: {exc}"])
    if not isinstance(doc, dict):
        raise SystemValidationError(["document must be a JSON object"])
    problems = []
    unknown = sorted(set(doc) - set(DOCUMENT_MEMBERS))
    if unknown:
        problems.append("unknown members: " + ", ".join(unknown))
    missing = [name for name in DOCUMENT_MEMBERS if name not in doc]
    if missing:
        # cannot check the content of absent members
        problems.append("missing members: " + ", ".join(missing))
        raise SystemValidationError(problems)

    def alphabet(member):
        val = doc[member]
        if (not isinstance(val, list)
                or not all(isinstance(x, str) and x for x in val)):
            problems.append(
                f"{member} must be a list of non-empty letter strings")
            return ()
        return tuple(val)

    alpha_a = alphabet("A")
    alpha_b = alphabet("B")
    set_a, set_b = set(alpha_a), set(alpha_b)

    def images(member, codomain):
        val = doc[member]
        if not isinstance(val, dict):
            problems.append(f"{member} must map letters to letter lists")
            return {}
        out = {}
        for key, img in val.items():
            where = f"{member}[{key!r}]"
            if key not in set_a:
                problems.append(f"{where}: undeclared letter {key!r}")
                continue
            if not isinstance(img, list) or not all(
                    isinstance(x, str) for x in img):
                problems.append(f"{where}: image must be a list of letters")
                continue
            bad = [x for x in img if x not in codomain]
            for x in bad:
                problems.append(f"{where}: undeclared letter {x!r}")
            if not bad:
                out[key] = tuple(img)
        for a in alpha_a:
            if a not in val:
                problems.append(f"{member}: no image for {a!r}")
                out.setdefault(a, ())
        return out

    sigma_images = images("sigma", set_a)
    phi_images = images("phi", set_b)

    seed = doc["w"]
    if not isinstance(seed, list) or not all(
            isinstance(x, str) for x in seed):
        problems.append("w must be a list of letters")
        seed = []
    elif not seed:
        problems.append("w must be non-empty")
    else:
        for x in seed:
            if x not in set_a:
                problems.append(f"w: undeclared letter {x!r}")
    if problems:
        raise SystemValidationError(problems)
    return HD0LSystem(alpha_a, alpha_b,
                      Morphism(sigma_images, codomain=set_a),
                      Morphism(phi_images, codomain=set_b),
                      tuple(seed))


def serialize_system(system):
    """Inverse of parse_system; parse(serialize(s)) == s."""
    doc = {
        "A": list(system.alphabet_a),
        "B": list(system.alphabet_b),
        "sigma": {a: list(system.sigma.image(a)) for a in system.alphabet_a},
        "phi": {a: list(system.phi.image(a)) for a in system.alphabet_a},
        "w": list(system.seed),
    }
    return json.dumps(doc, indent=2)


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return parse_system(handle.read())


# -------------------------------------------------------------- subcommands


def _cmd_decide(args):
    system = _load(args.file)
    limits = Limits(primitive_bound=args.primitive_bound)
    outcome = decide_hd0l(system, limits=limits)
    doc = {
        "answer": "yes" if outcome.periodic else "no",
        "certified": outcome.certified,
        "diagnostic": outcome.diagnostic,
        "trace": list(outcome.trace) if args.trace else [],
    }
    if outcome.periodic:
        doc["u"] = list(outcome.up.preperiod)
        doc["v"] = list(outcome.up.period)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"answer: {doc['answer']}")
        if outcome.periodic:
            print(f"u = {word_str(outcome.up.preperiod)}")
            print(f"v = {word_str(outcome.up.period)}")
        if outcome.diagnostic:
            print(f"diagnostic: {outcome.diagnostic}")
        print(f"certified: {'yes' if outcome.certified else 'no'}")
        if args.trace:
            for line in outcome.trace:
                print(f"  {line}")
    return EXIT_YES if outcome.periodic else EXIT_NO


def _cmd_expand(args):
    system = _load(args.file)
    seed = tuple(system.seed)
    sigma, phi, _ = restrict_to_reachable(system.sigma, system.phi, seed)
    if classify_letters(sigma, phi).growing.isdisjoint(seed):
        print("no infinite limit: no seed letter grows", file=sys.stderr)
        return EXIT_NO
    sig_e = power(sigma, stabilized_power_exponent(sigma))
    couple = HD0LSystem(sig_e.letters, system.alphabet_b, sig_e, phi,
                        seed + seed)
    try:
        cls = class_limits(couple)
    except PreconditionError as exc:
        print(f"no infinite limit: {exc}", file=sys.stderr)
        return EXIT_NO
    print(word_str(cls[0].limit_letters(args.length)))
    return EXIT_YES


def _cmd_analyze(args):
    system = _load(args.file)
    sigma, phi = system.sigma, system.phi
    dec = sigma.facts.decomposition
    print(f"letters: {len(sigma.letters)}")
    print(f"component power p = {dec.p}")
    for i, blk in enumerate(dec.blocks):
        role = "principal" if blk.principal else "feeder"
        print(f"block {i}: {blk.kind} ({role}) letters "
              + ", ".join(blk.letters))
    print(f"image letter sets stabilize at power {stabilized_power_exponent(sigma)}")
    try:
        classes = phi_length_classes(sigma, phi)
    except PreconditionError:
        classes = dict.fromkeys(sigma.letters, "depends on the index residue")
    for a in sigma.letters:
        print(f"letter {a!r}: {classes[a]}")
    return EXIT_YES


def _cmd_normalize(args):
    system = _load(args.file)
    if len(system.seed) != 1 or not is_prolongable(system.sigma,
                                                   system.seed[0]):
        print("error: normalize requires a one-letter seed with sigma "
              "prolongable on it", file=sys.stderr)
        return EXIT_INVALID
    try:
        rep = substitutive_representation(system.sigma, system.phi,
                                          system.seed[0])
    except BoundedImageError as exc:
        print(f"no infinite limit: {exc}", file=sys.stderr)
        return EXIT_NO
    print("substitution tau:")
    for a in rep.tau.letters:
        print(f"  {a} -> {word_str(rep.tau.image(a))}")
    print("coding kappa:")
    for a in rep.kappa.letters:
        print(f"  {a} -> {word_str(rep.kappa.image(a))}")
    print(f"seed letter: {rep.seed}")
    print("certified: " + ", ".join(sorted(rep.certified)))
    return EXIT_YES


def _cmd_corpus(args):
    results = run_corpus()
    width = max(len(r.entry.name) for r in results)
    for r in results:
        mark = "pass" if r.ok else "FAIL"
        print(f"{mark}  {r.entry.name:<{width}}  {r.detail}")
    good = sum(1 for r in results if r.ok)
    print(f"{good}/{len(results)} entries pass")
    return EXIT_YES if good == len(results) else EXIT_INTERNAL


# --------------------------------------------------------------- dispatcher


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hd0l",
        description="Decide whether the image sequence of an HD0L system "
                    "converges to an ultimately periodic word.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="decide ultimate periodicity")
    d.add_argument("file", help="JSON system document")
    d.add_argument("--primitive-bound", type=int, default=None, metavar="N",
                   help="largest least period the primitive-component "
                        "oracle looks for (verdicts may come back "
                        "uncertified)")
    d.add_argument("--json", action="store_true",
                   help="print the verdict as JSON")
    d.add_argument("--trace", action="store_true",
                   help="include decision step records")
    d.set_defaults(func=_cmd_decide)

    x = sub.add_parser("expand", help="print a prefix of the resolved limit")
    x.add_argument("file", help="JSON system document")
    x.add_argument("--length", type=int, required=True, metavar="L",
                   help="prefix length to print")
    x.set_defaults(func=_cmd_expand)

    an = sub.add_parser("analyze",
                        help="print decomposition and letter classes")
    an.add_argument("file", help="JSON system document")
    an.set_defaults(func=_cmd_analyze)

    no = sub.add_parser("normalize",
                        help="print the certified coding representation")
    no.add_argument("file", help="JSON system document")
    no.set_defaults(func=_cmd_normalize)

    co = sub.add_parser("corpus", help="run the bundled regression corpus")
    co.set_defaults(func=_cmd_corpus)
    return parser


def run_cli(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        # a cap was hit, one of Limits or a fixed one such as the compose
        # cap; default limits hit them too (the 7-class parity split
        # exceeds pansiot_word_cap)
        if getattr(args, "json", False):
            print(json.dumps({"answer": "inconclusive", "certified": False,
                              "diagnostic": str(exc), "trace": []}, indent=2))
        else:
            print("answer: inconclusive")
            print(f"diagnostic: {exc}")
        return EXIT_INCONCLUSIVE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except HD0LError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
