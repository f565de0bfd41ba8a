"""Serialization, brute-force oracle, bundled corpus, and CLI surface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hd0l.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_NO,
    EXIT_YES,
    parse_system,
    run_cli,
    serialize_system,
)
from hd0l.corpus import CORPUS, run_corpus
from hd0l.errors import PreconditionError, SystemValidationError
from hd0l.words import canonicalize_up
from helpers import brute_force_up_check

FIB_DOC = ('{"A":["a","b"],"B":["a","b"],'
           '"sigma":{"a":["a","b"],"b":["a"]},'
           '"phi":{"a":["a"],"b":["b"]},"w":["a"]}')


def make_doc(sigma, phi=None, w="a", b=None):
    letters = sorted(sigma)
    if phi is None:
        phi = {a: a for a in letters}
    out = sorted(b) if b else sorted({x for img in phi.values() for x in img})
    return json.dumps({
        "A": letters,
        "B": out,
        "sigma": {a: list(sigma[a]) for a in letters},
        "phi": {a: list(phi[a]) for a in letters},
        "w": list(w),
    })


def write_doc(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ brute oracle


def test_oracle_preperiod_then_constant():
    assert brute_force_up_check("abbbbbbbbb", 3, 3) == (("a",), ("b",))


def test_oracle_pure_periodic():
    assert brute_force_up_check("ab" * 8, 2, 4) == ((), ("a", "b"))


def test_oracle_fibonacci_prefix_has_no_alignment():
    from hd0l.words import expand_fixed_point
    from conftest import m
    prefix = expand_fixed_point(m({"a": "ab", "b": "a"}), "a", 500)
    assert brute_force_up_check(prefix, 100, 50) is None


def test_oracle_found_pair_needs_only_its_own_evidence():
    # bounds exceed the prefix, but the winning pair shows three periods
    assert brute_force_up_check("abbbbbbbbb", 3, 3) == (("a",), ("b",))


def test_oracle_rejects_unrefutable_absence():
    from hd0l.words import expand_fixed_point
    from conftest import m
    prefix = expand_fixed_point(m({"a": "ab", "b": "a"}), "a", 20)
    with pytest.raises(PreconditionError):
        brute_force_up_check(prefix, 10, 10)


def test_oracle_returns_canonical_pair():
    # whenever a pair exists within bounds, smallest-lexicographic equals
    # the canonical form of the generating pair
    import random
    rng = random.Random(7)
    for _ in range(200):
        u = [rng.choice("xy") for _ in range(rng.randint(0, 4))]
        v = [rng.choice("xy") for _ in range(rng.randint(1, 4))]
        canon = canonicalize_up(tuple(u), tuple(v))
        length = 8 + 3 * 6
        prefix = tuple((u + v * length)[:length])
        got = brute_force_up_check(prefix, 8, 6)
        assert got == (canon.preperiod, canon.period)


# ------------------------------------------------------------ serialization


def test_parse_valid_fibonacci_document():
    system = parse_system(FIB_DOC)
    assert system.alphabet_a == ("a", "b")
    assert system.sigma.image("a") == ("a", "b")
    assert system.seed == ("a",)


def test_parse_serialize_round_trip():
    system = parse_system(FIB_DOC)
    assert parse_system(serialize_system(system)) == system
    for entry in CORPUS:
        assert parse_system(serialize_system(entry.system)) == entry.system


def test_parse_rejects_empty_seed():
    doc = FIB_DOC.replace('"w":["a"]', '"w":[]')
    with pytest.raises(SystemValidationError, match="w must be non-empty"):
        parse_system(doc)


def test_parse_names_undeclared_letters():
    doc = FIB_DOC.replace('"b":["a"]', '"b":["z"]')
    with pytest.raises(SystemValidationError, match="'z'"):
        parse_system(doc)


def test_parse_rejects_unknown_members():
    doc = FIB_DOC[:-1] + ',"note":"x"}'
    with pytest.raises(SystemValidationError, match="unknown members: note"):
        parse_system(doc)


def test_parse_rejects_missing_members():
    with pytest.raises(SystemValidationError, match="missing members: phi"):
        parse_system('{"A":["a"],"B":["a"],"sigma":{"a":["a"]},"w":["a"]}')


def test_parse_rejects_non_json():
    with pytest.raises(SystemValidationError, match="not valid JSON"):
        parse_system("sigma: a -> ab")
    with pytest.raises(SystemValidationError, match="JSON object"):
        parse_system('["a"]')


def test_parse_collects_every_violation():
    try:
        parse_system('{"A":["a"],"B":["0"],"sigma":{"a":["a","z"]},'
                     '"phi":{"a":["0"],"q":["0"]},"w":[]}')
    except SystemValidationError as exc:
        text = "\n".join(exc.problems)
        assert "'z'" in text
        assert "'q'" in text
        assert "w must be non-empty" in text
    else:
        pytest.fail("expected a validation error")


# ----------------------------------------------------------------- corpus


def test_corpus_all_entries_pass():
    results = run_corpus()
    assert [r.entry.name for r in results] == [e.name for e in CORPUS]
    assert all(r.ok for r in results), [
        (r.entry.name, r.detail) for r in results if not r.ok]


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# golden file -> command line run on every corpus entry
GOLDEN = {
    "corpus_decide.jsonl": ["decide", "--json", "--trace"],
    "corpus_analyze.jsonl": ["analyze"],
}


def corpus_outputs(directory, command):
    """Exit code and output of `command` on every corpus entry, one JSON
    line each.  After a change meant to alter them, rewrite the golden
    files with
    PYTHONPATH=src:tests python -c 'import test_cli; test_cli.write_golden()'"""
    rows = ""
    for entry in CORPUS:
        path = write_doc(directory, "doc.json", serialize_system(entry.system))
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = run_cli([command[0], path, *command[1:]])
        rows += json.dumps({"name": entry.name, "exit": code,
                            "stdout": printed.getvalue()}) + "\n"
    return rows


def write_golden():
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in GOLDEN.items():
            (GOLDEN_DIR / name).write_text(
                corpus_outputs(Path(tmp), command), encoding="utf-8")


def _matches_golden(tmp_path, name):
    want = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    return corpus_outputs(tmp_path, GOLDEN[name]) == want


def test_corpus_decide_matches_golden_file(tmp_path):
    assert _matches_golden(tmp_path, "corpus_decide.jsonl")


def test_corpus_analyze_matches_golden_file(tmp_path):
    """analyze prints the component power, every block's kind and role and
    the letter classes, which no other test pins for the whole corpus."""
    assert _matches_golden(tmp_path, "corpus_analyze.jsonl")


def test_corpus_has_required_shapes():
    names = {e.name for e in CORPUS}
    assert len(CORPUS) >= 10
    assert {"fibonacci", "thue-morse"} <= names
    # at least one erasing system, one Yes, one No of each diagnostic family
    assert any(not e.system.phi.is_non_erasing for e in CORPUS)
    diagnostics = {e.diagnostic for e in CORPUS if not e.periodic}
    assert len(diagnostics) == 3
    assert sum(1 for e in CORPUS if e.periodic) >= 4


# --------------------------------------------------------------------- CLI


def test_cli_decide_yes(tmp_path, capsys):
    path = write_doc(tmp_path, "abb.json",
                     make_doc({"a": "ab", "b": "bb"}))
    assert run_cli(["decide", path]) == EXIT_YES
    out = capsys.readouterr().out
    assert "answer: yes" in out
    assert "u = a" in out and "v = b" in out


def test_cli_decide_no(tmp_path, capsys):
    path = write_doc(tmp_path, "fib.json", FIB_DOC)
    assert run_cli(["decide", path]) == EXIT_NO
    out = capsys.readouterr().out
    assert "answer: no" in out
    assert "AperiodicSubComponent" in out


def test_cli_decide_json_document(tmp_path, capsys):
    path = write_doc(tmp_path, "abb.json",
                     make_doc({"a": "ab", "b": "bb"}))
    assert run_cli(["decide", path, "--json", "--trace"]) == EXIT_YES
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "yes"
    assert (doc["u"], doc["v"]) == (["a"], ["b"])
    assert doc["v"], "yes answers carry a non-empty period"
    assert doc["certified"] is True
    assert doc["trace"], "trace requested but empty"


def test_cli_decide_invalid_document(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", '{"A":[]}')
    assert run_cli(["decide", path]) == EXIT_INVALID
    assert "missing members" in capsys.readouterr().err


def test_cli_decide_missing_file(capsys):
    assert run_cli(["decide", "/nonexistent/x.json"]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def rotation_doc(n, growing):
    """The n-cycle rotation c0 -> c1 -> ... -> c(n-1) -> c0 coded to one
    letter; with growing, the last letter maps to c0 c0 instead."""
    sigma = {f"c{i}": [f"c{(i + 1) % n}"] for i in range(n)}
    if growing:
        sigma[f"c{n - 1}"] = ["c0", "c0"]
    return json.dumps({
        "A": [f"c{i}" for i in range(n)],
        "B": ["0"],
        "sigma": sigma,
        "phi": {f"c{i}": ["0"] for i in range(n)},
        "w": ["c0"],
    })


def test_cli_decide_inconclusive_on_unstable_cap(tmp_path, capsys):
    # the growing 300-cycle rotation needs a stabilized power past the
    # default cap
    path = write_doc(tmp_path, "rot.json", rotation_doc(300, growing=True))
    assert run_cli(["decide", path]) == EXIT_INCONCLUSIVE
    assert "inconclusive" in capsys.readouterr().out


def test_cli_decide_bounded_rotation_needs_no_stabilized_power(tmp_path, capsys):
    # no letter of the bounded 300-cycle rotation grows, which settles the
    # answer before any stabilized power is looked for
    path = write_doc(tmp_path, "rot.json", rotation_doc(300, growing=False))
    assert run_cli(["decide", path, "--json", "--trace"]) == EXIT_NO
    doc = json.loads(capsys.readouterr().out)
    assert (doc["answer"], doc["certified"], doc["diagnostic"]) == (
        "no", True, "BoundedImage")
    assert doc["trace"] == ["every seed letter keeps bounded image lengths"]


# Systems whose decide once built an image far longer than the letters it
# needed (an expansion's last chunk, a whole next iterate, the slot images
# of a normalization) and died with a MemoryError; each now ends within
# 1.5 GB of address space, with the answer and diagnostic given here.
MEMORY_CASES = {
    "last-chunk": ({"a": "b", "b": "cbc", "c": "ab"},
                   {"a": "", "b": "", "c": "0"}, "c", "inconclusive",
                   "expand_until: word cap exceeded"),
    "finalcheck-expansion": ({"a": "bcc", "b": "c", "c": "da", "d": "ca"},
                             {"a": "0", "b": "", "c": "", "d": ""}, "c",
                             "yes", None),
    "window-sample": ({"a": "c", "b": "abc", "c": "bac"},
                      {"a": "1", "b": "01", "c": "0"}, "b", "no",
                      "AperiodicSubComponent"),
    "slot-images-4": ({"a": "ba", "b": "ddc", "c": "d", "d": "bbb"},
                      {"a": "1", "b": "00", "c": "00", "d": ""}, "a",
                      "inconclusive",
                      "to_coding: slot images exceed 4000000 letters"),
    "slot-images-3": ({"a": "bbc", "b": "cc", "c": "aa"},
                      {"a": "0", "b": "", "c": "1"}, "b", "inconclusive",
                      "to_coding: slot images exceed 4000000 letters"),
    "slot-alphabet": ({"a": "bbc", "b": "dca", "c": "aad", "d": "dc"},
                      {"a": "", "b": "0", "c": "1", "d": "1"}, "a",
                      "inconclusive",
                      "compose: image table exceeds 4000000 letters"),
}


def raw_limit_prefixes(sigma, phi, w, length, count):
    """phi(sigma^n(w w))[:length] for the count iterates n that follow the
    first one whose image covers length letters, by plain iteration; sigma
    is non-erasing, so each iterate can be cut at length letters."""
    x = w + w
    while len("".join(phi[c] for c in x)) < length:
        x = "".join(sigma[c] for c in x)[:length]
    out = []
    for _ in range(count):
        x = "".join(sigma[c] for c in x)[:length]
        out.append("".join(phi[c] for c in x)[:length])
    return out


LIMITED_DECIDE = """
import resource, sys
cap = 1_500_000_000
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from hd0l.cli import run_cli
sys.exit(run_cli(["decide", "--json", sys.argv[1]]))
"""


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_cli_decide_within_memory_limit(tmp_path, case):
    sigma, phi, w, answer, diagnostic = MEMORY_CASES[case]
    path = write_doc(tmp_path, "sys.json", make_doc(sigma, phi, w, b="01"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", LIMITED_DECIDE, path],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert "MemoryError" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["answer"] == answer
    if answer == "yes":
        assert proc.returncode == EXIT_YES
        assert doc["certified"] and doc["v"] == ["0"]
        return
    assert doc["diagnostic"] == diagnostic
    if answer == "inconclusive":
        assert proc.returncode == EXIT_INCONCLUSIVE
        return
    # an uncertified no: the raw iterates fall into residue classes mod 3
    # whose limits admit no u v^omega with |u|, |v| <= 200
    assert proc.returncode == EXIT_NO
    assert doc["certified"] is False
    prefixes = raw_limit_prefixes(sigma, phi, w, 2000, 6)
    assert prefixes[:3] == prefixes[3:]
    for prefix in prefixes[:3]:
        assert brute_force_up_check(prefix, 200, 200) is None


def test_cli_expand(tmp_path, capsys):
    path = write_doc(tmp_path, "abb.json",
                     make_doc({"a": "ab", "b": "bb"}))
    assert run_cli(["expand", path, "--length", "12"]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "a" + "b" * 11


def test_cli_expand_linear_growth_past_ten_thousand(tmp_path, capsys):
    # one new letter per step: a step-capped expansion stops at 10,000
    path = write_doc(tmp_path, "tail.json", make_doc({"b": "bc", "c": "c"}, w="b"))
    assert run_cli(["expand", path, "--length", "10050"]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "b" + "c" * 10049


def test_cli_expand_past_the_factor_word_cap(tmp_path, capsys):
    # expand holds no cap: its prefix may pass the word cap of the decide
    # paths, which an expansion's last image would otherwise trip
    from conftest import m
    from hd0l.factors import DEFAULT_MAX_WORD
    from hd0l.words import expand_fixed_point
    length = DEFAULT_MAX_WORD + 1
    path = write_doc(tmp_path, "tm.json", make_doc({"a": "ab", "b": "ba"}))
    assert run_cli(["expand", path, "--length", str(length)]) == EXIT_YES
    want = "".join(expand_fixed_point(m({"a": "ab", "b": "ba"}), "a", length))
    assert capsys.readouterr().out == want + "\n"


def test_cli_expand_aperiodic_limit(tmp_path, capsys):
    path = write_doc(tmp_path, "fib.json", FIB_DOC)
    assert run_cli(["expand", path, "--length", "13"]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "abaababaabaab"


def test_cli_expand_bounded_system(tmp_path, capsys):
    # no seed letter grows, which settles the answer before any stabilized
    # power; the bounded 300-cycle rotation's lies past the default cap
    for text in (make_doc({"a": "ab", "b": "b"}, w="b"),
                 rotation_doc(300, growing=False)):
        path = write_doc(tmp_path, "bounded.json", text)
        assert run_cli(["expand", path, "--length", "10"]) == EXIT_NO
        assert "no infinite limit" in capsys.readouterr().err


def test_cli_expand_prints_the_limit_word_past_the_power_threshold(
        tmp_path, capsys):
    # expand writes the coded string of one expansion; its output is the
    # word_str of the class limit's prefix word, for a bounded prefix zq
    # before the coded tail, and '.'-joined for a two-character letter
    from hd0l.factors import POWER_THRESHOLD
    from hd0l.words import word_str
    from test_acceptance import couple0_class0_prefix
    length = 3 * POWER_THRESHOLD + 1
    docs = [
        make_doc({"a": "ab", "b": "a", "c": "cd", "d": "e", "e": ""},
                 {"a": "x", "b": "y", "c": "z", "d": "q", "e": ""}, w="ca"),
        json.dumps({"A": ["a", "b"], "B": ["x1", "y"],
                    "sigma": {"a": ["a", "b"], "b": ["a"]},
                    "phi": {"a": ["x1", "y"], "b": ["y"]}, "w": ["a"]}),
    ]
    for text, head in zip(docs, ("zqxyx", "x1.y.y.x1.y")):
        path = write_doc(tmp_path, "sys.json", text)
        assert run_cli(["expand", path, "--length", str(length)]) == EXIT_YES
        out = capsys.readouterr().out
        want = word_str(couple0_class0_prefix(parse_system(text), length))
        assert out == want + "\n"
        assert out.startswith(head)


def test_cli_analyze(tmp_path, capsys):
    path = write_doc(tmp_path, "fib.json", FIB_DOC)
    assert run_cli(["analyze", path]) == EXIT_YES
    out = capsys.readouterr().out
    assert "component power p = 1" in out
    assert "primitive" in out
    assert "letter 'a': ToInfinity" in out


def test_cli_analyze_reports_length_classes(tmp_path, capsys):
    path = write_doc(tmp_path, "mix.json",
                     make_doc({"a": "ab", "b": "b"},
                              {"a": "0", "b": ""}, b="0"))
    assert run_cli(["analyze", path]) == EXIT_YES
    out = capsys.readouterr().out
    assert "letter 'a': Bounded" in out
    assert "letter 'b': ToZero" in out


def test_cli_normalize(tmp_path, capsys):
    path = write_doc(tmp_path, "fib.json", FIB_DOC)
    assert run_cli(["normalize", path]) == EXIT_YES
    out = capsys.readouterr().out
    assert "substitution tau:" in out
    assert "coding kappa:" in out
    assert "certified: CODING, P1, P2, P3, P4" in out


def test_cli_normalize_needs_prolongable_seed(tmp_path, capsys):
    path = write_doc(tmp_path, "b.json",
                     make_doc({"a": "ab", "b": "b"}, w="b"))
    assert run_cli(["normalize", path]) == EXIT_INVALID
    assert "prolongable" in capsys.readouterr().err


def test_cli_normalize_collapsing_fixed_point(tmp_path, capsys):
    path = write_doc(tmp_path, "ae.json",
                     make_doc({"a": "ae", "e": ""}, {"a": "a", "e": "e"},
                              w="a", b="ae"))
    assert run_cli(["normalize", path]) == EXIT_NO
    assert "no infinite limit" in capsys.readouterr().err


def test_cli_corpus(capsys):
    assert run_cli(["corpus"]) == EXIT_YES
    out = capsys.readouterr().out
    assert f"{len(CORPUS)}/{len(CORPUS)} entries pass" in out
    assert "FAIL" not in out


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli([])
    assert info.value.code == EXIT_INVALID
