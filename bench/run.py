"""Benchmark of `hd0l decide` and `hd0l expand` through hd0l.cli.run_cli.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up writes the workload's system
documents; the timed set-up then imports hd0l from ./src and parses every
document, the first import of hd0l in the process.  The run then
makes whole passes over the workload's operations until S seconds have
gone, each operation one in-process run_cli call, and checks every output
against raw iteration (reference.py).  Times are scaled to a reference
interpreter speed (speed.py).  The last line of standard output is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics from wrapped
layer functions with --trace 1.  Details, and with --trace 1 the spans, go
to bench/out/.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_documents(ops, directory):
    directory.mkdir(parents=True, exist_ok=True)
    paths, texts = {}, {}
    for op in ops:
        name = op.system.name
        if name not in paths:
            texts[name] = workloads.document(op.system)
            paths[name] = directory / f"{name}.json"
            paths[name].write_text(texts[name], encoding="utf-8")
    return paths, texts


@dataclass
class Outcome:
    """One run_cli call: exit code (None when it raised), output, raw
    seconds, the speed scale around it, and its per-layer totals."""

    code: int
    stdout: str
    stderr: str
    raw_s: float
    scale: float
    layers: dict
    peak_mb: float

    @property
    def seconds(self):
        return self.raw_s * self.scale


def call(run_cli, argv):
    """One run_cli call, timed and speed-sampled."""
    out, err = io.StringIO(), io.StringIO()
    with speed.Probe() as probe:
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run_cli(argv)
        except Exception:  # noqa: BLE001 - one failed operation ends no run
            code = None
            err.write(traceback.format_exc(limit=3))
    return code, out.getvalue(), err.getvalue(), probe


def run_pass(argvs, run_cli, tracer, index):
    outcomes = []
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = f"{index}:{i}"
        code, stdout, stderr, probe = call(run_cli, argv)
        # garbage of one operation is never collected inside the next
        gc.collect()
        layers = tracer.take_totals() if tracer is not None else {}
        outcomes.append(Outcome(code, stdout, stderr, probe.raw_s,
                                probe.scale, layers, peak_rss_mb()))
    return outcomes


def check(op, evidence, outcome):
    if op.command == "expand":
        return reference.check_expand(evidence, outcome.stdout,
                                      outcome.code, op.length)
    return reference.check_decide(evidence, outcome.stdout, outcome.code,
                                  op.certified)


def pass_layers(outcomes):
    """Per-layer totals of one pass, times scaled like the operations."""
    totals = {}
    for o in outcomes:
        for name, value in o.layers.items():
            if name.endswith("_s"):
                value *= o.scale
            totals[name] = totals.get(name, 0) + value
    return totals


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hd0l" / "cli.py").is_file():
        print(f"error: no hd0l sources under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    paths, texts = write_documents(
        ops, OUT / "docs" / f"{args.workload}-{args.seed}")

    # ---- set-up: the cold import of hd0l and parsing every document
    with speed.Probe() as probe:
        sys.path.insert(0, str(ROOT / "src"))
        from hd0l import cli
        for text in texts.values():
            cli.parse_system(text)
    setup_raw = probe.raw_s
    setup_s = probe.raw_s * probe.scale

    # ---- reference evidence, untimed
    evidence = {}
    for op in ops:
        if op.system.name not in evidence:
            evidence[op.system.name] = reference.Evidence(op.system)
    for op in ops:
        if op.command == "expand" and \
                op.length != workloads.KNOWN_FAILING_LENGTH:
            evidence[op.system.name].expand_prefix(op.length)
    argvs = [[*op.args, str(paths[op.system.name])] for op in ops]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    # ---- whole passes until the time is spent
    passes, per_layer, problems = [], [], []
    attempted = failed = 0
    index_of = {op.name: i for i, op in enumerate(ops)}
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < args.seconds:
        outcomes = run_pass(argvs, cli.run_cli, tracer, len(passes))
        per_layer.append(pass_layers(outcomes))
        certified = 0
        for op, o in zip(ops, outcomes):
            attempted += 1
            if o.code in (EXIT_INCONCLUSIVE, EXIT_INTERNAL, None):
                failed += 1
                continue
            problem = check(op, evidence[op.system.name], o)
            if problem is None and op.pair is not None:
                problem = reference.check_pair(
                    outcomes[index_of[op.pair]].stdout, o.stdout)
            if problem is not None:
                problems.append(f"{op.name}: {problem}")
            elif op.command == "decide" and \
                    reference.parse_answer(o.stdout)["certified"] is True:
                certified += 1
        passes.append({
            "wall_s": sum(o.seconds for o in outcomes),
            "raw_wall_s": sum(o.raw_s for o in outcomes),
            "certified_verdicts": certified,
            "ops": {op.name: {"exit": o.code, "seconds": o.seconds,
                              "raw_s": o.raw_s, "peak_mb": o.peak_mb,
                              "stderr": o.stderr.strip()[-300:] or None}
                    for op, o in zip(ops, outcomes)},
        })

    def med(key):
        return statistics.median(p[key] for p in passes)

    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "op_p50_s": {"value": statistics.median(
            statistics.median(p["ops"][op.name]["seconds"] for p in passes)
            for op in ops), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        "certified_verdicts": {"value": med("certified_verdicts"),
                               "unit": "count"},
    }
    if tracer is not None:
        metrics = tracer.report(per_layer, statistics.median)
    else:
        metrics = end_to_end
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": sys.version.split()[0], "setup_raw_s": setup_raw,
              "end_to_end": end_to_end, "problems": problems,
              "passes": passes, "result": result}
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        (OUT / f"spans-{tag}.json").write_text(
            json.dumps({"fields": ["id", "parent", "name", "op", "start",
                                   "end", "self_s"],
                        "ops": [op.name for op in ops],
                        "spans": tracer.spans}), encoding="utf-8")
        for name in sorted(tracer.missing):
            print(f"missing: {name} (its function no longer exists)",
                  file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
