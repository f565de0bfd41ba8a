"""Spans around the program's layer functions, for the traced run.

Each wrapped function is replaced by a wrapper in every hd0l module
namespace that binds it (the modules import each other with
`from .x import y`), or on its class for a method.  A span records its
name, the operation it belongs to, its parent span, start and end; spans
stay in memory until the run writes them out.  A layer's self time is its
span minus the time of its child spans.  A function that no longer exists
is reported as missing, never as zero.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# metric prefix -> (module, qualified name) of the wrapped function
TARGETS = {
    "factors.coded_window_floor": ("hd0l.factors", "FactorEngine.coded_window_floor"),
    "factors.expand_until": ("hd0l.factors", "FactorEngine.expand_until"),
    "factors.factors": ("hd0l.factors", "FactorEngine.factors"),
    "factors.finalcheck": ("hd0l.factors", "finalcheck"),
    "periodicity.primitive_periodicity": ("hd0l.periodicity", "primitive_periodicity"),
    "periodicity.confirm_prefix": ("hd0l.periodicity", "_confirm_prefix"),
    "periodicity.pansiot_classify": ("hd0l.periodicity", "pansiot_classify"),
    "periodicity.convert_case2_to_growing": ("hd0l.periodicity", "convert_case2_to_growing"),
    "periodicity.decide_substitutive": ("hd0l.periodicity", "decide_substitutive"),
    "hdol.confirm_limit": ("hd0l.hdol", "_confirm_limit"),
    "hdol.stabilized_power_exponent": ("hd0l.hdol", "stabilized_power_exponent"),
    "hdol.class_limits": ("hd0l.hdol", "class_limits"),
    "words.term": ("hd0l.words", "HD0LSystem.term"),
    "words.compose": ("hd0l.words", "compose"),
    "words.power": ("hd0l.words", "power"),
    "words.expand_fixed_point": ("hd0l.words", "expand_fixed_point"),
    "matrices.component_decomposition": ("hd0l.matrices", "component_decomposition"),
    "matrices.letterset_orbit": ("hd0l.matrices", "letterset_orbit"),
    "matrices.classify_letters": ("hd0l.matrices", "classify_letters"),
    "normalization.substitutive_representation": ("hd0l.normalization", "substitutive_representation"),
    "normalization.fidelity": ("hd0l.normalization", "_check_fidelity"),
    "cli.parse_system": ("hd0l.cli", "parse_system"),
}


def _result_len(call, result):
    return len(result)


def _scanned(call, result):
    # the scan reads max(n, sample_len) letters of the expanded sample
    return max(call.arguments["n"], call.arguments["sample_len"])


def _ruled_out(call, result):
    return int(result > call.arguments["n"])


def _returned(call, result):
    return result


# counter metric -> (span it belongs to, value of one call)
COUNTERS = {
    "factors.coded_window_floor.letters": ("factors.coded_window_floor", _scanned),
    "factors.coded_window_floor.ruled_out": ("factors.coded_window_floor", _ruled_out),
    "words.term.letters": ("words.term", _result_len),
    "words.expand_fixed_point.letters": ("words.expand_fixed_point", _result_len),
    "hdol.couples": ("hdol.stabilized_power_exponent", _returned),
    "hdol.class_limits.classes": ("hdol.class_limits", _result_len),
}

# the per-layer metrics a traced run reports, with their units
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text(encoding="utf-8"))["per_layer"]]


def _resolve(module_name, qualname):
    """(owner, attribute, function), or None when it no longer exists."""
    owner = sys.modules.get(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    if not callable(fn):
        return None
    return owner, parts[-1], fn


class Tracer:
    """Installs the wrappers and keeps spans and per-operation totals."""

    def __init__(self):
        self.spans = []       # [id, parent, name, op, start, end, self]
        self.missing = set()  # metric names that cannot be measured
        self.op = None
        self._stack = []      # [span id, child time] of open spans
        self._totals = defaultdict(float)

    def install(self):
        """Wrap every target; call after the hd0l modules are imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hd0l" or name.startswith("hd0l.")]
        for span, (module_name, qualname) in TARGETS.items():
            found = _resolve(module_name, qualname)
            if found is None:
                self.missing.update(
                    m for m, _ in PER_LAYER if m.startswith(span + "."))
                self.missing.update(
                    m for m, (s, _) in COUNTERS.items() if s == span)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(span, fn)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

    def _wrap(self, span, fn):
        counters = [(m, f) for m, (s, f) in COUNTERS.items() if s == span]
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        stack, spans, totals = self._stack, self.spans, self._totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][1] += total
                own = total - frame[1]
                spans[sid] = [sid, parent, span, self.op, start, end, own]
                totals[span + ".self_s"] += own
                totals[span + ".total_s"] += total
                totals[span + ".calls"] += 1
            for metric, value in counters:
                if metric in self.missing:
                    continue
                try:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    totals[metric] += value(call, result)
                except (AttributeError, KeyError, TypeError):
                    self.missing.add(metric)
            return result

        return wrapper

    def take_totals(self):
        """Totals since the last call, for one pass."""
        out = dict(self._totals)
        self._totals.clear()
        return out

    def report(self, per_pass, median):
        """The per-layer metrics: the median over passes of each total;
        a metric whose function is gone reads null and is marked missing."""
        metrics = {}
        for name, unit in PER_LAYER:
            if name in self.missing:
                metrics[name] = {"value": None, "unit": unit, "missing": True}
                continue
            value = median([p.get(name, 0) for p in per_pass])
            metrics[name] = {"value": value, "unit": unit}
        return metrics
