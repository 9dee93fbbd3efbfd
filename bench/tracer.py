"""Layer spans for the traced benchmark child, installed from outside nonlift.

`Tracer.install()` replaces every cross-layer entry point with a timing
wrapper: each function one layer imports by name from another (for example
`nonlift.lift_checker.collinear_A`), each public function of a layer that
another layer reaches through the module object (`cli` calls
`lift_checker.propagate_forced_lift`), and the `ProjPointA` and
`ProjPointFp` constructors and `ProjPointA.reduce`.  A wrapper called from
inside its own layer passes straight through, so only boundary crossings
are timed.  Self time comes from a span stack: a span's duration minus the
durations of the spans it encloses.

Every boundary is aggregated as calls, total and self time, errors and
counters, keyed by the layer entry it happened under (the function `cli`
called).  Individual spans are kept only for operations and layer entries.
Results and exceptions pass through unchanged.

Method calls on another layer's objects (ring arithmetic, `to_json`,
`repr`) are not boundaries; they count towards the caller's self time.
"""

from __future__ import annotations

import importlib
import time
from types import FunctionType, ModuleType

LAYERS = ("cli", "lift_checker", "local_ring", "finite_geometry", "motive")

# boundary name -> (layer, metric name) for the per-call local_ring and
# finite_geometry metrics
CALL_METRICS = {
    "collinear_A": ("local_ring", "collinear"),
    "ProjPointA.reduce": ("local_ring", "reduce"),
    "line_through_A": ("local_ring", "join"),
    "line_intersect_A": ("local_ring", "meet"),
    "ProjPointA": ("local_ring", "point"),
    "ProjPointFp": ("finite_geometry", "point"),
}


class Tracer:
    """Span stack plus per-boundary aggregates for one child process."""

    def __init__(self):
        self.stack = []  # frames: [layer, name, start, time of enclosed spans]
        self.entry = None  # the boundary cli crossed for the current work
        self.agg = {}  # (entry, name) -> [layer, calls, total, self, errors]
        self.counters = {}  # (entry, counter) -> value
        self.spans = []  # operation and layer-entry spans
        self.ops = 0  # operations started
        self.installed = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer, name):
        if len(self.stack) == 1:
            self.entry = name
        frame = [layer, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, failed, record=True):
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        layer, name, start, inner = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        key = (self.entry, name)
        row = self.agg.get(key)
        if row is None:
            row = self.agg[key] = [layer, 0, 0.0, 0.0, 0]
        row[1] += 1
        row[2] += duration
        row[3] += duration - inner
        row[4] += failed
        if record and len(stack) <= 1:
            self.spans.append({"op": self.ops, "name": name, "layer": layer, "start": start,
                               "end": end, "self": duration - inner, "error": failed})

    def count(self, counter, value):
        key = (self.entry, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def op(self, label, fn, *args):
        """Run one operation as a `cli` span."""
        self.ops += 1
        self.entry = label
        frame = self._enter("cli", label)
        try:
            result = fn(*args)
        except BaseException:
            self._exit(frame, True)
            raise
        self._exit(frame, False)
        return result

    def wrap(self, fn, layer, name, hook=None, record=True):
        stack, enter, exit_ = self.stack, self._enter, self._exit

        def boundary(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(frame, True, record)
                raise
            exit_(frame, False, record)
            if hook is not None:
                hook(self, result)
            return result

        boundary.__wrapped__ = fn
        boundary.bench_boundary = name
        return boundary

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, layer, name, hook=None, record=True):
        original = getattr(owner, attr)
        self.installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, name, hook, record))

    def install(self):
        mods = {layer: importlib.import_module(f"nonlift.{layer}") for layer in LAYERS}
        layer_of = {mod.__name__: layer for layer, mod in mods.items()}
        for layer, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and layer_of.get(value.__module__, layer) != layer:
                    target = layer_of[value.__module__]
                    self._patch(mod, attr, target, attr, HOOKS.get(attr) or _motive_hook(target))
                elif isinstance(value, ModuleType) and layer_of.get(value.__name__, layer) != layer:
                    target = layer_of[value.__name__]
                    for fname, fn in list(vars(value).items()):
                        if (isinstance(fn, FunctionType) and fn.__module__ == value.__name__
                                and not fname.startswith("_")):
                            self._patch(value, fname, target, fname,
                                        HOOKS.get(fname) or _motive_hook(target))
        lr, fg = mods["local_ring"], mods["finite_geometry"]
        # constructors and reduce are too frequent to keep as single spans
        self._patch(lr.ProjPointA, "__init__", "local_ring", "ProjPointA", record=False)
        self._patch(lr.ProjPointA, "reduce", "local_ring", "ProjPointA.reduce", record=False)
        self._patch(fg.ProjPointFp, "__init__", "finite_geometry", "ProjPointFp", record=False)

    def uninstall(self):
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    # -- report ----------------------------------------------------------------

    def snapshot(self):
        """JSON-ready aggregates: boundary rows and counters, keyed by entry."""
        return {
            "agg": [[entry, name, *row] for (entry, name), row in self.agg.items()],
            "counters": [[entry, name, value] for (entry, name), value in self.counters.items()],
        }


def installed_boundaries():
    """Names of the boundary wrappers currently in place in nonlift."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"nonlift.{layer}")
        for value in vars(mod).values():
            candidates = [value, *vars(value).values()] if isinstance(value, type) else [value]
            found += [obj.bench_boundary for obj in candidates if hasattr(obj, "bench_boundary")]
    return sorted(set(found))


# -- counters read off results at the boundary ------------------------------------


def _collinear(tracer, result):
    if result is False:
        tracer.count("collinear_false", 1)


def _nodes(tracer, result):
    tracer.count("nodes", result.nodes_explored)


def _lines(tracer, result):
    tracer.count("lines", len(result))


def _inclusions(tracer, result):
    tracer.count("inclusions", len(result.inclusions))


def _coeff_bits(tracer, result):
    cls = getattr(result, "cls", None)
    if cls is not None:
        tracer.count("coeff_bits", sum(abs(c).bit_length() for c in cls.coeffs))


HOOKS = {
    "collinear_A": _collinear,
    "brute_force_lift_search": _nodes,
    "enumerate_lines": _lines,
    "incidence_config": _inclusions,
    "mp_configuration": _inclusions,
}


def _motive_hook(layer):
    return _coeff_bits if layer == "motive" else None


# -- per-layer metrics of one pass ---------------------------------------------------


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(snapshot, out_bytes):
    """Every per-layer metric of one traced pass, from `Tracer.snapshot()`."""
    rows = snapshot["agg"]  # [entry, name, layer, calls, total, self, errors]
    counters = {(entry, name): value for entry, name, value in snapshot["counters"]}

    def total(name=None, entry=None, field=4):
        return sum(r[field] for r in rows
                   if (name is None or r[1] == name) and (entry is None or r[0] == entry))

    def counter(name, entry=None):
        return sum(v for (e, n), v in counters.items()
                   if n == name and (entry is None or e == entry))

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(r[5] for r in rows if r[2] == layer)
        out[f"{layer}.errors"] = sum(r[6] for r in rows if r[2] == layer)
    out["cli.out_bytes"] = out_bytes
    out["cli.us_per_kb"] = _ratio(out["cli.self_s"], out_bytes / 1024, 1e6)

    brute, check, prop = "brute_force_lift_search", "check_collinearity_preserving", \
        "propagate_forced_lift"
    nodes = counter("nodes")
    tests = total("collinear_A", brute, field=3)
    out["lift_checker.search.nodes"] = nodes
    out["lift_checker.search.nodes_per_s"] = _ratio(nodes, total(brute, brute))
    out["lift_checker.search.tests_per_node"] = _ratio(tests, nodes)
    out["lift_checker.search.accept_ratio"] = _ratio(nodes - counter("collinear_false", brute),
                                                     nodes)
    triples = total("collinear_A", check, field=3)
    out["lift_checker.check.triples"] = triples
    out["lift_checker.check.us_per_triple"] = _ratio(total(check, check), triples, 1e6)
    steps = total("line_intersect_A", prop, field=3)
    out["lift_checker.propagate.steps"] = steps
    out["lift_checker.propagate.us_per_step"] = _ratio(total(prop, prop), steps, 1e6)
    out["lift_checker.certificate_s"] = total("certificate_render")

    for name, (layer, metric) in CALL_METRICS.items():
        calls = total(name, field=3)
        out[f"{layer}.{metric}.calls"] = calls
        out[f"{layer}.{metric}.us"] = _ratio(total(name, field=5), calls, 1e6)
    out["local_ring.lifts.calls"] = total("enumerate_lifts", field=3)

    out["finite_geometry.lines_per_s"] = _ratio(counter("lines"), total("enumerate_lines"))
    config_s = total("incidence_config") + total("mp_configuration")
    out["finite_geometry.inclusions_per_s"] = _ratio(counter("inclusions"), config_s)
    out["finite_geometry.config_s"] = config_s
    out["motive.grass_s"] = total("grassmannian_class")
    out["motive.coeff_bits"] = counter("coeff_bits")
    return out
