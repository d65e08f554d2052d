"""Per-layer spans and counts, recorded from outside the library.

Each traced public name is replaced by a wrapper at every place it is
looked up: the defining module, every troppadic module that imported it
by name, the package namespace, and the class attribute for methods.  A
span's self time is its duration minus the time of the spans inside it.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> (module, attribute path); every one is timed and counted
SPANS = {
    "cli.main": ("troppadic.cli", "main"),
    "bounds.system_root_bound": ("troppadic.bounds", "system_root_bound"),
    "bounds.make_pointed": ("troppadic.bounds", "make_pointed"),
    "bounds.box_E": ("troppadic.bounds", "box_E"),
    "bounds.stable_multiplicity": ("troppadic.bounds", "stable_multiplicity"),
    "tropical.trop_complex": ("troppadic.tropical", "trop_complex"),
    "tropical.connected_components": ("troppadic.tropical", "connected_components"),
    "polyhedra.from_hrep": ("troppadic.polyhedra", "QPolyhedron.from_hrep"),
    "polyhedra.from_points": ("troppadic.polyhedra", "QPolyhedron.from_points"),
    "polyhedra.lower_hull": ("troppadic.polyhedra", "lower_hull"),
    "polyhedra.minkowski_sum": ("troppadic.polyhedra", "minkowski_sum"),
    "polyhedra.volume": ("troppadic.polyhedra", "volume"),
    "polyhedra.mixed_volume": ("troppadic.polyhedra", "mixed_volume"),
    "series.weierstrass_divide": ("troppadic.series", "weierstrass_divide"),
    "series.strassmann_count": ("troppadic.series", "strassmann_count"),
    "series.compose_univariate": ("troppadic.series", "compose_univariate"),
    "series.shift_variable": ("troppadic.series", "shift_variable"),
    "terms.parse_term": ("troppadic.terms", "parse_term"),
    "terms.realize": ("troppadic.terms", "realize"),
    "terms.derive_term": ("troppadic.terms", "derive_term"),
}

# PadicScaled operators are called millions of times: counted, not timed
COUNTERS = {
    "padic.mul": ("troppadic.padic", "PadicScaled.__mul__"),
    "padic.add": ("troppadic.padic", "PadicScaled.__add__"),
}

# spans that must record calls on each workload; a rename in the library
# then fails the traced run instead of silently reading 0
EXPECTED = {
    "bound_systems": [
        "cli.main",
        "bounds.system_root_bound",
        "bounds.make_pointed",
        "bounds.box_E",
        "bounds.stable_multiplicity",
        "tropical.trop_complex",
        "tropical.connected_components",
        "polyhedra.from_hrep",
        "polyhedra.from_points",
        "polyhedra.lower_hull",
        "polyhedra.mixed_volume",
        "series.shift_variable",
        "padic.mul",
        "padic.add",
    ],
    "mixed_volumes": [
        "cli.main",
        "polyhedra.from_points",
        "polyhedra.minkowski_sum",
        "polyhedra.volume",
        "polyhedra.mixed_volume",
    ],
    "series_calculus": [
        "series.weierstrass_divide",
        "series.strassmann_count",
        "series.compose_univariate",
        "terms.parse_term",
        "terms.realize",
        "terms.derive_term",
        "padic.mul",
        "padic.add",
    ],
}


# the per-layer metrics a traced run prints
PER_LAYER = [
    "cli.main.self_s",
    "bounds.system_root_bound.self_s",
    "bounds.make_pointed.self_s",
    "bounds.box_E.self_s",
    "bounds.stable_multiplicity.calls",
    "bounds.stable_multiplicity.self_s",
    "bounds.components",
    "bounds.pieces",
    "bounds.pointed_shifts",
    "bounds.shift_doublings",
    "bounds.thicken_halvings",
    "tropical.trop_complex.calls",
    "tropical.trop_complex.self_s",
    "tropical.cells",
    "tropical.connected_components.self_s",
    "polyhedra.from_hrep.calls",
    "polyhedra.from_hrep.self_s",
    "polyhedra.from_hrep.empty",
    "polyhedra.from_hrep.rows",
    "polyhedra.from_points.calls",
    "polyhedra.from_points.self_s",
    "polyhedra.lower_hull.self_s",
    "polyhedra.minkowski_sum.calls",
    "polyhedra.minkowski_sum.self_s",
    "polyhedra.volume.self_s",
    "polyhedra.mixed_volume.self_s",
    "series.weierstrass_divide.calls",
    "series.weierstrass_divide.self_s",
    "series.strassmann_count.self_s",
    "series.compose_univariate.self_s",
    "series.shift_variable.self_s",
    "padic.mul.calls",
    "padic.add.calls",
    "terms.parse_term.self_s",
    "terms.realize.self_s",
    "terms.derive_term.self_s",
    "trace.overhead_s",
]


# counts the tracer derives from results of traced calls
DERIVED = ("tropical.cells", "polyhedra.from_hrep.empty", "polyhedra.from_hrep.rows")


class TraceError(Exception):
    pass


def _resolve(module, path):
    mod = sys.modules.get(module)
    if mod is None:
        raise TraceError(f"module {module} is not loaded")
    owner = mod
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            raise TraceError(f"{module}.{path} no longer exists")
    if attr not in vars(owner):
        raise TraceError(f"{module}.{path} no longer exists")
    return owner, attr, vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # derived counts: cells, empty results, rows
        self._stack = []
        self._undo = []

    def _span(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    @staticmethod
    def _observe(fn, observe):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            observe(out)
            return out

        return wrapper

    def _install(self, module, path, make):
        owner, attr, raw = _resolve(module, path)
        if isinstance(raw, staticmethod):
            fn = raw.__func__
            wrapped = staticmethod(make(fn))
        else:
            fn = raw
            wrapped = make(fn)
        self._set(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # rebind every import of the function by name
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "troppadic" or mname.startswith("troppadic.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn and not (mod is owner and key == attr):
                    self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        counts = self.counts

        def on_hrep(fn):
            def observe(poly):
                counts["polyhedra.from_hrep.rows"] += len(poly.ineqs)
                if poly.is_empty():
                    counts["polyhedra.from_hrep.empty"] += 1

            return self._span("polyhedra.from_hrep", self._observe(fn, observe))

        def on_trop(fn):
            def observe(data):
                counts["tropical.cells"] += len(data.cells)

            return self._span("tropical.trop_complex", self._observe(fn, observe))

        special = {"polyhedra.from_hrep": on_hrep, "tropical.trop_complex": on_trop}
        for name, (module, path) in SPANS.items():
            make = special.get(name) or (lambda fn, name=name: self._span(name, fn))
            self._install(module, path, make)
        for name, (module, path) in COUNTERS.items():
            self._install(module, path, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def check_expected(self, workload):
        missing = [n for n in EXPECTED[workload] if self.calls[n] == 0]
        if missing:
            raise TraceError(
                f"traced names recorded no calls on {workload}: {', '.join(missing)}"
            )

    def metrics(self, extra):
        """Every PER_LAYER metric as name -> (value, unit); ``extra`` holds
        the counts read from outputs and the tracing overhead."""
        out = {}
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "self_s":
                out[name] = (self.self_s[base], "s")
            elif kind == "calls":
                out[name] = (self.calls[base], "count")
            elif name in DERIVED:
                out[name] = (self.counts[name], "count")
            else:
                out[name] = extra[name]
        return out


def report_counts(reports):
    """Work and retry counts read from bound-system reports."""
    out = dict.fromkeys(
        ["bounds.components", "bounds.pieces", "bounds.pointed_shifts",
         "bounds.shift_doublings", "bounds.thicken_halvings"],
        0,
    )
    for rep in reports:
        out["bounds.pointed_shifts"] += rep["transforms"]["shift"] is not None
        for comp in rep["components"]:
            out["bounds.components"] += 1
            out["bounds.pieces"] += comp["pieces"]
            # the shift scale eps = 1/q starts at q = 2^18 and q doubles
            # per retry; the thickening starts at 1/2 and halves until it
            # separates the component
            if comp["shift_vectors"]:
                out["bounds.shift_doublings"] += _log2_den(comp["epsilon"]) - 18
            if comp["thickening"] is not None:
                out["bounds.thicken_halvings"] += _log2_den(comp["thickening"]) - 1
    return out


def _log2_den(text):
    den = int(text.split("/")[1]) if "/" in text else 1
    return den.bit_length() - 1
