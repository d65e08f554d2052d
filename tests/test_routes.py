"""Every function in ``src/troppadic`` has a route: some other code of the
package refers to it, so the library ships only code that something runs.
A helper that only the tests call lives in a tests-side module.

The scan parses each module.  A top-level function counts as referenced
through a name or an import, a method through an attribute of the same
name; dunder methods are not checked, and neither the ``__init__.py``
re-exports nor a definition's references to itself count.  ``ALLOWED``
lists the definitions that stay without a route, each with its reason.  An
allowlisted name that gains a caller or disappears fails the test too, so
the list can only shrink.

Since a method counts as referenced by any attribute of its name, a dead
method would pass the scan on the calls of a live one of the same name in
another class.  So a non-dunder method name may be defined in one class
only; ``SHARED`` lists the names defined in several, each with the reason
every one of its definitions is live, and can only shrink too.

A scan keeps the calls of ``RestrictedSeries._made``, the constructor that
skips the input checks, inside the series module; another keeps the series
module's references to ``padic.total``, the rule that certifies a sum,
inside its summation helper and ``evaluate``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "troppadic"

_UNIFORM = (
    "waits for the parameter-uniform bound-system route, which calls it "
    "or moves it to the tests"
)

ALLOWED = {
    "isolated_bounds": _UNIFORM,
    "weierstrass_bound_1_to_n": _UNIFORM,
    "monomial_order_bound": _UNIFORM,
    "WBoundOracle.register": _UNIFORM,
    "weierstrass_prepare": (
        "computes the preparation that the paper's model-completeness "
        "rests on; no CLI command prepares a series, and it waits for the "
        "benchmark's series workload to run it"
    ),
    "PadicScaled.shift_valuation": (
        "builds an exact value from the private rational and shift of "
        "another, which only PadicScaled itself reads"
    ),
    "realize": (
        "turns a term into a series; no CLI command realizes a term, but "
        "the benchmark's series workload calls and times it by this name"
    ),
    "volume": (
        "public API: mixed_volume reads the facets of one Minkowski sum and "
        "takes no volume, but the benchmark's 4-D hull items and the tests "
        "call it by this name"
    ),
}

SHARED = {
    "is_empty": (
        "TailBound.is_empty (a property, read on every series tail), "
        "QPolyhedron.is_empty (affine_dim and volume) and "
        "TropicalData.is_empty (connected_components of empty data)"
    ),
    "key": (
        "_Node.key (the cached sort key that orders terms) and "
        "QPolyhedron.key (the order of the pieces of a component)"
    ),
}


def _definitions(tree):
    """(qualified name, node, is a method) of every top-level function and
    every non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item, True


def _references(tree):
    """(is an attribute, name, line) of every name, imported name and
    attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield False, node.id, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield False, alias.name, node.lineno
        elif isinstance(node, ast.Attribute):
            yield True, node.attr, node.lineno


def _trees():
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def routeless():
    """The qualified names of the definitions no other code refers to."""
    trees = _trees()
    refs = [(name, ref) for name, tree in trees.items() for ref in _references(tree)]
    out = set()
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree):
            if not any(
                attr == is_method
                and name == node.name
                and not (where == module and node.lineno <= line <= node.end_lineno)
                for where, (attr, name, line) in refs
            ):
                out.add(qualname)
    return out


def test_every_definition_has_a_route():
    assert sorted(routeless() - ALLOWED.keys()) == []


def test_every_allowlisted_definition_is_still_routeless():
    assert sorted(ALLOWED.keys() - routeless()) == []


def shared_method_names():
    """{method name: the qualified names defining it} for every non-dunder
    method name that more than one class defines."""
    classes = {}
    for tree in _trees().values():
        for qualname, node, is_method in _definitions(tree):
            if is_method:
                classes.setdefault(node.name, []).append(qualname)
    return {name: sorted(qs) for name, qs in classes.items() if len(qs) > 1}


def test_every_method_name_is_defined_in_one_class():
    assert {
        name: qs for name, qs in shared_method_names().items() if name not in SHARED
    } == {}


def test_every_shared_method_name_is_still_shared():
    assert sorted(SHARED.keys() - shared_method_names().keys()) == []


def private_constructor_calls():
    """{module: lines} of the calls to ``RestrictedSeries._made``, the
    constructor that trusts the data the series algebra built."""
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "_made":
                    calls.setdefault(path.name, []).append(node.lineno)
    return calls


def test_only_the_series_algebra_skips_the_input_checks():
    """Every other module (formats, cli, terms, bounds) builds a series
    through the checking constructor."""
    calls = private_constructor_calls()
    assert "series.py" in calls
    assert {m: lines for m, lines in calls.items() if m != "series.py"} == {}


def sum_rule_users():
    """The top-level functions and methods of series.py, or "<module>" for
    other top-level code, that refer to ``padic.total``; importing the name
    unrenamed does not count."""
    tree = ast.parse((SRC / "series.py").read_text(), filename="series.py")
    users = set()
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            for x in ast.walk(item):
                if (
                    isinstance(x, ast.Name) and x.id == "total"
                    or isinstance(x, ast.Attribute) and x.attr == "total"
                    or isinstance(x, ast.alias) and x.name == "total" and x.asname
                ):
                    if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                        users.add(item.name if item is node else f"{node.name}.{item.name}")
                    else:
                        users.add("<module>")
    return users


def test_series_sums_coefficients_in_one_helper():
    """Products, sums, shifts, Weierstrass rounds and composition reach the
    sum rule through ``_summed``, so each coefficient is one sum of its
    contributions.  ``evaluate`` sums a point's terms with it directly, and
    so does ``weierstrass_divide``'s residue check: both read the floor of
    a raise."""
    users = sum_rule_users()
    assert "_summed" in users
    assert sorted(users - {"_summed", "evaluate", "weierstrass_divide"}) == []
