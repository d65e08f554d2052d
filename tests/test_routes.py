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
        "waits for the derived inner-division budget that certifies it, "
        "after which the series benchmark runs it"
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


def routeless():
    """The qualified names of the definitions no other code refers to."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
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
