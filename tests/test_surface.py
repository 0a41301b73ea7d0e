"""Every function, class and method in ``src/phasecode`` is used by the program.

A definition counts as used when some ``Name`` or ``Attribute`` node in
``src/phasecode`` outside its own body carries its name; an import, a string
or a docstring mention does not. The match is by name, so a method that
shares its name with another attribute (numpy's ``.size``, say) passes: the
test catches a helper that nothing names, not every unused one. Dunder
methods are called by Python itself and are not checked.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "phasecode"

# Kept on purpose although nothing in src/phasecode names them.
ALLOWED = {
    "decoder.decode_unicolor": "public decoder, reached through get_decoder's globals()",
    "decoder.decode_multicolor": "public decoder, reached through get_decoder's globals()",
    "decoder.process_resolvable": "the scalar resolvable judge that criterion 6 checks",
    "ensemble.ExplicitEnsemble": "the only ensemble with irregular degrees, for toy graphs",
    "analysis.giant_fraction": "model quantity: the seed cluster's share of singleton balls",
    "analysis.de_trajectory": "model quantity: the uncolored fraction iteration by iteration",
}

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of every module-level function and
    class and of every class's non-dunder methods."""
    for node in tree.body:
        if isinstance(node, FUNCTION + (ast.ClassDef,)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTION) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """(name, line) of every Name and Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_named_by_the_program():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and not (other == module and line in own)
                       for other, names in refs.items() for ref, line in names):
                unused.append(qualname)
    assert sorted(unused) == sorted(ALLOWED)
