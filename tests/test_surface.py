"""Every function, class and method in ``src/phasecode`` is used by the program.

A module-level function or class counts as used when some ``Name`` or
``Attribute`` node in ``src/phasecode`` outside its own body carries its
name; an import, a string or a docstring mention does not. A method counts
as used only when some code outside its body calls it as an attribute
(``x.name(...)``), and a property only when some code reads it as an
attribute (``x.name``), so a parameter, a local or a data field that shares
a method's name does not keep the method alive. The match is still by name:
a call of another class's method of the same name passes. Dunder methods
are called by Python itself and are not checked.
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
NAMED, CALLED, READ = "named", "called", "read"


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, how it must be referenced, node) of every
    module-level function and class and of every class's non-dunder methods."""
    for node in tree.body:
        if isinstance(node, FUNCTION + (ast.ClassDef,)):
            yield f"{module}.{node.name}", node.name, NAMED, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTION) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    prop = any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list)
                    yield f"{module}.{node.name}.{item.name}", item.name, READ if prop else CALLED, item


def _references(tree: ast.Module):
    """(name, line, kinds) of every Name and Attribute node; kinds holds
    ``NAMED``, ``READ`` for an attribute read and ``CALLED`` for an
    attribute that is called."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, {NAMED}
        elif isinstance(node, ast.Attribute):
            kinds = {NAMED}
            if isinstance(node.ctx, ast.Load):
                kinds.add(READ)
                if id(node) in called:
                    kinds.add(CALLED)
            yield node.attr, node.lineno, kinds


def unused(trees: dict[str, ast.Module]) -> list[str]:
    """Qualified names of the definitions in ``trees`` (module name -> tree)
    that no code outside their own body references as the rule above asks."""
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for qualname, name, kind, node in _definitions(module, tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and kind in kinds and not (other == module and line in own)
                       for other, names in refs.items() for ref, line, kinds in names):
                out.append(qualname)
    return sorted(out)


def test_every_definition_is_named_by_the_program():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert unused(trees) == sorted(ALLOWED)


SHARED_NAMES = {
    # a method named only by a parameter and a local of the same name
    "size": '''
class Forest:
    def __init__(self):
        self.members = []

    def size(self):
        return len(self.members)

    def grow(self, ell):
        self.members.append(ell)


def padded(a, size):
    size = max(size, 2 * len(a))
    return a + [0] * (size - len(a))


forest = Forest()
forest.grow(padded([1], 3))
''',
    # a method named only by a data field that other code reads
    "rotated": '''
class Signal:
    def rotated(self, turns):
        return self


class Measurements:
    def __init__(self, rotated):
        self.rotated = rotated


print(Signal(), Measurements([1.0]).rotated)
''',
}


def test_a_shared_name_keeps_no_method_alive():
    for name, source in SHARED_NAMES.items():
        flagged = unused({"m": ast.parse(source)})
        assert [qualname.rsplit(".", 1)[-1] for qualname in flagged] == [name], flagged
