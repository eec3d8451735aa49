"""The public surface is what commands, checks and routes read.

Every name in a module's ``__all__``, and every name ``char2cat/__init__.py``
imports from a module, is loaded somewhere in the package source besides
its own definition: a command, a check or a route reads it.  The source is
parsed, not imported, so a name read only by the tests does not count.
"""

import ast
from pathlib import Path

import char2cat

SRC = Path(char2cat.__file__).parent

#: Names kept although no package source reads them, each with its reason.
UNREAD = {
    ("tilting", "simple_char"): "the reference the golden composition-factor "
    "test of tilt_char compares against",
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _public(modules) -> set:
    """``(module, name)`` for each ``__all__`` entry and each package-level
    import of ``__init__``."""
    out = set()
    for mod, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                out |= {(mod, elt.value) for elt in node.value.elts}
    for node in modules["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {(node.module, alias.name) for alias in node.names}
    return out


def _loads(tree, skip: set) -> set:
    """Names loaded in ``tree`` (as a bare name or an attribute), outside
    the top-level definitions whose names are in ``skip``."""
    out = set()
    stack = [n for n in tree.body
             if not (isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in skip)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _unread(modules) -> set:
    unread = set()
    for mod, name in _public(modules):
        if not any(name in _loads(tree, {name} if other == mod else set())
                   for other, tree in modules.items()):
            unread.add((mod, name))
    return unread


def test_every_public_name_is_read_by_the_package():
    assert _unread(_modules()) == set(UNREAD)


def test_the_probe_sees_reads_and_ignores_self_reference():
    modules = {
        "__init__": ast.parse("from .a import f, g, h\n"),
        "a": ast.parse(
            "__all__ = ['f', 'g', 'h', 'K']\n"
            "def f(n):\n    return f(n - 1)\n"  # reads only itself
            "def g():\n    return K\n"
            "def h():\n    pass\n"
            "class K:\n    pass\n"
        ),
        "b": ast.parse("from . import a\n\ndef run():\n    return a.h()\n"),
    }
    assert _unread(modules) == {("a", "f"), ("a", "g")}
