"""The public surface is what commands, checks and routes read, behind
one argument check.

Every name in a module's ``__all__``, and every name ``char2cat/__init__.py``
imports from a module, is loaded somewhere in the package source besides
its own definition: a command, a check or a route reads it.  The source is
parsed, not imported, so a name read only by the tests does not count.
Every error class is raised somewhere, the range errors only by the shared
checks of ``cyclotomic``, and the library refuses an argument past an
advertised cap, or a negative one, before it does any work.
"""

import ast
import time
import tracemalloc
from pathlib import Path

import pytest

import char2cat
from char2cat import checks, cli, cyclotomic, fusion, homology, invariants, tilting
from char2cat.errors import Char2CatError, LevelTooLarge, SubsetOutOfRange

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


# ----------------------------------------------------------------------
# one argument check

#: The only constructors of the range errors, as (module, function).
SHARED_CHECKS = {("cyclotomic", "check_level"), ("cyclotomic", "check_subset"),
                 ("cyclotomic", "check_generator")}


def _raised(tree) -> set:
    """Names of the exception classes ``tree`` raises."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return out


def _constructed(modules, classes: set) -> set:
    """``(module, top-level definition)`` for each call of a class in
    ``classes``."""
    out = set()
    for mod, tree in modules.items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None)) in classes):
                    out.add((mod, getattr(top, "name", None)))
    return out


def test_every_error_class_is_raised_by_the_package():
    modules = _modules()
    classes = {node.name for node in modules["errors"].body if isinstance(node, ast.ClassDef)}
    raised = set().union(*map(_raised, modules.values()))
    assert classes - raised == {"Char2CatError"}


def test_range_errors_come_only_from_the_shared_checks():
    assert _constructed(_modules(), {"LevelTooLarge", "SubsetOutOfRange"}) == SHARED_CHECKS


def test_the_error_probes_see_raises_and_constructions():
    tree = ast.parse(
        "def check_level(n):\n    raise LevelTooLarge(f'{n}')\n"
        "class A:\n    def f(self):\n        raise errors.SubsetOutOfRange\n"
        "    def g(self):\n        return errors.SubsetOutOfRange('x')\n"
    )
    assert _raised(tree) == {"LevelTooLarge", "SubsetOutOfRange"}
    assert _constructed({"m": tree}, {"LevelTooLarge", "SubsetOutOfRange"}) == {
        ("m", "check_level"), ("m", "A")}


def _case(fn, others, name, cap, cap_name, id=None):
    return pytest.param(fn, others, name, cap, cap_name, id=id or fn.__name__)


_SERIES = invariants.SERIES_ORDER_CAP
_INV_LEVEL = invariants.INVARIANTS_LEVEL_CAP
_TILT = tilting.TILT_INDEX_CAP

#: The first library call of every command handler, and the invariant
#: routes and tilting tables besides: ``(function, other arguments,
#: capped argument, cap, cap name)``.  The other arguments are the largest
#: the caps allow.
PAST_THE_CAP = [
    _case(invariants.paths_column, {"top": _SERIES}, "n", _INV_LEVEL, "INVARIANTS_LEVEL_CAP"),
    _case(invariants.recursion_column, {"top": _SERIES}, "n", _INV_LEVEL,
          "INVARIANTS_LEVEL_CAP"),
    _case(invariants.series_f, {"order": _SERIES}, "n", _INV_LEVEL, "INVARIANTS_LEVEL_CAP"),
    _case(invariants.paths_column, {"n": _INV_LEVEL}, "top", _SERIES, "SERIES_ORDER_CAP",
          id="paths_column-top"),
    _case(invariants.recursion_column, {"n": _INV_LEVEL}, "top", _SERIES, "SERIES_ORDER_CAP",
          id="recursion_column-top"),
    _case(invariants.series_f, {"n": _INV_LEVEL}, "order", _SERIES, "SERIES_ORDER_CAP",
          id="series_f-order"),
    _case(tilting.tensor_v_rows, {}, "m", _TILT, "TILT_INDEX_CAP"),
    _case(tilting.tensor_power_decompose, {}, "r", _TILT, "TILT_INDEX_CAP"),
    _case(tilting.functor_images, {"n": 2}, "m", _TILT, "TILT_INDEX_CAP"),
    _case(tilting.in_T1_polynomial, {}, "m", _TILT, "TILT_INDEX_CAP"),
    _case(fusion.simple_elt, {"mask": 0}, "level", cyclotomic.RING_LEVEL_CAP, "RING_LEVEL_CAP"),
    _case(fusion.structure_tensor, {}, "n", fusion.STRUCTURE_LEVEL_CAP, "STRUCTURE_LEVEL_CAP"),
    _case(homology.cartan, {}, "m", homology.CATEGORY_INDEX_CAP, "CATEGORY_INDEX_CAP"),
    _case(homology.ext1_matrix, {}, "m", homology.CATEGORY_INDEX_CAP, "CATEGORY_INDEX_CAP"),
    _case(homology.category_fpdim, {}, "m", homology.CATEGORY_INDEX_CAP, "CATEGORY_INDEX_CAP"),
    _case(homology.algebra_fpdim, {}, "n", cyclotomic.RING_LEVEL_CAP - 1, "RING_LEVEL_CAP-1"),
    _case(cyclotomic.min_poly, {}, "n", cyclotomic.RING_LEVEL_CAP, "RING_LEVEL_CAP"),
    _case(checks.run, {}, "max_level", checks.VERIFY_LEVEL_CAP, "VERIFY_LEVEL_CAP"),
]


def _before_any_work(call):
    """``call()``, checked to take under 0.1 s and 64 KB traced."""
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        result = call()
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 64 * 1024
    return result


def _refusal(fn, **kwargs) -> str:
    """The message of the ``LevelTooLarge`` that ``fn(**kwargs)`` raises."""
    with pytest.raises(LevelTooLarge) as info:
        fn(**kwargs)
    return str(info.value)


@pytest.mark.parametrize("fn, others, name, cap, cap_name", PAST_THE_CAP)
def test_library_refuses_past_its_caps_before_any_work(fn, others, name, cap, cap_name):
    message = _before_any_work(lambda: _refusal(fn, **others, **{name: cap + 1}))
    assert message.endswith(f" {cap + 1} exceeds the cap {cap_name}={cap}")


@pytest.mark.parametrize("fn, others, name, cap, cap_name", PAST_THE_CAP)
def test_library_refuses_negative_arguments_before_any_work(fn, others, name, cap, cap_name):
    message = _before_any_work(lambda: _refusal(fn, **others, **{name: -1}))
    assert message.endswith(" must be a nonnegative integer, got -1")


# ``digit_images`` takes any index, so ``tilt --functor`` checks both of
# its bounds itself, the output bound first
@pytest.mark.parametrize("argv, message", [
    (["tilt", "--functor", str(10**9), "--max-m", "1"],
     f"functor level {10**9} exceeds the cap RING_LEVEL_CAP={cyclotomic.RING_LEVEL_CAP}"),
    (["tilt", "--functor", "2", "--max-m", str(10**9)],
     f"tilt index {10**9} exceeds the cap TILT_INDEX_CAP={tilting.TILT_INDEX_CAP}"),
    (["tilt", "--functor", str(10**9), "--max-m", str(10**9)],
     f"tilt index {10**9} exceeds the cap TILT_INDEX_CAP={tilting.TILT_INDEX_CAP}"),
], ids=["functor", "max-m", "both"])
def test_functor_bounds_are_refused_before_any_work(argv, message, capsys):
    cli.build_parser()  # built once per process, outside the trace
    assert _before_any_work(lambda: cli.run(argv)) == 2
    assert capsys.readouterr() == ("", f"char2cat: error: {message}\n")


@pytest.mark.parametrize("j", [0, 1.5])
def test_generator_range_has_one_class_and_one_wording(j):
    seen = []
    for call in (lambda: fusion._generator_terms(j, 2),
                 lambda: cyclotomic.d_basis_generator_matrix(j, 2)):
        with pytest.raises(Char2CatError) as info:
            call()
        seen.append((type(info.value), str(info.value)))
    assert seen == [(SubsetOutOfRange, f"generator {j} outside 1..2")] * 2
