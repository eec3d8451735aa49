"""The cache policy: every cache in the package is an ``lru_cache`` that
``char2cat.clear_caches()`` empties, and no module keeps state of its own."""

import ast
import importlib
import pkgutil
from pathlib import Path

import char2cat
from char2cat.cli import run


def _package_modules():
    for info in pkgutil.iter_modules(char2cat.__path__):
        if info.name != "__main__":  # importing it runs the command line
            yield importlib.import_module(f"char2cat.{info.name}")


def _lru_caches():
    return {
        f"{mod.__name__}.{name}": obj
        for mod in _package_modules()
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info")
    }


def test_clear_caches_empties_every_lru_cache(tmp_path):
    assert run(["verify", "--max-level", "3", "--out", str(tmp_path / "v.json")]) == 0
    caches = _lru_caches()
    assert {"char2cat.homology.cartan", "char2cat.tilting.tilt_char"} <= set(caches)
    assert any(fn.cache_info().currsize for fn in caches.values())
    char2cat.clear_caches()
    filled = {name: fn.cache_info().currsize for name, fn in caches.items()}
    assert {name: size for name, size in filled.items() if size} == {}


def test_min_poly_cache_holds_the_whole_tower():
    from char2cat.cyclotomic import RING_LEVEL_CAP, min_poly

    # check_level admits exactly the levels 0..RING_LEVEL_CAP, so the
    # bounded cache never evicts a level of the tower
    assert min_poly.cache_info().maxsize == RING_LEVEL_CAP + 1
    char2cat.clear_caches()
    min_poly(RING_LEVEL_CAP)
    assert min_poly.cache_info().currsize == RING_LEVEL_CAP + 1


# Each unbounded cache, with why a bound is not needed: none is left.
UNBOUNDED = {}

# Each bounded cache and its bound.
BOUNDED = {
    "char2cat.cyclotomic.min_poly": char2cat.RING_LEVEL_CAP + 1,
    "char2cat.homology.cartan": 1,
    "char2cat.homology.ext1_matrix": 1,
    "char2cat.tilting.tilt_char": 64,
    "char2cat.cli.build_parser": 1,
}


def test_unbounded_caches_are_exactly_the_listed_ones():
    unbounded = {name for name, fn in _lru_caches().items()
                 if fn.cache_info().maxsize is None}
    assert unbounded == set(UNBOUNDED)


def test_bounded_caches_have_the_listed_bounds():
    maxsizes = {name: fn.cache_info().maxsize for name, fn in _lru_caches().items()}
    assert {name: size for name, size in maxsizes.items() if size is not None} == BOUNDED


def test_verify_at_its_cap_evicts_no_tilting_character(tmp_path):
    from char2cat.checks import VERIFY_LEVEL_CAP
    from char2cat.tilting import tilt_char

    char2cat.clear_caches()
    out = tmp_path / "v.json"
    assert run(["verify", "--max-level", str(VERIFY_LEVEL_CAP), "--out", str(out)]) == 0
    info = tilt_char.cache_info()
    assert info.misses == info.currsize == 42  # indices 0..41, under the bound of 64


def test_cartan_and_ext1_caches_hold_the_last_index():
    from char2cat.homology import cartan, ext1_matrix

    for fn in (cartan, ext1_matrix):
        char2cat.clear_caches()
        fn(13)
        fn(12)
        assert fn.cache_info().currsize == 1, fn.__name__
        assert fn(12) is fn(12), fn.__name__


def _imported_roots(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_threading_or_holds_a_list():
    for mod in _package_modules():
        assert "threading" not in _imported_roots(Path(mod.__file__)), mod.__name__
        lists = [name for name, obj in vars(mod).items()
                 if isinstance(obj, list) and name != "__all__"]
        assert lists == [], mod.__name__
