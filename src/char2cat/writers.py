"""Output writers: the package's JSON encoder and the row-block tables
that the JSON, CSV and text writers share.

A writer appends pieces of output to an ``Out``, which hands them to the
file's ``write`` a block at a time, so no string holds a whole output.
``write_json`` gives the bytes of ``json.dumps(..., indent=2,
sort_keys=True)`` with every integer written as a decimal string.  Its
tables are ``int64`` matrices, ``Records`` and ``FusionElt`` images.  A
matrix or record column is sorted a row block at a time for its distinct
values, each value is formatted once in the target format, and each
block of rows looks its strings up with ``np.searchsorted``
(``matrix_blocks``, ``record_blocks``).  An image is written from one
fragment per mask, with the coefficient in front of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import fusion

__all__ = ["Out", "Records", "write_json", "matrix_blocks", "record_blocks",
           "row_slices", "COMPARE_BLOCK"]

#: Entries of a table written per block: one row of the Cartan matrix at
#: the index cap, 32 rows at index 13.
_BLOCK = 1 << 11

#: Entries per sorted or compared block: a table's distinct values and the
#: table checks go a row block at a time, so no temporary is the size of a
#: table at the index cap.
COMPARE_BLOCK = 1 << 16

#: Pending pieces of output that are written out together.
_PENDING = 1 << 10


@dataclass(frozen=True)
class Records:
    """A list of records with integer fields, held as one array: record
    ``i`` maps ``keys[j]`` to ``rows[i, j]``."""

    keys: tuple
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


class Out(list):
    """Pieces of output not yet written: ``flush`` hands them to ``write``
    as one string, ``spill`` does so once they are many."""

    def __init__(self, write):
        super().__init__()
        self.write = write

    def flush(self) -> None:
        if self:
            self.write("".join(self))
            self.clear()

    def spill(self) -> None:
        if len(self) >= _PENDING:
            self.flush()

    def blocks(self, blocks) -> None:
        """Write what is pending, then each of ``blocks``, a list of
        pieces, with one ``write``."""
        self.flush()
        for pieces in blocks:
            self.extend(pieces)
            self.flush()


def row_slices(arr: np.ndarray, entries: int) -> list[slice]:
    """Slices cutting ``arr`` along its first axis into blocks of about
    ``entries`` entries, each at least one row."""
    step = max(1, entries * len(arr) // max(1, arr.size))
    return [slice(lo, lo + step) for lo in range(0, len(arr), step)]


_INF = float("inf")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _json_ints(values, depth: int) -> str:
    """A list of integers at nesting ``depth``, in one ``join``."""
    if not values:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return f'[{inner}"' + f'",{inner}"'.join(map(str, values)) + f'"{inner[:-2]}]'


# ----------------------------------------------------------------------
# tables: strings formatted once per distinct value, joined a row block at
# a time


def _sorted_distinct(s: np.ndarray) -> np.ndarray:
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _distinct(arr: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array.  Row blocks are
    sorted one at a time, so no temporary is the size of ``arr``
    (``np.unique`` would also import ``numpy.ma``)."""
    parts = [_sorted_distinct(np.sort(arr[rows], axis=None))
             for rows in row_slices(arr, COMPARE_BLOCK)]
    return _sorted_distinct(np.sort(np.concatenate(parts))) if parts else arr.ravel()


def _formatted(arr: np.ndarray, template: str) -> tuple:
    """The distinct values of ``arr`` and, in an object array, each one
    formatted by the ``%d`` template."""
    distinct = _distinct(arr)
    return distinct, np.array([template % v for v in distinct.tolist()], dtype=object)


def matrix_blocks(mat: np.ndarray, template: str):
    """``(rows, cells)`` per row block of an integer matrix: the slice of
    its rows, and those rows as lists of their entries' strings."""
    distinct, table = _formatted(mat, template)
    for rows in row_slices(mat, _BLOCK):
        yield rows, table[np.searchsorted(distinct, mat[rows])].tolist()


def record_blocks(rows: np.ndarray, columns):
    """Each row of an integer array as one string, a row block at a time:
    for each ``(j, template)`` of ``columns`` in turn, its column ``j``
    entry formatted by ``template``."""
    tables = [(j, *_formatted(rows[:, j], template)) for j, template in columns]
    for span in row_slices(rows, _BLOCK):
        block = rows[span]
        joined = None
        for j, distinct, table in tables:
            col = table[np.searchsorted(distinct, block[:, j])]
            joined = col if joined is None else joined + col
        yield joined.tolist()


def _json_blocks(blocks, depth: int, out: Out) -> None:
    """A nonempty list at nesting ``depth`` from blocks of its items' JSON,
    each item starting with its own newline and indent; a block per write."""
    out.blocks(["," if k else "[", ",".join(items)] for k, items in enumerate(blocks))
    out.append("\n" + "  " * depth + "]")


def _json_matrix(mat: np.ndarray, depth: int, out: Out) -> None:
    if not mat.size:  # nothing to tabulate: "[]" or rows of "[]"
        write_json(mat.tolist(), depth, out)
        return
    inner = "\n" + "  " * (depth + 1)
    close = inner + "]"
    _json_blocks(([f"{inner}[{','.join(r)}{close}" for r in cells]
                  for _, cells in matrix_blocks(mat, inner + '  "%d"')), depth, out)


def _json_records(rec: Records, depth: int, out: Out) -> None:
    """``Records`` at nesting ``depth``: each field a column of strings
    holding its key, joined across the fields in sorted key order."""
    if not len(rec):
        out.append("[]")
        return
    inner, field_ = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    order = sorted(range(len(rec.keys)), key=rec.keys.__getitem__)
    templates = [("," if pos else inner + "{") + field_
                 + _quote(rec.keys[j]).replace("%", "%%") + ': "%d"'
                 for pos, j in enumerate(order)]
    templates[-1] += inner + "}"
    _json_blocks(record_blocks(rec.rows, list(zip(order, templates))), depth, out)


def _json_elt(elt: fusion.FusionElt, depth: int, out: Out, frags: dict) -> None:
    """A ``FusionElt`` as the list of its ``coeff``, ``index`` and ``subset``
    records.  The index and subset of a mask form one fragment, kept in
    ``frags`` by depth and mask; the coefficient is written in front of it."""
    if elt.is_zero:
        out.append("[]")
        return
    inner, field_ = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    head = f'{inner}{{{field_}"coeff": "'
    entries = []
    for mask, c in elt.coeffs:
        frag = frags.get((depth, mask))
        if frag is None:
            frag = frags[depth, mask] = (
                f'",{field_}"index": "{mask}",{field_}"subset": '
                f"{_json_ints(fusion.mask_subset(mask), depth + 2)}{inner}}}"
            )
        entries.append(f"{head}{c}{frag}")
    out.append(f"[{','.join(entries)}{inner[:-2]}]")


# ----------------------------------------------------------------------
# JSON


def _write_list(values, depth: int, out: Out, frags: dict) -> None:
    if not len(values):
        out.append("[]")
        return
    inner = "\n" + "  " * (depth + 1)
    sep = "[" + inner
    for value in values:
        out.append(sep)
        _write(value, depth + 1, out, frags)
        out.spill()
        sep = "," + inner
    out.append(inner[:-2] + "]")


def write_json(obj, depth: int, out: Out) -> None:
    """Append ``obj`` as JSON nested ``depth`` levels deep to ``out``."""
    _write(obj, depth, out, {})


def _write(obj, depth: int, out: Out, frags: dict) -> None:
    """``write_json``, with ``frags`` the fragments of the basis classes
    that its ``FusionElt`` images share (see ``_json_elt``)."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(f'"{int(obj)}"')
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(f"{sep}{_quote(key)}: ")  # a key that is not a str raises
            _write(value, depth + 1, out, frags)
            sep = "," + inner
        out.append(inner[:-2] + "}")
    elif isinstance(obj, (list, tuple)):
        if all(type(v) is int for v in obj):
            out.append(_json_ints(obj, depth))
        else:
            _write_list(obj, depth, out, frags)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "iu" and obj.ndim == 2:
        _json_matrix(obj, depth, out)
    elif isinstance(obj, Records):
        _json_records(obj, depth, out)
    elif isinstance(obj, fusion.FusionElt):
        _json_elt(obj, depth, out, frags)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

