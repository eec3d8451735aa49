"""Output writers: the package's JSON encoder and the row-block tables
that the JSON, CSV and text writers share.

A writer appends pieces of output to an ``Out``, which hands them to the
file's ``write`` a block at a time, so no string holds a whole output.
``write_json`` gives the bytes of ``json.dumps(..., indent=2,
sort_keys=True)`` with every integer written as a decimal string.  Its
tables are ``int64`` matrices, ``Records`` and ``FusionElt`` images.
Each distinct value of a matrix or record column is formatted once in
the target format.  A table goes out a row block of ``COMPARE_BLOCK``
entries at a time, each block joined once into one string: a matrix row
wider than ``_CHUNK`` columns is cut into chunks, and each distinct chunk
of a block is rendered once (``matrix_blocks``); a block of records
fills one object grid of its fields (``record_blocks``).  An image is
written from one fragment per mask, with the coefficient in front of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import fusion

__all__ = ["Out", "Records", "write_json", "matrix_blocks", "record_blocks",
           "row_slices", "COMPARE_BLOCK"]

#: Entries per row block: a table is written, its distinct values found
#: and the table checks run a row block at a time, so no temporary is the
#: size of a table at the index cap.  A write at the cap is 16 rows of the
#: Cartan matrix.
COMPARE_BLOCK = 1 << 16

#: Columns per chunk of a matrix row: the chunks of a row block that repeat
#: are rendered once.
_CHUNK = 64

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
        """Write what is pending, then each of ``blocks``, a string, with
        one ``write``."""
        self.flush()
        for text in blocks:
            self.write(text)


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
# tables: strings formatted once per distinct value, and a matrix row's
# chunks once per distinct chunk of a row block; a row block is one join


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


class _Cells:
    """The values of an integer array formatted by a ``%d`` template, each
    distinct value once, in the object array ``table``.  For any of the
    array's values, ``index(values)`` gives the positions of their strings
    in ``table`` and ``strings(values)`` the strings.

    Where the values span no more than the array has entries, ``table`` is
    indexed by ``value - lo``.  That difference is taken in the array's
    own type, exact modulo 2^64, so only 8-byte integers use this table.
    Otherwise ``table`` holds the strings of the sorted distinct values,
    found with ``np.searchsorted``."""

    def __init__(self, arr: np.ndarray, template: str):
        lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, -1)
        self.lo = lo if hi - lo < arr.size and arr.dtype.itemsize == 8 else None
        if self.lo is None:
            self.distinct = _distinct(arr)
            self.table = np.array([template % v for v in self.distinct.tolist()], dtype=object)
            return
        seen = np.zeros(hi - lo + 1, dtype=bool)
        for rows in row_slices(arr, COMPARE_BLOCK):
            seen[arr[rows] - lo] = True
        offsets = np.flatnonzero(seen)
        self.table = np.empty(len(seen), dtype=object)
        self.table[offsets] = [template % (lo + k) for k in offsets.tolist()]

    def index(self, values: np.ndarray) -> np.ndarray:
        if self.lo is None:
            return np.searchsorted(self.distinct, values)
        return values - self.lo

    def strings(self, values: np.ndarray) -> np.ndarray:
        return self.table[self.index(values)]


def _rendered(codes: np.ndarray, table: np.ndarray, sep: str) -> np.ndarray:
    """Each row of a 2-d block of positions in ``table`` as their strings
    joined by ``sep``, in an object array.  Rows are told apart exactly, by
    their bytes, and each distinct row is rendered once."""
    keys = np.ascontiguousarray(codes).view(
        np.dtype((np.void, codes.shape[1] * codes.itemsize))).ravel().tolist()
    ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    distinct = np.frombuffer(b"".join(ids), dtype=codes.dtype).reshape(len(ids), -1)
    strings = np.array([sep.join(r) for r in table[distinct].tolist()], dtype=object)
    return strings[list(map(ids.__getitem__, keys))]


def matrix_blocks(mat: np.ndarray, heads, template: str, sep: str, tail: str):
    """Each row block of an integer matrix as one string.  Row ``i`` is
    ``heads[i]``, its entries formatted by the ``%d`` template and joined
    by ``sep``, then ``tail``.

    A row wider than ``_CHUNK`` columns is cut into chunks of ``_CHUNK``
    columns (the last may be narrower).  Each distinct chunk of a block is
    rendered once, and the block is one join over an object grid of each
    row's head, chunks, separators and tail."""
    cells = _Cells(mat, template)
    table, width = cells.table, mat.shape[1]
    full = width - width % _CHUNK
    step = 2 if sep else 1  # grid columns per chunk: the chunk, then any separator
    # the smallest unsigned type that holds a position in ``table``
    code = np.min_scalar_type(len(table) - 1)
    for rows in row_slices(mat, COMPARE_BLOCK):
        if width <= _CHUNK:
            yield "".join([head + sep.join(r) + tail for head, r
                           in zip(heads[rows], cells.strings(mat[rows]).tolist())])
            continue
        codes = cells.index(mat[rows]).astype(code)
        # head, chunks and tail; no separator columns where ``sep`` is
        # empty, since joining empty strings costs
        grid = np.empty((len(codes), step * (-(-width // _CHUNK) - 1) + 3), dtype=object)
        grid[:, 0] = heads[rows]
        grid[:, 1:1 + step * (full // _CHUNK):step] = _rendered(
            codes[:, :full].reshape(-1, _CHUNK), table, sep).reshape(len(codes), -1)
        if full < width:
            grid[:, -2] = _rendered(codes[:, full:], table, sep)
        if sep:
            grid[:, 2:-1:2] = sep
        grid[:, -1] = tail
        yield "".join(grid.ravel().tolist())


def record_blocks(rows: np.ndarray, columns, sep: str = ""):
    """Each row block of an integer array as one string.  A row is, for
    each ``(j, template)`` of ``columns`` in turn, its column ``j`` entry
    formatted by ``template``; rows are joined by ``sep``.  A block's
    strings fill one ``(rows, fields)`` object grid, joined once."""
    cols = [(j, _Cells(rows[:, j], template)) for j, template in columns]
    # a column of separators only where there is one: joining a column of
    # empty strings costs about 10 % on text and CSV records
    lead = 1 if sep else 0
    for span in row_slices(rows, COMPARE_BLOCK):
        block = rows[span]
        grid = np.empty((len(block), lead + len(cols)), dtype=object)
        if sep:
            grid[:, 0] = sep
            if span.start == 0:
                grid[0, 0] = ""
        for k, (j, cells) in enumerate(cols, lead):
            grid[:, k] = cells.strings(block[:, j])
        yield "".join(grid.ravel().tolist())


def _json_matrix(mat: np.ndarray, depth: int, out: Out) -> None:
    if not mat.size:  # nothing to tabulate: "[]" or rows of "[]"
        write_json(mat.tolist(), depth, out)
        return
    inner = "\n" + "  " * (depth + 1)
    heads = ["[" + inner + "["] + ["," + inner + "["] * (len(mat) - 1)
    out.blocks(matrix_blocks(mat, heads, inner + '  "%d"', ",", inner + "]"))
    out.append("\n" + "  " * depth + "]")


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
    out.append("[")
    out.blocks(record_blocks(rec.rows, list(zip(order, templates)), ","))
    out.append("\n" + "  " * depth + "]")


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

