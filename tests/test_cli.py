"""Command-line contract: output formats, serialization round-trip,
exit codes, and the verification suite's determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import char2cat
import char2cat.cli as cli
from char2cat import checks, cyclotomic, fusion, homology, invariants, tilting, writers
from char2cat.cli import parse_json, run

# one invocation of every mode of every subcommand
MODES = {
    "fusion product": ["fusion", "--level", "2", "--left", "1", "--right", "3"],
    "fusion table": ["fusion", "--level", "2"],
    "cartan": ["cartan", "--index", "3"],
    "ext1": ["ext1", "--index", "3"],
    "fpdim simple": ["fpdim", "--level", "2", "--simple", "3"],
    "fpdim category": ["fpdim", "--level", "3", "--category"],
    "fpdim algebra": ["fpdim", "--level", "2", "--algebra"],
    "tilt table": ["tilt", "--table", "--max-m", "4"],
    "tilt decompose": ["tilt", "--decompose", "3"],
    "tilt functor": ["tilt", "--functor", "2", "--max-m", "4"],
    "invariants": ["invariants", "--level", "1", "--max-m", "3"],
    "minpoly": ["minpoly", "--level", "2"],
    "verify": ["verify", "--max-level", "1"],
}
CSV_MODES = {"cartan", "ext1", "invariants", "fusion table", "tilt table"}


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# documented examples


def test_cartan_text_table(capsys):
    code, out, _ = _run(capsys, ["cartan", "--index", "5", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["V_0", "V_1", "V_2", "V_3"]
    assert lines[1].split() == ["V_0", "8", "4", "4", "2"]
    assert lines[2].split() == ["V_1", "4", "4", "2", "2"]
    assert lines[3].split() == ["V_2", "4", "2", "4", "0"]
    assert lines[4].split() == ["V_3", "2", "2", "0", "2"]


def test_fpdim_category_index0_is_one(capsys):
    code, out, _ = _run(capsys, ["fpdim", "--level", "0", "--category"])
    assert code == 0
    payload = parse_json(out)
    assert payload["result"]["float"] == 1.0
    assert payload["result"]["numerator_power_coeffs"] == [1]
    assert payload["result"]["denominator"] == 1


def test_invariants_three_routes_table(capsys):
    code, out, _ = _run(
        capsys,
        ["invariants", "--level", "1", "--max-m", "2", "--route", "all"],
    )
    assert code == 0
    payload = parse_json(out)
    assert payload["result"]["columns"] == ["m", "recursion", "paths", "series"]
    assert payload["result"]["rows"] == [[0, 1, 1, 1], [1, 1, 1, 1], [2, 2, 2, 2]]
    assert payload["checks"][0]["name"] == "routes-agree"
    assert payload["checks"][0]["pass"] is True


# ----------------------------------------------------------------------
# serialization


def test_json_integers_are_decimal_strings(capsys):
    _, out, _ = _run(capsys, ["cartan", "--index", "5"])
    raw = json.loads(out)
    assert raw["result"]["matrix"][0][0] == "8"
    assert parse_json(out)["result"]["matrix"][0][0] == 8


def test_json_subsets_carry_sorted_array_and_index(capsys):
    _, out, _ = _run(
        capsys, ["fusion", "--level", "3", "--left", "5", "--right", "3"]
    )
    payload = parse_json(out)
    left = payload["result"]["left"]
    assert left["index"] == 5
    assert left["subset"] == [1, 3]
    for entry in payload["result"]["product"]:
        assert entry["subset"] == sorted(entry["subset"])


def test_json_schema_keys(capsys):
    _, out, _ = _run(capsys, ["minpoly", "--level", "4"])
    payload = parse_json(out)
    assert set(payload) == {"command", "params", "result", "checks"}
    for check in payload["checks"]:
        assert set(check) == {"name", "pass", "detail"}


def _emitted(report) -> str:
    buf = io.StringIO()
    cli.emit_json(report, buf.write)
    return buf.getvalue()


def test_json_roundtrip_fixed_point(capsys):
    for argv in (
        ["cartan", "--index", "6"],
        ["ext1", "--index", "4"],
        ["fusion", "--level", "2"],
        ["fpdim", "--level", "3", "--simple", "6"],
        ["fpdim", "--level", "5", "--category"],
        ["tilt", "--max-m", "4", "--table"],
        ["tilt", "--functor", "3", "--max-m", "9"],
        ["invariants", "--level", "2", "--max-m", "4"],
    ):
        _, out, _ = _run(capsys, argv)
        assert _emitted(cli.Report(**parse_json(out))) == out, argv


def test_parse_json_restores_only_ascii_decimal_strings():
    assert parse_json('{"a": "12", "b": "-3"}') == {"a": 12, "b": -3}
    # non-ASCII digits (Arabic-Indic, superscript) and a bare sign stay text
    for text in ("١٢", "²", "-"):
        assert parse_json(json.dumps({"a": text})) == {"a": text}


def _reference_jsonify(obj):
    """The payload copy the JSON writer replaced, with arrays read as the
    nested lists and fusion elements as the lists of records payloads used
    to carry."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {k: _reference_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _reference_jsonify(obj.tolist())
    if isinstance(obj, fusion.FusionElt):
        return _reference_jsonify([
            {"coeff": c, "index": mask,
             "subset": [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]}
            for mask, c in obj.coeffs
        ])
    return obj


def _reference_json(obj) -> str:
    return json.dumps(_reference_jsonify(obj), indent=2, sort_keys=True)


@contextlib.contextmanager
def _block(entries):
    """Tables written ``entries`` entries per block."""
    saved, writers.COMPARE_BLOCK = writers.COMPARE_BLOCK, entries
    try:
        yield
    finally:
        writers.COMPARE_BLOCK = saved


# block sizes that cut the small tables below at every row, mid-table, and
# not at all
_BLOCKS = (1, 5, writers.COMPARE_BLOCK)


def _written(writer, *args) -> str:
    """What ``writer(*args, out)`` hands to its output."""
    buf = io.StringIO()
    out = writers.Out(buf.write)
    writer(*args, out)
    out.flush()
    return buf.getvalue()


def _dumps(obj, blocks=_BLOCKS) -> str:
    """``obj`` through the JSON writer at every block size of ``blocks``,
    which must agree."""
    texts = set()
    for entries in blocks:
        with _block(entries):
            texts.add(_written(writers.write_json, obj, 0))
    assert len(texts) == 1
    return texts.pop()


_INT64 = st.integers(-(2**63), 2**63 - 1)
_MATRICES = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=_INT64)
)
_FUSION_ELTS = st.integers(0, 4).flatmap(
    lambda n: st.dictionaries(st.integers(0, (1 << n) - 1),
                              st.integers(-(2**70), 2**70), max_size=6)
    .map(lambda coeffs: fusion.fusion_elt(n, coeffs))
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    _INT64.map(np.int64),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.lists(st.one_of(st.integers(), st.booleans())),
    _MATRICES,
    st.sampled_from([np.zeros((0, 0), np.int64), np.zeros((3, 0), np.int64),
                     np.array([[2**63 - 1, -(2**63), 0, -1]])]),
    _FUSION_ELTS,
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.tuples(kids, kids),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_json_writer_matches_reference_encoder(obj):
    assert _dumps(obj) == _reference_json(obj)


def _check_records(rows, blocks=_BLOCKS):
    """``Records`` of ``rows`` through the JSON writer against the reference
    encoder, and through the text and CSV writers against their row
    formats, at every block size of ``blocks``."""
    keys = ("left", "right", "out", "coeff")
    rec = writers.Records(keys, np.array(rows, dtype=np.int64).reshape(-1, 4))
    dicts = [dict(zip(keys, r)) for r in rec.rows.tolist()]
    for nest in (lambda x: x, lambda x: [x], lambda x: {"level": 3, "nonzero": x}):
        assert _dumps(nest(rec), blocks) == _reference_json(nest(dicts))
    res = {"level": 3, "nonzero": rec}
    for entries in blocks:
        with _block(entries):
            assert _written(cli._text_structure, res).splitlines()[1:] == [
                f"N[{e['left']}][{e['right']}][{e['out']}] = {e['coeff']}" for e in dicts
            ]
            assert _written(cli._csv_structure, res).splitlines() == [",".join(keys)] + [
                ",".join(str(e[k]) for k in keys) for e in dicts
            ]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_INT64, _INT64, _INT64, _INT64), max_size=12))
def test_json_writer_records_match_list_of_dicts(rows):
    _check_records(rows)


def test_records_longer_than_a_block_match_list_of_dicts():
    n = writers.COMPARE_BLOCK // 4 + 3  # three records past a block at the default size
    k = np.arange(n, dtype=np.int64)
    spread = (k.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)).view(np.int64)
    # three columns repeat a few values; the last spans the int64 range
    rows = np.stack([k % 3 - 1, k % 7, k // 5 % 3 + 2**62, spread], axis=1)
    _check_records(rows, blocks=(1000, writers.COMPARE_BLOCK))


def _check_matrix(mat):
    """A matrix through the JSON writer against the reference encoder, and
    through the text and CSV writers against their row formats, at every
    block size of ``_BLOCKS``."""
    assert _dumps(mat) == _reference_json(mat)
    labels = [f"V_{s}" for s in range(len(mat))]
    res = {"labels": labels, "matrix": mat}
    width = max(len(lbl) for lbl in labels) + 1
    colw = max(len(c) for c in labels + [str(mat.max()), str(mat.min())]) + 1
    text = [" " * width + "".join(lbl.rjust(colw + 1) for lbl in labels)] + [
        lbl.ljust(width) + f"%{colw + 1}d" * len(row) % tuple(row)
        for lbl, row in zip(labels, mat.tolist())
    ]
    csv = [",".join([""] + labels)] + [
        ",".join([lbl, *map(str, row)]) for lbl, row in zip(labels, mat.tolist())
    ]
    for entries in _BLOCKS:
        with _block(entries):
            assert _written(cli._text_matrix, res) == "\n".join(text) + "\n"
            assert _written(cli._csv_matrix, res) == "\n".join(csv) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: arrays(np.int64, (n, n), elements=_INT64)))
def test_matrix_text_and_csv_match_row_formats(mat):
    _check_matrix(mat)


# widths on both sides of one and two chunks of a matrix row
_CHUNK_WIDTHS = (1, writers._CHUNK - 1, writers._CHUNK, writers._CHUNK + 1,
                 2 * writers._CHUNK + 3)
# three values, so chunks repeat: about 0 and at both ends of int64
_TRIPLES = ((-3, 0, 5), (-(2**63), 1 - 2**63, 4 - 2**63), (2**63 - 5, 2**63 - 2, 2**63 - 1))
_CHUNK_MATRICES = st.tuples(
    st.integers(1, 3), st.sampled_from(_CHUNK_WIDTHS),
    st.one_of(st.sampled_from(_TRIPLES).map(st.sampled_from), st.just(_INT64)),
).flatmap(lambda t: arrays(np.int64, t[:2], elements=t[2]))


@settings(max_examples=60, deadline=None)
@given(_CHUNK_MATRICES)
def test_matrix_writers_match_at_chunk_widths(mat):
    # every row twice, so each block of two rows or more repeats its chunks
    _check_matrix(np.concatenate([mat, mat[::-1]]))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.uint64])
def test_matrix_writers_match_for_narrow_and_unsigned_dtypes(dtype):
    # values spanning three quarters of the type, in more entries than the
    # type has values, 70 to a row: value - lo would wrap in the narrow
    # signed types
    info = np.iinfo(dtype)
    rows = (1 << info.bits) // 70 + 1 if info.bits <= 16 else 4
    values = np.array([info.min // 4 * 3, info.max // 4 * 3, 0], dtype=dtype)
    _check_matrix(np.resize(values, (rows, 70)))


def test_json_writer_refuses_what_json_refuses():
    for bad in (np.float32(1.0), np.bool_(True), object()):
        with pytest.raises(TypeError):
            json.dumps(_reference_jsonify(bad))
        with pytest.raises(TypeError):
            _dumps([bad])
    # payloads carry only string keys and integer matrices
    for bad in ({1: "x"}, np.zeros((2, 2)), np.arange(3)):
        with pytest.raises(TypeError):
            _dumps(bad)


def test_tables_are_written_a_row_block_at_a_time(monkeypatch):
    mat = homology.cartan(19)
    rows_per_block = writers.COMPARE_BLOCK // mat.shape[1]
    assert 1 < rows_per_block < len(mat)
    for fmt in ("json", "csv", "text"):
        writes = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        assert run(["cartan", "--index", "19", "--format", fmt]) == 0
        monkeypatch.undo()
        whole = "".join(writes)
        # a JSON row spans a line per entry and two for its brackets
        lines_per_row = mat.shape[1] + 2 if fmt == "json" else 1
        line = max(len(text) for text in whole.splitlines()) + 1
        assert len(writes) >= len(mat) // rows_per_block, fmt
        assert max(map(len, writes)) <= rows_per_block * lines_per_row * line + 1, fmt
        assert max(map(len, writes)) < len(whole), fmt


def test_csv_header_row_uses_v_labels(capsys):
    _, out, _ = _run(capsys, ["cartan", "--index", "5", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == ",V_0,V_1,V_2,V_3"
    assert lines[1] == "V_0,8,4,4,2"


def test_csv_invariants(capsys):
    _, out, _ = _run(
        capsys,
        ["invariants", "--level", "1", "--max-m", "2", "--format", "csv"],
    )
    assert out.splitlines() == [
        "m,recursion,paths,series",
        "0,1,1,1",
        "1,1,1,1",
        "2,2,2,2",
    ]


def test_csv_not_defined_for_scalar_payload(capsys):
    code, _, err = _run(capsys, ["minpoly", "--level", "2", "--format", "csv"])
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize("mode", sorted(MODES))
def test_csv_defined_exactly_for_tables(mode, capsys):
    code, out, err = _run(capsys, MODES[mode] + ["--format", "csv"])
    if mode in CSV_MODES:
        assert code == 0 and out.count("\n") >= 2
    else:
        assert code == 2 and out == ""
        assert "csv" in err


def _mode(argv) -> cli.Mode:
    """The table's mode that ``argv`` selects."""
    return cli._pick_mode(cli.build_parser().parse_args(argv))


def test_modes_match_the_command_table_one_to_one():
    picked = [_mode(argv) for argv in MODES.values()]
    table = [mode for cmd in cli.COMMANDS.values() for mode in cmd.modes]
    assert len(set(map(id, picked))) == len(picked) == len(table)
    assert set(map(id, picked)) == set(map(id, table))
    assert {name for name in MODES if _mode(MODES[name]).csv} == CSV_MODES


def test_every_subcommand_has_a_handler_and_a_text_renderer(capsys):
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert set(sub.choices) == set(cli.COMMANDS) == {a[0] for a in MODES.values()}
    for argv in MODES.values():
        code, out, _ = _run(capsys, argv + ["--format", "text"])
        assert code == 0 and out.strip(), argv


def test_modes_are_byte_identical_in_any_order(capsys):
    # the parser is built once per process and reused by every run
    assert cli.build_parser() is cli.build_parser()
    outputs = []
    for order in (sorted(MODES), sorted(MODES, reverse=True)):
        outs = {}
        for mode in order:
            code, out, err = _run(capsys, MODES[mode])
            outs[mode] = (code, out, err)
        outputs.append(outs)
    assert outputs[0] == outputs[1]
    assert all(code == 0 for code, _, _ in outputs[0].values())


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["cartan", "--index", "3", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    payload = parse_json(target.read_text())
    assert payload["result"]["matrix"] == [[4, 2], [2, 2]]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(capsys, ["cartan", "--index", "3", "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"char2cat: error: cannot write --out {target}: ")
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# exit codes


def test_usage_error_names_missing_flag(capsys):
    code, _, err = _run(capsys, ["fusion"])
    assert code == 2
    assert "--level" in err


def test_usage_error_on_half_pair(capsys):
    code, _, err = _run(capsys, ["fusion", "--level", "3", "--left", "2"])
    assert code == 2
    assert "--left" in err and "--right" in err


def test_usage_error_on_bad_choice(capsys):
    code, _, err = _run(
        capsys, ["invariants", "--level", "1", "--max-m", "2", "--route", "x"]
    )
    assert code == 2
    assert "--route" in err


def _with(argv, name, value):
    """``argv`` with the option of argument ``name`` set to ``value``."""
    option = "--" + name.replace("_", "-")
    if option in argv:
        i = argv.index(option) + 1
        return [*argv[:i], str(value), *argv[i + 1:]]
    return [*argv, option, str(value)]


# hand-picked violations, each with what its message names
_CAP_CASES = [
    (["cartan", "--index", "99"], "CATEGORY_INDEX_CAP"),
    (["fusion", "--level", "9"], "STRUCTURE_LEVEL_CAP"),
    (["minpoly", "--level", "40"], "RING_LEVEL_CAP"),
    (["verify", "--max-level", "9"], "VERIFY_LEVEL_CAP"),
    (["verify", "--max-level", "-1"], "verify level"),
    (["tilt", "--table", "--max-m", str(tilting.TILT_INDEX_CAP + 1)], "TILT_INDEX_CAP"),
    (["tilt", "--decompose", str(tilting.TILT_INDEX_CAP + 1)], "TILT_INDEX_CAP"),
    (["tilt", "--functor", "2", "--max-m", str(tilting.TILT_INDEX_CAP + 1)], "TILT_INDEX_CAP"),
    (["tilt", "--functor", str(cyclotomic.RING_LEVEL_CAP + 1), "--max-m", "1"],
     "RING_LEVEL_CAP"),
    (["tilt", "--table", "--max-m", "-3"], "tilt index"),
    (["tilt", "--decompose", "-1"], "tensor power"),
    (["tilt", "--functor", "3", "--max-m", "-1"], "tilt index"),
    (["tilt", "--functor", "-1", "--max-m", "1"], "functor level"),
] + [
    (["invariants", *argv, "--route", route], name)
    for route in ("recursion", "paths", "series", "all")
    for argv, name in (
        (["--level", "1", "--max-m", str(invariants.SERIES_ORDER_CAP + 1)], "SERIES_ORDER_CAP"),
        (["--level", str(invariants.INVARIANTS_LEVEL_CAP + 1), "--max-m", "1"],
         "INVARIANTS_LEVEL_CAP"),
    )
]


_RING = cyclotomic.RING_LEVEL_CAP
_CHAIN = homology.CATEGORY_INDEX_CAP
_TILT = tilting.TILT_INDEX_CAP

#: Every capped argument of every mode: ``(mode, argument, what, cap, cap
#: name)``, as the library function that declares the cap words it.
_CAPPED = [
    ("fusion product", "level", "level", _RING, "RING_LEVEL_CAP"),
    ("fusion table", "level", "structure-tensor level", fusion.STRUCTURE_LEVEL_CAP,
     "STRUCTURE_LEVEL_CAP"),
    ("cartan", "index", "chain index", _CHAIN, "CATEGORY_INDEX_CAP"),
    ("ext1", "index", "chain index", _CHAIN, "CATEGORY_INDEX_CAP"),
    ("fpdim simple", "level", "level", _RING, "RING_LEVEL_CAP"),
    ("fpdim category", "level", "chain index", _CHAIN, "CATEGORY_INDEX_CAP"),
    ("fpdim algebra", "level", "algebra level", _RING - 1, "RING_LEVEL_CAP-1"),
    ("tilt table", "max_m", "tilt index", _TILT, "TILT_INDEX_CAP"),
    ("tilt decompose", "decompose", "tensor power", _TILT, "TILT_INDEX_CAP"),
    ("tilt functor", "max_m", "tilt index", _TILT, "TILT_INDEX_CAP"),
    ("tilt functor", "functor", "functor level", _RING, "RING_LEVEL_CAP"),
    ("invariants", "level", "invariants level", invariants.INVARIANTS_LEVEL_CAP,
     "INVARIANTS_LEVEL_CAP"),
    ("invariants", "max_m", "order", invariants.SERIES_ORDER_CAP, "SERIES_ORDER_CAP"),
    ("minpoly", "level", "level", _RING, "RING_LEVEL_CAP"),
    ("verify", "max_level", "verify level", checks.VERIFY_LEVEL_CAP, "VERIFY_LEVEL_CAP"),
]


def test_cap_violations_name_the_cap(capsys):
    assert {mode for mode, *_ in _CAPPED} == set(MODES)
    cases = list(_CAP_CASES)
    for mode, name, what, cap, cap_name in _CAPPED:
        argv = MODES[mode]
        cases += [
            (_with(argv, name, cap + 1),
             f"char2cat: error: {what} {cap + 1} exceeds the cap {cap_name}={cap}\n"),
            (_with(argv, name, -1),
             f"char2cat: error: {what} must be a nonnegative integer, got -1\n"),
        ]
    for argv, named in cases:
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == "" and named in err, argv
    for argv in (["fpdim", "--level", "-1", "--simple", "0"],
                 ["fusion", "--level", "-1", "--left", "0", "--right", "0"]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err == "char2cat: error: level must be a nonnegative integer, got -1\n", argv


@pytest.mark.parametrize("route", ["recursion", "paths", "series", "all"])
def test_negative_invariants_order_is_a_usage_error(capsys, route):
    code, out, err = _run(
        capsys, ["invariants", "--level", "1", "--max-m", "-1", "--route", route]
    )
    assert code == 2 and out == ""
    assert err == "char2cat: error: order must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("route", ["recursion", "paths", "series", "all"])
def test_negative_invariants_level_is_a_usage_error(capsys, route):
    code, out, err = _run(
        capsys, ["invariants", "--level", "-2", "--max-m", "3", "--route", route]
    )
    assert code == 2 and out == ""
    assert err == "char2cat: error: invariants level must be a nonnegative integer, got -2\n"


def test_inconsistent_tensor_table_exits_one(monkeypatch, capsys):
    def no_leading_summand(m, route=tilting.tensor_v_rows):
        return [{i: k for i, k in row.items() if i != t + 1}
                for t, row in enumerate(route(m))]

    monkeypatch.setattr(tilting, "tensor_v_rows", no_leading_summand)
    code, out, _ = _run(capsys, ["tilt", "--table", "--max-m", "5", "--format", "text"])
    assert code == 1 and "[FAIL] top-summand-multiplicity-one" in out
    # the tensor powers do not read the rows: break their operator the same way
    code, out, _ = _run(capsys, ["tilt", "--decompose", "5", "--format", "text"])
    assert code == 0

    def no_top_summand(c, route=tilting._tilting_from_weyl):
        return [*route(c)[:-1], 0] if c else []

    monkeypatch.setattr(tilting, "_tilting_from_weyl", no_top_summand)
    code, out, _ = _run(capsys, ["tilt", "--decompose", "5", "--format", "text"])
    assert code == 1 and "[FAIL] total-dimension-is-2^r" in out
    # the row step the digit images are checked against stops on such a row
    code, out, _ = _run(capsys, ["verify", "--max-level", "1", "--format", "text"])
    assert code == 1 and "[FAIL] tilting/tensor-triangular" in out
    assert "[FAIL] tilting/functor-multiplicative - raised NotTiltingCharacter" in out
    assert "not unitriangular" in out


def test_internal_inconsistency_exits_one(monkeypatch, capsys):
    # generator coefficients that would overflow int64 in the structure
    # builder: its bound check refuses them before multiplying
    def overflowing(i, n, terms=fusion._generator_terms):
        out, inp, coeff = terms(i, n)
        return out, inp, coeff << 61

    monkeypatch.setattr(fusion, "_generator_terms", overflowing)
    code, out, err = _run(capsys, ["fusion", "--level", "2"])
    assert code == 1 and out == ""
    assert err.startswith("char2cat: internal error: structure-constant bound ")
    assert err.endswith(" is not below 2**63\n")


def test_a_route_that_breaks_inside_a_handler_exits_one(monkeypatch, capsys):
    # a numpy shape mismatch (ValueError) and a level mismatch inside a
    # handler are internal errors, not usage errors
    def mismatched(m):
        return np.ones((2, 3), dtype=np.int64) @ np.ones((2, 3), dtype=np.int64)

    def across_levels(a, b, product=fusion.product):
        return product(a, fusion.simple_elt(b.level + 1, 0))

    monkeypatch.setattr(homology, "cartan", mismatched)
    monkeypatch.setattr(fusion, "product", across_levels)
    for argv, reason in ((["cartan", "--index", "3"], "matmul: "),
                         (["fusion", "--level", "2", "--left", "1", "--right", "3"],
                          "cannot combine fusion elements at levels 2 and 3")):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("char2cat: internal error: " + reason), err
    # a capped argument is still a usage error
    monkeypatch.undo()
    code, _, err = _run(capsys, ["cartan", "--index", "26"])
    assert code == 2 and err.startswith("char2cat: error: ")


def _perturbed_recursion(n, route=fusion._structure_from_recursion):
    records = route(n).copy()
    records[0, 3] += 1  # one wrong coefficient
    return records


@pytest.mark.parametrize("argv, module, name, fake, check", [
    (["fusion", "--level", "2"], fusion, "_structure_from_recursion",
     _perturbed_recursion, "iteration-matches-level-recursion"),
    (["fpdim", "--level", "4", "--category"], homology, "category_fpdim",
     lambda m, route=homology.category_fpdim: route(m) * 2,
     "projective-sum-matches-closed-form"),
    (["ext1", "--index", "4"], homology, "block_components",
     lambda m, route=homology.block_components: route(m) + ((),),
     "component-count"),
    (["fusion", "--level", "3", "--left", "5", "--right", "3"], cyclotomic, "to_d_basis",
     lambda e, route=cyclotomic.to_d_basis: [v + 1 for v in route(e)],
     "product-matches-dimension-oracle"),
])
def test_route_disagreement_is_a_failed_check(monkeypatch, capsys, argv, module,
                                              name, fake, check):
    code, out, _ = _run(capsys, argv + ["--format", "text"])
    assert code == 0 and f"[PASS] {check}" in out
    monkeypatch.setattr(module, name, fake)
    code, out, _ = _run(capsys, argv + ["--format", "text"])
    assert code == 1
    assert f"[FAIL] {check}" in out


def test_total_dimension_checks_fail_on_a_perturbed_recursion(monkeypatch, capsys):
    # +1 at even indices only: a x2 on every index would keep the doubling
    def off_at_even(m, route=homology.category_fpdim):
        return route(m) + 1 if m % 2 == 0 else route(m)

    monkeypatch.setattr(homology, "category_fpdim", off_at_even)
    code, out, _ = _run(capsys, ["verify", "--max-level", "2", "--format", "text"])
    assert code == 1
    assert "[FAIL] homology/dimension-routes" in out
    assert "[FAIL] homology/category-doubling" in out


def test_composition_check_fails_on_a_broken_tower(monkeypatch, capsys):
    def bogus(coeffs, compose=cyclotomic._compose_square_minus_two):
        return compose(coeffs) + (1,)

    monkeypatch.setattr(cyclotomic, "_compose_square_minus_two", bogus)
    cyclotomic.min_poly.cache_clear()
    try:
        code, out, _ = _run(capsys, ["minpoly", "--level", "4", "--format", "text"])
    finally:
        monkeypatch.undo()
        cyclotomic.min_poly.cache_clear()
    assert code == 1
    assert "[FAIL] composition-step" in out


@pytest.mark.parametrize("module", ["char2cat", "char2cat.cli"])
def test_python_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(Path(char2cat.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", module], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "char2cat: error: the following arguments are required: command" in proc.stderr
    assert proc.stderr.startswith("usage: char2cat")
    for command in cli.COMMANDS:
        assert command in proc.stderr


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_failed_check_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(checks, "CHECKS", {
        "always/green": lambda max_level: (True, ""),
        "always/red": lambda max_level: (False, "forced failure"),
    })
    code, out, _ = _run(capsys, ["verify", "--format", "text"])
    assert code == 1
    assert "[FAIL] always/red" in out
    assert "[PASS] always/green" in out


def test_crashing_check_reports_failure(monkeypatch, capsys):
    def boom(max_level):
        raise RuntimeError("kaput")

    monkeypatch.setattr(checks, "CHECKS", {"always/boom": boom})
    code, out, _ = _run(capsys, ["verify"])
    assert code == 1
    payload = parse_json(out)
    assert payload["checks"][0]["pass"] is False
    assert "kaput" in payload["checks"][0]["detail"]


# ----------------------------------------------------------------------
# verification suite


def test_verify_passes_and_is_byte_deterministic(capsys):
    char2cat.clear_caches()
    code1, out1, _ = _run(capsys, ["verify", "--max-level", "2"])
    char2cat.clear_caches()
    code2, out2, _ = _run(capsys, ["verify", "--max-level", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    names = [c["name"] for c in parse_json(out1)["checks"]]
    assert names == sorted(names) == sorted(checks.CHECKS)


def test_verify_check_names_cover_every_module(capsys):
    _, out, _ = _run(capsys, ["verify", "--max-level", "1"])
    names = {c["name"].split("/")[0] for c in parse_json(out)["checks"]}
    assert {
        "cyclotomic",
        "fusion",
        "chebyshev",
        "tilting",
        "invariants",
        "homology",
    } <= names
