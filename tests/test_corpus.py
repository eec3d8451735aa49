"""The byte gate: every argv of ``tests/corpus.json`` still prints the same
stdout and stderr bytes and exits with the same code.  The corpus and its
grid come from ``tests/make_corpus.py``."""

import json
import shlex

import pytest

import char2cat.cli as cli
from make_corpus import CORPUS, compute, grid


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def _mismatches(corpus, keys):
    got = compute([shlex.split(k) for k in keys])
    return sorted(k for k in keys if got[k] != corpus[k])


def test_corpus_covers_the_grid(corpus):
    assert sorted(corpus) == sorted(shlex.join(argv) for argv in grid())


def test_every_argv_matches_the_corpus(corpus):
    assert _mismatches(corpus, list(corpus)) == []


def _sample(corpus, *words):
    keys = [k for k in corpus if all(w in shlex.split(k) for w in words)]
    assert keys
    return keys


def test_gate_catches_a_changed_json_indent(corpus, monkeypatch):
    emit = cli.emit_json

    def wider(report, write):
        emit(report, lambda text: write(text.replace("\n  ", "\n   ")))

    monkeypatch.setattr(cli, "emit_json", wider)
    keys = _sample(corpus, "cartan", "json")
    assert _mismatches(corpus, keys) == sorted(keys)


def test_gate_catches_a_changed_csv_separator(corpus, monkeypatch):
    monkeypatch.setattr(cli, "_csv_line", lambda cells: ";".join(map(str, cells)))
    keys = _sample(corpus, "csv")
    bad = _mismatches(corpus, keys)
    assert {shlex.split(k)[0] for k in bad} == {"cartan", "ext1", "fusion", "invariants"}


def test_gate_catches_a_changed_exit_code(corpus, monkeypatch):
    monkeypatch.setattr(cli.Report, "failed", property(lambda self: True))
    keys = _sample(corpus, "minpoly", "--level")
    got = compute([shlex.split(k) for k in keys])
    ok = [k for k in keys if corpus[k]["exit"] == 0]
    assert ok and all(got[k] == {**corpus[k], "exit": 1} for k in ok)
    assert _mismatches(corpus, keys) == sorted(ok)
