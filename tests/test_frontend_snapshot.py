"""Differential snapshot of the HDL front end (lexer, parser, diagnostics).

The fixture was recorded with the earlier lexer (one regex match per
token, whitespace and comment included) and the earlier parser (one
recursive call per binary precedence level). For every input it pins a
sha256 over

* every token's ``(kind, text, lineno, col, value, width, signed)`` from
  a recovering run, or the exception of a strict run;
* the AST ``repr`` and the formatted diagnostics of a recovering parse;
* the exception type and text of a strict parse (or ``ok``).

Inputs: the 20 testbed designs, ``generate_design(0..199)``, one seeded
mutant per testbed design, and truncated, ``;``-dropped and
bad-character variants of each design so the recovery paths are
covered too. Regenerate the fixture (only on purpose, from the code the
snapshot should pin) with::

    PYTHONPATH=src python tests/test_frontend_snapshot.py
"""

import hashlib
import importlib.resources
import json
from pathlib import Path

from repro.diag.model import DiagnosticSink
from repro.fuzz.generator import generate_design
from repro.fuzz.mutator import mutate_source
from repro.hdl import parse
from repro.hdl.lexer import tokenize

SNAPSHOT = Path(__file__).parent / "fixtures" / "frontend_snapshot.json"

GENERATED_SEEDS = range(200)


def _testbed_designs():
    designs = importlib.resources.files("repro.testbed") / "designs"
    return sorted(
        (entry.name, entry.read_text())
        for entry in designs.iterdir()
        if entry.name.endswith(".v")
    )


def _drop_semicolon(text, which):
    """*text* without its *which*-th ``;`` (counted from 0)."""
    at = -1
    for _ in range(which + 1):
        at = text.find(";", at + 1)
        if at < 0:
            return text
    return text[:at] + text[at + 1:]


def snapshot_inputs():
    """``(name, text)`` for every input the snapshot covers, in order."""
    inputs = []
    for index, (name, text) in enumerate(_testbed_designs()):
        inputs.append(("design/%s" % name, text))
        mutant = mutate_source(text, seed=index)
        if mutant is not None:
            inputs.append(("mutant/%s" % name, mutant.text))
        inputs.append(("truncated/%s" % name, text[: len(text) // 2]))
        inputs.append(("tail/%s" % name, text[len(text) // 3:]))
        semis = text.count(";")
        inputs.append(
            ("nosemi/%s" % name, _drop_semicolon(text, semis // 2))
        )
        inputs.append((
            "nosemis/%s" % name,
            _drop_semicolon(_drop_semicolon(text, semis - 1), 1),
        ))
        middle = len(text) // 2
        inputs.append((
            "badchar/%s" % name,
            text[:middle] + " ` 1.5 \\ " + text[middle:],
        ))
    for seed in GENERATED_SEEDS:
        inputs.append(("generated/%d" % seed, generate_design(seed).text))
    return inputs


def _exception_text(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def frontend_digest(text, filename="snap.v"):
    """sha256 over everything the front end produces for *text*."""
    parts = []
    sink = DiagnosticSink()
    parts.append(repr([
        (t.kind, t.text, t.lineno, t.col, t.value, t.width, t.signed)
        for t in tokenize(text, filename=filename, sink=sink)
    ]))
    parts.append(repr([d.format() for d in sink]))
    try:
        tokenize(text, filename=filename)
        parts.append("tokenize ok")
    except Exception as exc:  # the strict lexer's error is part of the pin
        parts.append(_exception_text(exc))
    sink = DiagnosticSink()
    parts.append(repr(parse(text, filename=filename, sink=sink)))
    parts.append(repr([d.format() for d in sink]))
    try:
        parse(text, filename=filename)
        parts.append("parse ok")
    except Exception as exc:  # the strict parser's error is part of the pin
        parts.append(_exception_text(exc))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def frontend_snapshot():
    return {name: frontend_digest(text) for name, text in snapshot_inputs()}


class TestFrontendSnapshot:
    def test_front_end_matches_snapshot(self):
        expected = json.loads(SNAPSHOT.read_text())
        actual = frontend_snapshot()
        assert sorted(actual) == sorted(expected)
        mismatched = [name for name in expected if actual[name] != expected[name]]
        assert mismatched == []


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(frontend_snapshot(), indent=1, sort_keys=True) + "\n")
    print("wrote %s" % SNAPSHOT)
