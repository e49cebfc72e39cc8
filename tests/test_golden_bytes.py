"""Byte-for-byte goldens for the `classify` and `nilset` JSON documents.

The corpus reaches every module constructor of the structure DSL.  The
goldens pin verdicts, least witnesses, nil sets and each member's (t, k)
witness, so any change to the scan or the tables that moves one byte
fails here.  Regenerate (only when an output change is intended) with

  PYTHONPATH=src python tests/test_golden_bytes.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nilcomm.cli import main

GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli_json.json"

PROPERTIES = ("semicommutative,weakly-semicommutative,nil-semicommutative,"
              "reduced-i,reduced-ii")

CORPUS = (
    "regular(Z(12))",
    "matmod(2, regular(Z(2)))",
    "trimod(2, regular(Z(3)))",
    "smod(3, regular(Z(2)))",
    "vmod(3, regular(Z(2)))",
    "prodmod(regular(Z(4)), cyclic(regular(Z(4)), 2))",
    "quot(regular(Z(12)), gen(regular(Z(12)), {4}))",
    "locmod(regular(Z(12)), {3})",
    "induced(zred(8, 4), regular(Z(4)))",
    "regular(prod(Z(2), polyq(Z(2), 2)))",
)


def _output(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def documents(expr: str) -> dict[str, str]:
    return {
        "classify": _output("classify", expr, "--properties", PROPERTIES,
                            "--format", "json"),
        "nilset": _output("nilset", expr, "--format", "json"),
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("expr", CORPUS)
def test_cli_json_matches_golden_bytes(goldens, expr):
    got = documents(expr)
    assert got == goldens[expr]
    # every id that reaches JSON is a plain int: a numpy scalar would not
    # serialize at all, and the parsed documents must hold only ints
    for text in got.values():
        _assert_plain(json.loads(text))


def _assert_plain(node):
    if isinstance(node, dict):
        for value in node.values():
            _assert_plain(value)
    elif isinstance(node, list):
        for value in node:
            _assert_plain(value)
    else:
        assert node is None or type(node) in (bool, int, str)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({e: documents(e) for e in CORPUS}, indent=1)
                      + "\n")
    sys.exit(0)
