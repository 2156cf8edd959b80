"""Properties of the library source itself."""

import ast
from pathlib import Path

import tftflip

SOURCES = sorted(Path(tftflip.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips asserts; an oracle's self-check raises
    # RuntimeError instead, so that it also runs under -O
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
