"""Properties of the library source itself."""

import ast
import importlib
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


def test_every_name_in_all_resolves():
    # a deleted function must not leave a stale __all__ entry behind
    modules = [
        importlib.import_module(f"tftflip.{path.stem}".removesuffix(".__init__"))
        for path in SOURCES
    ]
    names = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len(names) > len(modules)
    assert [f"{m.__name__}.{name}" for m, name in names if not hasattr(m, name)] == []


def test_every_private_helper_is_referenced():
    # a kernel that a rewrite leaves behind fails here: each module-level
    # private function is named in the library outside its own body
    tops = [top for path in SOURCES for top in ast.parse(path.read_text()).body]
    helpers = [
        top
        for top in tops
        if isinstance(top, ast.FunctionDef)
        and top.name.startswith("_")
        and not top.name.endswith("__")
    ]
    assert len(helpers) > 10
    names = [
        {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(top)
         if isinstance(node, (ast.Name, ast.Attribute))}
        for top in tops
    ]
    unused = [
        helper.name
        for helper in helpers
        if not any(helper.name in used for top, used in zip(tops, names) if top is not helper)
    ]
    assert unused == []
