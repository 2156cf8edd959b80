"""Properties of the library source itself."""

import ast
import importlib
from pathlib import Path

import pytest

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
    # a kernel that a rewrite leaves behind fails here: each private
    # module-level function, and each private method or property of a
    # class, is named in the library outside its own body
    units = []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                units += [*top.decorator_list, *top.bases, *top.body]
            else:
                units.append(top)
    helpers = [
        unit
        for unit in units
        if isinstance(unit, ast.FunctionDef)
        and unit.name.startswith("_")
        and not unit.name.endswith("__")
    ]
    assert len(helpers) > 10
    assert "_violations" in {helper.name for helper in helpers}  # a class-body property
    names = [
        {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(unit)
         if isinstance(node, (ast.Name, ast.Attribute))}
        for unit in units
    ]
    unused = [
        helper.name
        for helper in helpers
        if not any(helper.name in used for unit, used in zip(units, names) if unit is not helper)
    ]
    assert unused == []


# each public closed form whose body an oracle calls on reps it
# enumerated, with that body
BODIES = [
    ("representatives", "meet", "_meet"),
    ("representatives", "join", "_join"),
    ("flipgraph", "distance_formula", "_distance"),
    ("representatives", "apply_generator", "_apply_generator"),
]


def calls_in(source, function):
    """The names that the module-level ``function`` of ``source`` calls."""
    unit = next(
        top for top in ast.parse(source).body
        if isinstance(top, ast.FunctionDef) and top.name == function
    )
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(unit)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def source_of(module):
    return (Path(tftflip.__file__).parent / f"{module}.py").read_text()


@pytest.mark.parametrize("module, wrapper, body", BODIES, ids=[w for _, w, _ in BODIES])
def test_each_checked_wrapper_calls_the_body_its_oracle_checks(module, wrapper, body):
    # an oracle that checks the body then checks the wrapper's arithmetic too
    assert body in calls_in(source_of(module), wrapper)


def test_a_wrapper_that_calls_another_body_is_caught():
    source = source_of("representatives")
    swapped = source.replace("_meet(", "_join(")  # in meet's body, and _meet's own name
    assert "_meet" in calls_in(source, "meet")
    assert "_join" in calls_in(swapped, "meet")
    assert "_meet" not in calls_in(swapped, "meet")


def attribute_reads(source, name):
    """The lines of ``source`` that read an attribute called ``name``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == name
    ]


def test_checks_leave_the_voltages_to_the_flip_graph():
    # the voltage format (images) is known to flipgraph alone: the checks
    # walk words with FlipGraph.walk and read ids off the step tables
    assert attribute_reads(source_of("checks"), "images") == []


def test_a_check_that_reads_the_voltages_is_caught():
    source = source_of("checks")
    marker = "    g = _shared(\"graph\", flipgraph.build_graph, n)\n"
    assert marker in source
    inserted = source.replace(marker, marker + "    heads = g.images[0][0]\n", 1)
    line = source[: source.index(marker)].count("\n") + 2
    assert attribute_reads(inserted, "images") == [line]
