"""Every text parser either returns a value or raises ``ValueError``.

Inputs come from outside the program (the command line, files), so a
malformed one must never surface as another exception type.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftflip.coxeter import parse_word
from tftflip.flipgraph import build_graph, export_json, graph_from_json
from tftflip.geometry import parse_phi, parse_triangulation
from tftflip.representatives import parse_rep

PARSERS = {
    "parse_rep": lambda text: parse_rep(text, 3),
    "parse_phi": lambda text: parse_phi(text, 3),
    "parse_word": parse_word,
    "parse_triangulation": parse_triangulation,
    "graph_from_json": graph_from_json,
}

# random text, and text over the parsers' own alphabet so that inputs
# get past the first split and into the deeper checks
texts = st.one_of(
    st.text(),
    st.text(alphabet="0123456789-,:;() n=chords\"{}[]"),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

VALID = json.loads(export_json(build_graph(2)))


def _accepts_or_raises_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
@given(text=texts)
@settings(max_examples=200, deadline=None)
def test_text_parsers_raise_only_value_error(name, text):
    _accepts_or_raises_value_error(PARSERS[name], text)


@given(doc=json_values)
@settings(max_examples=200, deadline=None)
def test_graph_from_json_any_document(doc):
    _accepts_or_raises_value_error(graph_from_json, json.dumps(doc))


@given(
    path=st.sampled_from(
        [(), ("n",), ("vertices",), ("vertices", 0), ("vertices", 0, "rep"),
         ("edges",), ("edges", 0), ("edges", 0, "u"), ("edges", 0, "v"),
         ("edges", 0, "color")]
    ),
    value=json_values,
)
@settings(max_examples=200, deadline=None)
def test_graph_from_json_mutated_export(path, value):
    doc = json.loads(json.dumps(VALID))
    if path:
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value
    else:
        doc = value
    _accepts_or_raises_value_error(graph_from_json, json.dumps(doc))


@pytest.mark.parametrize(
    "text",
    [
        '{"format": 1}',
        "[]",
        "3",
        '{"format": 1, "n": 2, "vertices": [{"rep": "0,0,0"}], '
        '"edges": [{"u": 0, "v": 1, "color": 0}]}',
        '{"format": 1, "n": 2, "vertices": [{"rep": "0,0,0"}, {"rep": "1,0,0"}], '
        '"edges": [{"u": 0, "v": 1, "color": 3}]}',
        '{"format": 1, "n": 2, "vertices": [{"rep": "0,0,0"}, {"rep": "0,0,0"}], '
        '"edges": []}',
        "[" * 100_000,
    ],
    ids=["no-n", "list", "number", "endpoint", "color", "duplicate", "deep"],
)
def test_graph_from_json_rejects(text):
    with pytest.raises(ValueError):
        graph_from_json(text)


def test_huge_color_range_is_rejected_cheaply():
    with pytest.raises(ValueError):
        parse_triangulation(f"n={10**30}; chords: 0:(1,3)")
