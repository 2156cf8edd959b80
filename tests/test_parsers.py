"""Every text parser either returns a value or raises ``ValueError``.

Inputs come from outside the program (the command line, files), so a
malformed one must never surface as another exception type.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftflip.geometry import parse_phi
from tftflip.representatives import parse_rep

PARSERS = {
    "parse_rep": lambda text: parse_rep(text, 3),
    "parse_phi": lambda text: parse_phi(text, 3),
}

# random text, and text over the parsers' own alphabet so that inputs
# get past the first split and into the deeper checks
texts = st.one_of(
    st.text(),
    st.text(alphabet="0123456789-,:;() n=chords\"{}[]"),
)


@pytest.mark.parametrize("name", sorted(PARSERS))
@given(text=texts)
@settings(max_examples=200, deadline=None)
def test_text_parsers_raise_only_value_error(name, text):
    try:
        PARSERS[name](text)
    except ValueError:
        pass
