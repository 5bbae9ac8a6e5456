import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jsontext_oracle
from jsontext_oracle import Float, Int, Str
from mpradon.jsontext import dumps

# every character class the escaper treats differently: quotes, backslash,
# control characters, DEL, non-ASCII, lone surrogates and astral characters
_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é", "\ud800", "\udfff", "\U0001f600"]),
    ),
    max_size=8,
)
_FLOATS = st.one_of(
    st.floats(),  # nan and the infinities included
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308]),
)
_INTS = st.one_of(st.integers(), st.integers(-(10**80), 10**80))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    _FLOATS,
    _TEXT,
    st.builds(Int, _INTS),
    st.builds(Float, _FLOATS),
    st.builds(Str, _TEXT),
    st.builds(np.float64, _FLOATS),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=250, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_writer_oracle_cases():
    # the same check the oracle script runs on interpreters without the test extras
    jsontext_oracle.run(trees=300, seed=1)


@pytest.mark.parametrize(
    "obj",
    [Fraction(1, 2), {1, 2}, np.zeros(2), [1, Fraction(1)], {"a": {"b": {3}}}, (np.zeros(1),), np.int64(3)],
)
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dumps(obj)


def test_numpy_float_is_written_as_its_value():
    assert dumps({"radius": np.float64(5e299)}) == '{\n  "radius": 5e+299\n}'
