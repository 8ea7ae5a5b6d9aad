import json
import tempfile
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droidcage.corpus import _json, build_corpus, write_corpus
from droidcage.harness import load_corpus_dir

# Any code point, lone surrogates included (hypothesis leans to low code
# points, so '"', '\\' and control characters come often).
_text = st.text(st.characters(exclude_categories=()))
_json_values = st.recursive(
    st.none() | st.sampled_from([True, False, 1, 0]) | st.integers(-10**300, 10**300) | _text,
    lambda children: st.lists(children) | st.dictionaries(_text, children),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(value=_json_values)
@example(value=[[], {}, {"a": [{}, []]}, [[[]]]])
@example(value=[True, 1, False, 0, None, {"1": True, "0": 0}])
@example(value=[10**300, -10**300, "𐏿\udc00", '"\\\x00\x1f '])
def test_json_writes_what_json_dumps_indent_2_writes(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), OrderedDict(a=1), [{"a": 0.0}], {1: "int key"}])
def test_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(-2**63, 2**64 - 1), count=st.integers(1, 45))
def test_a_written_corpus_loads_to_the_models_built_in_memory(seed, count):
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(tmp, seed, count)
        loaded = load_corpus_dir(tmp)
    assert repr(loaded) == repr([app.model for app in build_corpus(seed, count)])
