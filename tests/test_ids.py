"""Canonical JSON and text normalization, held against their old forms."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claimcheck
from claimcheck.ids import canonical_json, encode_sorted, normalize_text

# --- the reference: the forms these functions replaced -----------------------

_WS = re.compile(r"\s+")


def old_normalize_text(value):
    return _WS.sub(" ", value).strip()


def _old_canonicalize(value):
    if isinstance(value, str):
        return old_normalize_text(value)
    if isinstance(value, dict):
        return {k: _old_canonicalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_old_canonicalize(v) for v in value]
    return value


def old_canonical_json(value):
    return json.dumps(_old_canonicalize(value), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False)


# --- strategies ------------------------------------------------------------

WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
# Every whitespace code point, the characters JSON escapes, and letters.
_TRICKY = WHITESPACE + ['"', "\\", "'", "/", "\x00", "\x1b", "\x7f",
                        "\u200b", "\ud800", "a", "b"]


class _Str(str):
    pass


# The second kind is mostly text that needs no normalizing, or that needs it
# only for a space at an end or a double space.
_TEXT = (st.text(alphabet=st.sampled_from(_TRICKY) | st.characters(),
                 max_size=12)
         | st.text(alphabet="ab ", max_size=8))
_SCALARS = (_TEXT | _TEXT.map(_Str) | st.integers() | st.floats()
            | st.booleans() | st.none())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12)


def _same(value):
    assert canonical_json(value) == old_canonical_json(value)


@settings(max_examples=300, deadline=None)
@given(_TEXT)
def test_normalize_text_matches_the_regex_form(text):
    assert normalize_text(text) == old_normalize_text(text)
    assert normalize_text(_Str(text)) == old_normalize_text(_Str(text))
    _same(text)
    _same({text: [text, _Str(text)]})


@settings(max_examples=250, deadline=None)
@given(_VALUES)
def test_canonical_json_matches_the_rebuild_then_dump_form(value):
    _same(value)


@pytest.mark.parametrize("value", [
    " leading", "trailing ", "a\u00a0b", "a\u2028b", "x\\y", {"a  b": 1},
    {"a  b": " c "}, {"k": ["a\tb", ("c", "d  e")]}, "a \"b\" c", 'q" x',
    "x \"", {"b": 1, "a": [True, None, 1.5, float("nan")]}, _Str(" s "),
    {"x": _Str("plain")}, "", [], {},
])
def test_canonical_json_named_cases(value):
    _same(value)


# --- the shared encoder ------------------------------------------------------

_REFERENCE = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False).encode


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_encode_sorted_matches_a_new_encoder_per_call(value):
    assert encode_sorted(value) == _REFERENCE(value)


@pytest.mark.parametrize("value", [
    float("inf"), float("-inf"), float("nan"), -0.0, 1e300, 2**70, True,
    None, "caf\u00e9 \x00\x1f\u2028", _Str("s"),
    {"b": [1, (2, {"d": float("nan")})], "a": {"\u00e9": None, "A": False}},
])
def test_encode_sorted_named_cases(value):
    assert encode_sorted(value) == _REFERENCE(value)


def test_encode_sorted_without_the_c_encoder_is_the_stdlib_encode():
    code = ("import json, json.encoder as e; e.c_make_encoder = None; "
            "from claimcheck import ids; "
            "assert isinstance(ids.encode_sorted.__self__, json.JSONEncoder); "
            "print(ids.encode_sorted({'b': [1.5, 'caf\u00e9'], 'a': None}))")
    src = Path(claimcheck.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         check=True, encoding="utf-8",
                         env={**os.environ, "PYTHONPATH": str(src),
                              "PYTHONIOENCODING": "utf-8"}).stdout
    assert out == '{"a":null,"b":[1.5,"café"]}\n'
