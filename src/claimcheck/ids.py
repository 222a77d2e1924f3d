"""Content-hashed identifiers and canonical JSON serialization.

Every identifier in a run store is a pure function of content, so re-running
ingestion or extraction over unchanged inputs yields byte-identical files.
Canonicalization sorts keys and collapses whitespace inside string values
before hashing, which makes fingerprints independent of field ordering and
incidental formatting.

`canonical_json` encodes a value once, as it is, and keeps that text when
no string value in it needs collapsing. The test reads the text alone and is
exact. With these separators every space in the text is inside a string,
and every `"` is a string delimiter unless a backslash escapes it. So a
string that starts or ends with a space shows as `" ` or ` "`, and a run of
spaces shows as two spaces. Every whitespace character other than U+0020 is
either escaped with a backslash by the encoder (`\\t`, `\\n`, the other
controls) or is not printable (U+0085, U+00A0, U+2028 and the rest of
`str.isspace`). `str.isspace`, `str.split()`, `str.strip()` and the `\\s`
of `re` agree on every code point, so `normalize_text` leaves a string alone
exactly when it has none of these. Tuples and subclasses of `str`, `dict`
and `list` encode as their plain forms, and the encoder sorts keys as
`_canonicalize` does. Any text that fails the test is encoded again from
`_canonicalize`, which is always right; dict keys are not collapsed, so a
key with a double space only takes that slower path.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring
from typing import Any

# Sorted keys, no spaces, UTF-8 text: the encoding of every value the run
# hashes and of every record line it writes. `JSONEncoder.encode` builds a
# C encoder on every call; this one is built once, with the arguments that
# `JSONEncoder.iterencode` passes. Without circular-reference markers it
# keeps no state between calls, so every thread shares it (a circular value
# then overflows the recursion limit instead of raising ValueError).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False)
if c_make_encoder is None:
    encode_sorted = _ENCODER.encode
else:
    _iterencode = c_make_encoder(
        None, _ENCODER.default, encode_basestring, _ENCODER.indent,
        _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
        _ENCODER.skipkeys, _ENCODER.allow_nan)

    def encode_sorted(value: Any) -> str:
        return "".join(_iterencode(value, 0))


def normalize_text(value: str) -> str:
    """Collapse whitespace runs and strip ends; used before hashing text."""
    return " ".join(value.split())


def _canonicalize(value: Any) -> Any:
    if isinstance(value, str):
        return normalize_text(value)
    if isinstance(value, dict):
        return {k: _canonicalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v) for v in value]
    return value


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing and config snapshots."""
    text = encode_sorted(value)
    if (text.isprintable() and "\\" not in text and "  " not in text
            and '" ' not in text and ' "' not in text):
        return text
    return encode_sorted(_canonicalize(value))


def content_hash(value: Any, length: int = 16) -> str:
    """Hex digest of the canonical JSON form of `value`."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]


def hash_bytes(raw: bytes, length: int = 16) -> str:
    return hashlib.sha256(raw).hexdigest()[:length]


def make_id(prefix: str, *parts: Any) -> str:
    """Typed identifier, e.g. make_id("clm", doc_id, subject, predicate)."""
    return f"{prefix}-{content_hash(list(parts))}"
