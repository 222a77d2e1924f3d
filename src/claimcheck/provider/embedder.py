"""Deterministic local text embedder.

Feature-hashed bag of word unigrams and bigrams, L2-normalized. Hashing uses
sha256 rather than Python's randomized hash(), so vectors are stable across
processes and platforms. Only `ScriptedProvider` calls it, to answer `embed`
tasks, so the replay fixtures, recorded with the scripted provider, hold its
vectors; the live and replay providers never call it.

It is pure Python and bit-identical to the NumPy version it replaced
(`tests/test_provider.py` keeps that version as its reference), so the
provider package imports no array library. Every slot holds a small integer
count, so the sum of their squares is exact in any order, and its square
root is the norm NumPy computes as `sqrt(dot(x, x))`.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import lru_cache
from itertools import chain

_TOKEN = re.compile(r"[a-z0-9][a-z0-9_.\-]*")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


# Memoised, since a corpus repeats most of its words and bigrams; bounded,
# so a large vocabulary cannot grow it without end.
@lru_cache(maxsize=1 << 14)
def _slot(feature: str, dim: int) -> tuple[int, int]:
    digest = hashlib.sha256(feature.encode("utf-8")).digest()
    index = int.from_bytes(digest[:4], "big") % dim
    sign = 1 if digest[4] % 2 == 0 else -1
    return index, sign


def embed_text(text: str, dim: int = 256) -> list[float]:
    tokens = tokenize(text)
    counts: dict[int, int] = {}
    for feature in chain(tokens, map("{}__{}".format, tokens, tokens[1:])):
        index, sign = _slot(feature, dim)
        counts[index] = counts.get(index, 0) + sign
    vec = [0.0] * dim
    norm = math.sqrt(sum(count * count for count in counts.values()))
    if norm > 0.0:
        # Round so JSON round-trips are exact and fixture files stay stable.
        for index, count in counts.items():
            vec[index] = round(count / norm, 9)
    return vec
