"""Deterministic local text embedder.

Feature-hashed bag of word unigrams and bigrams, L2-normalized. Hashing uses
sha256 rather than Python's randomized hash(), so vectors are stable across
processes and platforms. Only `ScriptedProvider` calls it, to answer `embed`
tasks, so the replay fixtures, recorded with the scripted provider, hold its
vectors; the live and replay providers never call it.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

_TOKEN = re.compile(r"[a-z0-9][a-z0-9_.\-]*")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _slot(feature: str, dim: int) -> tuple[int, float]:
    digest = hashlib.sha256(feature.encode("utf-8")).digest()
    index = int.from_bytes(digest[:4], "big") % dim
    sign = 1.0 if digest[4] % 2 == 0 else -1.0
    return index, sign


def embed_text(text: str, dim: int = 256) -> list[float]:
    tokens = tokenize(text)
    vec = np.zeros(dim, dtype=np.float64)
    features = list(tokens)
    features.extend(f"{a}__{b}" for a, b in zip(tokens, tokens[1:]))
    for feature in features:
        index, sign = _slot(feature, dim)
        vec[index] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    # Round so JSON round-trips are exact and fixture files stay stable.
    return [round(float(x), 9) for x in vec]
