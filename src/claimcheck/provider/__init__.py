"""Uniform abstraction over natural-language inference backends."""

from .base import InferenceRouter, Provider, Transcript
from .live import LiveProvider
from .replay import ReplayProvider
from .schemas import SCHEMA_VERSION
from .scripted import ScriptedProvider
from .tasks import InferenceResponse, InferenceTask, claim_key, pair_key

__all__ = [
    "InferenceRouter", "Provider", "Transcript", "LiveProvider",
    "ReplayProvider", "ScriptedProvider", "claim_key", "pair_key",
    "SCHEMA_VERSION", "InferenceResponse", "InferenceTask",
]
