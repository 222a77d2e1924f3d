"""Which provider backend a run uses, and the router built from that choice.

A `ProviderSpec` is recorded in the run manifest so that `resume` rebuilds
the same backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..config import PipelineConfig
from ..errors import ClaimcheckError
from .base import InferenceRouter, Transcript
from .live import LiveProvider
from .replay import ReplayProvider
from .scripted import ScriptedProvider


@dataclass
class ProviderSpec:
    mode: str                      # replay | scripted | live
    fixtures: str | None = None    # replay transcript path (file or dir)
    playbook: str | None = None    # scripted playbook path
    backend: str | None = None     # live backend "module:function"


def build_router(spec: ProviderSpec, cfg: PipelineConfig,
                 transcript: Transcript) -> InferenceRouter:
    if spec.mode == "replay":
        if not spec.fixtures:
            raise ClaimcheckError("replay provider needs --fixtures")
        backend = ReplayProvider.from_path(Path(spec.fixtures))
    elif spec.mode == "scripted":
        if not spec.playbook:
            raise ClaimcheckError("scripted provider needs --playbook")
        backend = ScriptedProvider.from_path(Path(spec.playbook))
    elif spec.mode == "live":
        if not spec.backend:
            raise ClaimcheckError(
                "live provider needs --backend module:function")
        backend = LiveProvider.from_spec(spec.backend)
    else:
        raise ClaimcheckError(f"unknown provider mode {spec.mode!r}")
    return InferenceRouter(backend, cfg.provider, transcript=transcript,
                           max_parallelism=cfg.max_parallelism)
