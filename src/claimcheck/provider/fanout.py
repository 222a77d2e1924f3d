"""Multi-sample fan-out across provider tags.

Used for hypothesis sampling: the same task goes to several providers and
sample slots; output order is canonical (provider_tag, sample_index) no
matter which worker finished first, and failed slots are reported rather
than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AllSlotsFailed, ClaimcheckError
from .base import InferenceRouter
from .tasks import InferenceResponse, InferenceTask


@dataclass(frozen=True)
class FanOutSlot:
    provider_tag: str
    sample_index: int
    response: InferenceResponse | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.response is not None


def fan_out(router: InferenceRouter, task: InferenceTask, samples: int,
            providers: list[str]) -> list[FanOutSlot]:
    if samples < 1:
        raise ClaimcheckError("fan_out needs samples >= 1")
    if not providers:
        raise ClaimcheckError("fan_out needs a non-empty provider list")
    slots = [(tag, index) for tag in providers for index in range(samples)]

    def run(slot: tuple[str, int]) -> FanOutSlot:
        tag, index = slot
        try:
            response = router.invoke(task, provider_tag=tag, sample_index=index)
            return FanOutSlot(tag, index, response, None)
        except ClaimcheckError as exc:
            return FanOutSlot(tag, index, None, str(exc))

    results = router.map(run, slots)
    results.sort(key=lambda s: (s.provider_tag, s.sample_index))
    if all(not slot.ok for slot in results):
        raise AllSlotsFailed(
            f"all {len(results)} fan-out slots failed for task "
            f"{task.fingerprint} ({task.kind})")
    return results
