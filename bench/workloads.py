"""The benchmark workloads and their set-up.

Set-up writes a workload's inputs into a directory: the corpus, the replay
transcript, and (for bulk-corpus) the planted oracle. It runs in a fresh
interpreter so that its time includes importing claimcheck:

    python3 bench/workloads.py --workload bulk-corpus --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("golden-replay", "bulk-corpus", "live-latency")
GOLDEN_QUERY = ("Does the hybrid bias-field optimizer achieve a true runtime "
                "advantage over classical solvers?")
GOLDEN_TARGET = "s1-target"
# Per-call delay of the simulated live backend. With it, waiting is most of
# a live-latency run, as it is with a hosted model.
LIVE_LATENCY_S = 0.005
# A run directory with layers 1-5 done, when set-up makes one on the way.
PREP_DIR = "prep"


def use_checkout_source() -> None:
    """Import claimcheck from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "claimcheck").is_dir():
        raise SystemExit(f"benchmark: no claimcheck sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import claimcheck
    if Path(claimcheck.__file__).resolve().parent != (src / "claimcheck").resolve():
        raise SystemExit(f"benchmark: claimcheck imported from "
                         f"{claimcheck.__file__}, not from {src}")


@dataclass
class Inputs:
    corpus: Path
    transcript: Path
    query: str
    target_doc: str | None
    oracle: dict[str, Any] | None

    @classmethod
    def load(cls, directory: Path) -> "Inputs":
        meta = json.loads((directory / "inputs.json").read_text("utf-8"))
        oracle = None
        if (directory / "oracle.json").exists():
            oracle = json.loads((directory / "oracle.json").read_text("utf-8"))
        return cls(corpus=directory / "corpus",
                   transcript=directory / "transcript.jsonl",
                   query=meta["query"], target_doc=meta["target_doc"],
                   oracle=oracle)


def _record_transcript(query: str, corpus: Path, playbook: Path,
                       out: Path) -> None:
    """One scripted run, its per-layer transcripts concatenated into one
    replay file, as scripts/record_transcript.py does. The run stops after
    layer 5 once, and that copy is kept as ``prep/`` for the resume timing.
    """
    from claimcheck.config import PipelineConfig
    from claimcheck.pipeline import ProviderSpec, resume, run

    run_dir = out.parent / "record-run"
    run(query, corpus, run_dir, PipelineConfig(),
        ProviderSpec(mode="scripted", playbook=str(playbook)),
        stop_after="layer5")
    shutil.copytree(run_dir, out.parent / PREP_DIR)
    resume(run_dir)
    lines: list[str] = []
    for batch in sorted((run_dir / "transcript").glob("*.jsonl")):
        lines.extend(batch.read_text(encoding="utf-8").splitlines())
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    shutil.rmtree(run_dir)


def prepare(workload: str, seed: int, out: Path) -> None:
    """Write the inputs of one workload under `out`."""
    use_checkout_source()
    from claimcheck.provider import ReplayProvider

    out.mkdir(parents=True, exist_ok=True)
    if workload == "bulk-corpus":
        import corpus_gen
        corpus_gen.generate(seed, out)
        _record_transcript(corpus_gen.QUERY, out / "corpus",
                           out / "playbook.json", out / "transcript.jsonl")
        meta = {"query": corpus_gen.QUERY, "target_doc": None}
    elif workload in ("golden-replay", "live-latency"):
        # The reference inputs are fixed; the seed does not change them.
        shutil.copytree(ROOT / "fixtures" / "corpus", out / "corpus")
        shutil.copyfile(ROOT / "fixtures" / "replay" / "transcript.jsonl",
                        out / "transcript.jsonl")
        meta = {"query": GOLDEN_QUERY, "target_doc": GOLDEN_TARGET}
    else:
        raise SystemExit(f"benchmark: unknown workload {workload!r}")
    if len(ReplayProvider.from_path(out / "transcript.jsonl")) == 0:
        raise SystemExit("benchmark: empty replay transcript")
    if workload == "live-latency":
        from live_backend import SimulatedBackend
        SimulatedBackend(out / "transcript.jsonl", LIVE_LATENCY_S)
    (out / "inputs.json").write_text(json.dumps(meta, indent=2) + "\n",
                                     encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description="set up one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    prepare(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
