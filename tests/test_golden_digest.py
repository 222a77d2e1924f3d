"""Pinned digest of the golden replay run directory.

`test_criterion_12` compares two runs of the same code; this test compares
the golden run with the bytes recorded in `fixtures/golden_digests.json`, so
a change that alters any store, transcript or report file fails here even
when it is deterministic. The manifest is hashed with the checkout's path
replaced by a placeholder: its `corpus_dir` and `provider.fixtures` values
are absolute paths into the checkout.

To re-pin after a deliberate change of the run directory (which CHANGES.md
must explain), run `PYTHONPATH=src python tests/test_golden_digest.py`.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from conftest import ROOT, dir_digest, run_golden

DIGESTS = ROOT / "fixtures" / "golden_digests.json"
PINNED_DIRS = ("store/", "transcript/", "report/")


def manifest_digest(run_dir: Path) -> str:
    data = (run_dir / "manifest.json").read_bytes()
    checkout = str(ROOT).encode()
    assert data.count(checkout) == 2  # corpus_dir and provider.fixtures
    return hashlib.sha256(data.replace(checkout, b"<checkout>")).hexdigest()


def run_digests(run_dir: Path) -> dict[str, str]:
    digests = {rel: digest for rel, digest in dir_digest(run_dir).items()
               if rel.startswith(PINNED_DIRS)}
    digests["manifest.json"] = manifest_digest(run_dir)
    return digests


def test_golden_run_matches_pinned_digests(golden):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = run_digests(golden.run_dir)
    assert sorted(actual) == sorted(pinned)
    changed = sorted(rel for rel in pinned if actual[rel] != pinned[rel])
    assert not changed, f"golden run files differ from the pin: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        state = run_golden(Path(tmp) / "run")
        DIGESTS.write_text(
            json.dumps(run_digests(state.run_dir), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
