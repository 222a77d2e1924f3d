"""Metamorphic relations on the golden corpus: changes to the inputs that
must not change the run.

Each variant's `store/` and `transcript/` files must equal the pins of
`fixtures/golden_digests.json`, and its `report/` files the golden run's
apart from the run id, which changes because the corpus hash covers file
names and bytes.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from claimcheck.config import PipelineConfig
from claimcheck.pipeline import run

from conftest import CORPUS_DIR, GOLDEN_QUERY, dir_digest, replay_spec
from test_golden_digest import DIGESTS

PINNED = ("store/", "transcript/")


def renamed_in_reverse_order(corpus: Path) -> None:
    """Prefix each file name so that the sorted order of the names is
    reversed; suffixes, which pick the format, are kept."""
    names = sorted(path.name for path in corpus.iterdir())
    for i, name in enumerate(names):
        (corpus / name).rename(corpus / f"{len(names) - i:02d}-{name}")


def relations_copied(corpus: Path) -> None:
    shutil.copyfile(corpus / "relations.json", corpus / "relations-copy.json")


def relation_rows_shuffled(corpus: Path) -> None:
    path = corpus / "relations.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    rows = list(data["records"])
    random.Random(13).shuffle(data["records"])
    assert data["records"] != rows
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


def relation_rows_duplicated(corpus: Path) -> None:
    """Insert a copy of every other row at a random place in the same
    file; some copies come before the row they copy."""
    path = corpus / "relations.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    rows = data["records"]
    rand = random.Random(29)
    for row in rows[::2]:
        rows.insert(rand.randrange(len(rows) + 1), dict(row))
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


@pytest.mark.parametrize("change", [renamed_in_reverse_order,
                                    relations_copied, relation_rows_shuffled,
                                    relation_rows_duplicated],
                         ids=lambda change: change.__name__)
def test_a_change_that_must_not_matter_gives_the_golden_run(tmp_path, golden,
                                                            change):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    change(corpus)
    state = run(GOLDEN_QUERY, corpus, tmp_path / "run", PipelineConfig(),
                replay_spec(), target_doc="s1-target")

    pinned = {rel: digest for rel, digest in
              json.loads(DIGESTS.read_text(encoding="utf-8")).items()
              if rel.startswith(PINNED)}
    actual = {rel: digest for rel, digest in dir_digest(state.run_dir).items()
              if rel.startswith(PINNED)}
    assert sorted(actual) == sorted(pinned)
    changed = sorted(rel for rel in pinned if actual[rel] != pinned[rel])
    assert not changed, f"{change.__name__} changed {changed}"

    assert state.run_id != golden.run_id
    reports = sorted((golden.run_dir / "report").iterdir())
    assert [p.name for p in reports] == \
        sorted(p.name for p in (state.run_dir / "report").iterdir())
    for path in reports:
        got = (state.run_dir / "report" / path.name).read_bytes()
        assert state.run_id.encode() in got
        assert got.replace(state.run_id.encode(), golden.run_id.encode()) \
            == path.read_bytes(), f"{change.__name__} changed {path.name}"
