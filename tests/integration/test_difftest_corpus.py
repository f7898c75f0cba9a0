"""Replay every committed gauntlet reproducer (tests/difftest_corpus/).

Each corpus entry is a minimized program that once exposed a compiler
divergence; after the fix it must replay with its recorded expectation
(``agree``).  A regression here means a previously-fixed compiler bug is
back — the entry's ``description`` names the original bug.
"""

import pytest

from repro.difftest.corpus import CORPUS_DIR, load_corpus, replay_entry

ENTRIES = load_corpus()


def test_corpus_present():
    """Every gauntlet-found bug is represented."""
    names = {entry.name for entry in ENTRIES}
    assert {
        "remat_nonp4_into_post",
        "stranded_offloaded_register_write",
        "table_stage_erase_insert",
        "l4_alias_hoist",
        "cached_post_register_rmw",
        "cached_miss_not_authoritative",
    } <= names, f"missing corpus entries in {CORPUS_DIR}"


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.name for entry in ENTRIES]
)
def test_corpus_entry_replays_clean(entry):
    result = replay_entry(entry)
    assert result.outcome.value == entry.expect, (
        f"{entry.name}: {entry.description}\n"
        f"outcome={result.outcome.value}"
        f" divergence={result.divergence} error={result.error}"
    )
