"""Every file a refmodel run writes under --out matches the pinned sha256, at 1 and 8 workers,
and so does every file the default-flag subcommands write."""

import json

import pytest

from golden_runs import CASES, GOLDEN, WORKERS, run_case, run_subcommands


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_bytes_match_the_golden_digests(case, workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(GOLDEN.read_text())[case]
    got = run_case(case, workers)
    assert sorted(got) == sorted(want), "a run wrote a different set of files"
    changed = [path for path in sorted(want) if got[path] != want[path]]
    assert not changed, f"{case} at {workers} workers changed {len(changed)} file(s): {changed}"


def test_subcommand_bytes_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(GOLDEN.read_text())["subcommands"]
    got = run_subcommands()
    assert sorted(got) == sorted(want), "the subcommands wrote a different set of files"
    changed = [path for path in sorted(want) if got[path] != want[path]]
    assert not changed, f"the subcommands changed {len(changed)} file(s): {changed}"
