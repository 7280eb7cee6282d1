"""Every file a refmodel run writes under --out matches the pinned sha256, at 1 and 8 workers."""

import json

import pytest

from golden_runs import CASES, GOLDEN, WORKERS, run_case


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_bytes_match_the_golden_digests(case, workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(GOLDEN.read_text())[case]
    got = run_case(case, workers)
    assert sorted(got) == sorted(want), "a run wrote a different set of files"
    changed = [path for path in sorted(want) if got[path] != want[path]]
    assert not changed, f"{case} at {workers} workers changed {len(changed)} file(s): {changed}"
