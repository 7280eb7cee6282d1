import csv

import gate

JOBS = [("ds", "refmodel", axis, s) for axis in ("corruption", "ood") for s in (0, 1)]
HEADER = ["axis", "subcondition", "dataset", "method", "seed_count", "mean", "std",
          "undefined", "note"]
ROWS = [
    ["corruption", "clean", "ds", "refmodel", "2", "90.5", "0.5", "false", ""],
    ["corruption", "feature_sev1", "ds", "refmodel", "2", "", "", "true", "inapplicable"],
    ["ood", "degree", "ds", "refmodel", "2", "80.25", "1.0", "false", ""],
]


def write_report(out, rows):
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(HEADER)
        w.writerows(rows)


def test_identical_report_passes(tmp_path):
    write_report(tmp_path / "a", ROWS)
    ref = gate.fingerprint(tmp_path / "a", with_ops=False)
    write_report(tmp_path / "b", ROWS)
    got = gate.fingerprint(tmp_path / "b", with_ops=False)
    assert gate.failed_jobs(JOBS, 0, tmp_path / "b", got, ref) == set()


def test_perturbed_cell_fails_the_jobs_feeding_it(tmp_path):
    write_report(tmp_path / "a", ROWS)
    ref = gate.fingerprint(tmp_path / "a", with_ops=False)
    perturbed = [r[:] for r in ROWS]
    perturbed[2][5] = "80.25000000000001"
    write_report(tmp_path / "b", perturbed)
    got = gate.fingerprint(tmp_path / "b", with_ops=False)
    assert gate.failed_jobs(JOBS, 0, tmp_path / "b", got, ref) == \
        {j for j in JOBS if j[2] == "ood"}


def test_missing_report_fails_every_job(tmp_path):
    write_report(tmp_path / "a", ROWS)
    ref = gate.fingerprint(tmp_path / "a", with_ops=False)
    (tmp_path / "b").mkdir()
    got = gate.fingerprint(tmp_path / "b", with_ops=False)
    assert got is None
    assert gate.failed_jobs(JOBS, 0, tmp_path / "b", got, ref) == set(JOBS)


def test_no_reference_fails_every_job(tmp_path):
    write_report(tmp_path / "a", ROWS)
    got = gate.fingerprint(tmp_path / "a", with_ops=False)
    assert gate.failed_jobs(JOBS, 0, tmp_path / "a", got, None) == set(JOBS)


def test_out_of_range_and_missing_cells_fail(tmp_path):
    rows = [r[:] for r in ROWS]
    rows[0][5] = "120.0"
    write_report(tmp_path / "a", rows[:2])
    got = gate.fingerprint(tmp_path / "a", with_ops=False)
    # a run recorded as its own reference still fails the range checks
    assert gate.failed_jobs(JOBS, 0, tmp_path / "a", got, got) == \
        {j for j in JOBS if j[2] == "corruption"}
    ref = gate.fingerprint(tmp_path / "a", with_ops=False)
    write_report(tmp_path / "b", ROWS[:1])  # feature_sev1 row missing
    got = gate.fingerprint(tmp_path / "b", with_ops=False)
    assert gate.failed_jobs(JOBS, 0, tmp_path / "b", got, ref) == \
        {j for j in JOBS if j[2] == "corruption"}


def test_errors_log_and_ops_tree(tmp_path):
    write_report(tmp_path / "a", ROWS)
    (tmp_path / "a" / "errors.log").write_text("(ood, ds, refmodel, seed 1)\tKeyError: 'x'\n")
    got = gate.fingerprint(tmp_path / "a", with_ops=False)
    assert gate.failed_jobs(JOBS, 1, tmp_path / "a", got, got) == {("ds", "refmodel", "ood", 1)}

    write_report(tmp_path / "b", ROWS)
    (tmp_path / "b" / "ops").mkdir()
    (tmp_path / "b" / "ops" / "split.tsv").write_text("0\ttrain\n")
    ref = gate.fingerprint(tmp_path / "b", with_ops=True)
    (tmp_path / "b" / "ops" / "split.tsv").write_text("0\ttest\n")
    got = gate.fingerprint(tmp_path / "b", with_ops=True)
    assert gate.failed_jobs(JOBS, 0, tmp_path / "b", got, ref) == set(JOBS)


def test_committed_references_cover_every_workload():
    import json

    import workloads
    refs = json.loads(gate.REFERENCES.read_text())
    assert set(refs) == set(workloads.WORKLOADS)
    for name, per_seed in refs.items():
        assert set(per_seed) == {str(s) for s in range(workloads.INPUT_SEEDS)}, name
        keys = {frozenset(r["rows"]) for r in per_seed.values()}
        assert len(keys) == 1, f"{name}: report cells differ between seeds"
