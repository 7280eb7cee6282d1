"""Correctness gate: digests of a run's outputs, checked against a reference.

A run's fingerprint is one short digest per report.csv row (its seed_count,
mean, std and undefined columns, keyed by axis/subcondition/dataset/method)
plus one digest of the `ops/` tree when the run writes operator outputs.
report.json is not digested: its config_hash covers absolute manifest paths.
The committed references in references.json were made at --workers 1, so a
multi-worker run is also checked for worker-count identity.

A job is one (dataset, method, axis, seed). It fails when errors.log names
it, when its run exits non-zero or leaves no report.csv, or when a report
cell it feeds differs from the reference or is out of range. Without a
reference every job fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# subcondition pattern -> closed range every defined mean must lie in
RANGES = [
    (r"char_(saliency|random)_", (0.0, 1.0)),
    (r"delta_char_", (-1.0, 1.0)),
    (r"kg_(mrr|hits10)$", (0.0, 1.0)),
    (r"d_(sp|eo|util)$", (0.0, 1.0)),
    (r"(drop|gap)$", (-100.0, 100.0)),
    (r"", (0.0, 100.0)),  # accuracies, recalls and AUCs in percent
]


def _digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()[:16]


def fingerprint(out_dir: Path, with_ops: bool) -> dict | None:
    """{"rows": {cell key: digest}, "ops": digest | None}; None if no report.csv."""
    report = out_dir / "report.csv"
    if not report.is_file():
        return None
    rows = {}
    with open(report, newline="") as f:
        for row in csv.DictReader(f):
            key = "/".join(row[k] for k in ("axis", "subcondition", "dataset", "method"))
            value = ",".join(row[k] for k in ("seed_count", "mean", "std", "undefined"))
            rows[key] = _digest(value.encode())
    return {"rows": rows, "ops": tree_digest(out_dir / "ops") if with_ops else None}


def tree_digest(root: Path) -> str | None:
    if not root.is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


def bad_cells(out_dir: Path) -> set[str]:
    """Cell keys whose report.csv row is neither inapplicable nor a finite in-range mean."""
    bad = set()
    with open(out_dir / "report.csv", newline="") as f:
        for row in csv.DictReader(f):
            key = "/".join(row[k] for k in ("axis", "subcondition", "dataset", "method"))
            if row["note"] == "inapplicable":
                continue
            if row["undefined"] != "false":
                bad.add(key)
                continue
            mean = float(row["mean"])
            lo, hi = next(r for p, r in RANGES if re.search(p, row["subcondition"]))
            if not (math.isfinite(mean) and lo <= mean <= hi):
                bad.add(key)
    return bad


def load_reference(workload: str, seed: int) -> dict | None:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    return refs.get(workload, {}).get(str(seed))


def failed_jobs(jobs: list[tuple], exit_code: int, out_dir: Path,
                got: dict | None, ref: dict | None) -> set[tuple]:
    """The subset of `jobs` (dataset, method, axis, seed) that this run failed."""
    errors = out_dir / "errors.log"
    if got is None or ref is None or (exit_code != 0 and not errors.is_file()):
        return set(jobs)
    failed = set()
    if errors.is_file():
        for line in errors.read_text().splitlines():
            m = re.match(r"\((\w+), (.+), (.+), seed (\d+)\)\t", line)
            if m is None:
                return set(jobs)
            axis, ds, method, seed = m.groups()
            failed.add((ds, method, axis, int(seed)))
    if ref["ops"] != got["ops"]:
        return set(jobs)  # operator outputs are not attributable to one cell
    keys = set(ref["rows"]) | set(got["rows"])
    wrong = bad_cells(out_dir) | {k for k in keys if ref["rows"].get(k) != got["rows"].get(k)}
    for key in wrong:
        axis, _sub, ds, method = key.split("/")
        failed |= {j for j in jobs if (j[0], j[1], j[2]) == (ds, method, axis)}
    return failed
