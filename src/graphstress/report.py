"""Seed/dataset aggregation and the metric report.

A report is one flat table (axis, subcondition, dataset, method) -> MetricCell,
which report.json nests in that key order. Aggregation never collapses axes into
a single score: results stay per-axis, per-subcondition. Emission is
byte-deterministic (sorted keys, repr floats) so regenerating a report from
identical inputs reproduces identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import AllUndefined, EmptyInput
from .graph_store import read_json, write_json


@dataclass(frozen=True)
class MetricCell:
    """Mean and sample std over n runs; undefined cells carry no numbers.

    ``note`` flags cells outside normal computation, e.g. "inapplicable" for
    method/channel combinations the protocol excludes (the tables' "--").
    """

    mean: float | None
    std: float | None
    n: int
    undefined: bool = False
    note: str = ""

    @classmethod
    def undef(cls, n: int = 0, note: str = "") -> "MetricCell":
        return cls(mean=None, std=None, n=n, undefined=True, note=note)

    def as_dict(self) -> dict:
        d: dict = {"n": self.n, "undefined": self.undefined}
        if not self.undefined:
            d.update(mean=self.mean, std=self.std)
        if self.note:
            d["note"] = self.note
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MetricCell":
        if d.get("undefined"):
            return cls.undef(int(d.get("n", 0)), note=d.get("note", ""))
        return cls(mean=float(d["mean"]), std=float(d["std"]), n=int(d["n"]),
                   undefined=False, note=d.get("note", ""))


def aggregate_seeds(values) -> MetricCell:
    """Mean and sample (n-1) std of per-seed values; std is 0 for one seed."""
    values = np.asarray(list(values), dtype=np.float64)
    if np.any(~np.isfinite(values)):
        raise EmptyInput("per-seed values must be finite")
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return MetricCell(mean=mean, std=std, n=len(values))


def cross_dataset(cells) -> MetricCell:
    """Mean of per-dataset means with between-dataset sample std."""
    means = [c.mean for c in cells if not c.undefined]
    if not means:
        raise AllUndefined("no defined cells to aggregate across datasets")
    return aggregate_seeds(means)


@dataclass
class Report:
    """One flat table of cells plus run provenance."""

    cells: dict  # (axis, subcondition, dataset, method) -> MetricCell
    provenance: dict  # tool_version; a run adds config_hash and seeds

    def rows(self) -> list:
        """(axis, subcondition, dataset, method, cell) tuples, key-sorted."""
        return [(*key, self.cells[key]) for key in sorted(self.cells)]


def _fmt(x: float | None) -> str:
    # repr round-trips float64 exactly, keeping emission byte-deterministic
    return "" if x is None else repr(float(x))


def emit_report(report: Report, json_path, csv_path) -> None:
    """Write the report as nested JSON and as flat CSV."""
    if not report.cells:
        raise EmptyInput("refusing to emit an empty report")
    tree: dict = {}
    for (axis, sub, ds, method), cell in report.cells.items():
        tree.setdefault(axis, {}).setdefault(sub, {}).setdefault(ds, {})[method] = cell.as_dict()
    write_json(json_path, {"provenance": report.provenance, "results": tree})
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["axis", "subcondition", "dataset", "method",
                    "seed_count", "mean", "std", "undefined", "note"])
        for *key, cell in report.rows():
            w.writerow([*key, cell.n, _fmt(cell.mean), _fmt(cell.std),
                        "true" if cell.undefined else "false", cell.note])


def load_report(json_path) -> Report:
    payload = read_json(json_path, {"results": (lambda r: isinstance(r, dict), "a JSON object")})
    cells = {(axis, sub, ds, method): MetricCell.from_dict(d)
             for axis, subs in payload["results"].items()
             for sub, datasets in subs.items()
             for ds, methods in datasets.items()
             for method, d in methods.items()}
    return Report(cells=cells, provenance=payload.get("provenance", {}))
