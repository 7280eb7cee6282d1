"""Seed aggregation, cross-dataset summaries, and deterministic emission."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstress.errors import AllUndefined, EmptyInput
from graphstress.report import (
    MetricCell,
    Report,
    aggregate_seeds,
    cross_dataset,
    emit_report,
    load_report,
)
from oracles import two_pass_std_oracle


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_simple():
    cell = aggregate_seeds([1.0, 2.0, 3.0])
    assert cell.mean == 2.0
    assert cell.std == 1.0  # sample std with n-1
    assert cell.n == 3 and not cell.undefined


def test_aggregate_single_seed_zero_std():
    cell = aggregate_seeds([7.25])
    assert cell.mean == 7.25 and cell.std == 0.0 and cell.n == 1


def test_aggregate_matches_two_pass_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        values = rng.standard_normal(int(rng.integers(1, 30))) * 10
        cell = aggregate_seeds(values)
        assert cell.mean == pytest.approx(float(values.mean()), abs=1e-12)
        assert cell.std == pytest.approx(two_pass_std_oracle(values.tolist()), abs=1e-10)


def test_aggregate_permutation_invariance():
    values = [3.5, -1.25, 8.0, 0.5, 2.75]  # exact binary fractions
    a = aggregate_seeds(values)
    b = aggregate_seeds(values[::-1])
    assert a.mean == b.mean and a.std == b.std


def test_aggregate_rejects_bad_input():
    with pytest.raises(EmptyInput):
        aggregate_seeds([1.0, float("nan")])
    with pytest.raises(EmptyInput):
        aggregate_seeds([float("inf")])


def test_cross_dataset_fixture():
    # four per-dataset accuracies from a published row: mean 73.925
    cells = [aggregate_seeds([v]) for v in (67.1, 73.3, 77.4, 77.9)]
    combined = cross_dataset(cells)
    assert combined.mean == pytest.approx(73.9, abs=0.05)
    assert combined.mean == pytest.approx(73.925, abs=1e-9)
    assert combined.std == pytest.approx(two_pass_std_oracle([67.1, 73.3, 77.4, 77.9]), abs=1e-9)
    assert combined.n == 4


def test_cross_dataset_skips_undefined():
    cells = [aggregate_seeds([10.0]), MetricCell.undef(3), aggregate_seeds([20.0])]
    combined = cross_dataset(cells)
    assert combined.mean == 15.0 and combined.n == 2
    with pytest.raises(AllUndefined):
        cross_dataset([MetricCell.undef(), MetricCell.undef()])


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

def test_cell_dict_round_trip():
    for cell in (MetricCell(mean=1.5, std=0.25, n=4),
                 MetricCell.undef(2),
                 MetricCell.undef(0, note="inapplicable"),
                 MetricCell(mean=0.0, std=0.0, n=1, note="inapplicable")):
        back = MetricCell.from_dict(cell.as_dict())
        assert back == cell


def test_undef_cell_has_no_numbers():
    d = MetricCell.undef(5).as_dict()
    assert "mean" not in d and "std" not in d
    assert d["undefined"] is True and d["n"] == 5


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _sample_report():
    r = Report(cells={}, provenance={"config_hash": "abc", "master_seed": 0,
                                     "tool_version": "0.1.0"})
    r.cells["corruption", "feature_sev3", "ds_a", "m1"] = aggregate_seeds([70.0, 72.0])
    r.cells["corruption", "clean", "ds_a", "m1"] = aggregate_seeds([80.0, 82.0])
    r.cells["fairness", "head_tail_gap", "ds_a", "m1"] = MetricCell.undef(2)
    r.cells["corruption", "clean", "ds_b", "m1"] = MetricCell.undef(0, note="inapplicable")
    return r


def test_report_rows_sorted():
    r = _sample_report()
    keys = [(axis, sub, ds) for axis, sub, ds, _, _ in r.rows()]
    assert keys == sorted(keys)
    assert len(r.cells) == 4


def test_emit_and_load_round_trip(tmp_path):
    r = _sample_report()
    jp, cp = tmp_path / "report.json", tmp_path / "report.csv"
    emit_report(r, json_path=jp, csv_path=cp)
    back = load_report(jp)
    assert back.provenance == r.provenance
    assert len(back.cells) == len(r.cells)
    for axis, sub, ds, method, cell in r.rows():
        assert back.cells[axis, sub, ds, method] == cell


def test_emission_byte_identical(tmp_path):
    r1, r2 = _sample_report(), _sample_report()
    emit_report(r1, json_path=tmp_path / "a.json", csv_path=tmp_path / "a.csv")
    emit_report(r2, json_path=tmp_path / "b.json", csv_path=tmp_path / "b.csv")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_emission_insertion_order_independent(tmp_path):
    r1 = _sample_report()
    r2 = Report(cells={}, provenance=r1.provenance)
    for axis, sub, ds, method, cell in reversed(list(r1.rows())):
        r2.cells[axis, sub, ds, method] = cell
    emit_report(r1, json_path=tmp_path / "a.json", csv_path=tmp_path / "a.csv")
    emit_report(r2, json_path=tmp_path / "b.json", csv_path=tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_and_json_carry_same_cells(tmp_path):
    r = _sample_report()
    emit_report(r, json_path=tmp_path / "r.json", csv_path=tmp_path / "r.csv")
    csv_lines = (tmp_path / "r.csv").read_text().strip().split("\n")
    header = csv_lines[0].split(",")
    assert header == ["axis", "subcondition", "dataset", "method",
                      "seed_count", "mean", "std", "undefined", "note"]
    assert len(csv_lines) - 1 == len(r.cells)
    back = load_report(tmp_path / "r.json")
    assert len(back.cells) == len(r.cells)
    # undefined rows leave the number columns empty
    undef_row = [l for l in csv_lines if l.startswith("fairness")][0]
    assert ",,," in undef_row or ",,true" in undef_row


def test_inapplicable_note_survives(tmp_path):
    r = _sample_report()
    emit_report(r, json_path=tmp_path / "r.json", csv_path=tmp_path / "r.csv")
    back = load_report(tmp_path / "r.json")
    assert back.cells["corruption", "clean", "ds_b", "m1"].note == "inapplicable"
    assert "inapplicable" in (tmp_path / "r.csv").read_text()


def test_emit_empty_report_refused(tmp_path):
    with pytest.raises(EmptyInput):
        emit_report(Report(cells={}, provenance={}), json_path=tmp_path / "x.json",
                    csv_path=tmp_path / "x.csv")


def test_float_repr_round_trip(tmp_path):
    # awkward float survives JSON emission bit-exactly
    value = 0.1 + 0.2  # 0.30000000000000004
    r = Report(cells={}, provenance={})
    r.cells["a", "s", "d", "m"] = aggregate_seeds([value])
    emit_report(r, json_path=tmp_path / "r.json", csv_path=tmp_path / "r.csv")
    back = load_report(tmp_path / "r.json")
    assert back.cells["a", "s", "d", "m"].mean == value


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


@given(st.lists(finite_floats, min_size=1, max_size=40))
@settings(max_examples=500, deadline=None)
def test_aggregate_property(values):
    cell = aggregate_seeds(values)
    assert cell.n == len(values)
    assert min(values) - 1e-9 <= cell.mean <= max(values) + 1e-9
    assert cell.std >= 0.0
    assert cell.std == pytest.approx(two_pass_std_oracle(values), abs=1e-6)


@given(st.lists(finite_floats, min_size=1, max_size=10),
       st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_cross_dataset_property(means, num_undefined):
    cells = [aggregate_seeds([m]) for m in means]
    cells += [MetricCell.undef()] * num_undefined
    combined = cross_dataset(cells)
    assert combined.n == len(means)
    assert combined.mean == pytest.approx(float(np.mean(means)), abs=1e-9)
