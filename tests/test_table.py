"""Output tables: the grid and oracle writers against field-by-field references."""

import numpy as np
import pytest

from merton_risk._table import write_grid_csv, write_json
from merton_risk.oracle import OracleRecord, OracleResult

from cross_checks import write_grid_csv_per_row, write_oracle_csv_per_field

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 0.1,
           1.0 / 3.0, -2.5e-7, 123456789.123456789]


@pytest.mark.parametrize("spec", [".12g", ".6g"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (51, 51)])
def test_grid_csv_bytes_equal_per_row_writer(tmp_path, shape, spec):
    rng = np.random.default_rng(sum(shape))
    n_t, n_x = shape
    ts = np.linspace(0.0, 1.7, n_t)
    xs = np.linspace(0.2, 5.0, n_x) * np.pi
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    flat = values.reshape(-1)
    flat[:len(SPECIAL)] = SPECIAL[:flat.size]
    ts[0] = -0.0
    header = ["t", "x", "v"]
    write_grid_csv(tmp_path / "new.csv", header, ts, xs, values, spec)
    write_grid_csv_per_row(tmp_path / "ref.csv", header, ts, xs, values, spec)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\n") == 1 + n_t * n_x


def test_write_json_layout(tmp_path):
    doc = {"a": 1.5, "b": [1, 2.25, None], "c": {"d": "e", "f": []}}
    write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == (
        '{\n  "a": 1.5,\n  "b": [\n    1,\n    2.25,\n    null\n  ],\n'
        '  "c": {\n    "d": "e",\n    "f": []\n  }\n}\n')


def test_oracle_csv_bytes_equal_per_field_writer(tmp_path):
    rng = np.random.default_rng(5)
    values = SPECIAL + list(rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40))
    records = []
    for i, value in enumerate(values):
        n_levels = 1 + i % 4
        # levels as the coordinate descent stores them: numpy scalars
        levels = tuple(np.roll(values, i)[:n_levels])
        records.append(OracleRecord(rho=value, v_levels=levels, feasible=i % 3 > 0,
                                    cost=values[-1 - i],
                                    label=("theta_direction", "random_direction",
                                           "coordinate_descent")[i % 3]))
    result = OracleResult(best_cost=0.0, best_strategy=None, records=tuple(records))
    result.write_csv(tmp_path / "new.csv")
    write_oracle_csv_per_field(tmp_path / "ref.csv", records)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\n") == 1 + len(records)
    for token in (b",nan\n", b",-0,", b"4.94065645841e-324", b"1e+300", b"-1e+300"):
        assert token in new
