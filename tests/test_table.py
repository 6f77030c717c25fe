"""Output tables: ``write_table`` against the field-by-field references."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from merton_risk import cli, mc
from merton_risk._table import _BLOCK_ROWS, grid_axes, write_json, write_table
from merton_risk.cli import main
from merton_risk.oracle import (
    OracleRecords,
    OracleResult,
    _stage_block,
    grid_search_oracle,
)
from merton_risk.risk import MeasureKind, RiskSpec, profile_grid
from merton_risk.solution import Solution, curve_times
from merton_risk.utility import UtilityParams

from conftest import constant_market, random_market
from cross_checks import (
    constant_strategy,
    ensemble_consumption,
    fmt,
    write_grid_csv_per_row,
    write_oracle_csv_per_field,
    write_rows,
)
from test_cli import write_spec

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 0.1,
           1.0 / 3.0, -2.5e-7, 123456789.123456789]
SPECIAL_TOKENS = (b"nan", b"-inf", b"-0", b"4.94065645841e-324", b"-1e+300")


def with_special(values, start: int = 0) -> np.ndarray:
    """A copy of values with SPECIAL written in from flat index start on."""
    out = np.array(values, dtype=np.float64)
    flat = out.reshape(-1)
    k = min(len(SPECIAL), flat.size - start)
    flat[start:start + k] = SPECIAL[:k]
    return out


def assert_same_bytes(tmp_path, rows: int, tokens=()) -> None:
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\n") == 1 + rows
    for token in tokens:
        assert token in new


@pytest.mark.parametrize("spec", [".12g", ".6g"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (51, 51)])
def test_grid_csv_bytes_equal_per_row_writer(tmp_path, shape, spec):
    rng = np.random.default_rng(sum(shape))
    n_t, n_x = shape
    ts = np.linspace(0.0, 1.7, n_t)
    xs = np.linspace(0.2, 5.0, n_x) * np.pi
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    values = with_special(values)
    ts[0] = -0.0
    header = ["t", "x", "v"]
    write_table(tmp_path / "new.csv", header,
                [*grid_axes(ts, xs), np.ravel(values)], ["s", "s", spec])
    write_grid_csv_per_row(tmp_path / "ref.csv", header, ts, xs, values, spec)
    assert_same_bytes(tmp_path, n_t * n_x)


def test_write_json_layout(tmp_path):
    doc = {"a": 1.5, "b": [1, 2.25, None], "c": {"d": "e", "f": []}}
    write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == (
        '{\n  "a": 1.5,\n  "b": [\n    1,\n    2.25,\n    null\n  ],\n'
        '  "c": {\n    "d": "e",\n    "f": []\n  }\n}\n')


def test_oracle_csv_bytes_equal_per_field_writer(tmp_path):
    rng = np.random.default_rng(5)
    values = np.array(SPECIAL + list(rng.standard_normal(40)
                                     * 10.0 ** rng.integers(-300, 300, 40)))
    n = len(values)
    flags = np.arange(n) % 3 > 0
    # stages of one, four and two levels per candidate, each holding SPECIAL
    # in its rho, levels and costs
    stages = [
        _stage_block("theta_direction", values, np.roll(values, 1)[:, None],
                     flags, values[::-1]),
        _stage_block("coordinate_descent", values[::-1],
                     np.stack([np.roll(values, i)[:4] for i in range(n)]),
                     ~flags, values),
        _stage_block("coordinate_descent", values[:5], values[:10].reshape(5, 2),
                     flags[:5], values[-5:]),
    ]
    result = OracleResult(best_cost=0.0,
                          records=OracleRecords(tuple(stages)))
    result.write_csv(tmp_path / "new.csv")
    write_oracle_csv_per_field(tmp_path / "ref.csv", result.records)
    assert_same_bytes(tmp_path, 2 * n + 5)
    new = (tmp_path / "new.csv").read_bytes()
    for token in (b",nan\n", b",-0,", b"4.94065645841e-324", b"1e+300", b"-1e+300",
                  b",nan inf -inf -0,"):
        assert token in new


def test_oracle_csv_of_a_search_bytes_equal_per_field_writer(tmp_path):
    model = random_market(np.random.default_rng(23), d=2, max_pieces=3)
    spec = RiskSpec(alpha=0.025, zeta=0.15, kind=MeasureKind.ES)
    result = grid_search_oracle(model, UtilityParams(0.6, 0.4), spec, 1.2,
                                np.arange(0.0, 0.3, 0.02),
                                v_levels=np.linspace(0.0, 0.4, 9), v_pieces=8)
    assert {len(rec.v_levels) for rec in result.records} == {1, 8}
    result.write_csv(tmp_path / "new.csv")
    write_oracle_csv_per_field(tmp_path / "ref.csv", result.records)
    assert_same_bytes(tmp_path, len(result.records))


class FixedControls:
    """A strategy stand-in whose pi* and v* curves are given arrays."""

    def __init__(self, pis, vs):
        self.pis, self.vs = pis, vs

    def pi_at(self, model, t):
        return self.pis

    def v_at(self, model, t):
        return self.vs


def controls_csv_per_field(path, sol: Solution, n: int = 201) -> None:
    grid = profile_grid(sol.model.node_ticks, sol.model.horizon, n)
    d = sol.model.dimension
    header = ["t"] + [f"pi_{j+1}" for j in range(d)] + ["v"]
    rows = ()
    if sol.strategy is not None:
        pis = np.reshape(sol.strategy.pi_at(sol.model, grid), (grid.size, d))
        vs = np.broadcast_to(sol.strategy.v_at(sol.model, grid), grid.shape)
        rows = zip(fmt(grid), *(fmt(col) for col in pis.T), fmt(vs))
    write_rows(path, header, rows)


@pytest.mark.parametrize("d", [1, 3])
def test_controls_csv_bytes_equal_per_field_writer(tmp_path, d):
    rng = np.random.default_rng(d)
    model = random_market(rng, d=d)
    n = profile_grid(model.node_ticks, model.horizon, 201).size
    pis = with_special(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 5, (n, d)), d)
    # d = 3: one consumption rate, broadcast along the grid
    vs = with_special(rng.random(n), 3) if d == 1 else np.float64(0.37)
    sol = Solution(value=1.0, regime="test", model=model, x=1.0,
                   strategy=FixedControls(pis, vs))
    sol.write_controls_csv(tmp_path / "new.csv", curve_times(model, 201))
    controls_csv_per_field(tmp_path / "ref.csv", sol)
    assert_same_bytes(tmp_path, n, SPECIAL_TOKENS)


def test_controls_csv_header_only_without_strategy(tmp_path):
    model = random_market(np.random.default_rng(7), d=2)
    sol = Solution(value=1.0, regime="test", model=model, x=1.0, feedback=object())
    sol.write_controls_csv(tmp_path / "new.csv", curve_times(model, 201))
    controls_csv_per_field(tmp_path / "ref.csv", sol)
    assert_same_bytes(tmp_path, 0)
    assert (tmp_path / "new.csv").read_text() == "t,pi_1,pi_2,v\n"


def test_wealth_csv_bytes_equal_per_field_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    model = random_market(rng, d=2)
    grid = profile_grid(model.node_ticks, model.horizon, 201)
    means = with_special(rng.random(grid.size) * 10.0 ** rng.integers(-8, 8, grid.size), 5)
    monkeypatch.setattr(Solution, "wealth_mean", lambda self, t: means)
    Solution(value=1.0, regime="test", model=model, x=1.0).write_wealth_csv(
        tmp_path / "new.csv", curve_times(model, 201))
    write_rows(tmp_path / "ref.csv", ["t", "wealth_mean"], zip(fmt(grid), fmt(means)))
    assert_same_bytes(tmp_path, grid.size, SPECIAL_TOKENS)


def paths_csv_per_field(path, ens: mc.PathEnsemble, max_paths: int) -> None:
    n = min(max_paths, ens.n_paths)
    consumption = ensemble_consumption(ens)[:n]
    ts = fmt(ens.times)
    write_rows(path, ["path_id", "t", "X", "c"], (
        (str(i), t, x, c) for i in range(n)
        for t, x, c in zip(ts, fmt(ens.wealth[i]), fmt(consumption[i]))))


@pytest.mark.parametrize("kind", ["plain", "antithetic", "feedback"])
def test_paths_csv_bytes_equal_per_field_writer(tmp_path, kind):
    model = constant_market(0.02, [0.1, 0.07], [[0.2, 0.0], [0.05, 0.3]], 1.0)
    config = mc.SimConfig(n_paths=64, seed=3, n_steps=8,
                          antithetic=kind == "antithetic")
    if kind == "feedback":
        ens = mc.simulate_hara_feedback(model, UtilityParams(0.5, 0.3), 1.0, config)
    else:
        strategy = constant_strategy([0.3, -0.2], 0.4, model.horizon)
        ens = mc.simulate_deterministic(model, strategy, UtilityParams(0.5, 0.3), 1.0,
                                        config)
    wealth_of = ens.wealth_of

    def special(xi):
        # X of a chunk of rows, with the special values at rows 3k of it
        wealth = wealth_of(xi)
        k = np.arange(min(len(SPECIAL), (len(wealth) + 2) // 3))
        wealth[3 * k, k % wealth.shape[1]] = SPECIAL[:len(k)]
        return wealth

    ens = dataclasses.replace(ens, wealth_of=special)
    for max_paths in (40, 100):
        ens.write_csv(tmp_path / "new.csv", max_paths=max_paths)
        paths_csv_per_field(tmp_path / "ref.csv", ens, max_paths)
        assert_same_bytes(tmp_path, min(max_paths, 64) * len(ens.times), SPECIAL_TOKENS)


def test_paths_csv_memory_bounded_by_block_rows(tmp_path):
    """Past one stream chunk of paths, dumping more paths holds no more."""
    model = constant_market(0.02, [0.1, 0.07], [[0.2, 0.0], [0.05, 0.3]], 1.0)
    strategy = constant_strategy([0.3, -0.2], 0.4, model.horizon)
    ens = mc.simulate_deterministic(model, strategy, UtilityParams(0.5, 0.3), 1.0,
                                    mc.SimConfig(n_paths=8192, seed=3, n_steps=32))

    def peak(n):
        tracemalloc.start()
        try:
            ens.write_csv(tmp_path / "paths.csv", max_paths=n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert ens.wealth.shape == (8192, 33)
    assert peak(8192) <= 1.5 * peak(mc._CHUNK)


@pytest.mark.parametrize("case", ["closed_form", "feedback"])
def test_risk_profile_csv_bytes_equal_per_field_writer(tmp_path, monkeypatch, case):
    if case == "closed_form":
        spec = write_spec(tmp_path / "p.json", utility={"gamma1": 1.0, "gamma2": 1.0},
                          risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    else:
        spec = write_spec(tmp_path / "p.json", utility={"gamma1": 0.5, "gamma2": 0.3})
    seen = {}

    def empirical(*args):
        prof = real_empirical(*args)
        seen["empirical"] = prof = dataclasses.replace(
            prof, var_curve=with_special(prof.var_curve),
            es_curve=with_special(prof.es_curve, 2))
        return prof

    def closed(*args, **kwargs):
        seen["closed"] = real_closed(*args, **kwargs)
        return seen["closed"]

    real_empirical, real_closed = mc.empirical_risk_curve, cli.constraint_profile
    monkeypatch.setattr(mc, "empirical_risk_curve", empirical)
    monkeypatch.setattr(cli, "constraint_profile", closed)
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out),
                 "--paths", "20000", "--steps", "16"]) == 0
    emp = seen["empirical"]
    if case == "closed_form":
        closed_columns = [fmt(curve) for curve in (
            seen["closed"].var_curve, seen["closed"].es_curve,
            seen["closed"].level_curve, seen["closed"].ratio_curve)]
    else:
        assert "closed" not in seen
        nan = ["nan"] * len(emp.times)
        closed_columns = [nan, nan, fmt(emp.level_curve), nan]
    (tmp_path / "new.csv").write_bytes((out / "risk_profile.csv").read_bytes())
    write_rows(tmp_path / "ref.csv",
               ["t", "var", "es", "level", "ratio",
                "empirical_var", "empirical_es", "empirical_ratio"],
               zip(fmt(emp.times), *closed_columns,
                   *map(fmt, (emp.var_curve, emp.es_curve, emp.ratio_curve))))
    assert_same_bytes(tmp_path, len(emp.times), SPECIAL_TOKENS)


def test_write_table_mixed_conversions(tmp_path):
    write_table(tmp_path / "t.csv", ["id", "name", "x"],
                [np.arange(3), ["a", "b b", ""], np.array([0.5, np.nan, -0.0])],
                ["d", "s", ".6g"])
    assert (tmp_path / "t.csv").read_text() == "id,name,x\n0,a,0.5\n1,b b,nan\n2,,-0\n"


def test_write_table_memory_bounded_by_block_rows(tmp_path):
    def peak(n):
        rng = np.random.default_rng(n)
        columns = [np.arange(n), ["label"] * n, rng.standard_normal(n),
                   rng.standard_normal(n)]
        tracemalloc.start()
        try:
            write_table(tmp_path / "t.csv", ["i", "s", "a", "b"], columns,
                        ["d", "s", ".12g", ".12g"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10 * _BLOCK_ROWS) <= 1.5 * peak(_BLOCK_ROWS)
