"""Command line interface: file formats, reports, and exit codes."""

import contextlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bindens import (
    EstimatorConfig,
    ShrinkageSpec,
    backend,
    counts_from_observations,
    estimate_at,
    index_of_point,
    kl_risk,
)
from bindens.cli import load_observations, main, parse_cells_spec

UNIFORM_ESTIMATOR = {"variant": "linear", "shrinkage": {"form": "sparse", "entries": {"1": 1.0}}}
FREQUENCY_2 = {"variant": "linear", "shrinkage": {"form": "dense", "values": [1.0, 1.0, 1.0, 1.0]}}


def _write_signs(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(",".join(str(int(v)) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@contextlib.contextmanager
def _unlimited_int_text():
    """Lift Python's limit on int <-> decimal text conversion for the test's own use."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _strip_timing(payload):
    out = dict(payload)
    out.pop("timing", None)
    return out


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "obs.csv"
    _write_signs(data, [(1, 1), (1, -1), (-1, 1)])
    return tmp_path, data


class TestLoadObservations:
    def test_signs_default(self, tmp_path):
        p = tmp_path / "d.csv"
        _write_signs(p, [(1, -1, 1), (1, -1, 1), (-1, -1, -1)])
        counts = load_observations(p)
        assert counts.n == 3
        assert counts.count_of(3) == 2
        assert counts.count_of(8) == 1

    def test_bits_encoding(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1,0\n0,1,0\n1,1,1\n")
        counts = load_observations(p, encoding="bits")
        assert counts.count_of(3) == 2
        assert counts.count_of(8) == 1

    def test_whitespace_delimiter_and_header(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("x1 x2\n1 -1\n1  -1\n\n-1 1\n")
        counts = load_observations(p, delimiter="ws", header=True)
        assert counts.count_of(3) == 2
        assert counts.count_of(2) == 1
        assert counts.total == 3

    def test_plus_sign_tokens(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("+1,-1\n1,-1\n")
        counts = load_observations(p)
        assert counts.count_of(3) == 2

    def test_bad_token_reports_line(self, tmp_path):
        from bindens.errors import DataError

        p = tmp_path / "d.csv"
        p.write_text("1,-1\n1,2\n")
        with pytest.raises(DataError, match=":2"):
            load_observations(p)

    def test_ragged_rows_rejected(self, tmp_path):
        from bindens.errors import DataError

        p = tmp_path / "d.csv"
        p.write_text("1,-1\n1,-1,1\n")
        with pytest.raises(DataError):
            load_observations(p)


class TestParseCellsSpec:
    def test_mixed_indexes_and_patterns(self):
        parsed = parse_cells_spec([3, "7", "+-+"], 3)
        assert [p["cell"] for p in parsed] == [3, 7, 3]

    def test_conditional_pattern(self):
        parsed = parse_cells_spec(["?++"], 3)
        item = parsed[0]
        assert item["kind"] == "conditional"
        assert item["coordinate"] == 1
        assert item["cell_plus"] == 1
        assert item["cell_minus"] == 2

    def test_rejects_double_hole(self):
        from bindens.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_cells_spec(["??+"], 3)

    def test_rejects_wrong_length(self):
        from bindens.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_cells_spec(["+-"], 3)


class TestEstimateCommand:
    def test_uniform_all_cells(self, workspace, capsys):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "report.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = _read_json(out)
        assert report["report_version"] == 1
        assert report["command"] == "estimate"
        assert report["n"] == 2
        assert report["estimate"]["full"] is True
        np.testing.assert_allclose(report["estimate"]["values"], [0.25] * 4)
        assert report["estimate"]["sum"] == pytest.approx(1.0, abs=1e-12)
        assert "seed" in report
        stdout = capsys.readouterr().out
        assert "wrote" in stdout

    def test_frequency_matches_empirical(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "report.json"
        _write_json(cfg, {"estimator": FREQUENCY_2})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        # observed cells: (+,+) -> 1, (+,-) -> 3, (-,+) -> 2
        np.testing.assert_allclose(
            report["estimate"]["values"], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-15
        )

    def test_explicit_cells_and_patterns(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "report.json"
        _write_json(
            cfg,
            {
                "estimator": {"variant": "waak", "gamma": 2.0, "w": 0.5},
                "query": {"cells": [1, "--"]},
            },
        )
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        assert report["estimate"]["full"] is False
        assert report["estimate"]["cells"] == [1, 4]
        counts = counts_from_observations([(1, 1), (1, -1), (-1, 1)])
        want = estimate_at([1, 4], EstimatorConfig.waak(np.full(2, 0.5), 2.0), counts)
        np.testing.assert_allclose(report["estimate"]["values"], want.values, rtol=1e-13)

    def test_rerun_identical_after_timing_strip(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"estimator": {"variant": "aa_classic", "lambda": 0.8}, "seed": 7})
        out1, out2 = tmp / "r1.json", tmp / "r2.json"
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out2)]) == 0
        a, b = _read_json(out1), _read_json(out2)
        assert "timing" in a
        assert json.dumps(_strip_timing(a), sort_keys=True) == json.dumps(
            _strip_timing(b), sort_keys=True
        )
        assert a["seed"] == 7

    def test_overwrites_existing_report(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "report.json"
        out.write_text("not json {")
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        assert _read_json(out)["command"] == "estimate"

    def test_moderate_dimension_explicit_cells(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 25
        data = tmp_path / "obs.csv"
        _write_signs(data, rng.choice([-1, 1], size=(10, n)))
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        _write_json(
            cfg,
            {
                "estimator": {"variant": "waak", "gamma": 1.6, "w": 0.6},
                "query": {"cells": [1, 77, (1 << 25)]},
            },
        )
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        assert len(report["estimate"]["values"]) == 3
        assert all(v >= 0 for v in report["estimate"]["values"])

    def test_full_estimate_over_capacity_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        n = 25
        data = tmp_path / "obs.csv"
        _write_signs(data, rng.choice([-1, 1], size=(3, n)))
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"estimator": {"variant": "waak", "gamma": 2.0, "w": 0.5}})
        code = main(
            ["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "r.json")]
        )
        assert code == 3
        assert "n=25" in capsys.readouterr().err

    def test_degenerate_normalizer_exits_4(self, workspace, capsys):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(
            cfg,
            {
                "estimator": {
                    "variant": "transformed",
                    "shrinkage": {"form": "sparse", "entries": {"2": 0.7}},
                    "transform": {"kind": "tanh", "scale": 1.0},
                }
            },
        )
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")])
        assert code == 4
        assert "not positive" in capsys.readouterr().err

    def test_missing_estimator_key_exits_2(self, workspace, capsys):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"cv": {}})
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")])
        assert code == 2
        assert "estimator" in capsys.readouterr().err

    def test_invalid_json_config_exits_2(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        cfg.write_text("{broken")
        assert (
            main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")])
            == 2
        )

    def test_bad_data_token_exits_2(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("1,-1\nx,-1\n")
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        code = main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert ":2" in capsys.readouterr().err

    def test_missing_data_file_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        code = main(
            [
                "estimate",
                "--data",
                str(tmp_path / "nope.csv"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2


class TestCvCommand:
    def _dataset(self, tmp_path, rng, n=4, rows=16):
        data = tmp_path / "obs.csv"
        _write_signs(data, rng.choice([-1, 1], size=(rows, n)))
        return data

    def test_aa_grid_matches_library(self, tmp_path):
        rng = np.random.default_rng(11)
        data = self._dataset(tmp_path, rng)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        lambdas = [0.6, 0.75, 0.9]
        _write_json(cfg, {"cv": {"loss": "kl", "search": {"kind": "aa_lambda", "lambdas": lambdas}}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        assert report["command"] == "cv"
        assert report["loss"] == "kl"
        assert report["partial"] is False
        rows = report["evaluations"]
        assert len(rows) == 3
        assert [row["rank"] for row in rows] == [1, 2, 3]
        counts = load_observations(data)
        want = {
            lam: kl_risk(EstimatorConfig.aa_classic(4, lam), counts).value for lam in lambdas
        }
        best_lam = max(want, key=want.get)
        assert report["best"]["estimator"]["lambda"] == best_lam
        assert report["best"]["value"] == pytest.approx(want[best_lam], rel=1e-12)
        # ranked rows are ordered best to worst
        values = [row["value"] for row in rows]
        assert values == sorted(values, reverse=True)

    def test_loss_flag_overrides_config(self, tmp_path):
        rng = np.random.default_rng(12)
        data = self._dataset(tmp_path, rng)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        _write_json(cfg, {"cv": {"loss": "kl", "search": {"kind": "aa_lambda", "lambdas": [0.6, 0.9]}}})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out), "--loss", "se"]) == 0
        report = _read_json(out)
        assert report["loss"] == "se"
        values = [row["value"] for row in report["evaluations"]]
        assert values == sorted(values)

    def test_element_count_bookkeeping(self, tmp_path):
        rng = np.random.default_rng(13)
        data = self._dataset(tmp_path, rng, n=3, rows=9)
        counts = load_observations(data)
        N = counts.total
        m = len(counts.cells)
        repeated = sum(1 for _, cnt in counts.cells if cnt >= 2)
        aa = {"variant": "aa_classic", "lambda": 0.8}
        linear = {"variant": "linear", "shrinkage": {"form": "sparse", "entries": {"1": 1.0, "2": 0.5}}}
        searches = [
            {"kind": "aa_lambda", "lambdas": [0.7, 0.8]},
            {"kind": "linear_sparse", "indexes": [2, 5], "value_grid": [0.25, 0.75]},
            {"kind": "mixture", "components": [aa, linear], "denominator": 3},
        ]
        for pos, search in enumerate(searches):
            cfg = tmp_path / f"cfg{pos}.json"
            _write_json(cfg, {"cv": {"search": search}})

            out_kl = tmp_path / f"kl{pos}.json"
            assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out_kl), "--loss", "kl"]) == 0
            for row in _read_json(out_kl)["evaluations"]:
                assert row["squared_element_evals"] == 0
                assert row["element_evals"] == m * (m - 1) // 2 + repeated
                assert row["element_evals"] <= N * (N - 1) // 2

            out_se = tmp_path / f"se{pos}.json"
            assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out_se), "--loss", "se"]) == 0
            for row in _read_json(out_se)["evaluations"]:
                assert row["squared_element_evals"] == m * (m + 1) // 2
                assert row["squared_element_evals"] <= N * (N + 1) // 2
                assert row["element_evals"] == m * (m - 1) // 2 + repeated

    def test_budget_partial_exits_2_with_report(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        data = self._dataset(tmp_path, rng)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        _write_json(
            cfg,
            {
                "cv": {
                    "search": {
                        "kind": "waak",
                        "gammas": [1.5, 2.0],
                        "w": {"mode": "shared_grid", "grid": [0.3, 0.7]},
                        "budget": 2,
                    }
                }
            },
        )
        code = main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        report = _read_json(out)
        assert report["partial"] is True
        assert len(report["evaluations"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_waak_descent_rows(self, tmp_path):
        rng = np.random.default_rng(15)
        data = self._dataset(tmp_path, rng, n=3, rows=12)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "cv.json"
        _write_json(
            cfg,
            {
                "cv": {
                    "loss": "kl",
                    "search": {
                        "kind": "waak_descent",
                        "gammas": [1.5, 2.5],
                        "grid": [0.0, 0.5, 1.0],
                        "initial": 0.5,
                        "sweeps": 2,
                    },
                }
            },
        )
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_json(out)
        rows = report["evaluations"]
        assert len(rows) == 2
        assert sorted(row["gamma"] for row in rows) == [1.5, 2.5]
        for row in rows:
            assert row["sweeps"] == 2
            assert row["estimator"]["variant"] == "waak"
        best_val = report["best"]["value"]
        assert best_val == max(row["value"] for row in rows)

    def test_uniform_data_prefers_full_smoothing(self, tmp_path):
        # draws from the uniform law: the gamma = 1 candidate (complete
        # smoothing) should win the likelihood surrogate in the typical
        # trial; assert the median selection over 20 seeded repetitions
        selected = []
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            data = tmp_path / f"u{seed}.csv"
            _write_signs(data, rng.choice([-1, 1], size=(25, 5)))
            cfg = tmp_path / f"c{seed}.json"
            out = tmp_path / f"r{seed}.json"
            _write_json(
                cfg,
                {
                    "cv": {
                        "loss": "kl",
                        "search": {
                            "kind": "waak",
                            "gammas": [1.0, 2.0, 4.0],
                            "w": {"mode": "fixed", "values": 1.0},
                        },
                    }
                },
            )
            assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
            selected.append(_read_json(out)["best"]["estimator"]["gamma"])
        assert float(np.median(selected)) == 1.0

    def test_missing_cv_block_exits_2(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        assert main(["cv", "--data", str(data), "--config", str(cfg), "--out", str(tmp / "r.json")]) == 2


class TestQueryCommand:
    def _fit(self, tmp_path, rows, estimator, seed=0):
        data = tmp_path / "obs.csv"
        _write_signs(data, rows)
        cfg = tmp_path / "cfg.json"
        fit = tmp_path / "fit.json"
        _write_json(cfg, {"estimator": estimator, "seed": seed})
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(fit)]) == 0
        return fit

    def test_values_match_direct_evaluation(self, tmp_path):
        rng = np.random.default_rng(16)
        n = 5
        rows = rng.choice([-1, 1], size=(18, n))
        fit = self._fit(tmp_path, rows, {"variant": "waak", "gamma": 2.0, "w": 0.7})
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "7,+-++-,3", "--out", str(out)]) == 0
        report = _read_json(out)
        results = report["query"]["results"]
        counts = counts_from_observations(rows)
        cfg = EstimatorConfig.waak(np.full(n, 0.7), 2.0)
        cells = [r["cell"] for r in results]
        want = estimate_at(cells, cfg, counts)
        np.testing.assert_allclose([r["value"] for r in results], want.values, rtol=1e-13)
        assert results[1]["point"] == "+-++-"

    def test_conditional_expectation(self, tmp_path):
        rng = np.random.default_rng(17)
        n = 4
        rows = rng.choice([-1, 1], size=(15, n))
        fit = self._fit(tmp_path, rows, {"variant": "waak", "gamma": 2.5, "w": 0.6})
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "?-+-", "--out", str(out)]) == 0
        entry = _read_json(out)["query"]["results"][0]
        counts = counts_from_observations(rows)
        cfg = EstimatorConfig.waak(np.full(n, 0.6), 2.5)
        est = estimate_at([entry["cells"][0], entry["cells"][1]], cfg, counts)
        p_plus, p_minus = (float(v) for v in est.values)
        assert entry["undefined"] is False
        assert entry["conditional_expectation"] == pytest.approx(
            (p_plus - p_minus) / (p_plus + p_minus), rel=1e-12
        )
        assert entry["coordinate"] == 1

    def test_uniform_fit_has_zero_conditional(self, tmp_path):
        rows = [(1, 1, 1), (1, -1, 1), (-1, 1, -1)]
        fit = self._fit(tmp_path, rows, UNIFORM_ESTIMATOR)
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "?++", "--out", str(out)]) == 0
        entry = _read_json(out)["query"]["results"][0]
        assert entry["conditional_expectation"] == 0.0

    def test_deterministic_coordinate_pins_conditional(self, tmp_path):
        # first coordinate always +1 under the frequency estimator
        rows = [(1, 1), (1, 1), (1, -1)]
        fit = self._fit(tmp_path, rows, FREQUENCY_2)
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "?+", "--out", str(out)]) == 0
        entry = _read_json(out)["query"]["results"][0]
        assert entry["conditional_expectation"] == 1.0

    def test_unseen_region_is_undefined_under_frequency(self, tmp_path):
        rows = [(1, 1), (1, 1), (1, -1)]
        fit = self._fit(tmp_path, rows, FREQUENCY_2)
        out = tmp_path / "q.json"
        assert main(["query", "--fit", str(fit), "--cells", "?-", "--out", str(out)]) == 0
        entry = _read_json(out)["query"]["results"][0]
        # pattern ?- means x2 = -1; only (+1,-1) was observed
        assert entry["undefined"] is False
        fit2 = self._fit(tmp_path, [(1, 1), (1, 1), (-1, 1)], FREQUENCY_2, seed=1)
        out2 = tmp_path / "q2.json"
        assert main(["query", "--fit", str(fit2), "--cells", "?-", "--out", str(out2)]) == 0
        entry2 = _read_json(out2)["query"]["results"][0]
        assert entry2["undefined"] is True
        assert entry2["conditional_expectation"] is None

    def test_round_trip_past_int_text_limit(self, tmp_path):
        # At n = 15000 a cell index has about 4500 decimal digits, more
        # than str() and int() accept by default (4300). Reports keep them
        # as decimal text. lambda near 1 keeps every estimate near 1/N.
        n = 15_000
        rng = np.random.default_rng(19)
        base = rng.choice([-1, 1], size=n)
        rows = [base.copy() for _ in range(6)]
        for k in range(1, 5):
            rows[k][k] *= -1
        estimator = {"variant": "aa_classic", "lambda": 0.999999}
        counts = counts_from_observations(rows)
        base_cell, near_cell = index_of_point(rows[0]), index_of_point(rows[1])
        base_pattern = "".join("+" if v > 0 else "-" for v in base)
        with _unlimited_int_text():
            text = {cell: str(cell) for cell, _ in counts.cells}

        data = tmp_path / "obs.csv"
        _write_signs(data, rows)
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"estimator": estimator, "query": {"cells": [base_pattern, text[near_cell]]}})
        fit = tmp_path / "fit.json"
        assert main(["estimate", "--data", str(data), "--config", str(cfg), "--out", str(fit)]) == 0
        report = _read_json(fit)
        assert report["data"]["counts"] == {text[cell]: cnt for cell, cnt in counts.cells}
        assert report["estimate"]["cells"] == [text[base_cell], text[near_cell]]
        want = estimate_at([base_cell, near_cell], EstimatorConfig.aa_classic(n, 0.999999), counts)
        np.testing.assert_allclose(report["estimate"]["values"], want.values, rtol=1e-12)
        assert 0.3 < want.values[0] < 1.0 / 3.0

        out = tmp_path / "q.json"
        spec = f"{text[base_cell]},?{base_pattern[1:]}"
        assert main(["query", "--fit", str(fit), "--cells", spec, "--out", str(out)]) == 0
        plain, conditional = _read_json(out)["query"]["results"]
        assert plain["cell"] == text[base_cell]
        assert plain["value"] == pytest.approx(want.values[0], rel=1e-12)
        assert conditional["cells"][0 if base[0] > 0 else 1] == text[base_cell]
        assert conditional["undefined"] is False

    def test_bad_pattern_exits_2(self, tmp_path):
        fit = self._fit(tmp_path, [(1, 1), (-1, 1)], UNIFORM_ESTIMATOR)
        assert main(["query", "--fit", str(fit), "--cells", "??", "--out", str(tmp_path / "q.json")]) == 2
        assert main(["query", "--fit", str(fit), "--cells", "+*", "--out", str(tmp_path / "q.json")]) == 2

    def test_missing_fit_report_exits_2(self, tmp_path):
        code = main(
            ["query", "--fit", str(tmp_path / "nope.json"), "--cells", "1", "--out", str(tmp_path / "q.json")]
        )
        assert code == 2

    def test_truncated_fit_report_exits_2(self, tmp_path):
        bad = tmp_path / "fit.json"
        _write_json(bad, {"report_version": 1, "n": 2})
        assert main(["query", "--fit", str(bad), "--cells", "1", "--out", str(tmp_path / "q.json")]) == 2


class TestBenchCommand:
    def test_small_bench_passes(self, tmp_path):
        out = tmp_path / "bench.json"
        # Growth checks compare the two largest dense sizes; below n=16 the
        # per-call overhead outweighs the O(n 2^n) work they assert on.
        code = main(["bench", "--out", str(out), "--max-n", "16"])
        report = _read_json(out)
        regimes = [row["regime"] for row in report["rows"]]
        assert regimes == [
            "linear_sparse",
            "waak",
            "logistic_single_interaction",
            "general_no_closed_form",
        ]
        for row in report["rows"]:
            for check in row["checks"]:
                assert "skipped" not in check, (row["regime"], check)
                assert check["pass"], (row["regime"], check)
        assert report["all_checks_pass"] is True
        assert code == 0

    def test_max_n_validation(self, tmp_path):
        assert main(["bench", "--out", str(tmp_path / "b.json"), "--max-n", "4"]) == 2


class TestSubprocessEntryPoints:
    def test_module_invocation(self, workspace):
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        out = tmp / "r.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "bindens",
                "estimate",
                "--data",
                str(data),
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert _read_json(out)["command"] == "estimate"

    def test_backends_produce_identical_reports(self, workspace):
        # numba is an optional extra: where it imports, both backends must
        # give the same report; where it does not, an explicit request for
        # it must be refused rather than silently served by numpy.
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"estimator": {"variant": "waak", "gamma": 2.0, "w": [0.4, 0.9]}})

        def run(name):
            env = dict(os.environ, BINDENS_BACKEND=name)
            out = tmp / f"{name}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "bindens",
                    "estimate",
                    "--data",
                    str(data),
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            return proc, out

        proc, out = run("numpy")
        assert proc.returncode == 0, proc.stderr
        numpy_report = _strip_timing(_read_json(out))
        assert numpy_report.pop("backend") == "numpy"

        proc, out = run("numba")
        if not backend.HAS_NUMBA:
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert "BINDENS_BACKEND" in proc.stderr
            assert "numba" in proc.stderr
            assert not out.exists()
            return
        assert proc.returncode == 0, proc.stderr
        numba_report = _strip_timing(_read_json(out))
        assert numba_report.pop("backend") == "numba"
        assert json.dumps(numba_report, sort_keys=True) == json.dumps(numpy_report, sort_keys=True)

    def test_refused_backend_exits_2(self, workspace):
        # Both entry points import the package before a command runs; a
        # backend request that cannot be honoured is a configuration error.
        tmp, data = workspace
        cfg = tmp / "cfg.json"
        _write_json(cfg, {"estimator": UNIFORM_ESTIMATOR})
        out = tmp / "r.json"
        args = ["estimate", "--data", str(data), "--config", str(cfg), "--out", str(out)]
        entry_points = [
            [sys.executable, "-m", "bindens"],
            # what the installed `bindens` script runs
            [sys.executable, "-c", "import sys; from bindens.cli import main; sys.exit(main())"],
        ]
        refused = ["vectorized"] + ([] if backend.HAS_NUMBA else ["numba"])
        for value in refused:
            for entry in entry_points:
                proc = subprocess.run(
                    entry + args,
                    capture_output=True,
                    text=True,
                    env=dict(os.environ, BINDENS_BACKEND=value),
                )
                assert proc.returncode == 2, proc.stderr
                lines = proc.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")
                assert "BINDENS_BACKEND" in lines[0]
                assert not out.exists()
