import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import critmet
from critmet.cli import main
from critmet import fock
from critmet.fock import observables_fock, propagate, qfi_fock
from critmet.harness import (ConfigError, PRESETS, build_effective,
                             fit_results, load_config, parse_config,
                             read_results, run, verify_bounds)
from critmet.models import FiniteRamp, SuddenQuench, estimand

SMALL_CONFIG = {
    "name": "smoke-quench",
    "model": {"kind": "rabi", "omega": 1.0, "g": 1.0},
    "protocol": {"kind": "quench"},
    "estimand": "lambda",
    "t_grid": {"min": 1.0, "max": 100.0, "points": 10},
    "eta": ["inf"],
    "tol": 1e-10,
    "samples": 65,
}


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = parse_config(SMALL_CONFIG)
        assert cfg.name == "smoke-quench"
        assert cfg.eta == ("inf",)
        assert cfg.digest() == parse_config(SMALL_CONFIG).digest()

    def test_missing_field_diagnostic(self):
        bad = dict(SMALL_CONFIG)
        del bad["model"]
        with pytest.raises(ConfigError, match="config: missing field 'model'"):
            parse_config(bad)

    def test_empty_grid_rejected(self):
        bad = dict(SMALL_CONFIG)
        bad["t_grid"] = {"min": 1.0, "max": 10.0, "points": 0}
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(bad)

    def test_bad_eta_rejected(self):
        bad = dict(SMALL_CONFIG)
        bad["eta"] = [0.5]
        with pytest.raises(ConfigError, match="eta"):
            parse_config(bad)

    def test_json_line_diagnostics(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "name": "x",\n  broken\n}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 3"):
            load_config(p)

    def test_presets_parse(self):
        for name, raw in PRESETS.items():
            cfg = parse_config(dict(raw))
            assert cfg.name == name

    @staticmethod
    def _rejects(field, values):
        for v in values:
            with pytest.raises(ConfigError, match=f"^{field}: "):
                parse_config({**SMALL_CONFIG, field: v})

    def test_tol_must_be_finite_and_positive(self):
        self._rejects("tol", [0.0, -1.0, math.inf, math.nan, "1e-8", True])
        assert parse_config({**SMALL_CONFIG, "tol": 1e-8}).tol == 1e-8

    def test_workers_must_be_positive_integer(self):
        self._rejects("workers", [0, -2, 1.5, 2.0, "2", True])
        assert parse_config({**SMALL_CONFIG, "workers": 2}).workers == 2

    def test_samples_must_be_integer_at_least_33(self):
        self._rejects("samples", [32, 0, 65.0, "65", True])
        assert parse_config({**SMALL_CONFIG, "samples": 33}).samples == 33

    def test_nmax_must_be_null_or_integer_at_least_16(self):
        self._rejects("nmax", [15, 0, 64.0, "64", True, False])
        assert parse_config({**SMALL_CONFIG, "nmax": 16}).nmax == 16
        assert parse_config({**SMALL_CONFIG, "nmax": None}).nmax is None

    def test_t_grid_points_must_be_positive_integer(self):
        for v in (2.7, 3.0, "3", True, False, 0, -1):
            grid = {"min": 1.0, "max": 10.0, "points": v}
            with pytest.raises(ConfigError, match="^t_grid.points: "):
                parse_config({**SMALL_CONFIG, "t_grid": grid})
        grid = {"min": 1.0, "max": 10.0, "points": 3}
        assert parse_config({**SMALL_CONFIG, "t_grid": grid}).t_grid["points"] == 3

    def test_t_grid_ends_must_be_finite_numbers(self):
        for end in ("min", "max"):
            for v in (math.nan, math.inf, -math.inf, True):
                grid = {"min": 1.0, "max": 10.0, "points": 3, end: v}
                with pytest.raises(ConfigError, match=f"^t_grid.{end}: "):
                    parse_config({**SMALL_CONFIG, "t_grid": grid})

    def test_bool_eta_rejected(self):
        for v in ([True], [False], ["inf", True]):
            with pytest.raises(ConfigError, match="^eta: "):
                parse_config({**SMALL_CONFIG, "eta": v})

    def test_bool_numeric_fields_rejected(self):
        with pytest.raises(ConfigError, match="^model.g: "):
            parse_config({**SMALL_CONFIG, "model": {**SMALL_CONFIG["model"], "g": True}})
        with pytest.raises(ConfigError, match="^protocol.r: "):
            parse_config({**SMALL_CONFIG, "protocol": {"kind": "ramp", "r": True}})

    def test_import_and_parse_load_no_stepper(self):
        # importing critmet and parsing a config leave scipy.integrate, numba
        # and the stepper kernel unloaded: they are loaded on first use
        code = ("import sys, critmet\n"
                "from critmet.harness import PRESETS, parse_config\n"
                "parse_config(dict(PRESETS['fig7-kz']))\n"
                "print([m for m in ('scipy.integrate', 'numba', "
                "'critmet._fastpath') if m in sys.modules])\n")
        env = {**os.environ,
               "PYTHONPATH": str(Path(critmet.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestRun:
    def test_quench_sweep_and_outputs(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        path = run(cfg, tmp_path)
        rows = read_results(path)
        assert len(rows) == 10
        assert all(r["error"] == "" for r in rows)
        # dominance holds on every row
        assert verify_bounds(path) == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["rows"] == 10
        assert manifest["config_sha256"] == cfg.digest()
        assert manifest["failures"] == 0
        numba = importlib.util.find_spec("numba") is not None
        assert manifest["backend"] == ("numba" if numba else "python")
        assert (manifest["versions"]["numba"] is not None) == numba

    def test_reproducibility_byte_identical(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        p1 = run(cfg, tmp_path / "a")
        p2 = run(cfg, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg1 = parse_config({**SMALL_CONFIG, "workers": 1})
        cfg2 = parse_config({**SMALL_CONFIG, "workers": 2})
        p1 = run(cfg1, tmp_path / "w1")
        p2 = run(cfg2, tmp_path / "w2")
        assert p1.read_bytes() == p2.read_bytes()
        # two finite η: two row groups, one per worker
        raw = {**SMALL_CONFIG, "eta": [100.0, 300.0], "nmax": 96,
               "t_grid": {"min": 1.0, "max": 8.0, "points": 3}}
        p1 = run(parse_config({**raw, "workers": 1}), tmp_path / "f1")
        p2 = run(parse_config({**raw, "workers": 2}), tmp_path / "f2")
        assert p1.read_bytes() == p2.read_bytes()
        assert [r["eta"] for r in read_results(p1)] == ["100"] * 3 + ["300"] * 3

    def test_failing_point_is_isolated(self, tmp_path):
        # a quench horizon far beyond the blow-up time fails in-row only
        cfg = parse_config({**SMALL_CONFIG,
                            "t_grid": {"min": 1e5, "max": 8e6, "points": 3},
                            "tol": 1e-8, "samples": 33})
        path = run(cfg, tmp_path)
        rows = read_results(path)
        assert len(rows) == 3
        assert any("BlowUpError" in r["error"] for r in rows)
        assert any(r["error"] == "" for r in rows)

    def test_finite_eta_rows_double_truncation(self, tmp_path):
        # η = 1e3 starts at nmax = 80, whose tail overflows for a g = 1
        # quench: every finite-difference branch restarts at nmax = 160
        raw = {**SMALL_CONFIG, "eta": [1000], "nmax": None,
               "t_grid": {"min": 5.0, "max": 40.0, "points": 4}}
        cfg = parse_config(raw)
        rows = read_results(run(cfg, tmp_path))
        assert [r["error"] for r in rows] == [""] * 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fock_nmax"] == {"1000.0": [160] * 4}
        eff = build_effective(cfg.model, 1000.0)
        tag = estimand(eff, "lambda")
        res = qfi_fock(SuddenQuench(g_f=1.0, T=40.0), eff, tag)
        assert res.nmax == 160
        assert float(rows[-1]["I_x"]) == res.qfi[-1]
        fixed = qfi_fock(SuddenQuench(g_f=1.0, T=40.0), eff, tag, nmax=160)
        assert res.qfi[-1] == fixed.qfi[-1]

    def test_fock_quench_group_matches_per_row_runs(self, tmp_path, monkeypatch):
        # all T of one η come from one decomposition, and each row equals
        # its own per-row propagation
        calls = []
        real = fock.eig_banded
        monkeypatch.setattr(fock, "eig_banded",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        cfg = parse_config({**SMALL_CONFIG, "eta": [100.0], "nmax": 128,
                            "t_grid": {"min": 1.0, "max": 8.0, "points": 4}})
        rows = read_results(run(cfg, tmp_path))
        assert len(calls) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fock_nmax"] == {"100.0": [128] * 4}
        eff = build_effective(cfg.model, 100.0)
        tag = estimand(eff, "lambda")
        for r in rows:
            sch = SuddenQuench(g_f=eff.g, T=float(r["T"]))
            want_i = qfi_fock(sch, eff, tag, nmax=128).qfi[-1]
            want_n = observables_fock(propagate(sch, eff, nmax=128).final).n
            assert float(r["I_x"]) == pytest.approx(want_i, rel=1e-12, abs=0)
            assert float(r["N_final"]) == pytest.approx(want_n, rel=1e-12, abs=0)

    def test_fock_adiabatic_group_against_reference(self, tmp_path):
        # one Krylov trajectory to the longest T serves every row; each row
        # is checked against solve_ivp on the same truncation.  I_x is held
        # to 1e-3; N_final to 1e-4, above the 1.2e-5 to 4.8e-5 the midpoint
        # rule misses by here (ROADMAP item 2, stage 4)
        from test_fock import adiabatic_ramp_reference
        cfg = parse_config({**SMALL_CONFIG, "estimand": "omega",
                            "protocol": {"kind": "adiabatic", "phi_ad": 0.05},
                            "eta": [100.0], "nmax": 160,
                            "t_grid": {"min": 20.0, "max": 40.0, "points": 3}})
        rows = read_results(run(cfg, tmp_path))
        Ts = [float(r["T"]) for r in rows]
        for r, (want_i, want_n) in zip(rows, adiabatic_ramp_reference(160, Ts)):
            assert r["error"] == ""
            assert abs(float(r["I_x"]) / want_i - 1.0) <= 1e-3
            assert abs(float(r["N_final"]) / want_n - 1.0) <= 1e-4

    def test_overflow_fails_only_later_rows_of_a_group(self, tmp_path):
        # near-Gaussian critical quench: ⟨N⟩ grows without bound, so the
        # tail overflows at T = 5 even after doubling 16 -> 256; the two
        # earlier rows run again on their own and keep their values
        cfg = parse_config({**SMALL_CONFIG, "eta": [1e12], "nmax": 16,
                            "t_grid": {"min": 0.5, "max": 50.0, "points": 5}})
        rows = read_results(run(cfg, tmp_path))
        assert [r["error"] for r in rows[:2]] == ["", ""]
        assert all(math.isfinite(float(r["I_x"])) and float(r["N_final"]) > 0
                   for r in rows[:2])
        for r in rows[2:]:
            assert r["error"].startswith("TruncationOverflow: ")
            assert "at t=5 with nmax=256" in r["error"]
            assert r["I_x"] == r["N_final"] == ""
        eff = build_effective(cfg.model, 1e12)
        kept = [float(r["T"]) for r in rows[:2]]
        want = qfi_fock(SuddenQuench(g_f=1.0, T=kept[-1]), eff,
                        estimand(eff, "lambda"), t_samples=kept, nmax=16)
        assert [float(r["I_x"]) for r in rows[:2]] == list(want.qfi)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fock_nmax"] == {str(1e12): [want.nmax] * 2 + [None] * 3}
        assert manifest["failures"] == 3

    def test_finite_ramp_rows_run_one_by_one(self, tmp_path):
        # a FiniteRamp's g(t) changes with T: no shared run, and each row
        # equals its stand-alone QFI
        cfg = parse_config({**SMALL_CONFIG, "estimand": "omega",
                            "protocol": {"kind": "ramp", "r": 2.0},
                            "eta": [100.0], "nmax": 32,
                            "t_grid": {"min": 2.0, "max": 4.0, "points": 2}})
        rows = read_results(run(cfg, tmp_path))
        eff = build_effective(cfg.model, 100.0)
        for r in rows:
            res = qfi_fock(FiniteRamp(r=2.0, T=float(r["T"])), eff,
                           estimand(eff, "omega"), nmax=32, tol=1e-10)
            assert r["error"] == "" and float(r["I_x"]) == res.qfi[-1]

    def test_repeated_grid_times_share_one_sample(self, tmp_path):
        # min == max gives equal T in one Krylov group: one sample time
        # is recorded twice instead of stepping by zero
        cfg = parse_config({**SMALL_CONFIG, "estimand": "omega",
                            "protocol": {"kind": "adiabatic", "phi_ad": 0.05},
                            "eta": [100.0], "nmax": 32,
                            "t_grid": {"min": 2.0, "max": 2.0, "points": 2}})
        a, b = read_results(run(cfg, tmp_path))
        assert a["error"] == "" and a == b

    def test_regime_labels_recorded(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        path = run(cfg, tmp_path)
        rows = read_results(path)
        labels = {r["regime"] for r in rows}
        assert "II" in labels and "I" in labels


class TestFitAndVerify:
    def _write_results(self, tmp_path, rows):
        path = tmp_path / "results.csv"
        cols = ("protocol", "estimand", "eta", "T", "I_x", "Q_x",
                "bound_I", "ratio", "N_final", "regime", "error")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            w.writerows(rows)
        return path

    def test_fit_synthetic_t4(self, tmp_path):
        rows = []
        for T in np.geomspace(1, 100, 20):
            rows.append(["quench", "omega", "inf", f"{T}", "1", f"{T**4}",
                         "", "", "", "II", ""])
        path = self._write_results(tmp_path, rows)
        fits = fit_results(path, (1.0, 100.0))
        assert len(fits) == 1
        assert fits[0]["beta"] == pytest.approx(4.0, abs=1e-10)

    def test_fit_on_real_run(self, tmp_path):
        cfg = parse_config({**SMALL_CONFIG,
                            "t_grid": {"min": 10.0, "max": 200.0, "points": 14}})
        path = run(cfg, tmp_path)
        fits = fit_results(path, (20.0, 200.0))
        assert fits[0]["beta"] == pytest.approx(6.0, abs=0.1)

    def test_verify_bounds_negative_control(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        path = run(cfg, tmp_path)
        rows = read_results(path)
        # corrupt one row: halve the bound below the recorded QFI
        rows[4]["bound_I"] = repr(float(rows[4]["I_x"]) / 2)
        cols = list(rows[0].keys())
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            w.writerows(rows)
        violations = verify_bounds(path)
        assert len(violations) == 1
        assert violations[0]["row"] == 4

    def test_missing_columns_rejected(self, tmp_path):
        p = tmp_path / "broken.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="missing columns"):
            read_results(p)


class TestCLI:
    def test_run_fit_verify_roundtrip(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**SMALL_CONFIG,
                                       "t_grid": {"min": 1.0, "max": 100.0,
                                                  "points": 20}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert main(["fit", str(out / "results.csv"), "--window", "10:100",
                     "--out", str(out / "fits.csv")]) == 0
        text = capsys.readouterr().out
        assert "beta" in text
        assert (out / "fits.csv").exists()
        assert main(["verify-bounds", str(out / "results.csv")]) == 0

    def test_preset_name_accepted(self, tmp_path):
        # presets resolve by name; shrink the grid via a file copy instead
        # of running the full sweep
        raw = dict(PRESETS["fig3-quench"])
        raw["t_grid"] = {"min": 5.0, "max": 50.0, "points": 8}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 0

    def test_validation_exit_code(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        bad = dict(SMALL_CONFIG)
        bad["estimand"] = "Lambda"   # not a Rabi estimand
        cfgfile.write_text(json.dumps(bad))
        assert main(["run", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 1

    def test_unknown_config_exit1(self):
        assert main(["run", "--config", "no-such-preset"]) == 1

    def test_bound_violation_exit3(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        path = run(cfg, tmp_path)
        rows = read_results(path)
        rows[0]["bound_I"] = repr(float(rows[0]["I_x"]) / 2)
        cols = list(rows[0].keys())
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            w.writerows(rows)
        assert main(["verify-bounds", str(path)]) == 3

    def test_presets_listing(self, tmp_path, capsys):
        assert main(["presets", "--write", str(tmp_path / "p")]) == 0
        text = capsys.readouterr().out
        assert "fig3-quench" in text
        assert (tmp_path / "p" / "fig7-kz.json").exists()

    def test_bad_window_spec(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        path = run(cfg, tmp_path)
        assert main(["fit", str(path), "--window", "nope"]) == 1
