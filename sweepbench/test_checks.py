"""Tests of the benchmark itself: every check passes on rows critmet
computes and fails on a corrupted copy.

    python3 -m pytest -q sweepbench/test_checks.py
"""

import copy
import csv
import io
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import SHIFT, WORKLOADS, make_configs  # noqa: E402

RABI_CRITICAL = {"kind": "rabi", "omega": 1.0, "g": 1.0}


def sweep(tmp_path, raw):
    from critmet import harness

    out = tmp_path / raw["name"]
    harness.run(harness.parse_config(raw), out)
    with open(out / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def corrupt(rows, i, key, factor):
    bad = copy.deepcopy(rows)
    bad[i][key] = repr(float(bad[i][key]) * factor)
    return bad


def failed_checks(raw, rows):
    return {f.check for f in checks.check_config(raw, rows)}


QUENCH = {"name": "quench", "model": RABI_CRITICAL, "protocol": {"kind": "quench"},
          "estimand": "lambda", "t_grid": {"min": 0.5, "max": 20.0, "points": 4},
          "eta": ["inf"]}


def test_gaussian_quench_checks(tmp_path):
    rows = sweep(tmp_path, QUENCH)
    assert failed_checks(QUENCH, rows) == set()
    assert failed_checks(QUENCH, corrupt(rows, 2, "I_x", 1 + 1e-4)) == {"gaussian-reference"}
    assert failed_checks(QUENCH, corrupt(rows, 1, "N_final", 1 + 1e-4)) == {"gaussian-reference"}
    assert failed_checks(QUENCH, corrupt(rows, 3, "bound_I", 1 + 1e-2)) == {"critical-quench-bound"}
    low = float(rows[0]["I_x"]) / float(rows[0]["bound_I"]) * 0.99
    assert "bound-dominance" in failed_checks(QUENCH, corrupt(rows, 0, "bound_I", low))


def test_gaussian_quench_omega_subcritical(tmp_path):
    raw = dict(QUENCH, name="quench-omega", estimand="omega",
               model={"kind": "rabi", "omega": 1.0, "g": 0.9})
    rows = sweep(tmp_path, raw)
    assert failed_checks(raw, rows) == set()
    assert failed_checks(raw, corrupt(rows, 3, "I_x", 1 - 1e-4)) == {"gaussian-reference"}


@pytest.mark.parametrize("protocol,estimand", [({"kind": "ramp", "r": 2.0}, "omega"),
                                               ({"kind": "adiabatic", "phi_ad": 0.05}, "lambda")])
def test_gaussian_ramp_checks(tmp_path, protocol, estimand):
    raw = {"name": protocol["kind"], "model": RABI_CRITICAL, "protocol": protocol,
           "estimand": estimand, "t_grid": {"min": 5.0, "max": 30.0, "points": 3},
           "eta": ["inf"]}
    rows = sweep(tmp_path, raw)
    assert failed_checks(raw, rows) == set()
    assert failed_checks(raw, corrupt(rows, 2, "I_x", 1 + 1e-4)) == {"gaussian-reference"}
    assert failed_checks(raw, corrupt(rows, 0, "N_final", 1 + 1e-4)) == {"gaussian-reference"}


FOCK_QUENCH = {"name": "fock-quench", "model": RABI_CRITICAL,
               "protocol": {"kind": "quench"}, "estimand": "lambda",
               "t_grid": {"min": 1.0, "max": 8.0, "points": 3},
               "eta": [100.0], "nmax": 128}


def test_fock_quench_checks(tmp_path):
    rows = sweep(tmp_path, FOCK_QUENCH)
    assert failed_checks(FOCK_QUENCH, rows) == set()
    assert failed_checks(FOCK_QUENCH, corrupt(rows, 1, "I_x", 1 + 1e-2)) == {"fock-quench-dense"}
    assert failed_checks(FOCK_QUENCH, corrupt(rows, 2, "N_final", 1 + 1e-4)) == {"fock-quench-dense"}


FOCK_RAMP = {"name": "fock-adiabatic", "model": RABI_CRITICAL,
             "protocol": {"kind": "adiabatic", "phi_ad": 0.05}, "estimand": "omega",
             "t_grid": {"min": 4.0, "max": 8.0, "points": 2}, "eta": [100.0], "nmax": 64}


def reference_ramp_rows():
    # critmet's finite-eta ramp rows miss this check (README: known fault),
    # so the passing rows are built from the reference itself
    ph = checks.physics(FOCK_RAMP, 100.0)
    rows = []
    for T in checks.expected_grid(FOCK_RAMP):
        I_x, N = checks.fock_ramp_dense(ph, 64, T)
        rows.append({"protocol": "adiabatic", "estimand": "omega", "eta": "100",
                     "T": repr(float(T)), "I_x": repr(I_x), "N_final": repr(N),
                     "bound_I": "", "error": ""})
    return rows


def ramp_findings(rows):
    return {(f.check, f.known) for f in checks.check_config(FOCK_RAMP, rows)}


def test_fock_ramp_check_on_reference_row():
    rows = reference_ramp_rows()
    known, fatal = {("fock-ramp-dense", True)}, {("fock-ramp-dense", False)}
    assert ramp_findings(rows) == set()
    # off by the size of the Krylov fault: the row fails, the run does not
    assert ramp_findings(corrupt(rows, 0, "I_x", 1 + 1e-2)) == known
    assert ramp_findings(corrupt(rows, 0, "N_final", 1 - 5e-5)) == known
    # off by more, or not a number: the run fails
    assert ramp_findings(corrupt(rows, 0, "I_x", 1 + 1e-1)) == fatal
    assert ramp_findings(corrupt(rows, 0, "I_x", 1 - 3e-2)) == fatal
    assert ramp_findings(corrupt(rows, 0, "N_final", 1 + 1e-3)) == fatal
    assert ramp_findings(corrupt(rows, 0, "N_final", math.nan)) == fatal
    both = corrupt(corrupt(rows, 0, "I_x", 1 + 1e-2), 0, "N_final", 1 + 1e-3)
    assert ramp_findings(both) == fatal
    # only the shortest row is propagated
    assert ramp_findings(corrupt(rows, 1, "I_x", 1 + 1e-2)) == set()


def test_verify_fails_the_row_or_the_run():
    import run

    rows = reference_ramp_rows()

    def round_of(rows):
        fh = io.StringIO()
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
        return [(fh.getvalue().encode(), {"rows": len(rows)})]

    fatal, n_rows, n_failed = run.verify([FOCK_RAMP], [round_of(rows)])
    assert (fatal, n_rows, n_failed) == ([], 2, 0)
    fatal, n_rows, n_failed = run.verify([FOCK_RAMP], [round_of(corrupt(rows, 0, "I_x", 1.013))])
    assert (fatal, n_rows, n_failed) == ([], 2, 1)
    fatal, _, n_failed = run.verify([FOCK_RAMP], [round_of(corrupt(rows, 0, "I_x", 1.1))])
    assert [f.check for f in fatal] == ["fock-ramp-dense"] and n_failed == 0


def test_structure_checks(tmp_path):
    rows = sweep(tmp_path, QUENCH)
    assert failed_checks(QUENCH, rows[:-1]) == {"row-count"}
    assert failed_checks(QUENCH, corrupt(rows, 1, "T", 1 + 1e-6)) == {"grid"}
    bad = copy.deepcopy(rows)
    bad[0]["error"] = "BlowUpError: made up"
    assert failed_checks(QUENCH, bad) == {"row-error"}


def test_references_agree_with_each_other():
    ph = checks.physics(QUENCH, "inf")
    for T in (0.7, 12.0):
        closed = checks.quench_closed_form(ph, T)
        (integrated,) = checks.ramp_heisenberg(ph, [T])
        assert closed == pytest.approx(integrated, rel=1e-9)
    ph = checks.physics(FOCK_QUENCH, 100.0)
    for T, spectral in zip((0.5, 3.0), checks.fock_quench_dense(ph, 48, [0.5, 3.0])):
        assert spectral == pytest.approx(checks.fock_ramp_dense(ph, 48, T), rel=1e-7)


def test_workload_configs_follow_the_seed():
    for w in WORKLOADS:
        a, b = make_configs(w, 7), make_configs(w, 8)
        assert a == make_configs(w, 7) and a != b
        for cfg, base in zip(a, make_configs(w, 7, workers=1)):
            assert cfg["t_grid"] == base["t_grid"] and base["workers"] == 1
    for seed in range(20):
        for cfg in make_configs("ramp-sweep", seed):
            assert abs(cfg["t_grid"]["max"] / 1000.0 - 1.0) <= SHIFT
        fock_ramp = make_configs("fock-sweep", seed)[1]
        assert fock_ramp["t_grid"]["min"] == 20.0


def test_runs_only_against_a_checkout(tmp_path):
    bench = tmp_path / "sweepbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "sweepbench/run.py", "--workload", "fock-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def test_tracer_restores_the_package(tmp_path):
    from critmet import fock, gaussian, harness

    from tracer import PER_LAYER, Tracer

    before = (harness.qfi_fock, gaussian.integrate, fock.eig_banded)
    t = Tracer()
    t.install()
    try:
        rows = sweep(tmp_path, FOCK_QUENCH)
    finally:
        t.remove()
    assert (harness.qfi_fock, gaussian.integrate, fock.eig_banded) == before
    m = t.metrics(rows=len(rows), traced_sweep_s=1.0, untraced_sweep_s=1.0)
    assert list(m) == [name for name, _, _ in PER_LAYER]
    assert m["fock.qfi_fock.calls"] == len(rows) and m["fock.eig_banded.calls"] > 0
    assert m["integrate.steps"] == 0 and not math.isnan(m["harness.other_s"])
