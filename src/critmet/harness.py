"""Sweep orchestration: config parsing, grid execution, CSV/manifest output,
exponent-fit and bound-verification passes over result files.

A run produces one row per (η, T) grid point.  The pool's unit of work is
a row group: at finite η a quench or adiabatic ramp, whose g(t) does not
depend on T, puts all its T values in one group, computed by one Fock run
sampled at every T; any other row is a group of its own.  Groups run on a
fixed-size worker pool, and their rows are buffered and emitted in grid
order, so the CSV is byte-identical for identical configs regardless of
scheduling.  Wall times and truncations go to the manifest only, never
into the CSV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import bound_for_estimand
from .gaussian import (BlowUpError, Trajectory, evolve_sensitivity,
                       qfi_squeezed, snr)
# qfi_fock is not called here: sweepbench/tracer.py times harness.qfi_fock
# and harness.propagate by attribute name, and needs both to exist.
from .fock import TruncationOverflow, observables_fock, propagate, qfi_fock  # noqa: F401
from .integrate import numba_version
from .models import (AdiabaticRamp, DirectParams, EffectiveParams, FiniteRamp,
                     LMGParams, QuantumRabiParams, QuarticKind, SuddenQuench,
                     estimand, map_direct, map_lmg, map_quantum_rabi,
                     rabi_coupling_for_g)
from .scaling import fit_exponent, regime_boundaries

CSV_COLUMNS = ("protocol", "estimand", "eta", "T", "I_x", "Q_x",
               "bound_I", "ratio", "N_final", "regime", "error")

DOMINANCE_RTOL = 1e-6


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending field."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    name: str
    model: dict
    protocol: dict
    estimand: str
    t_grid: dict          # {"min", "max", "points"}; values in units of 1/ω
    eta: tuple            # numbers and/or "inf"
    tol: float = 1e-10
    samples: int = 257
    nmax: int | None = None
    workers: int = 1

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _need(d: dict, key: str, kinds, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing field {key!r}")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise ConfigError(f"{where}.{key}: expected {kinds}, got {type(v).__name__}")
    return v


def _int_at_least(raw: dict, key: str, default, least: int) -> int:
    v = raw.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < least:
        raise ConfigError(f"{key}: need an integer >= {least}, got {v!r}")
    return v


def parse_config(raw: dict) -> RunConfig:
    """Validate a config mapping with field-level diagnostics."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    name = _need(raw, "name", str, "config")
    model = _need(raw, "model", dict, "config")
    protocol = _need(raw, "protocol", dict, "config")
    est = _need(raw, "estimand", str, "config")
    grid = _need(raw, "t_grid", dict, "config")
    for k in ("min", "max"):
        if not math.isfinite(_need(grid, k, (int, float), "t_grid")):
            raise ConfigError(f"t_grid.{k}: need a finite number, got {grid[k]!r}")
    if grid["min"] <= 0 or grid["max"] < grid["min"]:
        raise ConfigError("t_grid: need 0 < min <= max")
    points = _need(grid, "points", int, "t_grid")
    if points < 1:
        raise ConfigError(f"t_grid.points: grid must be non-empty, got {points}")
    etas = raw.get("eta", ["inf"])
    if not isinstance(etas, (list, tuple)) or not etas:
        raise ConfigError("eta: need a non-empty list of numbers or 'inf'")
    eta_t = []
    for v in etas:
        if v == "inf":
            eta_t.append("inf")
        elif isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 1:
            eta_t.append(float(v))
        else:
            raise ConfigError(f"eta: bad entry {v!r}")
    tol = raw.get("tol", 1e-10)
    if (not isinstance(tol, (int, float)) or isinstance(tol, bool)
            or not math.isfinite(tol) or tol <= 0):
        raise ConfigError(f"tol: need a finite number > 0, got {tol!r}")
    samples = _int_at_least(raw, "samples", 257, 33)
    workers = _int_at_least(raw, "workers", 1, 1)
    nmax = raw.get("nmax")
    if nmax is not None:
        nmax = _int_at_least(raw, "nmax", None, 16)
    cfg = RunConfig(name=name, model=model, protocol=protocol, estimand=est,
                    t_grid={"min": float(grid["min"]), "max": float(grid["max"]),
                            "points": points},
                    eta=tuple(eta_t), tol=float(tol), samples=samples,
                    nmax=nmax, workers=workers)
    # fail fast on unbuildable model/protocol/estimand combinations
    try:
        eff = build_effective(cfg.model, cfg.eta[0])
        sch = build_schedule(cfg.protocol, eff, T=cfg.t_grid["max"] / eff.omega)
        estimand(eff, cfg.estimand)
        _ = sch
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Parse the JSON config at ``path``, with ``overrides`` replacing its
    top-level fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    if isinstance(raw, dict):
        raw.update(overrides)
    return parse_config(raw)


def build_effective(model: dict, eta) -> EffectiveParams:
    kind = _need(model, "kind", str, "model")
    eta_v = math.inf if eta == "inf" else float(eta)
    if kind == "rabi":
        omega = float(_need(model, "omega", (int, float), "model"))
        g = float(_need(model, "g", (int, float), "model"))
        Omega = omega * eta_v
        if math.isinf(eta_v):
            # thermodynamic limit of the QR chain: keep finite back-reference
            # values for the chain rule by pinning Omega at a reference ratio
            Omega = omega * 1e8
        lam = rabi_coupling_for_g(omega, Omega, g)
        eff = map_quantum_rabi(QuantumRabiParams(omega=omega, Omega=Omega, lam=lam))
        if math.isinf(eta_v):
            eff = EffectiveParams(omega=eff.omega, eta=math.inf, g=eff.g,
                                  quartic=eff.quartic, physical=eff.physical)
        return eff
    if kind == "lmg":
        h = float(_need(model, "h", (int, float), "model"))
        g = float(_need(model, "g", (int, float), "model"))
        if math.isinf(eta_v):
            eff = map_lmg(LMGParams(h=h, Lam=h * g * g, N=1e8))
            return EffectiveParams(omega=eff.omega, eta=math.inf, g=eff.g,
                                   quartic=eff.quartic, physical=eff.physical)
        return map_lmg(LMGParams(h=h, Lam=h * g * g, N=eta_v))
    if kind == "direct":
        omega = float(_need(model, "omega", (int, float), "model"))
        g = float(_need(model, "g", (int, float), "model"))
        quartic = QuarticKind(model.get("quartic", "qr"))
        return map_direct(DirectParams(omega=omega, eta=eta_v, g=g, quartic=quartic))
    raise ConfigError(f"model.kind: unknown kind {kind!r}")


def build_schedule(protocol: dict, eff: EffectiveParams, T: float):
    kind = _need(protocol, "kind", str, "protocol")
    if kind == "quench":
        return SuddenQuench(g_f=eff.g, T=T)
    if kind == "adiabatic":
        phi = float(_need(protocol, "phi_ad", (int, float), "protocol"))
        return AdiabaticRamp(phi_ad=phi, omega=eff.omega, T=T)
    if kind == "ramp":
        r = float(_need(protocol, "r", (int, float), "protocol"))
        return FiniteRamp(r=r, T=T)
    raise ConfigError(f"protocol.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------

@dataclass
class ResultRow:
    protocol: str
    estimand: str
    eta: float | str
    T: float
    I_x: float | None
    Q_x: float | None
    bound_I: float | None
    N_final: float | None
    regime: str
    error: str = ""
    nmax: int | None = None   # Fock truncation used (manifest only)

    def csv_values(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, str):
                return v
            return f"{v:.17g}"
        ratio = ""
        if self.bound_I and self.I_x:
            ratio = f"{self.bound_I / self.I_x:.17g}"
        return [self.protocol, self.estimand, fmt(self.eta), fmt(self.T),
                fmt(self.I_x), fmt(self.Q_x), fmt(self.bound_I), ratio,
                fmt(self.N_final), self.regime, self.error]


def _grid_times(cfg: RunConfig, omega: float) -> np.ndarray:
    g = cfg.t_grid
    if g["points"] == 1:
        return np.array([g["max"] / omega])
    return np.geomspace(g["min"], g["max"], int(g["points"])) / omega


# Protocols whose g(t) does not depend on T: at finite η all rows of one η
# are samples of one Fock run to the longest T, and form one pool task.
_SHARED_RUN = ("quench", "adiabatic")


def _run_group(args: tuple) -> list[ResultRow]:
    cfg_raw, eta, Ts = args
    cfg = RunConfig(**cfg_raw)
    eff = build_effective(cfg.model, eta)
    tag = estimand(eff, cfg.estimand)
    rows = []
    for T in Ts:
        sch = build_schedule(cfg.protocol, eff, T)
        report = regime_boundaries(eff, sch)
        rows.append(ResultRow(protocol=report.protocol, estimand=cfg.estimand,
                              eta=eta, T=T, I_x=None, Q_x=None, bound_I=None,
                              N_final=None, regime=report.label(eff.omega * T)))
    if eff.is_thermodynamic:
        (row,) = rows               # sch is this row's schedule
        _gaussian_row(cfg, eff, tag, row, sch)
    else:
        _fock_rows(cfg, eff, tag, rows)
    return rows


def _failed(row: ResultRow, exc: Exception) -> None:
    row.error = f"{type(exc).__name__}: {exc}"


def _gaussian_row(cfg: RunConfig, eff, tag, row: ResultRow, sch) -> None:
    try:
        straj = evolve_sensitivity(sch, tag, eff, tol=cfg.tol,
                                   t_samples=_bound_grid(row.T, cfg.samples))
        ix = qfi_squeezed(straj.final())
        traj = Trajectory(t=straj.t, b=np.array(straj.b), schedule=sch,
                          omega=eff.omega, tol=cfg.tol, nsteps=0)
        rep = bound_for_estimand(traj, eff, tag)
        row.I_x = ix
        row.Q_x = snr(tag, ix)
        row.bound_I = rep.bound
        row.N_final = traj.final_state.n_photons
    except (BlowUpError, ValueError, RuntimeError) as exc:
        _failed(row, exc)


def _fock_rows(cfg: RunConfig, eff, tag, rows: list[ResultRow]) -> None:
    """One :func:`propagate` run to the last row's T, sampled at every row's
    T, gives each row its I_x and N_final.  An overflow at t_b fails the
    rows with T >= t_b (the last row always) and the rest run again."""
    while rows:
        sch = build_schedule(cfg.protocol, eff, rows[-1].T)
        try:
            res = propagate(sch, eff, x=tag, nmax=cfg.nmax,
                            tol=min(cfg.tol, 1e-9),
                            t_samples=np.array([r.T for r in rows]))
        except TruncationOverflow as exc:
            kept = [r for r in rows[:-1] if r.T < exc.t]
            for row in rows[len(kept):]:
                _failed(row, exc)
            rows = kept
            continue
        except (ValueError, RuntimeError) as exc:
            for row in rows:
                _failed(row, exc)
            return
        for row, ix, amp in zip(rows, res.qfi, res.states):
            row.I_x = float(ix)
            row.Q_x = snr(tag, row.I_x)
            row.N_final = observables_fock(amp).n
            row.nmax = res.nmax
        return


def _bound_grid(T: float, samples: int) -> np.ndarray:
    from .gaussian import geometric_times
    return geometric_times(T, samples)


def run(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Execute the grid and write results.csv + manifest.json.

    Per-point failures are recorded in-row (error column) and never abort
    the sweep.  Returns the results path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    tasks = []          # (config, η, row times) per row group, grid order
    for eta in cfg.eta:
        eff = build_effective(cfg.model, eta)
        Ts = tuple(float(T) for T in _grid_times(cfg, eff.omega))
        if eta != "inf" and cfg.protocol["kind"] in _SHARED_RUN:
            tasks.append((asdict(cfg), eta, Ts))
        else:
            tasks.extend((asdict(cfg), eta, (T,)) for T in Ts)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            groups = list(pool.map(_run_group, tasks, chunksize=1))
    else:
        groups = [_run_group(t) for t in tasks]
    rows = [row for group in groups for row in group]

    results = out / "results.csv"
    with open(results, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for row in rows:
            w.writerow(row.csv_values())

    import scipy

    numba = numba_version()
    regimes = {}
    for eta in cfg.eta:
        eff = build_effective(cfg.model, eta)
        sch = build_schedule(cfg.protocol, eff, cfg.t_grid["max"] / eff.omega)
        regimes[str(eta)] = regime_boundaries(eff, sch).as_dict()

    manifest = {
        "config": json.loads(cfg.canonical_json()),
        "config_sha256": cfg.digest(),
        "backend": "python" if numba is None else "numba",
        "versions": {"critmet": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "numba": numba},
        "rows": len(rows),
        "failures": sum(1 for r in rows if r.error),
        "regimes": regimes,
        # truncation each finite-η row ended at after doublings (null: failed)
        "fock_nmax": {str(eta): [r.nmax for r in rows if r.eta == eta]
                      for eta in cfg.eta if eta != "inf"},
        "wall_time_s": time.perf_counter() - t_start,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results


# ---------------------------------------------------------------------------
# fit and verification passes over result files
# ---------------------------------------------------------------------------

def read_results(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ConfigError(f"{path}: missing columns {sorted(missing)}")
        return list(reader)


def fit_results(path: str | Path, window: tuple[float, float],
                out_path: str | Path | None = None) -> list[dict]:
    """Fit Q ∝ T^β per (protocol, estimand, η) group; optionally write CSV."""
    rows = read_results(path)
    groups: dict[tuple, list] = {}
    for r in rows:
        if r["error"] or not r["Q_x"]:
            continue
        groups.setdefault((r["protocol"], r["estimand"], r["eta"]), []).append(
            (float(r["T"]), float(r["Q_x"])))
    fits = []
    for (proto, est, eta), pts in sorted(groups.items()):
        pts.sort()
        T = np.array([p[0] for p in pts])
        Q = np.array([p[1] for p in pts])
        try:
            f = fit_exponent(T, Q, window)
        except ValueError as exc:
            fits.append({"protocol": proto, "estimand": est, "eta": eta,
                         "window_lo": window[0], "window_hi": window[1],
                         "beta": "", "stderr": "", "error": str(exc)})
            continue
        fits.append({"protocol": proto, "estimand": est, "eta": eta,
                     "window_lo": f.window[0], "window_hi": f.window[1],
                     "beta": f.beta, "stderr": f.stderr, "error": ""})
    if out_path is not None:
        cols = ["protocol", "estimand", "eta", "window_lo", "window_hi",
                "beta", "stderr", "error"]
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols, lineterminator="\n")
            w.writeheader()
            for f in fits:
                w.writerow(f)
    return fits


def verify_bounds(path: str | Path) -> list[dict]:
    """List rows where the recorded QFI exceeds its bound beyond tolerance."""
    rows = read_results(path)
    violations = []
    for i, r in enumerate(rows):
        if r["error"] or not r["bound_I"] or not r["I_x"]:
            continue
        ix, bound = float(r["I_x"]), float(r["bound_I"])
        if ix > bound * (1.0 + DOMINANCE_RTOL):
            violations.append({"row": i, "T": r["T"], "eta": r["eta"],
                               "I_x": ix, "bound_I": bound,
                               "margin": ix / bound - 1.0})
    return violations


# ---------------------------------------------------------------------------
# bundled presets (desk-scale reproductions of the figure experiments)
# ---------------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    "fig2-quench-state": {
        "name": "fig2-quench-state",
        "model": {"kind": "rabi", "omega": 1.0, "g": 0.894427190999915878},
        "protocol": {"kind": "quench"},
        "estimand": "lambda",
        "t_grid": {"min": 0.2, "max": 40.0, "points": 48},
        "eta": ["inf"],
    },
    "fig3-quench": {
        "name": "fig3-quench",
        "model": {"kind": "rabi", "omega": 1.0, "g": 1.0},
        "protocol": {"kind": "quench"},
        "estimand": "lambda",
        "t_grid": {"min": 0.5, "max": 500.0, "points": 44},
        "eta": ["inf"],
    },
    "fig3-quench-omega": {
        "name": "fig3-quench-omega",
        "model": {"kind": "rabi", "omega": 1.0, "g": 1.0},
        "protocol": {"kind": "quench"},
        "estimand": "omega",
        "t_grid": {"min": 0.5, "max": 500.0, "points": 44},
        "eta": ["inf"],
    },
    "fig4-quench-finite": {
        "name": "fig4-quench-finite",
        "model": {"kind": "rabi", "omega": 1.0, "g": 1.0},
        "protocol": {"kind": "quench"},
        "estimand": "lambda",
        "t_grid": {"min": 2.0, "max": 60.0, "points": 12},
        "eta": [100.0],
        "nmax": 512,
    },
    "fig5-adiabatic": {
        "name": "fig5-adiabatic",
        "model": {"kind": "rabi", "omega": 1.0, "g": 1.0},
        "protocol": {"kind": "adiabatic", "phi_ad": 0.01},
        "estimand": "lambda",
        "t_grid": {"min": 10.0, "max": 10000.0, "points": 37},
        "eta": ["inf"],
    },
    "fig6-quench-plateaus": {
        "name": "fig6-quench-plateaus",
        "model": {"kind": "rabi", "omega": 1.0, "g": 0.948683298050513768},
        "protocol": {"kind": "quench"},
        "estimand": "omega",
        "t_grid": {"min": 1.0, "max": 1000.0, "points": 52},
        "eta": ["inf"],
    },
    "fig7-kz": {
        "name": "fig7-kz",
        "model": {"kind": "rabi", "omega": 1.0, "g": 1.0},
        "protocol": {"kind": "ramp", "r": 2.0},
        "estimand": "omega",
        "t_grid": {"min": 10.0, "max": 10000.0, "points": 25},
        "eta": ["inf"],
    },
    "fig8-saturation": {
        "name": "fig8-saturation",
        "model": {"kind": "rabi", "omega": 1.0, "g": 1.0},
        "protocol": {"kind": "adiabatic", "phi_ad": 0.05},
        "estimand": "omega",
        "t_grid": {"min": 20.0, "max": 600.0, "points": 10},
        "eta": [100.0],
        "nmax": 160,
    },
}
