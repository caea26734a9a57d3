"""Sweep configs of the three benchmark workloads, generated from a seed.

The program under test receives only these configs.  A seed moves the ends
of each T grid by up to ``SHIFT`` (relative), so no change can be tuned to
fixed grid points; the same seed always gives the same configs.
"""

from __future__ import annotations

import copy
import random

SHIFT = 0.02

_RABI_CRITICAL = {"kind": "rabi", "omega": 1.0, "g": 1.0}

# Each entry: (config, workers, whether the seed may move the lower end).
# The quench presets are copied from critmet's bundled fig2/fig3 presets so
# that a later edit of the presets cannot change what this workload runs.
_BASE = {
    "quench-sweep": [
        ({"name": "fig2-quench-state",
          "model": {"kind": "rabi", "omega": 1.0, "g": 0.894427190999915878},
          "protocol": {"kind": "quench"}, "estimand": "lambda",
          "t_grid": {"min": 0.2, "max": 40.0, "points": 48},
          "eta": ["inf"]}, 2, True),
        ({"name": "fig3-quench", "model": _RABI_CRITICAL,
          "protocol": {"kind": "quench"}, "estimand": "lambda",
          "t_grid": {"min": 0.5, "max": 500.0, "points": 44},
          "eta": ["inf"]}, 2, True),
        ({"name": "fig3-quench-omega", "model": _RABI_CRITICAL,
          "protocol": {"kind": "quench"}, "estimand": "omega",
          "t_grid": {"min": 0.5, "max": 500.0, "points": 44},
          "eta": ["inf"]}, 2, True),
    ],
    "ramp-sweep": [
        # fig7-kz cut to ωT <= 1e3: every row is its own real-time trajectory
        ({"name": "kz-ramp-r2", "model": _RABI_CRITICAL,
          "protocol": {"kind": "ramp", "r": 2.0}, "estimand": "omega",
          "t_grid": {"min": 10.0, "max": 1000.0, "points": 4},
          "eta": ["inf"]}, 1, True),
        # fig5-adiabatic cut to ωT <= 1e3: all rows share one g(t)
        ({"name": "adiabatic-phi0.01", "model": _RABI_CRITICAL,
          "protocol": {"kind": "adiabatic", "phi_ad": 0.01},
          "estimand": "lambda",
          "t_grid": {"min": 10.0, "max": 1000.0, "points": 5},
          "eta": ["inf"]}, 1, True),
    ],
    "fock-sweep": [
        # acceptance criterion 10 cut to 6 rows: spectral path, eig_banded
        ({"name": "fock-quench-eta1e3", "model": _RABI_CRITICAL,
          "protocol": {"kind": "quench"}, "estimand": "lambda",
          "t_grid": {"min": 1.0, "max": 300.0, "points": 6},
          "eta": [1000.0], "nmax": 1024}, 1, True),
        # fig8-saturation cut to 4 rows: Lanczos-Krylov path.  Its shortest
        # row is checked against a dense propagation and fails that check
        # on every run (see README), so its T stays fixed across seeds.
        ({"name": "fock-adiabatic-eta100", "model": _RABI_CRITICAL,
          "protocol": {"kind": "adiabatic", "phi_ad": 0.05},
          "estimand": "omega",
          "t_grid": {"min": 20.0, "max": 200.0, "points": 4},
          "eta": [100.0], "nmax": 160}, 1, False),
    ],
}

WORKLOADS = tuple(_BASE)


def make_configs(workload: str, seed: int, *, workers: int | None = None) -> list[dict]:
    """Raw config mappings for ``workload``; ``workers`` overrides the
    workload's own pool size (the traced mode runs everything in-process)."""
    if workload not in _BASE:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    configs = []
    for base, pool, shift_min in _BASE[workload]:
        cfg = copy.deepcopy(base)
        lo = 1.0 + rng.uniform(-SHIFT, SHIFT)
        hi = 1.0 + rng.uniform(-SHIFT, SHIFT)
        if shift_min:
            cfg["t_grid"]["min"] *= lo
        cfg["t_grid"]["max"] *= hi
        cfg["workers"] = pool if workers is None else workers
        configs.append(cfg)
    return configs
