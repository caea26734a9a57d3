"""Per-module timing of a sweep by wrapping critmet's functions from outside.

A traced sweep runs in one process.  Each wrapper counts its calls and the
wall time spent inside them; ``integrate`` and ``propagate`` also add the
work counters of the result they return.  Times are inclusive: the
``integrate`` time is part of the ``evolve_sensitivity`` time that called
it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Functions the harness calls directly; their time is not "other".
_TOP_LEVEL = ("scaling.regime_boundaries", "gaussian.evolve_sensitivity",
              "bounds.bound_for_estimand", "fock.qfi_fock", "fock.propagate")

PER_LAYER = (
    ("harness.parse_config_s", "s", "lower"),
    ("harness.rows", "count", "higher"),
    ("harness.other_s", "s", "lower"),
    ("scaling.regime_boundaries_s", "s", "lower"),
    ("models.schedule_value.calls", "count", "lower"),
    ("models.schedule_value_s", "s", "lower"),
    ("gaussian.evolve_sensitivity.calls", "count", "lower"),
    ("gaussian.evolve_sensitivity_s", "s", "lower"),
    ("integrate.integrate_s", "s", "lower"),
    ("integrate.steps", "count", "lower"),
    ("integrate.rejected", "count", "lower"),
    ("integrate.rhs_evals", "count", "lower"),
    ("integrate.us_per_step", "us", "lower"),
    ("bounds.bound_for_estimand.calls", "count", "lower"),
    ("bounds.bound_for_estimand_s", "s", "lower"),
    ("fock.qfi_fock.calls", "count", "lower"),
    ("fock.qfi_fock_s", "s", "lower"),
    ("fock.propagate.calls", "count", "lower"),
    ("fock.propagate_s", "s", "lower"),
    ("fock.propagate.steps", "count", "lower"),
    ("fock.eig_banded.calls", "count", "lower"),
    ("fock.eig_banded_s", "s", "lower"),
    ("fock.eigh_tridiagonal.calls", "count", "lower"),
    ("fock.eigh_tridiagonal_s", "s", "lower"),
    ("trace.untraced_sweep_s", "s", "lower"),
    ("trace.traced_sweep_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Installs timing wrappers on critmet's module attributes; ``remove``
    puts the originals back."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._saved: list = []

    def install(self) -> None:
        from critmet import fock, gaussian, harness

        def integrate_counts(res):
            self.counts["integrate.steps"] += res.nsteps
            self.counts["integrate.rejected"] += res.nrejected
            self.counts["integrate.rhs_evals"] += res.nfev

        def propagate_counts(res):
            self.counts["fock.propagate.steps"] += res.nsteps

        for module, attr, key, on_result in (
                (harness, "parse_config", "harness.parse_config", None),
                (harness, "regime_boundaries", "scaling.regime_boundaries", None),
                (harness, "evolve_sensitivity", "gaussian.evolve_sensitivity", None),
                (harness, "bound_for_estimand", "bounds.bound_for_estimand", None),
                (harness, "qfi_fock", "fock.qfi_fock", None),
                (harness, "propagate", "fock.propagate", propagate_counts),
                (gaussian, "integrate", "integrate.integrate", integrate_counts),
                (gaussian, "schedule_value", "models.schedule_value", None),
                (fock, "schedule_value", "models.schedule_value", None),
                (fock, "eig_banded", "fock.eig_banded", None),
                (fock, "eigh_tridiagonal", "fock.eigh_tridiagonal", None)):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(key, original, on_result))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, key, fn, on_result):
        calls, seconds = self.calls, self.seconds
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0
                calls[key] += 1
            if on_result is not None:
                on_result(return_value)
            return return_value

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, *, rows: int, traced_sweep_s: float,
                untraced_sweep_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, from the counts of one traced sweep."""
        c, s, n = self.calls, self.seconds, self.counts
        steps = n["integrate.steps"]
        values = {
            "harness.parse_config_s": s["harness.parse_config"],
            "harness.rows": rows,
            "harness.other_s": traced_sweep_s - sum(s[k] for k in _TOP_LEVEL),
            "integrate.integrate_s": s["integrate.integrate"],
            "integrate.us_per_step": 1e6 * s["integrate.integrate"] / steps if steps else 0.0,
            "trace.untraced_sweep_s": untraced_sweep_s,
            "trace.traced_sweep_s": traced_sweep_s,
            "trace.overhead_s": traced_sweep_s - untraced_sweep_s,
        }
        for name in ("integrate.steps", "integrate.rejected",
                     "integrate.rhs_evals", "fock.propagate.steps"):
            values[name] = n[name]
        for name, _, _ in PER_LAYER:
            if name in values:
                continue
            if name.endswith(".calls"):
                values[name] = c[name[:-len(".calls")]]
            else:
                values[name] = s[name[:-len("_s")]]
        return {name: values[name] for name, _, _ in PER_LAYER}
