"""Thermodynamic-limit (η = ∞) squeezing dynamics and the squeezed-state QFI.

At η = ∞ the Hamiltonian is quadratic, so the state stays a vacuum squeezed
state exp[b a†²]|0⟩ (normalized) for all protocols starting from vacuum.
The complex squeezing parameter obeys the decoupled Riccati equation

    db/dt = -i ω ( -g²/4 + (2 - g²) b - g² b² ),

with b(0) = 0.  Everything observable follows from b and its parameter
derivative: N = 4|b|²/(1-4|b|²) and I_x = 8|∂_x b|²/(1-4|b|²)².

State is kept as b (the equation is polynomial in b, and the squeezing
angle θ = arg b is undefined at b = 0).  Parameter sensitivities are
integrated as a forward (tangent) system alongside b; finite differences
are used only as test oracles.

Every evolution, single or batched, is stepped by one DOP853 kernel
through :func:`critmet.integrate.integrate`: jitted when numba imports,
run as plain Python otherwise, with the same numbers either way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrate import BlowUpError, IntegrationResult, integrate
from .models import (AdiabaticRamp, CouplingSchedule, EffectiveParams,
                     EstimandTag, FiniteRamp, SuddenQuench, chain_rule,
                     schedule_value)

NORMALIZABILITY_FLOOR = 1e-12
"""Integration aborts once 1 - 4|b|² drops below this: N and the QFI both
diverge there and the Gaussian description has left its window of validity."""


# ---------------------------------------------------------------------------
# squeezed states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqueezingState:
    """Vacuum squeezed state, parameterized by b = tanh(|z|) e^{iθ} / 2."""

    b: complex

    def __post_init__(self):
        if not abs(self.b) < 0.5:
            raise ValueError("|b| must be < 1/2 for a normalizable state")

    @property
    def z_magnitude(self) -> float:
        return math.atanh(2.0 * abs(self.b))

    @property
    def theta(self) -> float:
        return cmath.phase(self.b)

    @property
    def n_photons(self) -> float:
        b2 = 4.0 * abs(self.b) ** 2
        return b2 / (1.0 - b2)


def ground_state_b(g: float) -> SqueezingState:
    """Ground-state squeezing b = -1/2 + (1 + √(1-g²))^{-1}, θ = 0."""
    if not 0.0 <= g < 1.0:
        raise ValueError("ground state requires 0 <= g < 1 (non-normalizable at g=1)")
    b = -0.5 + 1.0 / (1.0 + math.sqrt(1.0 - g * g))
    return SqueezingState(b=complex(b))


def photon_number(state: SqueezingState | complex) -> float:
    """N = 4|b|²/(1-4|b|²) = sinh²|z|."""
    b = state.b if isinstance(state, SqueezingState) else state
    b2 = 4.0 * abs(b) ** 2
    if b2 >= 1.0:
        raise ValueError("|b| must be < 1/2")
    return b2 / (1.0 - b2)


def riccati_rhs(b: complex, g: float, omega: float) -> complex:
    """Right-hand side of the squeezing equation of motion."""
    g2 = g * g
    return -1j * omega * (-0.25 * g2 + (2.0 - g2) * b - g2 * b * b)


def quench_b_exact(g: float, omega: float, t) -> SqueezingState | np.ndarray:
    """Closed-form b(t) for a sudden quench 0 -> g.

    For g < 1 the motion is periodic with period τ = π/(ω√(1-g²)); at the
    critical point the analytic continuation gives b = ωt/(2(ωt - 2i)) and
    N grows as (ωt)²/4 without bound.  Array input returns an array of b.
    """
    if not 0.0 <= g <= 1.0:
        raise ValueError("quench coupling must lie in [0, 1]")
    scalar = np.isscalar(t)
    wt = np.asarray(t, dtype=float) * omega
    if (wt < 0).any():
        raise ValueError("t must be non-negative")
    if g == 0.0:
        b = np.zeros_like(wt, dtype=complex)
    elif g == 1.0:
        b = np.where(wt == 0, 0.0 + 0.0j, wt / (2.0 * (wt - 2j)))
    else:
        g2 = g * g
        e = math.sqrt(1.0 - g2)
        arg = e * wt - 1j * math.atanh(2.0 * e / (2.0 - g2))
        b = (2.0 - g2) / (2.0 * g2) + 1j * e / (g2 * np.tan(arg))
        b = np.where(wt == 0, 0.0 + 0.0j, b)   # exact at t = 0
    if scalar:
        return SqueezingState(b=complex(b))
    return b


def squeezed_overlap(b1: complex, b2: complex) -> complex:
    """⟨ψ_{b1}|ψ_{b2}⟩ for normalized squeezed vacua (fidelity oracle)."""
    n1 = (1.0 - 4.0 * abs(b1) ** 2) ** 0.25
    n2 = (1.0 - 4.0 * abs(b2) ** 2) ** 0.25
    return n1 * n2 / cmath.sqrt(1.0 - 4.0 * np.conj(b1) * b2)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def geometric_times(T: float, n: int = 512, span: float = 1e4) -> np.ndarray:
    """Sampling grid {0} ∪ geomspace(T/span, T, n-1): dense at small t."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    ts = np.geomspace(T / span, T, n - 1)
    ts[-1] = T
    return np.concatenate(([0.0], ts))


@dataclass(frozen=True)
class Trajectory:
    """Sampled squeezing history of one protocol run."""

    t: np.ndarray
    b: np.ndarray
    schedule: CouplingSchedule
    omega: float
    tol: float
    nsteps: int

    def __post_init__(self):
        self.t.flags.writeable = False
        self.b.flags.writeable = False

    @property
    def n_photons(self) -> np.ndarray:
        b2 = 4.0 * np.abs(self.b) ** 2
        return b2 / (1.0 - b2)

    @property
    def final_state(self) -> SqueezingState:
        return SqueezingState(b=complex(self.b[-1]))

    def coupling(self) -> np.ndarray:
        return np.asarray(schedule_value(self.schedule, self.t), dtype=float)

    def write_csv(self, path) -> None:
        n = self.n_photons
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("t,re_b,im_b,n_photons\n")
            for i in range(self.t.size):
                fh.write(f"{self.t[i]:.17g},{self.b[i].real:.17g},"
                         f"{self.b[i].imag:.17g},{n[i]:.17g}\n")


def _batch_kind(schedules) -> tuple[int, np.ndarray, np.ndarray]:
    """Kernel encoding (kind id, per-protocol parameter, durations)."""
    from . import _fastpath as fp

    kinds = {type(s) for s in schedules}
    if len(kinds) != 1:
        raise ValueError("batched integration requires schedules of one kind")
    kind = kinds.pop()
    Ts = np.array([s.T for s in schedules], dtype=float)
    if kind is SuddenQuench:
        return fp.KIND_QUENCH, np.array([s.g_f ** 2 for s in schedules]), Ts
    if kind is FiniteRamp:
        return fp.KIND_RAMP, np.array([s.r for s in schedules]), Ts
    if kind is AdiabaticRamp:
        return fp.KIND_ADIABATIC, np.array([s.tau_q for s in schedules]), Ts
    raise ValueError(f"unsupported schedule type {kind!r}")


def _drive_batch(schedules, omega: float, rho: np.ndarray, dw: np.ndarray,
                 tol: float, s_eval: np.ndarray,
                 y0: np.ndarray | None = None) -> IntegrationResult:
    """Run the DOP853 kernel over a batch of protocols.

    The samples have shape (len(s_eval), n_protocols, 1 + n_estimands);
    raises :class:`BlowUpError` at the normalizability floor.
    """
    kind, par, Ts = _batch_kind(schedules)
    if y0 is None:
        y0 = np.zeros((len(schedules), 1 + rho.size), dtype=complex)
    return integrate(kind, par, Ts, omega, rho, dw, y0, s_eval, tol=tol,
                     floor=NORMALIZABILITY_FLOOR)


def evolve_b(schedule: CouplingSchedule, omega: float, *, tol: float = 1e-10,
             t_samples: np.ndarray | None = None, samples: int = 512,
             b0: complex = 0.0 + 0.0j) -> Trajectory:
    """Integrate the squeezing equation under ``schedule``.

    Protocols start from the vacuum b(0) = 0 (the default); ``b0`` admits
    other initial squeezed states, e.g. a ground state for stationarity
    checks.  The local error per unit time is kept below ``tol``; the final
    sample lands exactly at t = T.  Raises :class:`BlowUpError` if the
    squeezing reaches the normalizability boundary (critical quench at
    long T).
    """
    _check_omega(schedule, omega)
    if not abs(b0) < 0.5:
        raise ValueError("|b0| must be < 1/2")
    T = schedule.T
    if t_samples is None:
        t_samples = geometric_times(T, samples)
    t_samples = np.asarray(t_samples, dtype=float)
    interior = t_samples[t_samples > 0.0]

    y0 = np.array([[b0]], dtype=complex)
    res = _drive_batch([schedule], omega, np.empty(0), np.empty(0), tol,
                       interior / T, y0)
    b = res.y[:, 0, 0]
    if t_samples[0] == 0.0:
        t_out = t_samples
        b = np.concatenate(([b0], b))
    else:
        t_out = interior
    return Trajectory(t=t_out, b=b, schedule=schedule, omega=omega,
                      tol=tol, nsteps=res.nsteps)


# ---------------------------------------------------------------------------
# parameter sensitivities (forward tangent system)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityState:
    """Squeezing b and its parameter derivative s = ∂b/∂x at one time."""

    b: complex
    db_dx: complex
    estimand: EstimandTag


@dataclass(frozen=True)
class SensitivityTrajectory:
    """b(t) and ∂b/∂x(t) for one or more estimands along one protocol."""

    t: np.ndarray
    b: np.ndarray
    db_dx: np.ndarray          # shape (len(t), n_estimands)
    estimands: tuple[EstimandTag, ...]
    schedule: CouplingSchedule
    omega: float
    tol: float

    def final(self, which: int = 0) -> SensitivityState:
        return SensitivityState(b=complex(self.b[-1]),
                                db_dx=complex(self.db_dx[-1, which]),
                                estimand=self.estimands[which])

    def qfi(self, which: int = 0) -> np.ndarray:
        """I_x(t) along the trajectory."""
        denom = (1.0 - 4.0 * np.abs(self.b) ** 2) ** 2
        return 8.0 * np.abs(self.db_dx[:, which]) ** 2 / denom

    def snr(self, which: int = 0) -> np.ndarray:
        """Q_x(t) = x² I_x(t) along the trajectory."""
        return self.estimands[which].value ** 2 * self.qfi(which)


def _sensitivity_coefficients(e: EffectiveParams,
                              tags: Sequence[EstimandTag]) -> tuple[np.ndarray, np.ndarray]:
    """Per-estimand (relative coupling slope ρ = ∂ln g/∂x, ∂ω/∂x)."""
    rho = np.zeros(len(tags))
    dw = np.zeros(len(tags))
    for i, tag in enumerate(tags):
        dg_dx, dw_dx = chain_rule(tag, e)
        if dg_dx != 0.0:
            if e.g == 0.0:
                raise ValueError("coupling sensitivity undefined for g = 0 protocols")
            rho[i] = dg_dx / e.g
        dw[i] = dw_dx
    return rho, dw


def evolve_sensitivity(schedule: CouplingSchedule, x: EstimandTag | Sequence[EstimandTag],
                       e: EffectiveParams, *, tol: float = 1e-10,
                       t_samples: np.ndarray | None = None) -> SensitivityTrajectory:
    """Integrate {b, ∂b/∂x} from (0, 0) under ``schedule``.

    The estimand enters through the chain rule: the coupling profile scales
    multiplicatively with the target (∂g(t)/∂x = g(t) ∂ln g/∂x, exact for
    the power-law parameter maps), and ω rescales the whole generator.
    Several estimands may be integrated side by side.
    """
    tags = (x,) if isinstance(x, EstimandTag) else tuple(x)
    _check_omega(schedule, e.omega)
    if abs(schedule.target_g - e.g) > 1e-12:
        raise ValueError(
            f"schedule target g={schedule.target_g} does not match EffectiveParams.g={e.g}"
        )
    rho, dw = _sensitivity_coefficients(e, tags)
    T = schedule.T
    if t_samples is None:
        t_samples = np.array([T])
    t_samples = np.asarray(t_samples, dtype=float)
    interior = t_samples[t_samples > 0.0]
    nx = len(tags)

    y = _drive_batch([schedule], e.omega, rho, dw, tol, interior / T).y
    b = y[:, 0, 0]
    s = y[:, 0, 1:]
    if t_samples[0] == 0.0:
        b = np.concatenate(([0.0 + 0.0j], b))
        s = np.vstack([np.zeros((1, nx), dtype=complex), s])
        t_out = t_samples
    else:
        t_out = interior
    return SensitivityTrajectory(t=t_out, b=b, db_dx=s, estimands=tags,
                                 schedule=schedule, omega=e.omega, tol=tol)


def evolve_sensitivity_many(schedules: Sequence[CouplingSchedule],
                            x: EstimandTag | Sequence[EstimandTag],
                            e: EffectiveParams, *, tol: float = 1e-10,
                            s_samples: np.ndarray | None = None):
    """Batch of protocols integrated together in scaled time s = t/T.

    All protocols share the step sequence (error-controlled on the worst
    component), which makes families of finite-time ramps with different T
    cheap.  Returns ``(final_states, n_photons)`` where ``final_states`` is
    a list of per-schedule lists of :class:`SensitivityState` and
    ``n_photons`` has shape (len(s_samples), n_schedules) for the bound
    integrals (s_samples defaults to a 257-point grid on [0, 1]).
    """
    tags = (x,) if isinstance(x, EstimandTag) else tuple(x)
    for sch in schedules:
        _check_omega(sch, e.omega)
        if abs(sch.target_g - e.g) > 1e-12:
            raise ValueError("schedule target does not match EffectiveParams.g")
    rho, dw = _sensitivity_coefficients(e, tags)
    n = len(schedules)
    nx = len(tags)
    if s_samples is None:
        s_samples = np.linspace(0.0, 1.0, 257)
    s_samples = np.asarray(s_samples, dtype=float)
    interior = s_samples[s_samples > 0.0]

    y_samp = _drive_batch(schedules, e.omega, rho, dw, tol, interior).y
    if s_samples[0] == 0.0:
        y_samp = np.concatenate([np.zeros((1, n, 1 + nx), dtype=complex), y_samp])
    b_samp = y_samp[:, :, 0]
    b2 = 4.0 * np.abs(b_samp) ** 2
    n_photons = b2 / (1.0 - b2)

    finals = []
    for i in range(n):
        states = [SensitivityState(b=complex(y_samp[-1, i, 0]),
                                   db_dx=complex(y_samp[-1, i, 1 + k]),
                                   estimand=tags[k]) for k in range(nx)]
        finals.append(states)
    return finals, n_photons


def _check_omega(schedule: CouplingSchedule, omega: float) -> None:
    if isinstance(schedule, AdiabaticRamp) and not math.isclose(schedule.omega, omega):
        raise ValueError("AdiabaticRamp was built for a different omega")


# ---------------------------------------------------------------------------
# QFI and SNR
# ---------------------------------------------------------------------------

def qfi_squeezed(state: SensitivityState) -> float:
    """I_x = 8 |∂_x b|² / (1 - 4|b|²)² for a squeezed vacuum."""
    one_m = 1.0 - 4.0 * abs(state.b) ** 2
    if one_m <= 0:
        raise ValueError("|b| must be < 1/2")
    return 8.0 * abs(state.db_dx) ** 2 / one_m ** 2


def snr(x: EstimandTag | float, qfi: float) -> float:
    """Squared signal-to-noise ratio Q_x = x² I_x."""
    if qfi < 0:
        raise ValueError("QFI must be non-negative")
    value = x.value if isinstance(x, EstimandTag) else x
    return value * value * qfi
