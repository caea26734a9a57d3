"""Thermodynamic-limit (η = ∞) squeezing dynamics and the squeezed-state QFI.

At η = ∞ the Hamiltonian is quadratic, so the state stays a vacuum squeezed
state exp[b a†²]|0⟩ (normalized) for all protocols starting from vacuum.
The complex squeezing parameter obeys the decoupled Riccati equation

    db/dt = -i ω ( -g²/4 + (2 - g²) b - g² b² ),

with b(0) = 0.  Everything observable follows from b and its parameter
derivative: N = 4|b|²/(1-4|b|²) and I_x = 8|∂_x b|²/(1-4|b|²)².

State is kept as b (the equation is polynomial in b, and the squeezing
angle θ = arg b is undefined at b = 0).  A sudden quench is closed form.
Ramps integrate b with its parameter sensitivities (the forward tangent
system) by one DOP853 kernel through :func:`critmet.integrate.integrate`,
jitted when numba imports and plain Python otherwise.  Finite differences
are used only as test oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrate import BlowUpError, integrate
from .models import (AdiabaticRamp, CouplingSchedule, EffectiveParams,
                     EstimandTag, FiniteRamp, SuddenQuench, chain_rule,
                     schedule_value)

NORMALIZABILITY_FLOOR = 1e-12
"""Evolution aborts once 1 - 4|b|² drops below this: N and the QFI both
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


def _kernel_kind(schedule: CouplingSchedule) -> tuple[int, float]:
    """Kernel encoding (kind id, schedule parameter) of a ramp."""
    from . import _fastpath as fp

    if isinstance(schedule, FiniteRamp):
        return fp.KIND_RAMP, schedule.r
    if isinstance(schedule, AdiabaticRamp):
        return fp.KIND_ADIABATIC, schedule.tau_q
    raise ValueError(f"unsupported schedule type {type(schedule)!r}")


def _sinc_terms(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c = cos√q, s = sin√q/√q and ds/dq = (c - s)/(2q) for q ≥ 0; ds/dq
    is summed as a Taylor series below q = 1/2, where (c - s) cancels."""
    c = np.cos(np.sqrt(q))
    s = np.sinc(np.sqrt(q) / math.pi)
    small = q < 0.5
    series = np.zeros_like(q)
    for n in range(9, 0, -1):
        series = series * np.where(small, q, 0.0) + (-1) ** n * n / math.factorial(2 * n + 1)
    return c, s, np.where(small, series, (c - s) / (2.0 * np.where(small, 1.0, q)))


def _quench_closed_form(g2: float, omega: float, t: np.ndarray, b0: complex,
                        dg2: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """(b, ∂b/∂x) of a sudden quench to g² from b(0) = b0, shape
    (len(t), 1 + len(dw)); dg2 and dw hold ∂(g²)/∂x and ∂ω/∂x per estimand.

    (x, p) evolve by S(t) = [[c, ωt·s], [-ω(1-g²)t·s, c]], q = (ωt)²(1-g²)
    in :func:`_sinc_terms`: a rotation, or the shear at g = 1.  The
    annihilator (1-2b0)x + i(1+2b0)p becomes αx + βp, so
    b = (β - iα)/(2(β + iα)).  ∂S/∂ω = t·AS for dS/dt = ωAS.
    """
    e2 = 1.0 - g2
    u = omega * t
    c, s, ds = _sinc_terms(u * u * e2)
    x = u * s
    S = np.array([[c, x], [-e2 * x, c]])
    S_w = (u / omega) * np.array([[-e2 * x, c], [-e2 * c, -e2 * x]])
    S_g2 = np.array([[0.5 * u * x, -u ** 3 * ds], [0.5 * u * (c + s), 0.5 * u * x]])
    dS = S_w[..., None] * dw + S_g2[..., None] * dg2

    def annihilator(M):
        a1, a2 = 1.0 - 2.0 * b0, 1.0 + 2.0 * b0
        return a1 * M[1, 1] - 1j * a2 * M[1, 0], -a1 * M[0, 1] + 1j * a2 * M[0, 0]

    alpha, beta = annihilator(S)
    d_alpha, d_beta = annihilator(dS)
    w = beta + 1j * alpha
    db = 1j * (alpha[:, None] * d_beta - beta[:, None] * d_alpha) / (w * w)[:, None]
    return np.column_stack([(beta - 1j * alpha) / (2.0 * w), db])


def _blowup_time(g2: float, omega: float, b0: complex, floor: float) -> float:
    """First t at which 1 - 4|b|² of a quench from b0 falls to ``floor``
    (inf if never): √(4/floor - 4)/ω at g = 1 from the vacuum.

    1 - 4|b|² = 4(1 - 4|b0|²)/|w|², w = β + iα = 2ic - pX with X = ωt·s and
    p = (1-2b0) + (1+2b0)(1-g²).  As c² + (1-g²)X² = 1, |w|² = L is a
    quadratic in Y = X/c = ω tan(νt)/ν, ν = ω√(1-g²), and Y sweeps [0, ∞)
    then (-∞, 0) over the period π/ν of |w|².
    """
    e2 = 1.0 - g2
    L = 4.0 * (1.0 - 4.0 * abs(b0) ** 2) / floor
    p = (1.0 - 2.0 * b0) + (1.0 + 2.0 * b0) * e2
    a2, a1, a0 = abs(p) ** 2 - L * e2, -4.0 * p.imag, 4.0 - L
    disc = a1 * a1 - 4.0 * a2 * a0
    q = -0.5 * (a1 + math.copysign(math.sqrt(max(disc, 0.0)), a1))
    if a0 >= 0.0:
        return 0.0
    if disc < 0.0 or q == 0.0:
        return math.inf
    roots = [a0 / q] + ([q / a2] if a2 != 0.0 else [])
    e = math.sqrt(e2)
    y = min([r for r in roots if r >= 0.0], default=None)
    if y is None:      # g < 1, crossing in the second quarter period
        return (math.pi + math.atan(e * min(roots))) / (omega * e)
    return y / omega if e == 0.0 else math.atan(e * y) / (omega * e)


def _evolve(schedule: CouplingSchedule, omega: float, rho: np.ndarray,
            dw: np.ndarray, tol: float, t_samples, b0: complex):
    """(t, y, nsteps): (b, ∂b/∂x) at the sample times t, shape
    (len(t), 1 + len(rho)), and the number of kernel steps taken.

    A quench is closed form; ramps are stepped by the DOP853 kernel.  Raises
    :class:`BlowUpError` once 1 - 4|b|² drops below the normalizability
    floor by the last sample time.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    t_samples = np.asarray(t_samples, dtype=float)
    t = t_samples[t_samples > 0.0]
    y0 = np.zeros(1 + rho.size, dtype=complex)
    y0[0] = b0
    if isinstance(schedule, SuddenQuench):
        g2 = schedule.g_f ** 2
        t_blowup = _blowup_time(g2, omega, b0, NORMALIZABILITY_FLOOR)
        if t.size and t_blowup <= t.max():
            raise BlowUpError(t_blowup)
        y, nsteps = _quench_closed_form(g2, omega, t, b0, 2.0 * g2 * rho, dw), 0
    else:
        kind, par = _kernel_kind(schedule)
        res = integrate(kind, par, schedule.T, omega, rho, dw, y0,
                        t / schedule.T, tol=tol, floor=NORMALIZABILITY_FLOOR)
        y, nsteps = res.y, res.nsteps
    if t_samples[0] == 0.0:
        return t_samples, np.vstack([y0, y]), nsteps
    return t, y, nsteps


def evolve_b(schedule: CouplingSchedule, omega: float, *, tol: float = 1e-10,
             t_samples: np.ndarray | None = None, samples: int = 512,
             b0: complex = 0.0 + 0.0j) -> Trajectory:
    """Evolve the squeezing parameter under ``schedule``.

    Protocols start from the vacuum b(0) = 0 (the default); ``b0`` admits
    other initial squeezed states, e.g. a ground state for stationarity
    checks.  Ramps keep the local error per unit time below ``tol``; a
    quench is exact.  The final sample lands exactly at t = T.  Raises
    :class:`BlowUpError` if the squeezing reaches the normalizability
    boundary (critical quench at long T).
    """
    _check_omega(schedule, omega)
    if not abs(b0) < 0.5:
        raise ValueError("|b0| must be < 1/2")
    if t_samples is None:
        t_samples = geometric_times(schedule.T, samples)
    t, y, nsteps = _evolve(schedule, omega, np.empty(0), np.empty(0), tol,
                           t_samples, b0)
    return Trajectory(t=t, b=y[:, 0], schedule=schedule, omega=omega,
                      tol=tol, nsteps=nsteps)


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
    """Evolve {b, ∂b/∂x} from (0, 0) under ``schedule``.

    The estimand enters through the chain rule: the coupling profile scales
    multiplicatively with the target (∂g(t)/∂x = g(t) ∂ln g/∂x, exact for
    the power-law parameter maps), and ω rescales the whole generator.
    Several estimands may be evolved side by side.
    """
    tags = (x,) if isinstance(x, EstimandTag) else tuple(x)
    _check_omega(schedule, e.omega)
    if abs(schedule.target_g - e.g) > 1e-12:
        raise ValueError(
            f"schedule target g={schedule.target_g} does not match EffectiveParams.g={e.g}"
        )
    rho, dw = _sensitivity_coefficients(e, tags)
    if t_samples is None:
        t_samples = np.array([schedule.T])
    t, y, _ = _evolve(schedule, e.omega, rho, dw, tol, t_samples, 0.0 + 0.0j)
    return SensitivityTrajectory(t=t, b=y[:, 0], db_dx=y[:, 1:], estimands=tags,
                                 schedule=schedule, omega=e.omega, tol=tol)


def evolve_sensitivity_many(schedules: Sequence[CouplingSchedule],
                            x: EstimandTag | Sequence[EstimandTag],
                            e: EffectiveParams, *, tol: float = 1e-10,
                            s_samples: np.ndarray | None = None):
    """:func:`evolve_sensitivity` over a family of protocols, one by one.

    Returns ``(final_states, n_photons)``: per-schedule lists of
    :class:`SensitivityState`, and N of shape (len(s_samples), n_schedules)
    at the scaled times s = t/T (default: 257 points on [0, 1]).
    """
    tags = (x,) if isinstance(x, EstimandTag) else tuple(x)
    if s_samples is None:
        s_samples = np.linspace(0.0, 1.0, 257)
    s_samples = np.asarray(s_samples, dtype=float)
    finals, n_photons = [], []
    for sch in schedules:
        straj = evolve_sensitivity(sch, tags, e, tol=tol,
                                   t_samples=s_samples * sch.T)
        finals.append([straj.final(k) for k in range(len(tags))])
        b2 = 4.0 * np.abs(straj.b) ** 2
        n_photons.append(b2 / (1.0 - b2))
    return finals, np.array(n_photons).T


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
