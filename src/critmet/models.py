"""Physical models, the effective quartic-oscillator parameters, coupling
schedules and the physical-parameter chain rule.

Conventions
-----------
- hbar = 1; quadratures x = (a + a†)/√2, p = i(a† − a)/√2.
- The unified low-energy Hamiltonian is
      H = ω [ p²/2 + (1 − g²) x²/2 ] + ω f(g)/η · x⁴,
  with dimensionless coupling 0 ≤ g ≤ 1 (normal phase only; the critical
  point sits at g = 1) and effective size η (η = ∞ is the scaling /
  thermodynamic limit, where the quartic term vanishes).
- QR mapping:  g = 2λ/√(ωΩ), η = Ω/ω, f(g) = g⁴/4.
- LMG mapping: ω = h, g = √(Λ/h), η = N, f(g) = g²/4 (the sub-leading
  x²p² and x² corrections of the reduction are dropped; near g = 1 the
  x⁴ term dominates them).
- Protocols start from the vacuum (ground state at g = 0) and steer g(t)
  towards a target value over a duration T.

All containers are immutable; every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

INFINITE_ETA = math.inf
"""Distinguished effective-size value selecting the exact Gaussian path."""


class QuarticKind(Enum):
    """Shape of the quartic prefactor f(g)."""

    QR = "qr"        # f(g) = g^4 / 4
    LMG = "lmg"      # f(g) = g^2 / 4
    NONE = "none"    # quartic term absent (harmonic emulation)


def quartic_prefactor(kind: QuarticKind, g: float) -> float:
    """f(g) multiplying ω x⁴/η."""
    if kind is QuarticKind.QR:
        return 0.25 * g ** 4
    if kind is QuarticKind.LMG:
        return 0.25 * g ** 2
    return 0.0


# ---------------------------------------------------------------------------
# physical parameter sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumRabiParams:
    """Single spin-boson system: boson frequency ω, qubit frequency Ω,
    coupling λ.  Valid in the dispersive regime ω ≪ Ω."""

    omega: float
    Omega: float
    lam: float

    def __post_init__(self):
        if self.omega <= 0 or self.Omega <= 0:
            raise ValueError("frequencies must be positive")
        if self.lam < 0:
            raise ValueError("coupling lambda must be non-negative")

    @property
    def lam_c(self) -> float:
        """Critical coupling √(ωΩ)/2."""
        return 0.5 * math.sqrt(self.omega * self.Omega)


@dataclass(frozen=True)
class LMGParams:
    """N spins with all-to-all x-x interaction: field h, interaction Λ."""

    h: float
    Lam: float
    N: float

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("field h must be positive")
        if self.Lam < 0:
            raise ValueError("interaction Lambda must be non-negative")
        if self.N < 1:
            raise ValueError("spin count N must be >= 1")


@dataclass(frozen=True)
class DirectParams:
    """Effective-oscillator parameters given directly.

    ``quartic`` chooses the non-linearity family used when η is finite;
    it is irrelevant at η = ∞.
    """

    omega: float
    eta: float
    g: float
    quartic: QuarticKind = QuarticKind.QR

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")


PhysicalParams = Union[QuantumRabiParams, LMGParams, DirectParams]


# ---------------------------------------------------------------------------
# effective parameters and model mappings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveParams:
    """Unified oscillator parameters (ω, η, g, quartic kind) plus a
    back-reference to the physical parameters that produced them."""

    omega: float
    eta: float
    g: float
    quartic: QuarticKind
    physical: PhysicalParams | None = None

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if not 0.0 <= self.g <= 1.0:
            raise ValueError(
                f"coupling g={self.g} outside the normal phase [0, 1]; "
                "g > 1 (superradiant phase) is out of scope"
            )
        if not (self.eta >= 1.0):  # also rejects NaN
            raise ValueError("effective size eta must be >= 1 (or infinite)")

    @property
    def is_thermodynamic(self) -> bool:
        return self.eta == INFINITE_ETA

    def quartic_coefficient(self, g: float | None = None) -> float:
        """Coefficient of x⁴ in the Hamiltonian, ω f(g)/η."""
        gv = self.g if g is None else g
        f = quartic_prefactor(self.quartic, gv)
        if f == 0.0:
            return 0.0
        if self.is_thermodynamic:
            return 0.0
        return self.omega * f / self.eta


def map_quantum_rabi(p: QuantumRabiParams) -> EffectiveParams:
    """Reduce the QR model to the effective oscillator.

    Returns ω, η = Ω/ω, g = 2λ/√(ωΩ) and the g⁴/4 quartic kind.  Rejects
    the superradiant side g > 1 and η < 1 (the reduction assumes ω ≪ Ω).
    """
    g = p.lam / p.lam_c
    eta = p.Omega / p.omega
    if g > 1.0:
        raise ValueError(
            f"g = 2*lam/sqrt(omega*Omega) = {g} > 1: superradiant phase out of scope"
        )
    if eta < 1.0:
        raise ValueError("mapping requires Omega >= omega (eta >= 1)")
    return EffectiveParams(omega=p.omega, eta=eta, g=g,
                           quartic=QuarticKind.QR, physical=p)


def map_lmg(p: LMGParams) -> EffectiveParams:
    """Reduce the LMG model: ω = h, g = √(Λ/h), η = N, quartic kind g²/4."""
    if p.Lam > p.h:
        raise ValueError(
            f"Lambda = {p.Lam} > h = {p.h}: ferromagnetic phase out of scope"
        )
    g = math.sqrt(p.Lam / p.h)
    return EffectiveParams(omega=p.h, eta=float(p.N), g=g,
                           quartic=QuarticKind.LMG, physical=p)


def map_direct(p: DirectParams) -> EffectiveParams:
    return EffectiveParams(omega=p.omega, eta=p.eta, g=p.g,
                           quartic=p.quartic, physical=p)


def rabi_coupling_for_g(omega: float, Omega: float, g: float) -> float:
    """Invert the QR map: λ = g √(ωΩ)/2."""
    return 0.5 * g * math.sqrt(omega * Omega)


# ---------------------------------------------------------------------------
# coupling schedules g(t)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuddenQuench:
    """Instantaneous switch 0 → g_f at t = 0, then free evolution.

    t = 0 counts as already quenched (g(0) = g_f); the pre-quench vacuum
    is encoded in the initial condition of the dynamics, not in g(t).
    """

    g_f: float
    T: float

    def __post_init__(self):
        if not 0.0 < self.g_f <= 1.0:
            raise ValueError("quench target g_f must lie in (0, 1]")
        if self.T <= 0:
            raise ValueError("duration T must be positive")

    @property
    def target_g(self) -> float:
        return self.g_f

    def value(self, t: float):
        return self.g_f if _isscalar(t) else _full_like(t, self.g_f)


@dataclass(frozen=True)
class AdiabaticRamp:
    """g(t) = (1 − 1/(1 + (t/τ_Q)²))^(1/2) with τ_Q = 1/(φ_ad ω).

    Keeps |dΔ/dt| ≤ φ_ad Δ² at all times, so the evolution stays adiabatic
    for φ_ad ≪ 1; the critical point is approached but never reached.
    φ_ad is capped at 0.5 to keep that criterion meaningful.  τ_Q is fixed
    at construction (a lab time constant): parameter sensitivities never
    re-derive it from a perturbed ω.
    """

    phi_ad: float
    omega: float
    T: float

    def __post_init__(self):
        if not 0.0 < self.phi_ad <= 0.5:
            raise ValueError("adiabatic speed phi_ad must lie in (0, 0.5]")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.T <= 0:
            raise ValueError("duration T must be positive")

    @property
    def tau_q(self) -> float:
        return 1.0 / (self.phi_ad * self.omega)

    @property
    def target_g(self) -> float:
        return 1.0

    def value(self, t):
        u = t / self.tau_q
        return _sqrt(1.0 - 1.0 / (1.0 + u * u))


@dataclass(frozen=True)
class FiniteRamp:
    """g(t) = 1 − ((T − t)/T)^r: reaches the critical point g_c = 1 at t = T.

    r controls the non-linearity of the approach; adiabaticity breaks at
    the freeze-out time, which is what produces Kibble-Zurek scaling.
    """

    r: float
    T: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("ramp exponent r must be positive")
        if self.T <= 0:
            raise ValueError("duration T must be positive")

    @property
    def target_g(self) -> float:
        return 1.0

    def value(self, t):
        return 1.0 - ((self.T - t) / self.T) ** self.r


CouplingSchedule = Union[SuddenQuench, AdiabaticRamp, FiniteRamp]

_T_SLACK = 1e-9  # relative slack for t-domain checks (integrator stage times)


def schedule_value(schedule: CouplingSchedule, t):
    """Evaluate g(t) on 0 ≤ t ≤ T (scalar or array).

    Values a hair outside [0, T] (floating-point stage times) are clamped;
    anything beyond the slack is rejected.
    """
    T = schedule.T
    slack = _T_SLACK * T
    if _isscalar(t):
        if t < -slack or t > T + slack:
            raise ValueError(f"t={t} outside schedule domain [0, {T}]")
        t = min(max(t, 0.0), T)
    else:
        import numpy as np

        t = np.asarray(t, dtype=float)
        if (t < -slack).any() or (t > T + slack).any():
            raise ValueError("t outside schedule domain [0, T]")
        t = np.clip(t, 0.0, T)
    return schedule.value(t)


def _isscalar(t) -> bool:
    return isinstance(t, (int, float))


def _sqrt(x):
    if _isscalar(x):
        return math.sqrt(x)
    import numpy as np

    return np.sqrt(x)


def _full_like(t, v):
    import numpy as np

    return np.full_like(np.asarray(t, dtype=float), v)


# ---------------------------------------------------------------------------
# estimands and the physical chain rule
# ---------------------------------------------------------------------------

_RABI_ESTIMANDS = ("omega", "Omega", "lambda")
_LMG_ESTIMANDS = ("h", "Lambda")
_DIRECT_ESTIMANDS = ("g", "omega", "epsilon")


@dataclass(frozen=True)
class EstimandTag:
    """Which physical parameter is being estimated, and its nominal value."""

    name: str
    value: float


def estimand(e: EffectiveParams, name: str) -> EstimandTag:
    """Build the tag for estimand ``name`` of the model behind ``e``,
    pulling the nominal value from the physical parameters."""
    p = e.physical
    if isinstance(p, QuantumRabiParams):
        values = {"omega": p.omega, "Omega": p.Omega, "lambda": p.lam}
    elif isinstance(p, LMGParams):
        values = {"h": p.h, "Lambda": p.Lam}
    else:
        values = {"g": e.g, "omega": e.omega, "epsilon": 1.0 - e.g ** 2}
    if name not in values:
        raise ValueError(f"estimand {name!r} is not a parameter of this model")
    return EstimandTag(name=name, value=values[name])


# Exponents (a_ω, a_g, a_η) of the power laws ω ∝ x^a_ω, g ∝ x^a_g,
# η ∝ x^a_η through which each estimand x moves the effective oscillator.
_EXPONENTS = {
    "QR": {"lambda": (0.0, 1.0, 0.0), "omega": (1.0, -0.5, -1.0),
           "Omega": (0.0, -0.5, 1.0)},
    "LMG": {"Lambda": (0.0, 0.5, 0.0), "h": (1.0, -0.5, 0.0)},
    "direct": {"g": (0.0, 1.0, 0.0), "omega": (1.0, 0.0, 0.0)},
}


def chain_rule(x: EstimandTag, e: EffectiveParams) -> tuple[float, float, float]:
    """(∂ln ω, ∂ln g, ∂ln η)/∂x of the effective oscillator with respect to
    the physical estimand, at the nominal parameter point.

    This is the one place that knows how an estimand moves the model; the
    Gaussian sensitivities, the bound's M_x and the Fock ∂H/∂x all derive
    from it.  ∂ln g refers to the *target* coupling: the parameter maps are
    power laws in x, so ∂g(t)/∂x = g(t) · ∂ln g/∂x holds pointwise (the
    schedule's time profile is lab-controlled and fixed).
    """
    p = e.physical
    model = ("QR" if isinstance(p, QuantumRabiParams)
             else "LMG" if isinstance(p, LMGParams) else "direct")
    if model == "direct" and x.name == "epsilon":
        # g² = 1 − ε: the one estimand that is not a power law
        if e.g == 0:
            raise ValueError("d ln g/d epsilon diverges at g = 0")
        return 0.0, -0.5 / (e.g * e.g), 0.0
    if x.name not in _EXPONENTS[model]:
        raise ValueError(f"estimand {x.name!r} does not belong to the {model} model")
    if x.value == 0:
        raise ValueError(f"d ln g/d {x.name} diverges at {x.name} = 0")
    a_w, a_g, a_eta = _EXPONENTS[model][x.name]
    return a_w / x.value, a_g / x.value, a_eta / x.value
