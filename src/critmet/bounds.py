"""Precision bound for time-dependent quadratic Hamiltonians with Gaussian
states, plus its closed-form quench specializations and the Gaussian
variance identities behind it.

The central inequality bounds the QFI of a vacuum squeezed state evolving
under H_x(t) = (x p) h_x(t) (x p)^T by

    I_x(T) <= 8 [ ∫₀ᵀ dt √(χ(t)² + φ(t)²) (2N(t) + 1) ]²,

where φ, χ are the eigenvalues of M_x(t) = ∂_x h_x(t) and N(t) is the mean
excitation number.  The bound needs only the Hamiltonian derivative and
the photon-number history, not the full state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussian import Trajectory
from .models import EffectiveParams, EstimandTag, chain_rule


@dataclass(frozen=True)
class QuadraticForm:
    """Real symmetric quadratic form (x p) M (x p)^T with optional linear
    part v·(x p)^T and scalar offset.

    The x-p cross term is stored symmetrized; the complex off-diagonal c of
    the rotated-frame derivation only shifts the operator by a scalar and
    never enters the stored form.
    """

    mxx: float
    mpp: float
    mxp: float = 0.0
    v: tuple[float, float] = (0.0, 0.0)
    offset: float = 0.0

    def matrix(self) -> np.ndarray:
        return np.array([[self.mxx, self.mxp], [self.mxp, self.mpp]])

    @property
    def v_norm(self) -> float:
        return math.hypot(self.v[0], self.v[1])


def mx_eigenvalues(q: QuadraticForm) -> tuple[float, float]:
    """Signed eigenvalues (φ, χ) of M, ordered by descending magnitude.

    Closed form for the symmetric 2×2 case; signs are kept because the
    variance identities need them (the bound itself only uses φ² + χ²).
    """
    half_tr = 0.5 * (q.mxx + q.mpp)
    rad = math.hypot(0.5 * (q.mxx - q.mpp), q.mxp)
    lo, hi = half_tr - rad, half_tr + rad
    if abs(hi) >= abs(lo):
        return hi, lo
    return lo, hi


def estimand_form(e: EffectiveParams, x: EstimandTag, g: float) -> QuadraticForm:
    """M_x = ∂_x h_x for the effective Hamiltonian at instantaneous coupling g.

    h = ω[p²/2 + (1 − g²)x²/2] moves through ω and g only, at fixed lab
    schedule (the coupling profile scales multiplicatively with its target,
    so ∂g(t)/∂x = g(t) ∂ln g/∂x):

        mxx = ½ω ∂ln ω (1 − g²) − ω g² ∂ln g,   mpp = ½ω ∂ln ω.

    E.g. for the QR model ω g²(t) is ω-independent and ∂_ω h = (p² + x²)/2
    at any time.
    """
    dlog_w, dlog_g, _ = chain_rule(x, e)
    w = e.omega
    g2 = g * g
    return QuadraticForm(mxx=0.5 * w * dlog_w * (1.0 - g2) - w * g2 * dlog_g,
                         mpp=0.5 * w * dlog_w)


# ---------------------------------------------------------------------------
# the general bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Bound on I_x from one trajectory, with the sampled integrand."""

    bound: float                 # on I_x at the trajectory's final time
    cumulative: np.ndarray       # bound at every sampled time
    t: np.ndarray
    integrand: np.ndarray        # √(χ²+φ²)(2N+1) at the samples
    quadrature_error: float      # Richardson estimate on the final integral
    rule: str = "trapezoid"


def general_bound(traj: Trajectory,
                  forms: QuadraticForm | Sequence[QuadraticForm] | Callable[[float], QuadraticForm],
                  ) -> BoundReport:
    """Evaluate the precision bound along a sampled trajectory.

    ``forms`` may be a single constant form, one form per sample, or a
    callable g -> form evaluated at the schedule's coupling values.
    Composite trapezoid on the (geometric) sample grid; a half-grid
    Richardson difference estimates the quadrature error.
    """
    t = traj.t
    if t.size < 16:
        raise ValueError("bound quadrature needs at least 16 trajectory samples")
    n_ph = traj.n_photons
    if isinstance(forms, QuadraticForm):
        coeff = np.full(t.size, _form_coefficient(forms))
    elif callable(forms):
        gs = traj.coupling()
        coeff = np.array([_form_coefficient(forms(g)) for g in gs])
    else:
        if len(forms) != t.size:
            raise ValueError("need one QuadraticForm per trajectory sample")
        coeff = np.array([_form_coefficient(q) for q in forms])

    integrand = coeff * (2.0 * n_ph + 1.0)
    cum = _cumtrapz(t, integrand)
    bound = 8.0 * cum ** 2
    # Richardson check: trapezoid is O(h²), so coarsening to every other
    # sample triples the error of the fine result.
    coarse = np.trapezoid(np.append(integrand[::2], integrand[-1]),
                          np.append(t[::2], t[-1]))
    err_integral = abs(cum[-1] - coarse) / 3.0
    err = 16.0 * cum[-1] * err_integral
    return BoundReport(bound=float(bound[-1]), cumulative=bound, t=t,
                       integrand=integrand, quadrature_error=float(err))


def bound_for_estimand(traj: Trajectory, e: EffectiveParams,
                       x: EstimandTag) -> BoundReport:
    """Precision bound for a named physical estimand along ``traj``."""
    return general_bound(traj, lambda g: estimand_form(e, x, g))


def _form_coefficient(q: QuadraticForm) -> float:
    phi, chi = mx_eigenvalues(q)
    return math.hypot(phi, chi)


def _cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def quench_bound_closed(estimand_name: str, omega_T) -> float | np.ndarray:
    """Closed-form SNR bound for the critical quench (g = 1, η = ∞).

    Q_λ ≤ (2/9)(ωT)⁶ + (8/3)(ωT)⁴ + 8(ωT)²; the ω bound is half of that
    (φ = χ = 1/2 instead of a single eigenvalue of unit weight).
    """
    s = np.asarray(omega_T, dtype=float)
    poly = (2.0 / 9.0) * s ** 6 + (8.0 / 3.0) * s ** 4 + 8.0 * s ** 2
    if estimand_name in ("lambda", "g", "Lambda_equiv"):
        out = poly
    elif estimand_name in ("omega", "h"):
        out = 0.5 * poly
    else:
        raise ValueError("closed-form bound defined for 'lambda'/'g' and 'omega'/'h'")
    return float(out) if np.isscalar(omega_T) else out


# ---------------------------------------------------------------------------
# Gaussian variance identities (rotated frame)
# ---------------------------------------------------------------------------

def variance_quadratic(a1: float, a2: float, b_off: float, c_off: float,
                       x2, p2):
    """Exact Gaussian variance of O = A1 x_m² + A2 p_m² + 2b :x_m p_m: - c.

    The quadratures are the rotated (squeezing-aligned, centered) ones with
    ⟨:x_m p_m:⟩ = 0, and the averages are second moments of the initial
    state.  The scalar c drops out of the variance.  Vectorized over
    (a1, a2, b_off, x2, p2).
    """
    x2 = np.asarray(x2, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if (x2 * p2 < 0.25 * (1.0 - 1e-12)).any():
        raise ValueError("Heisenberg violation: need <x²><p²> >= 1/4")
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    b = np.asarray(b_off, dtype=float)
    var = (2.0 * (a1 ** 2 * x2 ** 2 + a2 ** 2 * p2 ** 2)
           + 4.0 * x2 * p2 * b ** 2 - a1 * a2 + b ** 2)
    return float(var) if var.ndim == 0 else var


def centered_variance_bound(phi, chi, n):
    """2(φ²+χ²)[(2N+1)² - 1/2]: variance bound for centered Gaussians."""
    phi = np.asarray(phi, dtype=float)
    chi = np.asarray(chi, dtype=float)
    n = np.asarray(n, dtype=float)
    out = 2.0 * (phi ** 2 + chi ** 2) * ((2.0 * n + 1.0) ** 2 - 0.5)
    return float(out) if out.ndim == 0 else out


def displaced_bound(phi: float, chi: float, n: float, v_norm: float = 0.0,
                    has_linear: bool = False) -> float:
    """Variance bound for displaced Gaussian probes.

    Without an x-dependent linear Hamiltonian term: (5/2)(φ²+χ²)(2N+1)².
    With one of derivative norm |v|:
    2(φ²+χ²)[(2N+1)²-1/2] + 2(φ²+χ²+|v|²)(N+1)².  These are looser than
    the centered bound and are exposed for property testing only; no
    protocol in this package produces displacement.
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    s2 = phi * phi + chi * chi
    if not has_linear:
        if v_norm != 0.0:
            raise ValueError("a linear derivative term requires has_linear=True")
        return 2.5 * s2 * (2.0 * n + 1.0) ** 2
    return (centered_variance_bound(phi, chi, n)
            + 2.0 * (s2 + v_norm * v_norm) * (n + 1.0) ** 2)
