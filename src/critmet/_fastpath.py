"""The DOP853 stepper for the squeezing/sensitivity equations of ramps.

One loop-form DOP853 (8th-order Dormand-Prince) kernel, ``_drive_impl``,
integrates b and its parameter sensitivities along one finite or adiabatic
ramp (a sudden quench is closed form, see :mod:`critmet.gaussian`).
``drive`` is the kernel jitted with numba when numba imports, and the same
function run as plain Python otherwise; the numbers and the error control
are those of the one kernel either way.  The coefficient tables are taken
from scipy's DOP853 implementation and sanity-checked at import.  Error
control: scaled RMS local error per unit time below tol.

The integration variable is s = t/T in [0, 1]; the duration T multiplies
the right-hand side.

This module is imported on the first ramp evolution, not by
``import critmet``, so importing the package loads neither scipy.integrate
nor numba.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dc

from .integrate import numba_version

_A = np.ascontiguousarray(_dc.A[:12, :12], dtype=np.float64)
_B = np.ascontiguousarray(_dc.B, dtype=np.float64)
_C = np.ascontiguousarray(_dc.C[:12], dtype=np.float64)
_E5 = np.ascontiguousarray(_dc.E5, dtype=np.float64)
_E3 = np.ascontiguousarray(_dc.E3, dtype=np.float64)
# row-sum consistency of the tableau
assert _A.shape == (12, 12) and _E5.size == 13 and _E3.size == 13
assert np.allclose(_A.sum(axis=1), _C, atol=1e-13)

KIND_RAMP = 1
KIND_ADIABATIC = 2

STATUS_OK = 0
STATUS_BLOWUP = 1
STATUS_STEPS = 2

_SAFETY = 0.9
_MIN_FAC = 0.2
_MAX_FAC = 6.0
_MAX_STEPS = 20_000_000


def _drive_impl(kind, par, T, omega, rho, dw, tol, s_eval, floor, y0):
    """Integrate the squeezing+sensitivity system of one ramp over s in [0, 1].

    par : schedule parameter (r for KIND_RAMP, τ_Q for KIND_ADIABATIC)
    T : duration
    rho : per-estimand relative coupling slope d ln g / dx
    dw  : per-estimand dω/dx
    s_eval : strictly increasing sample points in (0, 1]
    y0 : initial (b, sensitivities), shape (1 + n_estimands,)

    Returns (samples, nsteps, nrejected, nfev, status, s_stop): samples
    has shape (len(s_eval), 1 + n_estimands); nsteps and nrejected count
    accepted and rejected steps, nfev right-hand-side evaluations (1 + 12
    per attempted step).  An accepted step that leaves 1 - 4|b|² below
    ``floor`` ends the run with STATUS_BLOWUP.
    """
    ne = rho.size
    m = 1 + ne
    y = y0.copy()
    K = np.zeros((13, m), dtype=np.complex128)
    out = np.zeros((s_eval.size, m), dtype=np.complex128)
    stage = np.zeros(m, dtype=np.complex128)
    f_cur = np.zeros(m, dtype=np.complex128)

    def rhs(s, yy, dest):
        # the Riccati polynomial is evaluated in the factored form
        # iω(b - b₋)(g²b - β₊) with b₋ the ground-state root and
        # β₊ = (1+e)²/2, e = √(1-g²): the textbook polynomial form loses
        # all significant digits through cancellation once b nears 1/2
        if kind == KIND_RAMP:
            x = 1.0 - s
            if x < 0.0:
                x = 0.0
            xr = x ** par
            g = 1.0 - xr
            g2 = g * g
            e2 = xr * (2.0 - xr)
        else:
            u = s * T / par
            u2 = u * u
            g2 = u2 / (1.0 + u2)
            e2 = 1.0 / (1.0 + u2)
        e = np.sqrt(e2)
        b_minus = (1.0 - e) / (2.0 * (1.0 + e))
        beta_plus = 0.5 * (1.0 + e) ** 2
        b = yy[0]
        f0 = 1j * omega * (b - b_minus) * (g2 * b - beta_plus)
        fb = -1j * omega * ((2.0 - g2) - 2.0 * g2 * b)
        bp = b + 0.5
        fu = 1j * omega * bp * bp
        dest[0] = T * f0
        for k in range(ne):
            dest[1 + k] = T * (fb * yy[1 + k] + fu * 2.0 * g2 * rho[k]
                               + (f0 / omega) * dw[k])

    rhs(0.0, y, f_cur)
    nfev = 1
    s = 0.0
    h = min(1e-4, 1e-2 / (1.0 + np.max(np.abs(f_cur))))
    i_eval = 0
    nsteps = 0
    nrejected = 0
    rejected = False
    while i_eval < s_eval.size:
        if nsteps > _MAX_STEPS:
            return out, nsteps, nrejected, nfev, STATUS_STEPS, s
        target = s_eval[i_eval]
        if h > target - s:
            h = target - s
        K[0] = f_cur
        for st in range(1, 12):
            for q in range(m):
                acc = 0.0 + 0.0j
                for p in range(st):
                    a = _A[st, p]
                    if a != 0.0:
                        acc += a * K[p, q]
                stage[q] = y[q] + h * acc
            rhs(s + _C[st] * h, stage, K[st])
        for q in range(m):
            acc = 0.0 + 0.0j
            for p in range(12):
                acc += _B[p] * K[p, q]
            stage[q] = y[q] + h * acc
        rhs(s + h, stage, K[12])
        nfev += 12
        # combined 5th/3rd-order error estimate on scaled components
        e5sq = 0.0
        e3sq = 0.0
        for q in range(m):
            a5 = 0.0 + 0.0j
            a3 = 0.0 + 0.0j
            for p in range(13):
                a5 += _E5[p] * K[p, q]
                a3 += _E3[p] * K[p, q]
            sc = abs(y[q])
            sn = abs(stage[q])
            if sn > sc:
                sc = sn
            if sc < 1.0:
                sc = 1.0
            e5sq += (abs(a5) / sc) ** 2
            e3sq += (abs(a3) / sc) ** 2
        if e5sq == 0.0 and e3sq == 0.0:
            err = 0.0
        else:
            err = h * e5sq / np.sqrt((e5sq + 0.01 * e3sq) * m)
        budget = tol * h
        if err <= budget or h <= 1e-15:
            nsteps += 1
            s = s + h
            y[:] = stage
            f_cur[:] = K[12]
            b = y[0]
            if 1.0 - 4.0 * (b.real * b.real + b.imag * b.imag) < floor:
                return out, nsteps, nrejected, nfev, STATUS_BLOWUP, s
            if s >= target - 1e-15:
                out[i_eval] = y
                i_eval += 1
            if err <= 0.0:
                fac = _MAX_FAC
            else:
                fac = _SAFETY * (budget / err) ** 0.125
                if fac > _MAX_FAC:
                    fac = _MAX_FAC
                elif fac < _MIN_FAC:
                    fac = _MIN_FAC
            if rejected and fac > 1.0:
                fac = 1.0
            rejected = False
            h *= fac
        else:
            rejected = True
            nrejected += 1
            if np.isfinite(err) and err > 0.0:
                fac = _SAFETY * (budget / err) ** 0.125
                if fac < _MIN_FAC:
                    fac = _MIN_FAC
            else:
                fac = _MIN_FAC   # overflowed/NaN trial: retreat hard
            h *= fac
    return out, nsteps, nrejected, nfev, STATUS_OK, s


if numba_version() is None:
    drive = _drive_impl
else:  # pragma: no cover - numba is optional
    from numba import njit

    drive = njit(cache=True)(_drive_impl)
