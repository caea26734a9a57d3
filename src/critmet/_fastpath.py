"""The DOP853 stepper for the squeezing/sensitivity equations.

One loop-form DOP853 (8th-order Dormand-Prince) kernel, ``_drive_impl``,
drives every Gaussian-path evolution: single trajectories and scaled-time
batches of protocols.  ``drive`` is the kernel jitted with numba when numba
imports, and the same function run as plain Python otherwise; the numbers
and the error control are those of the one kernel either way.  The
coefficient tables are taken from scipy's DOP853 implementation and
sanity-checked at import.  Error control: scaled RMS local error per unit
time below tol.

The integration variable is always s = t/T in [0, 1]; durations multiply
the right-hand side, which lets families of protocols with different T
share one error-controlled step sequence.

This module is imported on the first Gaussian evolution, not by
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

KIND_QUENCH = 0
KIND_RAMP = 1
KIND_ADIABATIC = 2

STATUS_OK = 0
STATUS_BLOWUP = 1
STATUS_STEPS = 2

_SAFETY = 0.9
_MIN_FAC = 0.2
_MAX_FAC = 6.0
_MAX_STEPS = 20_000_000


def _drive_impl(kind, par, Ts, omega, rho, dw, tol, s_eval, floor, y0):
    """Integrate the batched squeezing+sensitivity system over s in [0, 1].

    par : per-protocol schedule parameter (g_f², r, or τ_Q)
    rho : per-estimand relative coupling slope d ln g / dx
    dw  : per-estimand dω/dx
    s_eval : strictly increasing sample points in (0, 1]
    y0 : initial (b, sensitivities) per protocol, shape (n, 1+n_estimands)

    Returns (samples, nsteps, nrejected, nfev, status, s_stop): samples
    has shape (len(s_eval), n_protocols, 1 + n_estimands); nsteps and
    nrejected count accepted and rejected steps, nfev right-hand-side
    evaluations (1 + 12 per attempted step).
    """
    n = Ts.size
    ne = rho.size
    m = 1 + ne
    y = y0.copy()
    K = np.zeros((13, n, m), dtype=np.complex128)
    out = np.zeros((s_eval.size, n, m), dtype=np.complex128)
    stage = np.zeros((n, m), dtype=np.complex128)
    f_cur = np.zeros((n, m), dtype=np.complex128)

    def rhs(s, yy, dest):
        # the Riccati polynomial is evaluated in the factored form
        # iω(b - b₋)(g²b - β₊) with b₋ the ground-state root and
        # β₊ = (1+e)²/2, e = √(1-g²): the textbook polynomial form loses
        # all significant digits through cancellation once b nears 1/2
        for j in range(n):
            if kind == 0:
                g2 = par[j]
                e2 = 1.0 - g2
            elif kind == 1:
                x = 1.0 - s
                if x < 0.0:
                    x = 0.0
                xr = x ** par[j]
                g = 1.0 - xr
                g2 = g * g
                e2 = xr * (2.0 - xr)
            else:
                u = s * Ts[j] / par[j]
                u2 = u * u
                g2 = u2 / (1.0 + u2)
                e2 = 1.0 / (1.0 + u2)
            e = np.sqrt(e2)
            b_minus = (1.0 - e) / (2.0 * (1.0 + e))
            beta_plus = 0.5 * (1.0 + e) ** 2
            b = yy[j, 0]
            f0 = 1j * omega * (b - b_minus) * (g2 * b - beta_plus)
            fb = -1j * omega * ((2.0 - g2) - 2.0 * g2 * b)
            bp = b + 0.5
            fu = 1j * omega * bp * bp
            T = Ts[j]
            dest[j, 0] = T * f0
            for k in range(ne):
                dest[j, 1 + k] = T * (fb * yy[j, 1 + k]
                                      + fu * 2.0 * g2 * rho[k]
                                      + (f0 / omega) * dw[k])

    rhs(0.0, y, f_cur)
    nfev = 1
    fmax = 0.0
    for j in range(n):
        for q in range(m):
            a = abs(f_cur[j, q])
            if a > fmax:
                fmax = a
    s = 0.0
    h = min(1e-4, 1e-2 / (1.0 + fmax))
    i_eval = 0
    nsteps = 0
    nrejected = 0
    rejected = False
    n_reject_run = 0
    while i_eval < s_eval.size:
        if nsteps > _MAX_STEPS or n_reject_run > 200:
            # a stalled controller right above the floor is the same
            # cancellation regime as a pierce: classify it as blow-up
            for j in range(n):
                b = y[j, 0]
                if 1.0 - 4.0 * (b.real * b.real + b.imag * b.imag) < 100.0 * floor:
                    return out, nsteps, nrejected, nfev, STATUS_BLOWUP, s
            return out, nsteps, nrejected, nfev, STATUS_STEPS, s
        target = s_eval[i_eval]
        if h > target - s:
            h = target - s
        for j in range(n):
            for q in range(m):
                K[0, j, q] = f_cur[j, q]
        for st in range(1, 12):
            for j in range(n):
                for q in range(m):
                    acc = 0.0 + 0.0j
                    for p in range(st):
                        a = _A[st, p]
                        if a != 0.0:
                            acc += a * K[p, j, q]
                    stage[j, q] = y[j, q] + h * acc
            rhs(s + _C[st] * h, stage, K[st])
        for j in range(n):
            for q in range(m):
                acc = 0.0 + 0.0j
                for p in range(12):
                    acc += _B[p] * K[p, j, q]
                stage[j, q] = y[j, q] + h * acc
        rhs(s + h, stage, K[12])
        nfev += 12
        # combined 5th/3rd-order error estimate on scaled components
        e5sq = 0.0
        e3sq = 0.0
        for j in range(n):
            for q in range(m):
                a5 = 0.0 + 0.0j
                a3 = 0.0 + 0.0j
                for p in range(13):
                    a5 += _E5[p] * K[p, j, q]
                    a3 += _E3[p] * K[p, j, q]
                sc = abs(y[j, q])
                sn = abs(stage[j, q])
                if sn > sc:
                    sc = sn
                if sc < 1.0:
                    sc = 1.0
                e5sq += (abs(a5) / sc) ** 2
                e3sq += (abs(a3) / sc) ** 2
        if e5sq == 0.0 and e3sq == 0.0:
            err = 0.0
        else:
            err = h * e5sq / np.sqrt((e5sq + 0.01 * e3sq) * (n * m))
        budget = tol * h
        if err <= budget or h <= 1e-15:
            nsteps += 1
            s = s + h
            for j in range(n):
                for q in range(m):
                    y[j, q] = stage[j, q]
                    f_cur[j, q] = K[12, j, q]
            for j in range(n):
                b = y[j, 0]
                if 1.0 - 4.0 * (b.real * b.real + b.imag * b.imag) < floor:
                    return out, nsteps, nrejected, nfev, STATUS_BLOWUP, s
            if s >= target - 1e-15:
                for j in range(n):
                    for q in range(m):
                        out[i_eval, j, q] = y[j, q]
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
            n_reject_run = 0
            h *= fac
        else:
            rejected = True
            nrejected += 1
            n_reject_run += 1
            # a rejected attempt that pierces the normalizability floor
            # while the accepted state already sits close to it means the
            # squeezing is within one (error-limited) step of the floor:
            # b - 1/2 is cancellation-noise there and stepping cannot
            # continue, so report blow-up at the current time (a wild
            # overflow far from the floor is an ordinary rejection)
            for j in range(n):
                b = y[j, 0]
                near = 1.0 - 4.0 * (b.real * b.real + b.imag * b.imag) < 1e6 * floor
                bt = stage[j, 0]
                pierced = 1.0 - 4.0 * (bt.real * bt.real + bt.imag * bt.imag) < floor
                if near and pierced:
                    return out, nsteps, nrejected, nfev, STATUS_BLOWUP, s
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
