"""Entry point to the Gaussian-path stepper for ramps.

:func:`integrate` runs the DOP853 kernel of :mod:`critmet._fastpath` along
one ramp in scaled time s = t/T and returns its samples with the kernel's
work counters.  The kernel is jitted when numba imports and runs
as plain Python otherwise (:func:`numba_version` tells which); it is
imported on first call, so importing this module loads neither
scipy.integrate nor numba.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BlowUpError(RuntimeError):
    """Squeezing reached the normalizability boundary |b| -> 1/2."""

    def __init__(self, t_blowup: float):
        super().__init__(
            f"|b| reached 1/2 at t={t_blowup:.6g}: unbounded squeezing "
            "(possible only for a critical quench at eta=inf); shorten T"
        )
        self.t_blowup = t_blowup


@dataclass
class IntegrationResult:
    y: np.ndarray            # samples, shape (len(s_eval), 1 + n_estimands)
    nsteps: int              # accepted steps
    nrejected: int
    nfev: int                # right-hand-side evaluations


def numba_version() -> str | None:
    """numba's version when it imports (the kernel is then jitted), else None."""
    try:
        import numba
    except ImportError:
        return None
    return numba.__version__


def integrate(kind: int, par: float, T: float, omega: float,
              rho: np.ndarray, dw: np.ndarray, y0: np.ndarray,
              s_eval: np.ndarray, *, tol: float,
              floor: float) -> IntegrationResult:
    """Integrate the squeezing + sensitivity system of one ramp over s in [0, 1].

    The arguments are the kernel's (see ``_fastpath._drive_impl``).  Raises
    :class:`BlowUpError` once 1 - 4|b|² drops below ``floor``, and
    RuntimeError when the step budget runs out.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    from . import _fastpath as fp

    y, nsteps, nrejected, nfev, status, s_stop = fp.drive(
        kind, par, T, omega, rho, dw, tol, s_eval, floor, y0)
    if status == fp.STATUS_BLOWUP:
        raise BlowUpError(float(s_stop * T))
    if status == fp.STATUS_STEPS:
        raise RuntimeError("step budget exhausted in the DOP853 stepper")
    return IntegrationResult(y=y, nsteps=int(nsteps),
                             nrejected=int(nrejected), nfev=int(nfev))
