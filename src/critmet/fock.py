"""Finite-η simulation of H = ω[p²/2 + (1-g²)x²/2] + ω f(g)/η · x⁴ in a
truncated number basis.

Matrix elements come from the exact ladder-operator algebra (x and p couple
n ↔ n±2, x⁴ couples n ↔ n±4), assembled from the normal-ordered
coefficients of the full untruncated operators and then truncated; this
avoids the spurious edge terms a truncated x²·x² product would produce.
The Hamiltonian is real symmetric with bandwidth 4.

Propagation uses an exact eigendecomposition when g is constant (sudden
quench) and adaptive Lanczos-Krylov exponential steps with midpoint
coupling when g(t) varies.  Both conserve the norm to rounding accuracy,
which explicit Runge-Kutta stepping cannot sustain over the 10⁵-10⁶ steps
the long ramps need.

QFIs use the generator derivative ∂H/∂x, assembled from the same band
components as H: exactly in the eigenbasis for a quench and the ground
state, and as a central difference of branches H ± δx ∂H/∂x stepped in
lockstep for a ramp.  ``propagate(..., x=tag, t_samples=ts)`` returns the
states and I_x at every sample time from one run: one decomposition for a
quench, one trajectory for a ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal

from .models import (CouplingSchedule, EffectiveParams, EstimandTag,
                     QuarticKind, SuddenQuench, chain_rule, quartic_prefactor,
                     schedule_value)

TAIL_FRACTION = 0.9
TAIL_LIMIT = 1e-10
NORM_LIMIT = 1e-9


class TruncationOverflow(RuntimeError):
    """Occupation leaked into the top of the truncated basis."""

    def __init__(self, t: float, tail: float, nmax: int):
        super().__init__(
            f"tail occupation {tail:.3e} above {TAIL_LIMIT:.0e} at t={t:.6g} "
            f"with nmax={nmax}; increase the truncation"
        )
        self.t = t
        self.tail = tail


def auto_nmax(eta: float) -> int:
    """Starting truncation max(64, 8 η^(1/3)): the critical region holds
    ⟨N⟩ ~ η^(1/3) and squeezed tails need headroom."""
    if math.isinf(eta):
        return 64
    return max(64, int(math.ceil(8.0 * eta ** (1.0 / 3.0))))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _s2(dim: int) -> np.ndarray:
    """√((n+1)(n+2)) on the n ↔ n+2 band (length dim-2)."""
    n = np.arange(dim - 2, dtype=float)
    return np.sqrt((n + 1.0) * (n + 2.0))


def _s4(dim: int) -> np.ndarray:
    """√((n+1)(n+2)(n+3)(n+4)) on the n ↔ n+4 band (length dim-4)."""
    n = np.arange(dim - 4, dtype=float)
    return np.sqrt((n + 1.0) * (n + 2.0) * (n + 3.0) * (n + 4.0))


def _apply_banded(diag, off2, off4, psi):
    """H ψ from the bands of H; ψ may be a vector or a stack of columns."""
    if psi.ndim == 2:
        diag, off2 = diag[:, None], off2[:, None]
        off4 = None if off4 is None else off4[:, None]
    out = diag * psi
    out[:-2] += off2 * psi[2:]
    out[2:] += off2 * psi[:-2]
    if off4 is not None:
        out[:-4] += off4 * psi[4:]
        out[4:] += off4 * psi[:-4]
    return out


class _HamiltonianTemplate:
    """g-independent band components of H(g); bands(g) assembles them.

    H(g) = base + g²·(quadratic part) + f(g)·(quartic part), so a schedule
    evaluation costs a few fused vector operations.  The parameter
    derivative ∂H/∂x is the same three parts with other weights
    (:meth:`d_bands`).
    """

    def __init__(self, omega: float, eta: float, quartic: QuarticKind, nmax: int):
        if nmax < 16:
            raise ValueError("truncation nmax must be >= 16")
        if math.isinf(eta) and quartic is not QuarticKind.NONE:
            raise ValueError("eta = inf belongs to the Gaussian path "
                             "(or use QuarticKind.NONE to emulate it)")
        self.omega = omega
        self.eta = eta
        self.quartic = quartic
        self.nmax = nmax
        dim = nmax + 1
        n = np.arange(dim, dtype=float)
        s2 = _s2(dim)
        self.d0 = omega * (n + 0.5)                 # p²/2 + x²/2
        self.d2 = -omega * (2.0 * n + 1.0) / 4.0    # -g² x²/2, diagonal
        self.o2 = -omega * s2 / 4.0                 # -g² x²/2, n <-> n±2
        if quartic is QuarticKind.NONE or math.isinf(eta):
            self.d4 = self.o24 = self.o4 = None
        else:
            w_eta = omega / eta
            nb = np.arange(dim - 2, dtype=float)
            self.d4 = w_eta * 0.75 * (2.0 * n * n + 2.0 * n + 1.0)
            self.o24 = w_eta * 0.25 * (4.0 * nb + 6.0) * s2
            self.o4 = w_eta * 0.25 * _s4(dim)

    def bands(self, g: float):
        return self._assemble(g, 1.0, 1.0, 1.0)

    def d_bands(self, g: float, dlog: tuple[float, float, float]):
        """Bands of ∂H/∂x at coupling g, from :func:`chain_rule`'s
        (∂ln ω, ∂ln g, ∂ln η)/∂x: the base scales as ω, the quadratic part as
        ωg² and the quartic part as ωf(g)/η with f ∝ g^k (k = 4 for QR, 2
        for LMG)."""
        dw, dg, deta = dlog
        k = 4.0 if self.quartic is QuarticKind.QR else 2.0
        return self._assemble(g, dw, dw + 2.0 * dg, dw + k * dg - deta)

    def _assemble(self, g, c_base, c_quad, c_quartic):
        cg = c_quad * g * g
        diag = c_base * self.d0 + cg * self.d2
        off2 = cg * self.o2
        off4 = None
        f = quartic_prefactor(self.quartic, g)
        if f != 0.0 and self.d4 is not None:
            cf = c_quartic * f
            diag = diag + cf * self.d4
            off2 = off2 + cf * self.o24
            off4 = cf * self.o4
        return diag, off2, off4

    def hamiltonian(self, g: float) -> "BandedHamiltonian":
        diag, off2, off4 = self.bands(g)
        return BandedHamiltonian(omega=self.omega, g=g, eta=self.eta,
                                 quartic=self.quartic, diag=diag, off2=off2,
                                 off4=off4)

    def norm_bound(self, g: float) -> float:
        diag, off2, off4 = self.bands(g)
        b = np.abs(diag).max() + 2.0 * np.abs(off2).max()
        if off4 is not None:
            b += 2.0 * np.abs(off4).max()
        return b


@dataclass(frozen=True)
class BandedHamiltonian:
    """Assembled real symmetric banded Hamiltonian at one coupling value."""

    omega: float
    g: float
    eta: float
    quartic: QuarticKind
    diag: np.ndarray
    off2: np.ndarray
    off4: np.ndarray | None

    @property
    def nmax(self) -> int:
        return self.diag.size - 1

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return _apply_banded(self.diag, self.off2, self.off4, psi)

    def expectation(self, psi: np.ndarray) -> float:
        return float(np.real(np.vdot(psi, self.apply(psi))))

    def banded_upper(self) -> np.ndarray:
        """LAPACK upper-banded storage (5 rows: offsets 4..0)."""
        dim = self.diag.size
        ab = np.zeros((5, dim))
        if self.off4 is not None:
            ab[0, 4:] = self.off4
        ab[2, 2:] = self.off2
        ab[4, :] = self.diag
        return ab

    def dense(self) -> np.ndarray:
        dim = self.diag.size
        h = np.diag(self.diag)
        h += np.diag(self.off2, 2) + np.diag(self.off2, -2)
        if self.off4 is not None:
            h += np.diag(self.off4, 4) + np.diag(self.off4, -4)
        return h


def build_hamiltonian(e: EffectiveParams, g: float, nmax: int) -> BandedHamiltonian:
    """Assemble H at instantaneous coupling ``g`` (need not equal e.g;
    schedules pass their own values)."""
    return _HamiltonianTemplate(e.omega, e.eta, e.quartic, nmax).hamiltonian(g)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumSlice:
    e0: float
    e1: float

    @property
    def gap(self) -> float:
        return self.e1 - self.e0


def ground_and_gap(h: BandedHamiltonian) -> SpectrumSlice:
    """Two lowest eigenvalues of the banded matrix.

    Truncation adequacy is the caller's responsibility; use
    :func:`gap_converged` to double nmax until the gap stabilizes.
    """
    vals = eig_banded(h.banded_upper(), lower=False, eigvals_only=True,
                      select="i", select_range=(0, 1))
    return SpectrumSlice(e0=float(vals[0]), e1=float(vals[1]))


def gap_converged(e: EffectiveParams, g: float, nmax0: int | None = None, *,
                  rel_tol: float = 1e-6, max_doublings: int = 6) -> tuple[SpectrumSlice, int]:
    """Double the truncation until the gap moves by < rel_tol; returns
    (spectrum, nmax used)."""
    nmax = nmax0 or auto_nmax(e.eta)
    s = ground_and_gap(build_hamiltonian(e, g, nmax))
    for _ in range(max_doublings):
        s2x = ground_and_gap(build_hamiltonian(e, g, 2 * nmax))
        if abs(s2x.gap - s.gap) <= rel_tol * abs(s.gap):
            return s2x, 2 * nmax
        nmax *= 2
        s = s2x
    raise RuntimeError(f"gap not converged up to nmax={nmax}")


def ground_state(h: BandedHamiltonian) -> tuple[float, np.ndarray]:
    """Lowest eigenpair; the eigenvector sign is fixed by a positive
    vacuum component."""
    vals, vecs = eig_banded(h.banded_upper(), lower=False,
                            select="i", select_range=(0, 0))
    v = vecs[:, 0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return float(vals[0]), v


# ---------------------------------------------------------------------------
# state containers and observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockVector:
    """Complex amplitudes in the truncated number basis."""

    amplitudes: np.ndarray

    @property
    def nmax(self) -> int:
        return self.amplitudes.size - 1

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tail_occupation(self, fraction: float = TAIL_FRACTION) -> float:
        k0 = int(fraction * self.nmax)
        return float(np.sum(np.abs(self.amplitudes[k0:]) ** 2))

    def validate(self) -> None:
        if abs(self.norm - 1.0) > NORM_LIMIT:
            raise ValueError(f"norm {self.norm} drifted beyond {NORM_LIMIT:.0e}")
        tail = self.tail_occupation()
        if tail > TAIL_LIMIT:
            raise ValueError(f"tail occupation {tail:.3e} above {TAIL_LIMIT:.0e}")


def vacuum(nmax: int) -> FockVector:
    amp = np.zeros(nmax + 1, dtype=complex)
    amp[0] = 1.0
    return FockVector(amplitudes=amp)


@dataclass(frozen=True)
class Observables:
    n: float
    x2: float
    p2: float


def observables_fock(psi: FockVector | np.ndarray) -> Observables:
    """⟨N⟩, ⟨x²⟩, ⟨p²⟩ via banded operator application."""
    amp = psi.amplitudes if isinstance(psi, FockVector) else psi
    dim = amp.size
    n = np.arange(dim, dtype=float)
    s2 = _s2(dim)
    n_mean = float(np.real(np.vdot(amp, n * amp)))
    diag = n + 0.5
    cross = 2.0 * float(np.real(np.vdot(amp[:-2], 0.5 * s2 * amp[2:])))
    x2 = float(np.real(np.vdot(amp, diag * amp))) + cross
    p2 = float(np.real(np.vdot(amp, diag * amp))) - cross
    return Observables(n=n_mean, x2=x2, p2=p2)


# ---------------------------------------------------------------------------
# propagation and QFI
# ---------------------------------------------------------------------------

RAMP_DELTA = 1e-5
"""Relative step δ of a ramp QFI: its branches run H(t) ± δx ∂H/∂x."""

_BLOCK = 128
"""Rows per block of the d×d work arrays of the quench derivative."""


@dataclass(frozen=True)
class FockResult:
    t: np.ndarray
    states: np.ndarray          # shape (len(t), nmax+1)
    nmax: int
    norm_drift: float
    tail_max: float
    nsteps: int
    method: str
    qfi: np.ndarray | None = None   # I_x at t, when an estimand was given

    @property
    def final(self) -> FockVector:
        return FockVector(amplitudes=self.states[-1])

    def state(self, i: int) -> FockVector:
        return FockVector(amplitudes=self.states[i])


def propagate(schedule: CouplingSchedule, e: EffectiveParams, *,
              t_final: float | None = None, nmax: int | None = None,
              tol: float = 1e-9, t_samples: np.ndarray | None = None,
              x: EstimandTag | None = None,
              max_doublings: int = 4) -> FockResult:
    """Solve i dψ/dt = H(g(t)) ψ from the vacuum.

    Uses the exact eigendecomposition for a sudden quench (g constant) and
    adaptive Krylov exponential steps otherwise.  With an estimand ``x`` the
    result also carries I_x at every sample (``FockResult.qfi``), from the
    same run that gives the states.  On tail-occupation breach the
    truncation is doubled and the run restarted, up to ``max_doublings``
    times (the last overflow is re-raised); ``FockResult.nmax`` is the
    truncation used.
    """
    if e.is_thermodynamic and e.quartic is not QuarticKind.NONE:
        raise ValueError("eta = inf uses the Gaussian path")
    nmax = nmax or auto_nmax(e.eta)
    for doublings in range(max_doublings + 1):
        try:
            return _propagate_core(schedule, e, nmax=nmax, tol=tol,
                                   t_final=t_final, t_samples=t_samples, x=x)
        except TruncationOverflow:
            if doublings == max_doublings:
                raise
            nmax *= 2


def _propagate_core(schedule, e, *, nmax, tol, t_final=None, t_samples=None,
                    x: EstimandTag | None = None) -> FockResult:
    """Propagation workhorse.  With an estimand ``x`` the result also
    carries I_x at the samples, from ∂H/∂x."""
    T = t_final if t_final is not None else schedule.T
    if not 0 < T <= schedule.T * (1 + 1e-12):
        raise ValueError("t_final must lie in (0, schedule.T]")
    if t_samples is None:
        t_samples = np.array([T])
    t_samples = np.asarray(t_samples, dtype=float)
    tpl = _HamiltonianTemplate(e.omega, e.eta, e.quartic, nmax)
    dlog = None if x is None else chain_rule(x, e)
    if isinstance(schedule, SuddenQuench):
        return _propagate_spectral(tpl, schedule.g_f, t_samples, nmax, dlog)
    return _propagate_krylov(tpl, lambda t: schedule_value(schedule, t),
                             t_samples, nmax, tol, dlog,
                             0.0 if x is None else RAMP_DELTA * x.value)


def _propagate_spectral(tpl, g, t_samples, nmax, dlog=None) -> FockResult:
    """Exact propagation from one decomposition H = V E Vᵀ; with ``dlog``
    (:func:`chain_rule`) the exact I_x as well."""
    evals, evecs = eig_banded(tpl.hamiltonian(g).banded_upper(), lower=False)
    c0 = evecs[0]                             # Vᵀ|0⟩
    phases = np.exp(-1j * np.outer(t_samples, evals))
    states = (phases * c0[None, :]) @ evecs.T
    norms = np.linalg.norm(states, axis=1)
    tails = _tail_series(states, nmax)
    _check_tails(t_samples, tails, nmax)
    qfi = None
    if dlog is not None:
        qfi = _quench_qfi(evals, evecs, tpl.d_bands(g, dlog), t_samples)
    return FockResult(t=t_samples, states=states, nmax=nmax,
                      norm_drift=float(np.max(np.abs(norms - 1.0))),
                      tail_max=float(tails.max()), nsteps=1, method="spectral",
                      qfi=qfi)


def _quench_qfi(evals, evecs, dbands, t_samples) -> np.ndarray:
    """I_x(t) of e^{−iHt}|0⟩ from H = V E Vᵀ and the bands of ∂H/∂x.

    Daleckii–Krein (Higham, Functions of Matrices, §3.2):
    ∂ψ(t) = V[K(t) ∘ (Vᵀ∂H V)]c0, c0 = Vᵀ|0⟩, with the divided differences
    K_jk = (e^{−iE_j t} − e^{−iE_k t})/(E_j − E_k) = −it p_j p_k sinc((E_j − E_k)t/2),
    p = e^{−iEt/2}; the sinc form stays exact as E_j → E_k.  All of it is
    evaluated in the eigenbasis, where ψ(t) = p²c0, in blocks of columns
    or rows, so no d×d array beyond V and Vᵀ∂H V is formed; the symmetric
    sinc ∘ Vᵀ∂H V is evaluated on and above the block diagonal only.
    """
    d = evals.size
    w = np.empty_like(evecs)                  # Vᵀ ∂H V
    for c in range(0, d, _BLOCK):
        w[:, c:c + _BLOCK] = evecs.T @ _apply_banded(*dbands, evecs[:, c:c + _BLOCK])
    c0 = evecs[0]
    out = np.empty(t_samples.size)
    for i, t in enumerate(t_samples):
        p = np.exp(-0.5j * t * evals)
        c0p = c0 * p
        q = np.stack([c0p.real, c0p.imag], axis=1)
        y = np.zeros((d, 2))                  # [sinc ∘ W] c0p, real and imaginary
        for r in range(0, d, _BLOCK):
            rows, below = slice(r, r + _BLOCK), r + _BLOCK
            k = np.sinc((evals[rows, None] - evals[r:]) * (0.5 * t / math.pi))
            k *= w[rows, r:]
            y[rows] += k @ q[r:]
            y[below:] += k[:, _BLOCK:].T @ q[rows]
        dpsi = -1j * t * p * (y[:, 0] + 1j * y[:, 1])
        out[i] = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(p * c0p, dpsi)) ** 2)
    return out


def _propagate_krylov(tpl, g_of, t_samples, nmax, tol, dlog=None,
                      dx: float = 0.0) -> FockResult:
    """Krylov exponential steps with midpoint coupling.  With ``dlog``
    (:func:`chain_rule`) the branches H ± dx ∂H/∂x are stepped in lockstep
    with the centre, on its step sequence (a failure in any branch halves
    the common step), and the result carries their central difference."""
    T = t_samples[-1]
    # Krylov converges once m exceeds ~ dt*||H||/2; keep dt so the m_max
    # of the step routine has comfortable margin, adapting on failures.
    hnorm = max(tpl.norm_bound(g_of(0.0)), tpl.norm_bound(g_of(T)))
    dt_cap = 32.0 / hnorm
    dt = dt_cap
    shifts = (0.0,) if dlog is None else (0.0, dx, -dx)
    psi = np.zeros((len(shifts), nmax + 1), dtype=complex)
    psi[:, 0] = 1.0
    new = np.empty_like(psi)
    t = 0.0
    out = np.empty((len(shifts), t_samples.size, nmax + 1), dtype=complex)
    i_s = 0
    nsteps = 0
    norm_drift = 0.0
    tail_max = 0.0
    step_tol = tol / max(T, 1.0)   # error per unit time
    k0 = int(TAIL_FRACTION * nmax)
    while i_s < t_samples.size:
        target = t_samples[i_s]
        h_step = min(dt, target - t)
        g = g_of(t + 0.5 * h_step)
        bands = tpl.bands(g)
        dbands = None if dlog is None else tpl.d_bands(g, dlog)
        for b, shift in enumerate(shifts):
            ok, new[b] = _lanczos_expm(_shifted(bands, dbands, shift), psi[b],
                                       h_step, step_tol * h_step)
            if not ok:
                break
        if not ok:
            dt = 0.5 * h_step
            continue
        psi, new = new, psi
        t += h_step
        nsteps += 1
        if h_step == dt:
            dt = min(dt * 1.25, dt_cap)
        tail = float(np.sum(np.abs(psi[:, k0:]) ** 2, axis=1).max())
        tail_max = max(tail_max, tail)
        if tail > TAIL_LIMIT:
            raise TruncationOverflow(t, tail, nmax)
        norm_drift = max(norm_drift,
                         float(np.abs(np.linalg.norm(psi, axis=1) - 1.0).max()))
        while i_s < t_samples.size and t >= t_samples[i_s] - 1e-15 * T:
            out[:, i_s] = psi               # equal sample times share it
            i_s += 1
    qfi = None if dlog is None else _fd_qfi(out[0], out[1], out[2], dx)
    return FockResult(t=t_samples, states=out[0], nmax=nmax,
                      norm_drift=norm_drift, tail_max=tail_max,
                      nsteps=nsteps, method="krylov", qfi=qfi)


def _shifted(bands, dbands, shift):
    """Bands of H + shift·∂H."""
    if shift == 0.0:
        return bands
    return tuple(None if a is None else a + shift * da
                 for a, da in zip(bands, dbands))


def _lanczos_expm(bands, psi, dt, err_tol, m_max: int = 48):
    """One step ψ -> exp(-i dt H) ψ in an adaptive Krylov subspace.

    Full (matrix-form) reorthogonalization keeps the basis orthonormal, so
    the norm is conserved at rounding level.  Returns (converged, ψ');
    failure means the step is too long for m_max vectors.
    """
    diag, off2, off4 = bands
    beta0 = np.linalg.norm(psi)
    dim = psi.size
    basis = np.empty((m_max + 1, dim), dtype=complex)
    basis[0] = psi / beta0
    alphas = np.empty(m_max)
    betas = np.empty(m_max)
    w = _apply_banded(diag, off2, off4, basis[0])
    for m in range(1, m_max + 1):
        a = float(np.real(np.vdot(basis[m - 1], w)))
        alphas[m - 1] = a
        w -= a * basis[m - 1]
        if m > 1:
            w -= betas[m - 2] * basis[m - 2]
        coeff = basis[:m].conj() @ w          # full reorthogonalization
        w -= basis[:m].T @ coeff
        b = float(np.linalg.norm(w))
        happy = b < 1e-14
        if happy or m >= 6 and (m % 3 == 0 or m == m_max):
            evals, evecs = eigh_tridiagonal(alphas[:m], betas[:m - 1])
            y = evecs @ (np.exp(-1j * dt * evals) * evecs[0])
            err = b * abs(y[-1]) * dt
            if err < err_tol or happy:
                return True, beta0 * (basis[:m].T @ y)
        if m == m_max:
            return False, psi
        betas[m - 1] = b
        basis[m] = w / b
        w = _apply_banded(diag, off2, off4, basis[m])
    return False, psi


def _tail_series(states, nmax):
    k0 = int(TAIL_FRACTION * nmax)
    return np.sum(np.abs(states[:, k0:]) ** 2, axis=1)


def _check_tails(t_samples, tails, nmax):
    bad = np.nonzero(tails > TAIL_LIMIT)[0]
    if bad.size:
        raise TruncationOverflow(float(t_samples[bad[0]]), float(tails[bad[0]]), nmax)


def _fd_qfi(centre, plus, minus, dx: float) -> np.ndarray:
    """4(⟨∂ψ|∂ψ⟩ − |⟨ψ|∂ψ⟩|²) per sample, with ∂ψ the central difference of
    the branch states phase-aligned to the centre (the QFI is gauge
    invariant, the naive difference is not)."""
    out = np.empty(len(centre))
    for i, psi0 in enumerate(centre):
        dpsi = (_align_phase(psi0, plus[i]) - _align_phase(psi0, minus[i])) / (2.0 * dx)
        out[i] = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi0, dpsi)) ** 2)
    return out


def _align_phase(reference: np.ndarray, psi: np.ndarray) -> np.ndarray:
    ov = np.vdot(reference, psi)
    if ov == 0:
        return psi
    return psi * (abs(ov) / ov)


def qfi_fock(schedule: CouplingSchedule, e: EffectiveParams, x: EstimandTag, *,
             t_samples: np.ndarray | None = None, nmax: int | None = None,
             tol: float = 1e-9) -> FockResult:
    """QFI of the propagated state with respect to the physical estimand:
    :func:`propagate` with ``x``; I_x at the samples is ``.qfi``.

    A sudden quench is differentiated exactly in the eigenbasis of one
    decomposition (:func:`_quench_qfi`).  A ramp steps the branches
    H(t) ± δx ∂H/∂x (δ = :data:`RAMP_DELTA`) in lockstep with the centre
    and takes their phase-aligned central difference.
    """
    return propagate(schedule, e, x=x, t_samples=t_samples, nmax=nmax, tol=tol)


def ground_state_qfi(e: EffectiveParams, x: EstimandTag, *,
                     nmax: int | None = None) -> float:
    """QFI of the finite-η ground state, 4 Σ_{n>0} |⟨n|∂H|0⟩|²/(E_n − E_0)²
    from one decomposition (You, Li & Gu, PRE 76, 022101 (2007))."""
    tpl = _HamiltonianTemplate(e.omega, e.eta, e.quartic, nmax or auto_nmax(e.eta))
    evals, evecs = eig_banded(tpl.hamiltonian(e.g).banded_upper(), lower=False)
    dh0 = _apply_banded(*tpl.d_bands(e.g, chain_rule(x, e)), evecs[:, 0])
    m = (evecs[:, 1:].T @ dh0) / (evals[1:] - evals[0])
    return 4.0 * float(np.dot(m, m))
