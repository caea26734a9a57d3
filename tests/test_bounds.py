import math

import numpy as np
import pytest

from critmet.bounds import (QuadraticForm, bound_for_estimand,
                            centered_variance_bound, displaced_bound,
                            estimand_form, general_bound, mx_eigenvalues,
                            quench_bound_closed, variance_quadratic)
from critmet.gaussian import Trajectory, evolve_b, quench_b_exact
from critmet.models import (DirectParams, EffectiveParams, INFINITE_ETA,
                            LMGParams, QuantumRabiParams, SuddenQuench,
                            estimand, map_direct, map_lmg, map_quantum_rabi,
                            rabi_coupling_for_g)


def rabi_eff(g, Omega=1e8):
    lam = rabi_coupling_for_g(1.0, Omega, g)
    p = QuantumRabiParams(omega=1.0, Omega=Omega, lam=lam)
    e = map_quantum_rabi(p)
    return EffectiveParams(omega=1.0, eta=INFINITE_ETA, g=e.g,
                           quartic=e.quartic, physical=p)


def quench_traj(g, T, samples=2049, tol=1e-11):
    sch = SuddenQuench(g_f=g, T=T)
    return evolve_b(sch, 1.0, tol=tol, samples=samples)


class TestEigenvalues:
    def test_rabi_lambda_form(self):
        e = rabi_eff(1.0)
        q = estimand_form(e, estimand(e, "lambda"), 1.0)
        phi, chi = mx_eigenvalues(q)
        assert phi == pytest.approx(-1.0 / e.physical.lam_c, rel=1e-12)
        assert chi == 0.0

    def test_omega_form_half_half(self):
        e = rabi_eff(1.0)
        q = estimand_form(e, estimand(e, "omega"), 1.0)
        assert mx_eigenvalues(q) == (0.5, 0.5)

    def test_every_estimand_form(self):
        # the generic ∂h/∂x reproduces each model's closed form at any
        # instantaneous coupling g of the schedule
        p = QuantumRabiParams(omega=2.0, Omega=200.0, lam=9.0)
        e = map_quantum_rabi(p)
        q = LMGParams(h=4.0, Lam=1.0, N=50)
        el = map_lmg(q)
        ed = map_direct(DirectParams(omega=1.5, eta=INFINITE_ETA, g=0.6))
        for g in (0.2, 0.6, 0.9, 1.0):
            g2 = g * g
            want = {
                (e, "lambda"): (-e.omega * g2 / p.lam, 0.0),
                (e, "omega"): (0.5, 0.5),
                (e, "Omega"): (0.5 * e.omega * g2 / p.Omega, 0.0),
                (el, "Lambda"): (-0.5 * q.h * g2 / q.Lam, 0.0),
                (el, "h"): (0.5, 0.5),
                (ed, "g"): (-ed.omega * g2 / ed.g, 0.0),
                (ed, "omega"): (0.5 * (1.0 - g2), 0.5),
                # g(t) scales with its target: ε = 1 − g_target²
                (ed, "epsilon"): (0.5 * ed.omega * g2 / ed.g ** 2, 0.0),
            }
            for (eff, name), (mxx, mpp) in want.items():
                form = estimand_form(eff, estimand(eff, name), g)
                assert form.mxx == pytest.approx(mxx, rel=1e-14, abs=1e-15), name
                assert form.mpp == pytest.approx(mpp, rel=1e-14, abs=1e-15), name
                assert form.mxp == 0.0

    def test_zero_coupling_forms_rejected(self):
        cases = [map_quantum_rabi(QuantumRabiParams(omega=1.0, Omega=1e2, lam=0.0)),
                 map_lmg(LMGParams(h=1.0, Lam=0.0, N=10)),
                 map_direct(DirectParams(omega=1.0, eta=INFINITE_ETA, g=0.0))]
        for eff, name in zip(cases, ("lambda", "Lambda", "g")):
            with pytest.raises(ValueError):
                estimand_form(eff, estimand(eff, name), 0.5)

    def test_pauli_x(self):
        phi, chi = mx_eigenvalues(QuadraticForm(mxx=0.0, mpp=0.0, mxp=1.0))
        assert (phi, chi) == (1.0, -1.0)

    def test_signed_descending_magnitude(self):
        phi, chi = mx_eigenvalues(QuadraticForm(mxx=-3.0, mpp=1.0))
        assert (phi, chi) == (-3.0, 1.0)


class TestGeneralBound:
    def test_idle_vacuum(self):
        # N = 0, phi = chi = 1/2 -> bound on I is 8*(T/sqrt(2))^2 = 4T^2
        t = np.linspace(0, 3.0, 65)
        traj = Trajectory(t=t, b=np.zeros_like(t, dtype=complex),
                          schedule=SuddenQuench(g_f=0.5, T=3.0), omega=1.0,
                          tol=0, nsteps=0)
        rep = general_bound(traj, QuadraticForm(mxx=0.5, mpp=0.5))
        assert rep.bound == pytest.approx(4.0 * 9.0, rel=1e-12)

    def test_linear_photon_growth_t4(self):
        # N(t) = t with constant forms: bound = 8 c^2 (T^2 + T)^2 ~ T^4
        T = 50.0
        t = np.linspace(0, T, 4097)
        n = t
        b_mag = np.sqrt(n / (4 * (n + 1)))
        traj = Trajectory(t=t, b=b_mag.astype(complex),
                          schedule=SuddenQuench(g_f=0.5, T=T), omega=1.0,
                          tol=0, nsteps=0)
        rep = general_bound(traj, QuadraticForm(mxx=1.0, mpp=0.0))
        assert rep.bound == pytest.approx(8.0 * (T ** 2 + T) ** 2, rel=1e-6)

    def test_matches_closed_form_critical_quench(self):
        e = rabi_eff(1.0)
        for name in ("lambda", "omega"):
            tag = estimand(e, name)
            for wT in (1.0, 3.0, 10.0, 30.0):
                traj = quench_traj(1.0, wT)
                rep = bound_for_estimand(traj, e, tag)
                q_bound = tag.value ** 2 * rep.bound
                assert q_bound == pytest.approx(
                    quench_bound_closed(name, wT), rel=1e-3)

    def test_insufficient_samples_rejected(self):
        t = np.linspace(0, 1, 8)
        traj = Trajectory(t=t, b=np.zeros_like(t, dtype=complex),
                          schedule=SuddenQuench(g_f=0.5, T=1.0), omega=1.0,
                          tol=0, nsteps=0)
        with pytest.raises(ValueError, match="16"):
            general_bound(traj, QuadraticForm(mxx=0.5, mpp=0.5))

    def test_monotone_in_T(self):
        traj = quench_traj(math.sqrt(0.8), 40.0)
        e = rabi_eff(math.sqrt(0.8))
        rep = bound_for_estimand(traj, e, estimand(e, "lambda"))
        assert (np.diff(rep.cumulative) >= -1e-12).all()

    def test_periodic_secular_structure(self):
        # bound(n tau) = n^2 bound(tau) for a g < 1 quench
        g2 = 0.8
        g = math.sqrt(g2)
        tau = math.pi / math.sqrt(1 - g2)
        e = rabi_eff(g)
        tag = estimand(e, "lambda")
        ts = np.linspace(0, 5 * tau, 5 * 512 + 1)
        b = quench_b_exact(g, 1.0, ts)
        traj = Trajectory(t=ts, b=b, schedule=SuddenQuench(g_f=g, T=5 * tau),
                          omega=1.0, tol=0, nsteps=0)
        rep = bound_for_estimand(traj, e, tag)
        idx = [np.argmin(np.abs(ts - n * tau)) for n in range(1, 6)]
        b1 = rep.cumulative[idx[0]]
        for n, i in enumerate(idx, start=1):
            assert rep.cumulative[i] == pytest.approx(n ** 2 * b1, rel=1e-4)

    def test_quadrature_error_estimate(self):
        traj = quench_traj(1.0, 10.0, samples=513)
        e = rabi_eff(1.0)
        rep = bound_for_estimand(traj, e, estimand(e, "lambda"))
        fine = bound_for_estimand(quench_traj(1.0, 10.0, samples=8193), e,
                                  estimand(e, "lambda"))
        assert abs(rep.bound - fine.bound) <= 4 * rep.quadrature_error + 1e-9


class TestClosedFormBound:
    def test_spot_values(self):
        assert quench_bound_closed("lambda", 3.0) == pytest.approx(450.0)
        assert quench_bound_closed("omega", 3.0) == pytest.approx(225.0)
        assert quench_bound_closed("lambda", 0.0) == 0.0

    def test_vectorized(self):
        s = np.array([1.0, 2.0])
        out = quench_bound_closed("lambda", s)
        assert out[0] == pytest.approx(2 / 9 + 8 / 3 + 8)


class TestVarianceQuadratic:
    def test_number_operator_on_vacuum(self):
        assert variance_quadratic(0.5, 0.5, 0.0, 0.0, 0.5, 0.5) == pytest.approx(0.0)

    def test_squeezed_number_variance(self):
        # Var(N) on squeezed vacuum with <x^2>=1, <p^2>=1/4 equals 2N(N+1)
        var = variance_quadratic(0.5, 0.5, 0.0, 0.0, 1.0, 0.25)
        assert var == pytest.approx(0.28125)

    def test_heisenberg_rejected(self):
        with pytest.raises(ValueError, match="Heisenberg"):
            variance_quadratic(1.0, 1.0, 0.0, 0.0, 0.3, 0.3)

    def test_fock_wick_oracle(self):
        # brute-force fourth moments of squeezed vacua in a number basis
        rng = np.random.default_rng(7)
        dim = 160
        n = np.arange(dim)
        ln_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
        for _ in range(60):
            z = rng.uniform(0.05, 1.2)
            a1, a2, b_off = rng.normal(size=3)
            x2 = 0.5 * math.exp(2 * z)
            p2 = 0.5 * math.exp(-2 * z)
            m = np.arange(dim // 2)
            ln_amp = (0.5 * ln_fact[2 * m] - ln_fact[m] - m * math.log(2.0)
                      + m * math.log(math.tanh(z)))
            amp = np.zeros(dim)
            amp[2 * m] = np.exp(ln_amp - 0.5 * math.log(math.cosh(z)))
            assert abs(np.sum(amp ** 2) - 1.0) < 1e-12
            # O = a1 x^2 + a2 p^2 + b (xp+px)
            s2 = np.sqrt((n[:-2] + 1) * (n[:-2] + 2))
            x2_diag = n + 0.5
            var_qf = variance_quadratic(a1, a2, b_off, 0.3, x2, p2)

            def apply_O(v):
                out = np.zeros(dim, dtype=complex)
                out += (a1 + a2) * (x2_diag * v)
                out[:-2] += (a1 - a2) * 0.5 * s2 * v[2:]
                out[2:] += (a1 - a2) * 0.5 * s2 * v[:-2]
                # xp + px = i(a^dag 2 - a^2) in these conventions
                out[:-2] += -b_off * 1j * s2 * v[2:]
                out[2:] += b_off * 1j * s2 * v[:-2]
                return out

            ov = apply_O(amp.astype(complex))
            mean = np.real(np.vdot(amp, ov))
            second = np.real(np.vdot(ov, ov))
            assert second - mean ** 2 == pytest.approx(var_qf, abs=1e-9,
                                                       rel=1e-9)

    def test_inequality_chain(self):
        # Var <= 2(phi^2+chi^2)[(2N+1)^2 - 1/2] <= 2(phi^2+chi^2)(2N+1)^2
        rng = np.random.default_rng(11)
        m = 100_000
        a1, a2, b_off, c_off = rng.normal(size=(4, m))
        r = np.exp(rng.uniform(-1.5, 1.5, m))
        n_th = np.exp(rng.uniform(0, 2, m)) - 1  # mixed states allowed
        x2 = (n_th + 0.5) * r
        p2 = (n_th + 0.5) / r
        var = variance_quadratic(a1, a2, b_off, c_off, x2, p2)
        half_tr = 0.5 * (a1 + a2)
        rad = np.sqrt(0.25 * (a1 - a2) ** 2 + b_off ** 2 + c_off ** 2)
        phi, chi = half_tr + rad, half_tr - rad
        n_ph = 0.5 * (x2 + p2 - 1.0)
        mid = centered_variance_bound(phi, chi, n_ph)
        loose = 2.0 * (phi ** 2 + chi ** 2) * (2 * n_ph + 1) ** 2
        assert (var <= mid * (1 + 1e-12) + 1e-12).all()
        assert (mid <= loose * (1 + 1e-12)).all()


class TestDisplacedBound:
    def test_no_linear_value(self):
        # (5/2)(phi^2+chi^2)(2N+1)^2 at N=0, phi=chi=1 is 5
        assert displaced_bound(1.0, 1.0, 0.0) == pytest.approx(5.0)

    def test_zero_everything(self):
        assert displaced_bound(0.0, 0.0, 0.0, 0.0, has_linear=False) == 0.0

    def test_linear_requires_flag(self):
        with pytest.raises(ValueError):
            displaced_bound(1.0, 0.0, 0.0, v_norm=0.5, has_linear=False)

    def test_dominates_displaced_wick_variance(self):
        # randomized displaced squeezed Gaussians: exact variance (centered
        # identity + linear term) never exceeds either bound
        rng = np.random.default_rng(23)
        for _ in range(400):
            a1, a2, b_off, c_off = rng.normal(size=4)
            z = rng.uniform(0, 1.2)
            x2 = 0.5 * math.exp(2 * z)
            p2 = 0.5 * math.exp(-2 * z)
            alpha, beta = rng.normal(scale=1.5, size=2)
            var_c = variance_quadratic(a1, a2, b_off, c_off, x2, p2)
            mu1 = 2 * (a1 * alpha + b_off * beta)
            mu2 = 2 * (a2 * beta + b_off * alpha)
            var = var_c + mu1 ** 2 * x2 + mu2 ** 2 * p2
            half_tr = 0.5 * (a1 + a2)
            rad = math.sqrt(0.25 * (a1 - a2) ** 2 + b_off ** 2 + c_off ** 2)
            phi, chi = half_tr + rad, half_tr - rad
            n_ph = 0.5 * (x2 + p2 - 1.0) + 0.5 * (alpha ** 2 + beta ** 2)
            assert var <= displaced_bound(phi, chi, n_ph) * (1 + 1e-10)
            assert var <= displaced_bound(phi, chi, n_ph, v_norm=0.0,
                                          has_linear=True) * (1 + 1e-10)

    def test_centered_bound_dominates_variance_for_same_phi_chi_N(self):
        e = map_lmg(LMGParams(h=2.0, Lam=1.0, N=40))
        q = estimand_form(e, estimand(e, "Lambda"), e.g)
        phi, chi = mx_eigenvalues(q)
        for z in (0.0, 0.4, 1.0):
            x2 = 0.5 * math.exp(2 * z)
            p2 = 0.5 * math.exp(-2 * z)
            n_ph = 0.5 * (x2 + p2 - 1.0)
            var = variance_quadratic(phi, chi, 0.0, 0.0, x2, p2)
            assert var <= centered_variance_bound(phi, chi, n_ph) * (1 + 1e-12)
