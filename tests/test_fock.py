import math

import numpy as np
import pytest

from critmet.bounds import estimand_form
from critmet.fock import (TruncationOverflow, auto_nmax,
                          build_hamiltonian, gap_converged, ground_and_gap,
                          ground_state, ground_state_qfi, observables_fock,
                          propagate, qfi_fock, vacuum, _HamiltonianTemplate,
                          _propagate_core)
from critmet.gaussian import evolve_sensitivity, ground_state_b
from critmet.models import (AdiabaticRamp, DirectParams, EffectiveParams,
                            INFINITE_ETA, LMGParams, QuantumRabiParams,
                            QuarticKind, SuddenQuench, chain_rule, estimand,
                            map_direct, map_lmg, map_quantum_rabi,
                            rabi_coupling_for_g)


def direct(g, eta, quartic=QuarticKind.QR):
    return map_direct(DirectParams(omega=1.0, eta=eta, g=g, quartic=quartic))


def rabi(g, eta):
    lam = rabi_coupling_for_g(1.0, eta, g)
    return map_quantum_rabi(QuantumRabiParams(omega=1.0, Omega=eta, lam=lam))


def ladder_operators(nmax, pad=6):
    """x², p², x⁴ on n <= nmax, built from ladder operators in a padded
    basis so that the truncated products carry exact matrix elements."""
    dim = nmax + 1 + pad
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    x = (a + a.T) / math.sqrt(2.0)
    x2 = x @ x
    p2 = -0.5 * (a.T - a) @ (a.T - a)
    keep = slice(0, nmax + 1)
    return x2[keep, keep], p2[keep, keep], (x2 @ x2)[keep, keep]


def pure_qfi(psi, dpsi):
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


def adiabatic_ramp_reference(nmax, Ts, *, omega=1.0, Omega=100.0, phi_ad=0.05):
    """(I_ω, ⟨N⟩) at the increasing times ``Ts`` of the critical Rabi
    adiabatic ramp, λ = √(ωΩ)/2, from (ψ, ∂ψ) propagated together by
    solve_ivp on the same truncation n <= nmax:
    i dψ/dt = Hψ, i d∂ψ/dt = H∂ψ + ∂H/∂ω ψ, ∂H/∂ω = (p² + x²)/2 at fixed
    λ, Ω and lab schedule.  Each interval between sample times is one
    solve_ivp run, so every value is taken at a step end."""
    from scipy.integrate import solve_ivp
    lam = 0.5 * math.sqrt(omega * Omega)
    sch = AdiabaticRamp(phi_ad=phi_ad, omega=omega, T=Ts[-1])
    x2, p2, x4 = ladder_operators(nmax)
    h0 = 0.5 * omega * (p2 + x2)
    dim = nmax + 1

    def rhs(t, y):
        s2 = sch.value(t) ** 2
        h = h0 - (2 * lam ** 2 / Omega) * s2 * x2 + (4 * lam ** 4 / Omega ** 3) * s2 * s2 * x4
        return -1j * np.concatenate([h @ y[:dim], h @ y[dim:] + (h0 / omega) @ y[:dim]])

    y = np.zeros(2 * dim, dtype=complex)
    y[0] = 1.0
    t0, out = 0.0, []
    for T in Ts:
        y = solve_ivp(rhs, (t0, T), y, method="DOP853", rtol=1e-11, atol=1e-13).y[:, -1]
        t0 = T
        out.append((pure_qfi(y[:dim], y[dim:]),
                    float(np.sum(np.arange(dim) * np.abs(y[:dim]) ** 2))))
    return out


class TestHamiltonian:
    def test_harmonic_limit(self):
        h = build_hamiltonian(direct(0.0, 100.0, QuarticKind.NONE), 0.0, 64)
        sl = ground_and_gap(h)
        assert sl.e0 == pytest.approx(0.5, abs=1e-12)
        assert sl.gap == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_x4_element(self):
        # <0|x^4|0> = 3/4 enters the (0,0) matrix element through w f/eta
        e = direct(1.0, 200.0, QuarticKind.QR)
        h = build_hamiltonian(e, 1.0, 32)
        expected = 0.25 * (2 - 1.0) + (0.25 / 200.0) * 0.75
        assert h.diag[0] == pytest.approx(expected, rel=1e-14)

    def test_quartic_coefficient_qr_at_critical(self):
        e = direct(1.0, 50.0, QuarticKind.QR)
        h = build_hamiltonian(e, 1.0, 32)
        # off4 band is w f(g)/eta * sqrt((n+1)(n+2)(n+3)(n+4))/4
        assert h.off4[0] == pytest.approx((0.25 / 50.0) * math.sqrt(24) / 4)

    def test_dense_matches_banded_apply(self):
        e = direct(0.7, 30.0, QuarticKind.LMG)
        h = build_hamiltonian(e, 0.7, 48)
        rng = np.random.default_rng(3)
        v = rng.normal(size=49) + 1j * rng.normal(size=49)
        assert np.allclose(h.dense() @ v, h.apply(v), atol=1e-12)

    def test_gap_thermodynamic_formula(self):
        # quartic off: gap = w sqrt(1-g^2) up to truncation error
        e = direct(math.sqrt(0.75), 100.0, QuarticKind.NONE)
        sl = ground_and_gap(build_hamiltonian(e, e.g, 160))
        assert sl.gap == pytest.approx(0.5, rel=1e-9)

    def test_eta_inf_requires_gaussian(self):
        with pytest.raises(ValueError, match="Gaussian"):
            build_hamiltonian(direct(0.5, INFINITE_ETA, QuarticKind.QR), 0.5, 32)

    def test_min_truncation(self):
        with pytest.raises(ValueError, match="16"):
            build_hamiltonian(direct(0.5, 10.0), 0.5, 8)


class TestSpectrum:
    def test_gap_scaling_eta_third(self):
        vals = {}
        for eta, nm in ((1e2, 256), (1e3, 512), (1e4, 1024)):
            e = direct(1.0, eta, QuarticKind.QR)
            sl = ground_and_gap(build_hamiltonian(e, 1.0, nm))
            vals[eta] = sl.gap * eta ** (1.0 / 3.0)
        mean = sum(vals.values()) / 3
        assert all(abs(v - mean) / mean < 0.1 for v in vals.values())

    def test_gap_converged_doubles(self):
        e = direct(1.0, 100.0, QuarticKind.QR)
        sl, nm = gap_converged(e, 1.0, 64)
        assert nm >= 128
        ref = ground_and_gap(build_hamiltonian(e, 1.0, 1024))
        assert sl.gap == pytest.approx(ref.gap, rel=1e-8)

    def test_ground_state_x2_saturation(self):
        # <x^2> ~ eta^(1/3) at criticality, constant within 10 percent
        ratios = []
        for eta, nm in ((1e2, 256), (1e3, 512), (1e4, 1024)):
            e = direct(1.0, eta, QuarticKind.QR)
            _, v = ground_state(build_hamiltonian(e, 1.0, nm))
            obs = observables_fock(v.astype(complex))
            ratios.append(obs.x2 * eta ** (-1.0 / 3.0))
        mean = sum(ratios) / 3
        assert all(abs(r - mean) / mean < 0.1 for r in ratios)

    def test_heuristic_one_factor_two(self):
        # finite-eta critical <x^2> vs thermodynamic value at g*^2 = 1-eta^(-2/3)
        for eta, nm in ((1e2, 256), (1e3, 512), (1e4, 1024)):
            e = direct(1.0, eta, QuarticKind.QR)
            _, v = ground_state(build_hamiltonian(e, 1.0, nm))
            x2 = observables_fock(v.astype(complex)).x2
            x2_thermo = 0.5 * eta ** (1.0 / 3.0)   # 1/(2 sqrt(1-g*^2))
            assert 0.5 < x2 / x2_thermo < 2.0


class TestObservables:
    def test_vacuum(self):
        obs = observables_fock(vacuum(32))
        assert (obs.n, obs.x2, obs.p2) == (0.0, 0.5, 0.5)

    def test_squeezed_ground_state_cross_check(self):
        # quartic off at g^2 = 0.75: <x^2> = 1 exactly (Gaussian ground state)
        e = direct(math.sqrt(0.75), 100.0, QuarticKind.NONE)
        _, v = ground_state(build_hamiltonian(e, e.g, 160))
        obs = observables_fock(v.astype(complex))
        assert obs.x2 == pytest.approx(1.0, rel=1e-9)
        assert obs.p2 == pytest.approx(0.25, rel=1e-9)
        b = ground_state_b(e.g)
        assert obs.n == pytest.approx(b.n_photons, rel=1e-9)


class TestPropagation:
    def test_idle_at_zero_coupling(self):
        # g = 0 keeps the vacuum up to a global phase; exercised through a
        # tiny quench since SuddenQuench requires g_f > 0
        e = direct(1e-8, 50.0, QuarticKind.NONE)
        res = propagate(SuddenQuench(g_f=1e-8, T=12.0), e, nmax=64)
        amp = res.final.amplitudes
        assert abs(amp[0]) == pytest.approx(1.0, abs=1e-9)

    def test_quench_photon_number_vs_gaussian(self):
        e = rabi(math.sqrt(0.8), 1e6)
        tau = math.pi / math.sqrt(0.2)
        res = propagate(SuddenQuench(g_f=e.g, T=tau / 2), e, nmax=192)
        obs = observables_fock(res.final)
        assert obs.n == pytest.approx(0.8, rel=0.01)

    def test_norm_and_tail_invariants(self):
        e = rabi(1.0, 1e3)
        ts = np.linspace(1.0, 30.0, 10)
        res = propagate(SuddenQuench(g_f=1.0, T=30.0), e, nmax=1024,
                        t_samples=ts)
        assert res.norm_drift < 1e-9
        assert res.tail_max < 1e-10
        res.final.validate()

    def test_truncation_overflow_reported_and_autodoubled(self):
        e = rabi(1.0, 1e3)
        with pytest.raises(TruncationOverflow):
            _propagate_core(SuddenQuench(g_f=1.0, T=30.0), e, nmax=64,
                            tol=1e-9)
        res = propagate(SuddenQuench(g_f=1.0, T=30.0), e, nmax=64)
        assert res.nmax > 64    # doubled until the tail fits
        assert res.tail_max < 1e-10

    def test_krylov_matches_spectral_constant_g(self):
        # time-independent H: Krylov stepping against the exact spectral path
        e = direct(0.9, 200.0, QuarticKind.QR)
        ts = np.linspace(0.5, 8.0, 5)
        spec = _propagate_core(SuddenQuench(g_f=0.9, T=8.0), e, nmax=128,
                               tol=1e-10, t_samples=ts)

        class _Ramp:
            # constant-value schedule disguised as time-dependent to force
            # the Krylov path
            T = 8.0
            target_g = 0.9

            def value(self, t):
                return 0.9

        from critmet import fock as fk
        tpl = fk._HamiltonianTemplate(1.0, 200.0, QuarticKind.QR, 128)
        kry = fk._propagate_krylov(tpl, lambda t: 0.9, ts, 128, 1e-10)
        for i in range(len(ts)):
            ov = abs(np.vdot(spec.states[i], kry.states[i]))
            assert ov == pytest.approx(1.0, abs=1e-9)
        assert kry.norm_drift < 1e-11

    def test_energy_conservation_constant_g(self):
        e = direct(0.9, 200.0, QuarticKind.QR)
        from critmet import fock as fk
        tpl = fk._HamiltonianTemplate(1.0, 200.0, QuarticKind.QR, 128)
        ts = np.array([50.0, 100.0])
        res = fk._propagate_krylov(tpl, lambda t: 0.9, ts, 128, 1e-10)
        h = build_hamiltonian(e, 0.9, 128)
        e_vals = [h.expectation(res.states[i]) for i in range(2)]
        e0 = h.expectation(vacuum(128).amplitudes)
        for ev in e_vals:
            assert ev == pytest.approx(e0, rel=1e-8)

    def test_finite_gap_revivals(self):
        # quench at g=1 with eta finite: <N> oscillates instead of growing
        e = rabi(1.0, 1e3)
        ts = np.linspace(5.0, 120.0, 47)
        res = propagate(SuddenQuench(g_f=1.0, T=120.0), e, nmax=1536,
                        t_samples=ts)
        n_t = np.array([observables_fock(res.state(i)).n for i in range(47)])
        n_sat = ts ** 2 / 4
        late = ts > 40
        assert n_t[late].max() < 40.0          # far below (wt)^2/4 ~ 3600
        assert n_t[late].std() / n_t[late].mean() > 0.05   # oscillatory


class TestDerivativeBands:
    @staticmethod
    def cases():
        p_qr = QuantumRabiParams(omega=2.0, Omega=200.0, lam=9.0)
        p_lmg = LMGParams(h=4.0, Lam=1.0, N=50)
        p_dir = DirectParams(omega=1.5, eta=80.0, g=0.6)
        for p, names in ((p_qr, ("lambda", "omega", "Omega")),
                         (p_lmg, ("Lambda", "h")),
                         (p_dir, ("g", "omega", "epsilon"))):
            e = {QuantumRabiParams: map_quantum_rabi, LMGParams: map_lmg,
                 DirectParams: map_direct}[type(p)](p)
            for name in names:
                yield e, estimand(e, name)

    def test_quadratic_part_is_bound_form(self):
        # quartic off: ∂H/∂x = mxx x² + mpp p², with the bound's M_x
        nmax = 40
        x2, p2, _ = ladder_operators(nmax)
        for e, tag in self.cases():
            e0 = EffectiveParams(omega=e.omega, eta=e.eta, g=e.g,
                                 quartic=QuarticKind.NONE, physical=e.physical)
            tpl = _HamiltonianTemplate(e0.omega, e0.eta, QuarticKind.NONE, nmax)
            for g in (0.3, e.g, 1.0):
                diag, off2, off4 = tpl.d_bands(g, chain_rule(tag, e0))
                q = estimand_form(e0, tag, g)
                want = q.mxx * x2 + q.mpp * p2
                assert off4 is None
                assert np.allclose(diag, np.diag(want), rtol=1e-13, atol=1e-13)
                assert np.allclose(off2, np.diag(want, 2), rtol=1e-13, atol=1e-13)

    def test_bands_against_rescaled_hamiltonian(self):
        # quartic on: ∂H/∂x against a central difference of the assembled H
        # over the physical parameter maps, at a coupling 0.8 of the target
        # (the lab profile is fixed)
        rel = 1e-6
        models = ((QuantumRabiParams(omega=2.0, Omega=200.0, lam=9.0), map_quantum_rabi,
                   {"lambda": "lam", "omega": "omega", "Omega": "Omega"}),
                  (LMGParams(h=4.0, Lam=1.0, N=50), map_lmg,
                   {"Lambda": "Lam", "h": "h"}))
        for p, build, fields in models:
            e = build(p)
            for name, field in fields.items():
                tag = estimand(e, name)
                h = [build_hamiltonian(ep, 0.8 * ep.g, 48).dense()
                     for ep in (build(type(p)(**{**vars(p), field: tag.value * (1 + s)}))
                                for s in (rel, -rel))]
                fd = (h[0] - h[1]) / (2 * rel * tag.value)
                tpl = _HamiltonianTemplate(e.omega, e.eta, e.quartic, 48)
                diag, off2, off4 = tpl.d_bands(0.8 * e.g, chain_rule(tag, e))
                got = (np.diag(diag) + np.diag(off2, 2) + np.diag(off2, -2)
                       + np.diag(off4, 4) + np.diag(off4, -4))
                assert np.abs(got - fd).max() <= 1e-7 * np.abs(fd).max(), (name,)


class TestQFIFock:
    def test_gaussian_limit_quench(self):
        e = rabi(math.sqrt(0.8), 1e6)
        tag = estimand(e, "lambda")
        ts = np.linspace(2.0, 20.0, 7)
        sch = SuddenQuench(g_f=e.g, T=20.0)
        res = qfi_fock(sch, e, tag, t_samples=ts, nmax=192)
        straj = evolve_sensitivity(sch, tag, e, tol=1e-11, t_samples=ts)
        assert np.max(np.abs(res.qfi - straj.qfi(0)) / straj.qfi(0)) < 0.01

    def test_exact_quench_derivative(self):
        # η = 1e3 critical quench against eigh and divided differences of a
        # dense Hamiltonian written in the Rabi parameters:
        # H = ω(p² + x²)/2 − (2λ²/Ω) x² + (4λ⁴/Ω³) x⁴
        omega, Omega, nmax = 1.0, 1e3, 1024
        lam = 0.5 * math.sqrt(omega * Omega)
        x2, p2, x4 = ladder_operators(nmax)
        even = np.arange(0, nmax + 1, 2)      # the vacuum's parity sector
        sel = np.ix_(even, even)
        h = (0.5 * omega * (p2 + x2) - (2 * lam ** 2 / Omega) * x2
             + (4 * lam ** 4 / Omega ** 3) * x4)[sel]
        dh = (-(4 * lam / Omega) * x2 + (16 * lam ** 3 / Omega ** 3) * x4)[sel]
        E, V = np.linalg.eigh(h)
        c0 = V[0]
        M = V.T @ dh @ V
        ts = np.array([30.0, 300.0])
        want = []
        for t in ts:
            ph = np.exp(-1j * E * t)
            dE = E[:, None] - E[None, :]
            same = dE == 0.0
            K = np.where(same, -1j * t * ph[:, None],
                         (ph[:, None] - ph[None, :]) / np.where(same, 1.0, dE))
            want.append(pure_qfi(ph * c0, (K * M) @ c0))
        e = map_quantum_rabi(QuantumRabiParams(omega=omega, Omega=Omega, lam=lam))
        res = qfi_fock(SuddenQuench(g_f=1.0, T=300.0), e, estimand(e, "lambda"),
                       t_samples=ts, nmax=nmax)
        assert res.nmax == nmax
        assert np.max(np.abs(res.qfi - want) / np.abs(want)) <= 1e-9

    def test_quench_decomposes_once(self, monkeypatch):
        from critmet import fock as fk
        calls = []
        real = fk.eig_banded
        monkeypatch.setattr(fk, "eig_banded",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        e = rabi(math.sqrt(0.8), 1e4)
        qfi_fock(SuddenQuench(g_f=e.g, T=6.0), e, estimand(e, "omega"),
                 t_samples=np.linspace(1.0, 6.0, 4), nmax=96)
        assert len(calls) == 1

    @pytest.mark.parametrize("nmax", [
        pytest.param(16, marks=pytest.mark.xfail(
            strict=True, reason="the midpoint rule's time error, which tol "
                                "does not bound, grows with the step cap "
                                "32/||H|| of a small truncation (5.9% here)")),
        160])
    def test_lockstep_ramp_branches(self, nmax):
        omega, Omega, T = 1.0, 100.0, 20.0
        ((want, _),) = adiabatic_ramp_reference(nmax, [T], omega=omega, Omega=Omega)
        lam = 0.5 * math.sqrt(omega * Omega)
        sch = AdiabaticRamp(phi_ad=0.05, omega=omega, T=T)
        e = map_quantum_rabi(QuantumRabiParams(omega=omega, Omega=Omega, lam=lam))
        res = qfi_fock(sch, e, estimand(e, "omega"), nmax=nmax)
        assert res.nmax == nmax            # the tail check passed
        assert abs(res.qfi[-1] - want) / want <= 1e-3

    def test_direct_omega_estimand_runs(self):
        e = direct(0.8, 500.0, QuarticKind.QR)
        tag = estimand(e, "omega")
        res = qfi_fock(SuddenQuench(g_f=0.8, T=5.0), e, tag, nmax=128)
        assert res.qfi[-1] > 0

    def test_ground_state_qfi_matches_gaussian_far_from_critical(self):
        # large eta, g well below 1: finite-size ground-state QFI approaches
        # the thermodynamic I_eps * (chain factors) for estimand lambda
        g = 0.6
        e = rabi(g, 1e7)
        tag = estimand(e, "lambda")
        qfi = ground_state_qfi(e, tag, nmax=96)
        eps = 1 - g * g
        # I_lambda = |dg/dlam * db/dg|^2 * 8/(1-4b^2)^2 = (g/lam)^2 g^2/(2 eps^2)
        expected = (e.g / tag.value) ** 2 * g * g / (2 * eps ** 2)
        assert qfi == pytest.approx(expected, rel=1e-3)

    def test_truncation_adequacy_of_qfi(self):
        # doubling the truncation moves the reported QFI by < 1e-3 relative
        e = rabi(math.sqrt(0.8), 1e6)
        tag = estimand(e, "lambda")
        sch = SuddenQuench(g_f=e.g, T=12.0)
        q1 = qfi_fock(sch, e, tag, nmax=128).qfi[-1]
        q2 = qfi_fock(sch, e, tag, nmax=256).qfi[-1]
        assert abs(q1 - q2) / q2 < 1e-3

    def test_auto_nmax(self):
        assert auto_nmax(1e3) == 80
        assert auto_nmax(1.0) == 64
