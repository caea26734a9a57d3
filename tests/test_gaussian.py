import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from critmet.gaussian import (BlowUpError, SensitivityState, SqueezingState,
                              evolve_b, evolve_sensitivity,
                              evolve_sensitivity_many, geometric_times,
                              ground_state_b, photon_number, qfi_squeezed,
                              quench_b_exact, riccati_rhs, snr,
                              squeezed_overlap)
from critmet import gaussian
from critmet.integrate import integrate
from critmet.models import (AdiabaticRamp, DirectParams, EffectiveParams,
                            FiniteRamp, INFINITE_ETA, QuantumRabiParams,
                            SuddenQuench, chain_rule, estimand, map_direct,
                            map_quantum_rabi, rabi_coupling_for_g)


def rabi_critical(Omega=1e8):
    lam = rabi_coupling_for_g(1.0, Omega, 1.0)
    p = QuantumRabiParams(omega=1.0, Omega=Omega, lam=lam)
    e = map_quantum_rabi(p)
    return EffectiveParams(omega=1.0, eta=INFINITE_ETA, g=1.0,
                           quartic=e.quartic, physical=p)


def rabi_at(g, Omega=1e8):
    lam = rabi_coupling_for_g(1.0, Omega, g)
    p = QuantumRabiParams(omega=1.0, Omega=Omega, lam=lam)
    e = map_quantum_rabi(p)
    return EffectiveParams(omega=1.0, eta=INFINITE_ETA, g=e.g,
                           quartic=e.quartic, physical=p)


class TestGroundState:
    def test_vacuum_at_zero_coupling(self):
        assert ground_state_b(0.0).b == 0.0

    def test_value_at_g2_075(self):
        st = ground_state_b(math.sqrt(0.75))
        assert st.b == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert st.theta == 0.0

    def test_x_variance_wick(self):
        # <x^2> = (1+2b)/(2(1-2b)) must equal 1/(2 sqrt(1-g^2))
        for g2 in (0.3, 0.75, 0.99):
            b = ground_state_b(math.sqrt(g2)).b.real
            x2 = (1 + 2 * b) / (2 * (1 - 2 * b))
            assert x2 == pytest.approx(0.5 / math.sqrt(1 - g2), rel=1e-13)

    def test_rejects_critical(self):
        with pytest.raises(ValueError):
            ground_state_b(1.0)


class TestRiccati:
    def test_vacuum_stationary_at_zero_coupling(self):
        assert riccati_rhs(0.0, 0.0, 1.0) == 0.0

    def test_ground_state_stationary(self):
        for g in (0.1, 0.5, 0.9, 0.999):
            b = ground_state_b(g).b
            assert abs(riccati_rhs(b, g, 2.3)) < 1e-15

    def test_critical_vacuum_value(self):
        assert riccati_rhs(0.0, 1.0, 1.0) == pytest.approx(0.25j)


class TestQuenchExact:
    def test_t_zero(self):
        for g in (0.3, 0.9, 1.0):
            assert quench_b_exact(g, 1.0, 0.0).b == 0.0

    def test_critical_point_value(self):
        st = quench_b_exact(1.0, 1.0, 2.0)
        assert st.b == pytest.approx(0.25 + 0.25j, rel=1e-14)
        assert st.n_photons == pytest.approx(1.0, rel=1e-12)

    def test_periodicity_and_maximum(self):
        g2 = 0.8
        g = math.sqrt(g2)
        tau = math.pi / math.sqrt(1 - g2)
        assert abs(quench_b_exact(g, 1.0, tau).b) < 1e-13
        st = quench_b_exact(g, 1.0, 0.5 * tau)
        assert st.b == pytest.approx(g2 / (2 * (2 - g2)), rel=1e-12)
        assert st.n_photons == pytest.approx(0.8, rel=1e-12)  # g^4/(4(1-g^2))
        ts = np.linspace(0, 3 * tau, 301)
        b = quench_b_exact(g, 1.0, ts)
        n = 4 * np.abs(b) ** 2 / (1 - 4 * np.abs(b) ** 2)
        assert n.max() <= g2 ** 2 / (4 * (1 - g2)) * (1 + 1e-10)
        assert abs(quench_b_exact(g, 1.0, 1.3).b
                   - quench_b_exact(g, 1.0, 1.3 + tau).b) < 1e-12

    def test_critical_growth_laws(self):
        ts = np.geomspace(0.1, 50, 50)
        b = quench_b_exact(1.0, 1.0, ts)
        n = 4 * np.abs(b) ** 2 / (1 - 4 * np.abs(b) ** 2)
        assert np.max(np.abs(n - ts ** 2 / 4)) < 1e-10 * (1 + ts.max() ** 2)
        theta = np.angle(b)
        assert np.max(np.abs(theta - np.arctan2(2.0, ts))) < 1e-12


class TestEvolveB:
    def test_oracle_equivalence(self):
        # |ODE - closed form| < 10*tol over wt in [0,50] for the g^2 grid
        tol = 1e-10
        for g2 in (0.5, 0.8, 0.9, 0.95, 1.0):
            g = math.sqrt(g2)
            sch = SuddenQuench(g_f=g, T=50.0)
            traj = evolve_b(sch, 1.0, tol=tol, samples=256)
            b_ex = quench_b_exact(g, 1.0, traj.t)
            assert np.max(np.abs(traj.b - b_ex)) < 10 * tol

    def test_small_quench_tracks_exact(self):
        # quench to small g: vacuum oscillates within the exact envelope
        sch = SuddenQuench(g_f=0.3, T=20.0)
        traj = evolve_b(sch, 1.0, tol=1e-11, samples=128)
        b_ex = quench_b_exact(0.3, 1.0, traj.t)
        assert np.max(np.abs(traj.b - b_ex)) < 1e-10

    def test_ground_state_stationary_under_constant_g(self):
        # starting from the ground state at fixed g < 1, b stays put
        tol = 1e-10
        for g in (0.3, 0.9, 0.99):
            b_gs = ground_state_b(g).b
            sch = SuddenQuench(g_f=g, T=50.0)
            traj = evolve_b(sch, 1.0, tol=tol, samples=64, b0=b_gs)
            assert np.max(np.abs(traj.b - b_gs)) < 100 * tol

    def test_b0_validation(self):
        with pytest.raises(ValueError):
            evolve_b(SuddenQuench(g_f=0.5, T=1.0), 1.0, b0=0.6)

    def test_final_sample_exact(self):
        sch = SuddenQuench(g_f=0.9, T=7.0)
        traj = evolve_b(sch, 1.0)
        assert traj.t[-1] == 7.0

    def test_adiabatic_limit_tracks_ground_state(self):
        # phi_ad <= 1e-2: |b(T) - b_gs(g(T))| < 1e-2 for wT >= 100
        sch = AdiabaticRamp(phi_ad=1e-2, omega=1.0, T=150.0)
        traj = evolve_b(sch, 1.0, samples=64)
        gT = sch.value(150.0)
        assert abs(traj.b[-1] - ground_state_b(gT).b) < 1e-2

    def test_blowup_guard(self):
        # at g=1, 1-4|b|^2 = 4/((wt)^2+4) crosses 1e-12 near wt = 2e6;
        # the reported time is one (large, log-spaced) step past the floor
        sch = SuddenQuench(g_f=1.0, T=4e6)
        with pytest.raises(BlowUpError) as exc:
            evolve_b(sch, 1.0, tol=1e-8, samples=64)
        assert exc.value.t_blowup == pytest.approx(2e6, rel=0.25)

    def test_csv_roundtrip(self, tmp_path):
        sch = SuddenQuench(g_f=0.8, T=5.0)
        traj = evolve_b(sch, 1.0, samples=32)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape[0] == traj.t.size
        assert np.allclose(data["re_b"], traj.b.real, atol=1e-16)
        assert np.allclose(data["n_photons"], traj.n_photons, atol=1e-12)

    def test_geometric_grid(self):
        ts = geometric_times(10.0, 64)
        assert ts[0] == 0.0 and ts[-1] == 10.0
        assert ts.size == 64
        assert (np.diff(ts) > 0).all()


class TestPhotonNumber:
    def test_values(self):
        assert photon_number(SqueezingState(b=0.0 + 0j)) == 0.0
        assert photon_number(1.0 / 3.0 + 0j) == pytest.approx(0.8)
        assert photon_number(0.25 + 0.25j) == pytest.approx(1.0)

    def test_matches_sinh(self):
        st = SqueezingState(b=0.3 * np.exp(0.7j))
        assert st.n_photons == pytest.approx(math.sinh(st.z_magnitude) ** 2,
                                             rel=1e-12)


class TestSensitivity:
    def test_zero_sensitivity_for_absent_parameter(self):
        # direct-omega for a quench at fixed g: drives only the phase; at
        # g=0 nothing at all happens
        e = map_direct(DirectParams(omega=1.0, eta=INFINITE_ETA, g=0.5))
        sch = SuddenQuench(g_f=0.5, T=3.0)
        st = evolve_sensitivity(sch, estimand(e, "omega"), e).final()
        assert abs(st.db_dx) > 0  # omega does enter the dynamics
        # a parameter with zero chain-rule weights cannot be constructed
        # through the public API; absence is covered by Omega at g=0 below

    def test_critical_asymptote_corrected(self):
        # g * db/dg -> (2/3) i wT (the closed form verified against finite
        # differences of the exact solution)
        e = rabi_critical()
        tag = estimand(e, "lambda")
        sch = SuddenQuench(g_f=1.0, T=400.0)
        st = evolve_sensitivity(sch, tag, e, tol=1e-10).final()
        lam_s = tag.value * st.db_dx
        assert lam_s.imag / 400.0 == pytest.approx(2.0 / 3.0, rel=1e-3)
        assert abs(lam_s.real) < 1.0

    def test_finite_difference_oracle(self):
        # ds/dx from the tangent system matches central differences of
        # evolve_b under x(1 +- delta) to < 1e-4 relative
        e = rabi_at(0.9)
        p = e.physical
        T = 17.0
        for name in ("lambda", "omega", "Omega"):
            tag = estimand(e, name)
            st = evolve_sensitivity(SuddenQuench(g_f=0.9, T=T), tag, e,
                                    tol=1e-12).final()
            rel = 1e-6
            dx = tag.value * rel

            def b_at(x):
                kw = {"omega": p.omega, "Omega": p.Omega, "lam": p.lam}
                kw[{"lambda": "lam", "omega": "omega", "Omega": "Omega"}[name]] = x
                pp = QuantumRabiParams(**kw)
                ee = map_quantum_rabi(pp)
                sch = SuddenQuench(g_f=ee.g, T=T)
                return evolve_b(sch, ee.omega, tol=1e-12, samples=8).b[-1]

            fd = (b_at(tag.value + dx) - b_at(tag.value - dx)) / (2 * dx)
            assert abs(st.db_dx - fd) / abs(fd) < 1e-4

    def test_ramp_sensitivity_fd_oracle(self):
        # same check along a finite ramp (multiplicative-scale convention)
        e = rabi_critical()
        tag = estimand(e, "omega")
        T = 30.0
        st = evolve_sensitivity(FiniteRamp(r=2.0, T=T), tag, e,
                                tol=1e-12).final()
        rel = 1e-6
        p = e.physical

        def b_at(w):
            scale = math.sqrt(p.omega / w)   # g -> g*sqrt(omega/w), lab profile fixed
            sch = FiniteRamp(r=2.0, T=T)

            def rhs(t, y):
                g = scale * sch.value(t)
                g2 = g * g
                return -1j * w * (-0.25 * g2 + (2 - g2) * y - g2 * y * y)

            sol = solve_ivp(rhs, (0.0, T), np.zeros(1, complex),
                            method="DOP853", rtol=1e-12, atol=1e-14)
            return sol.y[0, -1]

        dx = rel * 1.0
        fd = (b_at(1.0 + dx) - b_at(1.0 - dx)) / (2 * dx)
        assert abs(st.db_dx - fd) / abs(fd) < 1e-4

    def test_batch_matches_single(self):
        e = rabi_critical()
        tags = [estimand(e, "lambda"), estimand(e, "omega")]
        Ts = [5.0, 20.0, 80.0]
        finals, nph = evolve_sensitivity_many(
            [SuddenQuench(g_f=1.0, T=T) for T in Ts], tags, e, tol=1e-11)
        for T, states in zip(Ts, finals):
            single = evolve_sensitivity(SuddenQuench(g_f=1.0, T=T), tags, e,
                                        tol=1e-11)
            for k in (0, 1):
                assert abs(states[k].db_dx - single.final(k).db_dx) < 1e-8 * (1 + T)
        assert nph.shape == (257, 3)

    def test_compiled_kernel_against_numpy_stepper(self):
        # the DOP853 kernel agrees with scipy's solve_ivp on the Riccati
        # equation and its λ tangent along an r = 2 ramp, in real time
        e = rabi_critical()
        tag = estimand(e, "lambda")
        T = 12.0
        sch = FiniteRamp(r=2.0, T=T)
        fast = evolve_sensitivity(sch, tag, e, tol=1e-11).final()

        def rhs(t, y):
            b, s = y
            g2 = sch.value(t) ** 2
            dg2 = 2.0 * g2 / tag.value   # g ∝ λ: ∂(g²)/∂λ = 2g²/λ
            db = -1j * (-0.25 * g2 + (2 - g2) * b - g2 * b * b)
            ds = (-1j * ((2 - g2) - 2 * g2 * b) * s
                  - 1j * (-0.25 - b - b * b) * dg2)
            return [db, ds]

        sol = solve_ivp(rhs, (0.0, T), np.zeros(2, complex), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        ref_b, ref_s = sol.y[:, -1]
        assert abs(fast.b - ref_b) < 1e-9
        assert abs(fast.db_dx - ref_s) < 1e-9 * abs(ref_s)

    def test_jitted_kernel_matches_python_kernel(self):
        # skipped where numba is not installed
        pytest.importorskip("numba")
        from critmet import _fastpath as fp

        args = (fp.KIND_RAMP, 2.0, 40.0, 1.0, np.array([0.5, 0.0]),
                np.array([0.0, 1.0]), 1e-10, np.linspace(0.1, 1.0, 10),
                gaussian.NORMALIZABILITY_FLOOR, np.zeros(3, complex))
        jit = fp.drive(*args)
        py = fp.drive.py_func(*args)
        assert jit[1:] == py[1:]         # steps, rejections, evaluations, status
        assert np.allclose(jit[0], py[0], rtol=1e-12, atol=1e-14)

    def test_work_counters(self):
        # one right-hand side at s = 0, then 12 per attempted step
        calls = []

        def counting(*args, **kwargs):
            res = integrate(*args, **kwargs)
            calls.append(res)
            return res

        e = rabi_critical()
        original = gaussian.integrate
        gaussian.integrate = counting
        try:
            evolve_sensitivity(FiniteRamp(r=2.0, T=30.0), estimand(e, "omega"),
                               e, tol=1e-12)
        finally:
            gaussian.integrate = original
        (res,) = calls
        assert res.nsteps > 0 and res.nrejected > 0
        assert res.nfev == 1 + 12 * (res.nsteps + res.nrejected)

    def test_nonpositive_tol_rejected(self):
        sch = SuddenQuench(g_f=0.5, T=1.0)
        for tol in (0.0, -1e-10, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                evolve_b(sch, 1.0, tol=tol, samples=8)


def riccati_reference(g2, omega, ts, b0, dg2, dw):
    """(b, ∂b/∂x) at the times ts from solve_ivp on the Riccati equation and
    its tangent at constant coupling, with ∂(g²)/∂x = dg2, ∂ω/∂x = dw."""
    def rhs(t, y):
        b, s = y
        f = -1j * omega * (-0.25 * g2 + (2 - g2) * b - g2 * b * b)
        ds = (-1j * omega * ((2 - g2) - 2 * g2 * b) * s
              - 1j * omega * (-0.25 - b - b * b) * dg2 + f / omega * dw)
        return [f, ds]

    sol = solve_ivp(rhs, (0.0, ts[-1]), np.array([b0, 0.0], complex),
                    method="DOP853", t_eval=ts, rtol=1e-12, atol=1e-14)
    return sol.y


class TestQuenchClosedForm:
    @pytest.mark.parametrize("g2", [0.5, 0.9, 1.0 - 1e-9, 1.0])
    def test_sensitivity_against_solve_ivp(self, g2):
        # the samples pass through both branches of ds/dq: the series
        # below q = (ωt)²(1 - g²) = 1/2 and the closed form above it
        e = rabi_at(math.sqrt(g2)) if g2 < 1.0 else rabi_critical()
        tags = [estimand(e, "lambda"), estimand(e, "omega")]
        ts = geometric_times(25.0, 33)[1:]
        straj = evolve_sensitivity(SuddenQuench(g_f=e.g, T=25.0), tags, e,
                                   t_samples=ts)
        for k, tag in enumerate(tags):
            dlog_w, dlog_g, _ = chain_rule(tag, e)
            ref_b, ref_s = riccati_reference(e.g ** 2, e.omega, ts, 0.0,
                                             2.0 * e.g ** 2 * dlog_g,
                                             e.omega * dlog_w)
            assert np.max(np.abs(straj.b - ref_b)) < 1e-10
            assert np.max(np.abs(straj.db_dx[:, k] - ref_s) / np.abs(ref_s)) < 1e-10

    def test_squeezed_initial_state_against_solve_ivp(self):
        b0 = 0.1 + 0.05j
        g2, omega, T = 0.9, 1.3, 17.0
        y = gaussian._quench_closed_form(g2, omega, np.array([T]), b0,
                                         np.array([0.7, 0.0]),
                                         np.array([0.0, 1.0]))[0]
        for k, (dg2, dw) in enumerate([(0.7, 0.0), (0.0, 1.0)]):
            ref_b, ref_s = riccati_reference(g2, omega, [T], b0, dg2, dw)[:, 0]
            assert abs(y[0] - ref_b) < 1e-10
            assert abs(y[1 + k] - ref_s) < 1e-10 * abs(ref_s)
        traj = evolve_b(SuddenQuench(g_f=math.sqrt(g2), T=T), omega, b0=b0)
        assert traj.b[0] == b0 and abs(traj.b[-1] - y[0]) < 1e-12

    def test_b_matches_exact_solution(self):
        # rows shaped like the fig2/fig3 quench sweeps
        for g in (0.894427190999915878, 1.0):
            for T in np.geomspace(0.2, 500.0, 6):
                traj = evolve_b(SuddenQuench(g_f=g, T=T), 1.0, samples=257)
                b_ex = quench_b_exact(g, 1.0, traj.t)
                assert np.max(np.abs(traj.b - b_ex)) <= 1e-12

    def test_quench_makes_no_kernel_calls(self):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        e = rabi_critical()
        original = gaussian.integrate
        gaussian.integrate = counting
        try:
            straj = evolve_sensitivity(SuddenQuench(g_f=1.0, T=30.0),
                                       estimand(e, "omega"), e,
                                       t_samples=geometric_times(30.0, 257))
        finally:
            gaussian.integrate = original
        assert calls == [] and straj.b.size == 257

    def test_critical_blowup_time(self):
        # at g = 1, 1 - 4|b|² = 4/((ωt)² + 4) reaches the floor at
        # ωt = √(4/floor - 4)
        omega = 2.0
        floor = gaussian.NORMALIZABILITY_FLOOR
        t_b = math.sqrt(4.0 / floor - 4.0) / omega
        with pytest.raises(BlowUpError) as exc:
            evolve_b(SuddenQuench(g_f=1.0, T=1.01 * t_b), omega, samples=64)
        assert exc.value.t_blowup == pytest.approx(t_b, rel=1e-9)
        traj = evolve_b(SuddenQuench(g_f=1.0, T=0.99 * t_b), omega, samples=64)
        assert traj.n_photons[-1] < 1.0 / floor


class TestQFI:
    def test_trivial_values(self):
        tag = None
        st = SensitivityState(b=0j, db_dx=0j, estimand=tag)
        assert qfi_squeezed(st) == 0.0
        st = SensitivityState(b=0j, db_dx=1.0 + 0j, estimand=tag)
        assert qfi_squeezed(st) == pytest.approx(8.0)

    def test_adiabatic_ground_state_epsilon(self):
        # I_eps = 1/(8 eps^2) via the epsilon-derivative of the ground state
        eps = 0.25
        g = math.sqrt(1 - eps)
        b = ground_state_b(g).b
        db_deps = -1.0 / (2 * math.sqrt(eps) * (1 + math.sqrt(eps)) ** 2)
        assert b == pytest.approx(1 / 6)
        assert db_deps == pytest.approx(-4 / 9)
        st = SensitivityState(b=b, db_dx=db_deps + 0j, estimand=None)
        assert qfi_squeezed(st) == pytest.approx(1 / (8 * eps ** 2), rel=1e-12)
        assert qfi_squeezed(st) == pytest.approx(2.0)

    def test_fidelity_oracle(self):
        # 8(1-|<psi(x)|psi(x+d)>|)/d^2 reproduces qfi_squeezed to 1e-3 rel
        e = rabi_at(0.9)
        tag = estimand(e, "lambda")
        sch = SuddenQuench(g_f=0.9, T=9.0)
        straj = evolve_sensitivity(sch, tag, e, tol=1e-12)
        st = straj.final()
        qfi = qfi_squeezed(st)
        d = 1e-5 * tag.value
        b1 = st.b - st.db_dx * d
        b2 = st.b + st.db_dx * d
        fid = abs(squeezed_overlap(b1, b2))
        qfi_fid = 8 * (1 - fid) / (2 * d) ** 2
        assert qfi_fid == pytest.approx(qfi, rel=1e-3)

    def test_overlap_normalization(self):
        assert squeezed_overlap(0.2 + 0.1j, 0.2 + 0.1j) == pytest.approx(1.0)

    def test_snr(self):
        assert snr(1.0, 8.0) == 8.0
        assert snr(3.0, 2.0) == 18.0
        with pytest.raises(ValueError):
            snr(1.0, -1.0)

    def test_snr_ratio_omega_lambda_quench(self):
        # long-time critical quench: Q_omega / Q_lambda -> 1/4
        e = rabi_critical()
        tags = [estimand(e, "lambda"), estimand(e, "omega")]
        sch = SuddenQuench(g_f=1.0, T=300.0)
        straj = evolve_sensitivity(sch, tags, e, tol=1e-10)
        q_lam = snr(tags[0], qfi_squeezed(straj.final(0)))
        q_om = snr(tags[1], qfi_squeezed(straj.final(1)))
        assert q_om / q_lam == pytest.approx(0.25, rel=2e-4)

    def test_adiabatic_snr_prefactors(self):
        # exact tracking results: Q_lambda = (phi w T)^4 / 2 and
        # Q_omega = (1 + (phi w T)^2)^2 / 8
        phi = 1e-2
        T = 3000.0
        sch = AdiabaticRamp(phi_ad=phi, omega=1.0, T=T)
        e = rabi_critical()
        tags = [estimand(e, "lambda"), estimand(e, "omega")]
        straj = evolve_sensitivity(sch, tags, e, tol=1e-11)
        q_lam = snr(tags[0], qfi_squeezed(straj.final(0)))
        q_om = snr(tags[1], qfi_squeezed(straj.final(1)))
        x = phi * T
        assert q_lam == pytest.approx(x ** 4 / 2, rel=2e-2)
        assert q_om == pytest.approx((1 + x ** 2) ** 2 / 8, rel=2e-2)
