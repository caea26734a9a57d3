import math

import numpy as np
import pytest

from critmet.models import (AdiabaticRamp, DirectParams, EffectiveParams,
                            FiniteRamp, INFINITE_ETA, LMGParams,
                            QuantumRabiParams, QuarticKind, SuddenQuench,
                            chain_rule, estimand, map_direct, map_lmg,
                            map_quantum_rabi, rabi_coupling_for_g,
                            schedule_value)


class TestRabiMapping:
    def test_critical_point(self):
        e = map_quantum_rabi(QuantumRabiParams(omega=1.0, Omega=1e4, lam=50.0))
        assert e.g == pytest.approx(1.0, abs=1e-15)
        assert e.eta == pytest.approx(1e4)
        assert e.quartic is QuarticKind.QR

    def test_zero_coupling(self):
        e = map_quantum_rabi(QuantumRabiParams(omega=1.0, Omega=1e4, lam=0.0))
        assert e.g == 0.0

    def test_generic_point(self):
        e = map_quantum_rabi(QuantumRabiParams(omega=2.0, Omega=200.0, lam=9.0))
        assert e.g == pytest.approx(0.9, rel=1e-14)
        assert e.eta == pytest.approx(100.0)

    def test_superradiant_rejected(self):
        with pytest.raises(ValueError, match="superradiant"):
            map_quantum_rabi(QuantumRabiParams(omega=1.0, Omega=1e4, lam=51.0))

    def test_inverted_frequency_ratio_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            map_quantum_rabi(QuantumRabiParams(omega=10.0, Omega=1.0, lam=0.1))

    def test_coupling_roundtrip(self):
        # lam = g sqrt(omega*Omega)/2 inverts the map at machine precision
        for g in (0.1, 0.5, 0.9, 1.0):
            lam = rabi_coupling_for_g(3.0, 300.0, g)
            e = map_quantum_rabi(QuantumRabiParams(omega=3.0, Omega=300.0, lam=lam))
            assert e.g == pytest.approx(g, rel=1e-15)


class TestLMGMapping:
    def test_critical_point(self):
        e = map_lmg(LMGParams(h=1.0, Lam=1.0, N=100))
        assert e.g == pytest.approx(1.0)
        assert e.eta == 100.0
        assert e.quartic is QuarticKind.LMG

    def test_zero_coupling(self):
        assert map_lmg(LMGParams(h=1.0, Lam=0.0, N=10)).g == 0.0

    def test_generic(self):
        e = map_lmg(LMGParams(h=4.0, Lam=1.0, N=50))
        assert e.g == pytest.approx(0.5)
        assert e.eta == 50.0
        assert e.omega == 4.0

    def test_ferromagnetic_rejected(self):
        with pytest.raises(ValueError, match="ferromagnetic"):
            map_lmg(LMGParams(h=1.0, Lam=1.5, N=10))


class TestEffectiveParams:
    def test_g_above_one_hard_error(self):
        with pytest.raises(ValueError, match="normal phase"):
            EffectiveParams(omega=1.0, eta=10.0, g=1.01, quartic=QuarticKind.QR)

    def test_infinite_eta_flag(self):
        e = map_direct(DirectParams(omega=1.0, eta=INFINITE_ETA, g=0.5))
        assert e.is_thermodynamic
        assert e.quartic_coefficient() == 0.0

    def test_quartic_coefficient_at_critical(self):
        e = map_direct(DirectParams(omega=1.0, eta=200.0, g=1.0,
                                    quartic=QuarticKind.QR))
        assert e.quartic_coefficient() == pytest.approx(1.0 / (4 * 200.0))


class TestSchedules:
    def test_quench_constant(self):
        s = SuddenQuench(g_f=0.8, T=5.0)
        assert schedule_value(s, 0.0) == 0.8
        assert schedule_value(s, 5.0) == 0.8

    def test_adiabatic_origin_and_tau(self):
        s = AdiabaticRamp(phi_ad=0.1, omega=2.0, T=100.0)
        assert s.tau_q == pytest.approx(5.0)
        assert schedule_value(s, 0.0) == 0.0
        assert schedule_value(s, s.tau_q) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_finite_ramp_values(self):
        s = FiniteRamp(r=2.0, T=8.0)
        assert schedule_value(s, 4.0) == pytest.approx(0.75)
        assert schedule_value(s, 8.0) == pytest.approx(1.0)
        assert schedule_value(s, 0.0) == 0.0

    def test_domain_enforced(self):
        s = FiniteRamp(r=1.0, T=1.0)
        with pytest.raises(ValueError):
            schedule_value(s, -0.5)
        with pytest.raises(ValueError):
            schedule_value(s, 1.5)

    def test_monotone_nondecreasing(self):
        ts = np.linspace(0.0, 20.0, 400)
        for s in (SuddenQuench(g_f=0.9, T=20.0),
                  AdiabaticRamp(phi_ad=0.2, omega=1.0, T=20.0),
                  FiniteRamp(r=0.5, T=20.0),
                  FiniteRamp(r=4.0, T=20.0)):
            g = np.asarray(schedule_value(s, ts))
            assert (np.diff(g) >= -1e-15).all()
            assert (g >= 0).all() and (g <= 1.0 + 1e-15).all()

    def test_phi_ad_cap(self):
        with pytest.raises(ValueError):
            AdiabaticRamp(phi_ad=0.7, omega=1.0, T=1.0)

    def test_adiabatic_criterion(self):
        # |dDelta/dt| / Delta^2 <= phi_ad * c with c <= 2, Delta = w sqrt(1-g^2)
        phi, om = 0.05, 1.3
        s = AdiabaticRamp(phi_ad=phi, omega=om, T=400.0)
        ts = np.linspace(1e-3, 400.0, 4000)
        g = np.asarray(schedule_value(s, ts))
        delta = om * np.sqrt(1.0 - g ** 2)
        ddelta = np.gradient(delta, ts)
        ratio = np.abs(ddelta) / delta ** 2
        assert ratio.max() <= 2.0 * phi


class TestChainRule:
    # chain_rule returns (∂ln ω, ∂ln g, ∂ln η)/∂x; the asserted ∂g/∂x and
    # ∂ω/∂x values are g·∂ln g and ω·∂ln ω

    def _rabi(self):
        return map_quantum_rabi(QuantumRabiParams(omega=2.0, Omega=200.0, lam=9.0))

    def test_rabi_values(self):
        e = self._rabi()
        p = e.physical
        dw, dg, deta = chain_rule(estimand(e, "lambda"), e)
        assert e.g * dg == pytest.approx(e.g / p.lam, rel=1e-14)
        assert dw == 0.0 and deta == 0.0
        dw, dg, deta = chain_rule(estimand(e, "omega"), e)
        assert e.g * dg == pytest.approx(-0.5 * e.g / p.omega, rel=1e-14)
        assert e.omega * dw == 1.0
        assert deta == pytest.approx(-1.0 / p.omega, rel=1e-14)
        dw, dg, deta = chain_rule(estimand(e, "Omega"), e)
        assert e.g * dg == pytest.approx(-0.5 * e.g / p.Omega, rel=1e-14)
        assert dw == 0.0
        assert deta == pytest.approx(1.0 / p.Omega, rel=1e-14)

    def test_lmg_values(self):
        e = map_lmg(LMGParams(h=4.0, Lam=1.0, N=50))
        dw, dg, deta = chain_rule(estimand(e, "Lambda"), e)
        assert e.g * dg == pytest.approx(e.g / (2 * 1.0), rel=1e-14)
        assert dw == 0.0 and deta == 0.0
        dw, dg, deta = chain_rule(estimand(e, "h"), e)
        assert e.g * dg == pytest.approx(-e.g / (2 * 4.0), rel=1e-14)
        assert e.omega * dw == 1.0 and deta == 0.0

    def test_mismatch_rejected(self):
        e = self._rabi()
        with pytest.raises(ValueError, match="does not belong"):
            chain_rule(estimand(map_lmg(LMGParams(h=1, Lam=0.5, N=5)), "h"), e)
        with pytest.raises(ValueError):
            estimand(e, "Lambda")

    def test_zero_coupling_rejected(self):
        e = map_quantum_rabi(QuantumRabiParams(omega=2.0, Omega=200.0, lam=0.0))
        with pytest.raises(ValueError, match="diverges"):
            chain_rule(estimand(e, "lambda"), e)
        el = map_lmg(LMGParams(h=4.0, Lam=0.0, N=50))
        with pytest.raises(ValueError, match="diverges"):
            chain_rule(estimand(el, "Lambda"), el)
        ed = map_direct(DirectParams(omega=1.5, eta=INFINITE_ETA, g=0.0))
        for name in ("g", "epsilon"):
            with pytest.raises(ValueError, match="diverges"):
                chain_rule(estimand(ed, name), ed)

    def test_finite_difference_consistency(self):
        # central differences of the maps reproduce the analytic logarithmic
        # derivatives of ω, g and η
        rel = 1e-6

        def check(build, e, name):
            tag = estimand(e, name)
            x0 = tag.value
            ep = build(x0 * (1 + rel))
            em = build(x0 * (1 - rel))
            d = 2 * x0 * rel
            fd = [(math.log(a) - math.log(b)) / d for a, b in
                  ((ep.omega, em.omega), (ep.g, em.g), (ep.eta, em.eta))]
            for got, want in zip(chain_rule(tag, e), fd):
                assert want == pytest.approx(got, rel=1e-6, abs=1e-12), name

        p = QuantumRabiParams(omega=2.0, Omega=200.0, lam=9.0)
        e = map_quantum_rabi(p)
        check(lambda v: map_quantum_rabi(
            QuantumRabiParams(omega=p.omega, Omega=p.Omega, lam=v)), e, "lambda")
        check(lambda v: map_quantum_rabi(
            QuantumRabiParams(omega=v, Omega=p.Omega, lam=p.lam)), e, "omega")
        check(lambda v: map_quantum_rabi(
            QuantumRabiParams(omega=p.omega, Omega=v, lam=p.lam)), e, "Omega")

        q = LMGParams(h=4.0, Lam=1.0, N=50)
        el = map_lmg(q)
        check(lambda v: map_lmg(LMGParams(h=q.h, Lam=v, N=q.N)), el, "Lambda")
        check(lambda v: map_lmg(LMGParams(h=v, Lam=q.Lam, N=q.N)), el, "h")

        r = DirectParams(omega=1.5, eta=80.0, g=0.6)
        ed = map_direct(r)
        check(lambda v: map_direct(DirectParams(omega=r.omega, eta=r.eta, g=v)),
              ed, "g")
        check(lambda v: map_direct(DirectParams(omega=v, eta=r.eta, g=r.g)),
              ed, "omega")
        check(lambda v: map_direct(DirectParams(omega=r.omega, eta=r.eta,
                                                g=math.sqrt(1 - v))), ed, "epsilon")

    def test_direct_estimands(self):
        e = map_direct(DirectParams(omega=1.5, eta=INFINITE_ETA, g=0.6))
        assert chain_rule(estimand(e, "g"), e) == (0.0, 1.0 / 0.6, 0.0)
        assert chain_rule(estimand(e, "omega"), e) == (1.0 / 1.5, 0.0, 0.0)
        dw, dg, deta = chain_rule(estimand(e, "epsilon"), e)
        assert e.g * dg == pytest.approx(-1.0 / (2 * 0.6))
        assert dw == 0.0 and deta == 0.0
        assert estimand(e, "epsilon").value == pytest.approx(1 - 0.36)
