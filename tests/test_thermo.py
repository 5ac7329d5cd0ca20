import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ninionics import oracle, thermo
from ninionics.errors import DomainError
from ninionics.occupation import Family, StatLabel
from ninionics.rationals import StatAngle
from ninionics.thermo import (
    GasSpec,
    ThermoQuantities,
    blackbody_fermion,
    blackbody_scalar,
    consistency_residuals,
    crossed_walls_thermo,
    dirac_ghost_thermo,
    energy_from_free_energy,
    ensemble_thermo,
    fermion_equivalence,
    free_energy_extrapolated,
    free_energy_quadrature,
    odd_count_limit,
    odd_count_ratio,
    required_m_cut,
    rotated_ensemble,
)

PI_SQ = math.pi ** 2
QUAD_TOL = 1e-12  # inner tolerance for the oracle runs in this file


def assert_consistent(tq: ThermoQuantities):
    dp, ds = consistency_residuals(tq)
    scale = max(1.0, abs(tq.energy))
    assert dp < 1e-12 * scale
    assert ds < 1e-12 * scale


class TestBlackbody:
    def test_energy_value(self):
        tq = blackbody_scalar(1.0)
        assert tq.energy == pytest.approx(PI_SQ / 30.0, rel=1e-15)
        assert tq.energy == pytest.approx(0.32899, rel=1e-4)

    def test_entropy_value(self):
        tq = blackbody_scalar(1.0)
        assert tq.entropy == pytest.approx(2.0 * PI_SQ / 45.0, rel=1e-15)
        assert tq.entropy == pytest.approx(0.43865, rel=1e-4)

    def test_beta_scaling(self):
        assert blackbody_scalar(2.0).energy == pytest.approx(PI_SQ / 480.0, rel=1e-15)

    def test_pressure_and_free_energy(self):
        tq = blackbody_scalar(1.3)
        assert tq.pressure == pytest.approx(tq.energy / 3.0, rel=1e-15)
        assert tq.f == pytest.approx(-tq.pressure, rel=1e-15)
        assert_consistent(tq)

    def test_fermion_seven_eighths(self):
        b, f = blackbody_scalar(1.0), blackbody_fermion(1.0)
        assert f.f == pytest.approx(0.875 * b.f, rel=1e-15)
        assert f.entropy == pytest.approx(0.875 * b.entropy, rel=1e-15)
        assert_consistent(f)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            blackbody_scalar(0.0)


def rotated_bose(p, q, beta=1.0):
    return ensemble_thermo(rotated_ensemble(GasSpec(Family.BOSE), beta,
                                            StatAngle.from_fraction(p, q)))


class TestScaledQuantities:
    """The bosonic rotation map: the same gas at q*beta."""

    def test_half_turn_sixteenth(self):
        base = blackbody_scalar(1.0)
        tq = rotated_bose(1, 2)
        assert tq.energy / base.energy == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert tq.beta == 2.0
        assert_consistent(tq)

    def test_no_rotation(self):
        assert rotated_bose(0, 1) == blackbody_scalar(1.0)

    def test_entropy_cubed_and_numerator_irrelevance(self):
        base = blackbody_scalar(1.0)
        a, b = rotated_bose(2, 3), rotated_bose(1, 3)
        assert a.entropy / base.entropy == pytest.approx(1.0 / 27.0, rel=1e-15)
        assert a == b  # denominator-only dependence

    def test_matches_blackbody_at_stretched_beta(self):
        tq = rotated_bose(3, 5)
        cold = blackbody_scalar(5.0)
        assert tq.f == pytest.approx(cold.f, rel=1e-14)
        assert tq.entropy == pytest.approx(cold.entropy, rel=1e-14)


class TestRotatedEnsemble:
    @pytest.mark.parametrize("degeneracy", [1.0, 2.0])
    @pytest.mark.parametrize("family,p,q,label,sign", [
        (Family.BOSE, 1, 2, StatLabel.BOSON, 1.0),
        (Family.BOSE, 1, 3, StatLabel.BOSON, 1.0),
        (Family.FERMI, 1, 2, StatLabel.FERMION, 1.0),
        (Family.FERMI, 5, 3, StatLabel.BOSON_GHOST, -1.0),
        (Family.FERMI, -1, 3, StatLabel.BOSON_GHOST, -1.0),  # 5/3 modulo two turns
        (Family.FERMI, 7, 4, StatLabel.FERMION, 1.0),
    ])
    def test_branch_weight_and_effective_beta(self, family, p, q, label, sign, degeneracy):
        beta = 0.7
        me = rotated_ensemble(GasSpec(family, degeneracy=degeneracy), beta,
                              StatAngle.from_fraction(p, q))
        assert me.out_family is label
        assert me.multiplicity == sign * degeneracy
        assert me.effective_beta == q * beta

    @pytest.mark.parametrize("family", [Family.BOSE, Family.FERMI])
    @pytest.mark.parametrize("beta,message", [
        (math.nan, "beta must be positive"),
        (0.0, "beta must be positive"),
        (1e-300, "beta=1e-300 "),  # checked before q*beta = 2e-300 is formed
    ])
    def test_bad_beta(self, family, beta, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            rotated_ensemble(GasSpec(family), beta, StatAngle.from_fraction(1, 2))


class TestFermionEquivalence:
    def test_odd_parity_stays_fermion(self):
        me = fermion_equivalence(1, 2)
        assert me.out_family is StatLabel.FERMION
        assert me.multiplicity == 1.0
        assert me.effective_beta == 2.0

    def test_full_turn_makes_ghosts(self):
        me = fermion_equivalence(1, 1)
        assert me.out_family is StatLabel.BOSON_GHOST
        assert me.multiplicity == -2.0
        assert me.effective_beta == 1.0

    def test_third_turn(self):
        me = fermion_equivalence(1, 3)
        assert (me.out_family, me.multiplicity, me.effective_beta) == (
            StatLabel.BOSON_GHOST, -2.0, 3.0)

    def test_ghost_weight_sign_invariant(self):
        for p, q in [(1, 1), (1, 2), (2, 3), (1, 3), (3, 4), (5, 6), (1, 5)]:
            me = fermion_equivalence(p, q)
            is_ghost = me.out_family in (StatLabel.BOSON_GHOST, StatLabel.FERMION_GHOST)
            assert (me.multiplicity < 0) == is_ghost

    def test_non_coprime(self):
        with pytest.raises(DomainError):
            fermion_equivalence(2, 4)

    def test_branch_conventions_against_the_oracle(self):
        # Pinned, not endorsed: the fermion branch counts one Dirac fermion (half the
        # oracle for two spin states), the ghost branch two ghosts (equal to it).
        for q in range(1, 7):
            for p in range(2 * q):
                if math.gcd(p, q) != 1:
                    continue
                closed = ensemble_thermo(fermion_equivalence(p, q, 1.0)).f
                oracle = free_energy_extrapolated(GasSpec(Family.FERMI, degeneracy=2), 1.0,
                                                  StatAngle.from_fraction(p, q))
                ratio = 2.0 if (p + q) % 2 == 1 else 1.0
                assert oracle / closed == pytest.approx(ratio, abs=1e-5), (p, q)


class TestDiracGhost:
    def test_energy(self):
        tq = dirac_ghost_thermo(1.0)
        assert tq.energy == pytest.approx(-PI_SQ / 1215.0, rel=1e-12)
        assert tq.energy == pytest.approx(-0.0081225, rel=1e-3)

    def test_entropy(self):
        assert dirac_ghost_thermo(1.0).entropy == pytest.approx(
            -4.0 * PI_SQ / 1215.0, rel=1e-12)

    def test_composition_identity(self):
        # -2 * (pi^2/30) / 3^4 = -pi^2/1215, an exact rational relation
        assert Fraction(-2, 1) * Fraction(1, 30) / 81 == Fraction(-1, 1215)
        tq = dirac_ghost_thermo(1.0)
        assert tq.energy == pytest.approx(-2.0 * blackbody_scalar(3.0).energy, rel=1e-15)

    def test_consistency_at_effective_beta(self):
        tq = dirac_ghost_thermo(1.0)
        assert tq.beta == 3.0
        assert_consistent(tq)

    def test_ensemble_thermo_fermion_branch(self):
        tq = ensemble_thermo(fermion_equivalence(1, 2, 1.0))
        assert tq.f == pytest.approx(blackbody_fermion(2.0).f, rel=1e-15)


class TestFiniteDifference:
    def test_blackbody_energy(self):
        eps = energy_from_free_energy(lambda b: blackbody_scalar(b).f, 1.0)
        assert eps == pytest.approx(blackbody_scalar(1.0).energy, rel=1e-6)

    def test_energy_is_minus_three_f(self):
        for beta in (0.5, 1.0, 2.0):
            f = blackbody_scalar(beta).f
            eps = energy_from_free_energy(lambda b: blackbody_scalar(b).f, beta)
            assert eps == pytest.approx(-3.0 * f, rel=1e-6)

    def test_dirac_ghost_energy(self):
        eps = energy_from_free_energy(lambda b: dirac_ghost_thermo(b).f, 1.0)
        assert eps == pytest.approx(dirac_ghost_thermo(1.0).energy, rel=1e-6)


class TestQuadratureOracle:
    def test_bose_blackbody(self):
        spec = GasSpec(Family.BOSE)
        f = free_energy_extrapolated(spec, 1.0, StatAngle.from_fraction(0, 1),
                                     inner_tol=QUAD_TOL)
        assert f == pytest.approx(-PI_SQ / 90.0, rel=1e-6)

    def test_bose_half_turn(self):
        spec = GasSpec(Family.BOSE)
        f = free_energy_extrapolated(spec, 1.0, StatAngle.from_fraction(1, 2),
                                     inner_tol=QUAD_TOL)
        assert f == pytest.approx(-PI_SQ / 90.0 / 16.0, rel=1e-5)

    def test_fermi_blackbody_and_seven_eighths(self):
        spec = GasSpec(Family.FERMI)
        f = free_energy_extrapolated(spec, 1.0, StatAngle.from_fraction(0, 1),
                                     inner_tol=QUAD_TOL)
        assert f == pytest.approx(-(7.0 / 8.0) * PI_SQ / 90.0, rel=1e-6)
        # 7/8 is itself brute-force verifiable from the alternating series
        eta4 = sum((-1) ** (k + 1) / k ** 4 for k in range(1, 400))
        zeta4 = sum(1.0 / k ** 4 for k in range(1, 400)) + 1.0 / (3 * 399 ** 3)
        assert eta4 / zeta4 == pytest.approx(7.0 / 8.0, abs=1e-7)
        f_bose = free_energy_extrapolated(GasSpec(Family.BOSE), 1.0,
                                          StatAngle.from_fraction(0, 1),
                                          inner_tol=QUAD_TOL)
        assert f / f_bose == pytest.approx(7.0 / 8.0, rel=1e-6)

    def test_single_regulator_value(self):
        spec = GasSpec(Family.BOSE)
        eps = 1e-3
        f = free_energy_quadrature(spec, 1.0, StatAngle.from_fraction(1, 2),
                                   required_m_cut(eps), eps, inner_tol=QUAD_TOL)
        # finite regulator: close to the limit but not extrapolated
        assert f == pytest.approx(-PI_SQ / 1440.0, rel=1e-4)

    def test_m_cut_guard_names_requirement(self):
        spec = GasSpec(Family.BOSE)
        need = required_m_cut(1e-2)
        with pytest.raises(DomainError, match=str(need)):
            free_energy_quadrature(spec, 1.0, StatAngle.from_fraction(1, 2),
                                   need - 1, 1e-2)

    def test_subnormal_regulator_is_a_domain_error(self):
        # -ln(1e-12) / 1e-320 overflows to inf before any cap could be built
        with pytest.raises(DomainError, match="reg_eps=1e-320 is too small"):
            required_m_cut(1e-320)

    def test_bad_regulator(self):
        with pytest.raises(DomainError):
            free_energy_quadrature(GasSpec(), 1.0, StatAngle.from_fraction(0, 1),
                                   100, 0.0)

    def test_massless_bose_with_mu_rejected(self):
        with pytest.raises(DomainError, match="diverges"):
            free_energy_extrapolated(GasSpec(Family.BOSE, mass=0.0, mu=0.5), 1.0,
                                     StatAngle.from_fraction(0, 1))

    def test_massive_bose_quadrature_bounded(self):
        # massive gas has a smaller |f| than massless at the same beta
        f_massive = free_energy_extrapolated(GasSpec(Family.BOSE, mass=1.0), 1.0,
                                             StatAngle.from_fraction(0, 1),
                                             inner_tol=1e-10)
        assert -PI_SQ / 90.0 < f_massive < 0.0

    def test_degeneracy_weight_linear(self):
        f1 = free_energy_extrapolated(GasSpec(Family.FERMI, degeneracy=1.0), 1.0,
                                      StatAngle.from_fraction(1, 3), inner_tol=QUAD_TOL)
        f2 = free_energy_extrapolated(GasSpec(Family.FERMI, degeneracy=2.0), 1.0,
                                      StatAngle.from_fraction(1, 3), inner_tol=QUAD_TOL)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    @pytest.mark.parametrize("family", [Family.BOSE, Family.FERMI])
    @pytest.mark.parametrize("q", [1, 2, 3, 7, 13, 64])
    def test_mode_integral_at_every_residue_phase(self, family, q):
        # massless, beta = 1: -(1/pi^2) sum_n cos(n phi)/n^4, a polynomial in
        # phi on [0, 2 pi]; the fermionic logarithm is the bosonic one at phi + pi.
        # At turns 1/q, residue a sits at a/q (bose) or (2a + 1)/2q (fermi) turns
        table, _ = oracle._mode_table(GasSpec(family), 1.0, Fraction(1, q), QUAD_TOL)
        for a in range(q):
            turns = Fraction(a, q) if family is Family.BOSE else Fraction(2 * a + 1, 2 * q)
            phi = 2.0 * math.pi * float(turns)
            if family is Family.FERMI:
                phi = math.fmod(phi + math.pi, 2.0 * math.pi)
            clausen = (math.pi ** 4 / 90.0 - PI_SQ * phi ** 2 / 12.0
                       + math.pi * phi ** 3 / 12.0 - phi ** 4 / 48.0)
            assert table[a] == pytest.approx(-clausen / PI_SQ, rel=1e-10), (a, q)

    @pytest.mark.parametrize("family", [Family.BOSE, Family.FERMI])
    @pytest.mark.parametrize("q", [7, 64])
    @pytest.mark.parametrize("tol", [thermo.DEFAULT_INNER_TOL, QUAD_TOL])
    def test_error_estimate_bounds_the_per_mode_error(self, family, q, tol):
        # massless, beta = 1: -(1/pi^2) sum_n cos(2 pi n t)/n^4 at t turns is
        # -pi^2 (1/90 - t^2/3 + 2 t^3/3 - t^4/3) on [0, 1], exact up to one rounding
        table, error = oracle._mode_table(GasSpec(family), 1.0, Fraction(1, q), tol)
        for a in range(q):
            t = Fraction(a, q) if family is Family.BOSE else Fraction(2 * a + 1, 2 * q)
            if family is Family.FERMI:
                t = (t + Fraction(1, 2)) % 1
            exact = -PI_SQ * float(Fraction(1, 90) - t ** 2 / 3 + 2 * t ** 3 / 3 - t ** 4 / 3)
            assert abs(table[a] - exact) <= error[a] + 4e-16 * abs(exact), (a, q)
            assert error[a] <= tol, (a, q)

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_one_integral_per_residue_and_branch(self, monkeypatch, mu):
        # a row is the phase's distance to the nearest whole turn and a mu branch; at 2/q,
        # q odd, the fermionic phases are the odd k/2q turns from 1/2q to 1/2, so the q
        # residues share (q + 1)/2 distances, conjugates a and q - 1 - a pairing up
        rows, exp_sinh = [], oracle._exp_sinh

        def counting(tol, *row):
            rows.append(row)
            return exp_sinh(tol, *row)

        monkeypatch.setattr(oracle, "_exp_sinh", counting)
        spec = GasSpec(Family.FERMI, mass=1.0, mu=mu)
        for q in (13, 301):
            chi = StatAngle.from_fraction(2, q)
            work = []
            for _ in range(2):  # a repeated call must redo the work: no hidden cache
                rows.clear()
                free_energy_extrapolated(spec, 1.0, chi)
                assert len(set(rows)) == len(rows)  # no row integrated twice
                work.append(len(rows))
            assert work == [(q + 1) // 2 * (2 if mu else 1)] * 2

    def test_memory_bounded_at_large_q(self):
        tracemalloc.start()
        try:
            free_energy_extrapolated(GasSpec(Family.BOSE), 1.0, StatAngle.from_fraction(1, 10_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_huge_mass_gives_zero_without_overflow(self):
        # (beta M)^2 overflows a float; every Boltzmann factor underflows to 0
        f = free_energy_extrapolated(GasSpec(Family.BOSE, mass=1e200), 1.0,
                                     StatAngle.from_fraction(1, 2))
        assert f == 0.0

    def test_degenerate_fermi_sea(self):
        # massless fermion at mu = 30 beta^-1: z = e^{mu - omega} reaches e^30; the
        # branch average of the pressure is 7 pi^2/720 + mu^2/24 + mu^4/(48 pi^2)
        mu = 30.0
        f = free_energy_extrapolated(GasSpec(Family.FERMI, mu=mu), 1.0,
                                     StatAngle.from_fraction(0, 1))
        assert f == pytest.approx(-(7.0 * PI_SQ / 720.0 + mu ** 2 / 24.0
                                    + mu ** 4 / (48.0 * PI_SQ)), rel=1e-12)


def _bessel_free_energy(family, beta, mass, mu, terms=40):
    """Non-rotating per-dof f(beta) = -(M^2 / 2 pi^2 beta^2) sum_n (+-1)^(n+1) K_2(n beta M)
    cosh(n beta mu) / n^2, the branch-averaged Boltzmann series; no quadrature."""
    from scipy.special import kn

    sign = 1.0 if family is Family.BOSE else -1.0
    total = math.fsum(sign ** (n + 1) * kn(2, n * beta * mass) * math.cosh(n * beta * mu) / n ** 2
                      for n in range(1, terms + 1))
    return -mass ** 2 * total / (2.0 * PI_SQ * beta ** 2)


class TestRegulatorLimit:
    """The oracle maps the gas rotated by p/q onto the non-rotating gas at q*beta
    past q ~ 11, where a regulator ladder at eps >= 1e-4 no longer converges."""

    def test_massless_bose_one_over_23(self):
        f = free_energy_extrapolated(GasSpec(Family.BOSE), 1.0, StatAngle.from_fraction(1, 23),
                                     inner_tol=QUAD_TOL)
        assert abs(f / blackbody_scalar(23.0).f - 1.0) < 1e-6

    def test_massive_bose_one_over_12(self):
        spec = GasSpec(Family.BOSE, mass=0.5, mu=0.2)
        f = free_energy_extrapolated(spec, 1.0, StatAngle.from_fraction(1, 12),
                                     inner_tol=QUAD_TOL)
        assert abs(f / _bessel_free_energy(Family.BOSE, 12.0, 0.5, 0.2) - 1.0) < 1e-6

    def test_massive_fermi_ghost_one_over_11(self):
        # p + q even: the fermion maps onto a per-dof bosonic ghost at 11 beta
        spec = GasSpec(Family.FERMI, mass=1.0, mu=0.5)
        f = free_energy_extrapolated(spec, 1.0, StatAngle.from_fraction(1, 11),
                                     inner_tol=QUAD_TOL)
        assert abs(f / -_bessel_free_energy(Family.BOSE, 11.0, 1.0, 0.5) - 1.0) < 1e-6

    @pytest.mark.parametrize("p", [1, 2, 39, 51, 100])
    def test_massless_bose_over_101(self, p):
        f = free_energy_extrapolated(GasSpec(Family.BOSE), 1.0, StatAngle.from_fraction(p, 101))
        assert abs(f / blackbody_scalar(101.0).f - 1.0) < 1e-5

    @pytest.mark.parametrize("p", [1, 2, 39, 51, 100])
    def test_massless_bose_over_101_at_default_tol(self, p):
        # f(101 beta) is about 1e-8 of the per-mode integrals it averages, so a
        # rounding error of 1e-16 in each is a relative 1e-8 here
        f = free_energy_extrapolated(GasSpec(Family.BOSE), 1.0, StatAngle.from_fraction(p, 101))
        assert abs(f / blackbody_scalar(101.0).f - 1.0) < 1e-7

    def test_bessel_reference_massless_limit(self):
        # the reference itself: K_2(x) ~ 2/x^2 recovers -pi^2/90 as M -> 0
        bose = _bessel_free_energy(Family.BOSE, 1.0, 1e-6, 0.0, terms=2000)
        fermi = _bessel_free_energy(Family.FERMI, 1.0, 1e-6, 0.0, terms=2000)
        assert bose == pytest.approx(-PI_SQ / 90.0, rel=1e-9)
        assert fermi == pytest.approx(-7.0 * PI_SQ / 720.0, rel=1e-9)

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 13, 101])
    @pytest.mark.parametrize("eps", thermo.DEFAULT_REGULATORS)
    def test_residue_weights_tend_to_one_over_q(self, q, eps):
        # each class weight tends to the count 1/q, the limit the oracle takes exactly
        weights = oracle._residue_weights(q, eps)
        assert len(weights) == q
        assert max(abs(w - 1.0 / q) for w in weights) <= q * eps ** 2

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 13])
    def test_residue_weights_match_the_truncated_sum(self, q):
        # the closed geometric sums against e^{-eps |m|} summed over |m| <= m_cut
        eps = 1e-2
        m = np.arange(-required_m_cut(eps), required_m_cut(eps) + 1)
        w = np.exp(-eps * np.abs(m))
        brute = np.bincount(m % q, weights=w, minlength=q) / w.sum()
        assert np.max(np.abs(oracle._residue_weights(q, eps) - brute)) <= 1e-12

    def test_quadrature_memory_bounded_at_small_regulator(self):
        # m_cut = 276,310,213 at reg_eps = 1e-7, but no array over m is built
        eps = 1e-7
        tracemalloc.start()
        try:
            free_energy_quadrature(GasSpec(Family.BOSE), 1.0, StatAngle.from_fraction(1, 3),
                                   required_m_cut(eps), eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestOddCount:
    def test_closed_form_at_unity(self):
        e = math.exp(-1.0)
        expected = (e / (1.0 - e * e)) / ((1.0 + e) / (1.0 - e))
        assert odd_count_ratio(1.0) == pytest.approx(expected, rel=1e-15)

    def test_limit_quarter(self):
        assert odd_count_limit() == pytest.approx(0.25, abs=1e-6)

    def test_limit_to_rounding(self):
        assert abs(odd_count_limit() - 0.25) <= 1e-12

    def test_direct_sum(self):
        eps, m_cut = 0.01, 20_000
        odd = math.fsum(math.exp(-eps * m) for m in range(1, m_cut + 1, 2))
        total = math.fsum(math.exp(-eps * abs(m)) for m in range(-m_cut, m_cut + 1))
        assert odd_count_ratio(eps) == pytest.approx(odd / total, rel=1e-12)

    def test_huge_eps_underflows_to_zero(self):
        # the 1/(4 cosh^2(eps/2)) form would overflow in math.cosh here
        assert odd_count_ratio(2000.0) == 0.0

    def test_monotone_to_limit(self):
        values = [odd_count_ratio(e) for e in (8.0, 4.0, 2.0, 1.0, 0.5, 0.1, 1e-3)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.25

    def test_large_eps_dominant_term(self):
        assert odd_count_ratio(40.0) == pytest.approx(math.exp(-40.0), rel=1e-15)

    def test_bad_eps(self):
        with pytest.raises(DomainError):
            odd_count_ratio(-0.1)


class TestCrossedWalls:
    def test_non_rotating_quarter(self):
        res = crossed_walls_thermo(1.0, rotating=False)
        assert res.oracle is None
        assert res.quantities.energy == pytest.approx(PI_SQ / 120.0, rel=1e-12)
        assert res.quantities.entropy == pytest.approx(PI_SQ / 90.0, rel=1e-12)
        assert_consistent(res.quantities)

    def test_rotating_reported_values(self):
        res = crossed_walls_thermo(1.0, rotating=True, inner_tol=QUAD_TOL)
        assert res.quantities.energy == pytest.approx(-PI_SQ / 1920.0, rel=1e-12)
        assert res.quantities.entropy == pytest.approx(-PI_SQ / 1440.0, rel=1e-12)
        assert_consistent(res.quantities)

    def test_rotating_per_mode_oracle(self):
        res = crossed_walls_thermo(1.0, rotating=True, inner_tol=QUAD_TOL)
        report = res.oracle
        assert report is not None
        assert report.per_mode_closed_form == pytest.approx(7.0 * PI_SQ / 720.0, rel=1e-15)
        assert report.per_mode_quadrature == pytest.approx(report.per_mode_closed_form,
                                                           rel=1e-6)
        assert report.count_factor == pytest.approx(0.25, abs=1e-6)
        assert_consistent(report.oracle)

    def test_rotating_deviation_reported_not_hidden(self):
        # the reported values and the per-mode composition disagree; the
        # deviation must come out of the API as data
        report = crossed_walls_thermo(1.0, rotating=True, inner_tol=QUAD_TOL).oracle
        assert math.isfinite(report.relative_deviation)
        assert report.relative_deviation > 1.0  # the convention ratio, see below

    def test_rotating_oracle_to_reported_ratio_is_fourteen(self):
        # (7/8) / (1/16): the fermionic per-mode form at beta against the
        # half-turn map to 2 beta of the quoted values (see WallsOracle)
        report = crossed_walls_thermo(1.0, rotating=True, inner_tol=QUAD_TOL).oracle
        assert report.oracle.energy / report.reported.energy == pytest.approx(14.0, rel=1e-9)


class TestGasSpecValidation:
    def test_negative_mass(self):
        with pytest.raises(DomainError):
            GasSpec(mass=-1.0)

    def test_bad_degeneracy(self):
        with pytest.raises(DomainError):
            GasSpec(degeneracy=0.0)
