import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ninionics import identities
from ninionics.errors import DomainError
from ninionics.occupation import Family
from ninionics.rationals import residue_phases
from ninionics.identities import (
    GAMMA_FLOOR,
    boson_identity_rhs,
    boson_phase_sum,
    check_boson_identity,
    check_fermion_identity,
    coprime_fractions,
    fermion_identity_rhs,
    fermion_phase_sum,
    regularized_count_limit,
    regularized_count_ratio,
    scan_identity_residuals,
)


def direct_complex_sum(p, q, gamma, fermionic):
    """Independent oracle: plain double loop over c and m with cmath."""
    total = 0j
    sign = 1.0 if fermionic else -1.0
    offset = 0.5 if fermionic else 0.0
    for c in (1, -1):
        for m in range(q):
            phase = 2.0 * math.pi * c * (m + offset) * p / q
            total += cmath.log(1.0 + sign * cmath.exp(-gamma + 1j * phase))
    return 0.5 * total


class TestBosonIdentity:
    def test_single_term(self):
        assert boson_phase_sum(1, 1, 1.0) == pytest.approx(
            math.log(1.0 - math.exp(-1.0)), abs=1e-15)

    def test_q_two_hand_expansion(self):
        # (1/2)[2 ln(1 - e^-1) + 2 ln(1 + e^-1)] = ln(1 - e^-2)
        got = boson_phase_sum(1, 2, 1.0)
        hand = math.log(1.0 - math.exp(-1.0)) + math.log(1.0 + math.exp(-1.0))
        assert got == pytest.approx(hand, abs=1e-14)
        assert got == pytest.approx(math.log(1.0 - math.exp(-2.0)), abs=1e-14)
        oracle = direct_complex_sum(1, 2, 1.0, fermionic=False)
        assert got == pytest.approx(oracle.real, abs=1e-13)

    def test_three_sevenths(self):
        assert abs(boson_phase_sum(3, 7, 0.5) - math.log1p(-math.exp(-3.5))) < 1e-12

    def test_residual_examples(self):
        # q = 1 is an algebraic triviality; lhs and rhs still travel separate
        # float paths (complex log vs log1p), so "exact" means a last-ulp match
        assert check_boson_identity(1, 1, 1.0).residual < 1e-15
        assert check_boson_identity(1, 2, 1.0).residual < 1e-12
        assert check_boson_identity(5, 8, 2.0).residual < 1e-12

    @pytest.mark.parametrize("p,q", [(1, 3), (2, 5), (4, 9), (7, 16), (5, 12)])
    @pytest.mark.parametrize("gamma", [0.1, 0.7, 3.0, 10.0])
    def test_matches_direct_oracle(self, p, q, gamma):
        oracle = direct_complex_sum(p, q, gamma, fermionic=False)
        assert abs(oracle.imag) < 1e-13  # conjugate-pair cancellation
        assert boson_phase_sum(p, q, gamma) == pytest.approx(oracle.real, abs=1e-12)

    def test_grid_residuals(self):
        for gamma in (0.1, 1.0, 10.0):
            for check in scan_identity_residuals("bose", 16, gamma):
                assert check.residual < 1e-12

    def test_numerator_independence(self):
        for q in (5, 7, 12, 16):
            values = [boson_phase_sum(p, q, 0.3)
                      for p in range(1, q + 1) if math.gcd(p, q) == 1]
            assert max(values) - min(values) < 1e-12

    def test_non_coprime_rejected(self):
        with pytest.raises(DomainError, match="irreducible"):
            boson_phase_sum(2, 4, 1.0)

    def test_gamma_floor(self):
        with pytest.raises(DomainError):
            boson_phase_sum(1, 2, 0.0)
        with pytest.raises(DomainError):
            boson_phase_sum(1, 2, GAMMA_FLOOR / 10)

    def test_nan_gamma_rejected(self):
        with pytest.raises(DomainError):
            boson_phase_sum(1, 2, float("nan"))
        with pytest.raises(DomainError):
            fermion_phase_sum(1, 2, float("nan"))

    @pytest.mark.parametrize("phase_sum", [boson_phase_sum, fermion_phase_sum])
    def test_memory_refusal_before_allocation(self, phase_sum):
        # a q the allocator would refuse outright; the budget check comes first
        with pytest.raises(DomainError, match=r"needs an estimated [\d.e+]+ MiB, over the "
                                              r"1024 MiB memory budget"):
            phase_sum(1, 10 ** 13, 1.0)

    def test_checks_survive_optimize_flag(self):
        code = ("from ninionics.identities import boson_phase_sum\n"
                "try:\n"
                "    print(boson_phase_sum(1, 2, float('nan')))\n"
                "except Exception as exc:\n"
                "    print(type(exc).__name__)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "DomainError"


class TestFermionIdentity:
    def test_full_turn_equals_boson_form(self):
        # single term: ln(1 + e^{-gamma + i pi}) = ln(1 - e^{-gamma}); sign (+1)^2
        got = check_fermion_identity(1, 1, 1.0)
        assert got.lhs == pytest.approx(math.log(1.0 - math.exp(-1.0)), abs=1e-14)
        assert got.rhs == pytest.approx(got.lhs, abs=1e-13)

    def test_half_turn(self):
        check = check_fermion_identity(1, 2, 1.0)
        assert check.rhs == pytest.approx(math.log1p(math.exp(-2.0)), abs=1e-15)
        assert check.residual < 1e-12

    def test_two_thirds(self):
        assert check_fermion_identity(2, 3, 0.7).residual < 1e-12

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (3, 4), (2, 7), (5, 8)])
    @pytest.mark.parametrize("gamma", [0.1, 0.7, 3.0])
    def test_matches_direct_oracle(self, p, q, gamma):
        oracle = direct_complex_sum(p, q, gamma, fermionic=True)
        assert abs(oracle.imag) < 1e-13
        assert fermion_phase_sum(p, q, gamma) == pytest.approx(oracle.real, abs=1e-12)

    def test_grid_residuals(self):
        for gamma in (0.1, 1.0, 10.0):
            for check in scan_identity_residuals("fermi", 16, gamma):
                assert check.residual < 1e-12

    def test_sign_factor_parity(self):
        # p + q odd keeps the fermionic form, even flips it to the bosonic one
        assert fermion_identity_rhs(1, 2, 1.0) == pytest.approx(
            math.log1p(math.exp(-2.0)))
        assert fermion_identity_rhs(1, 3, 1.0) == pytest.approx(
            math.log1p(-math.exp(-3.0)))

    def test_mutation_flipped_sign_detected(self):
        # The wrong sign choice must be loudly wrong where e^{-q gamma} is
        # appreciable; gamma = 1/q makes the flipped residual ~0.77 for all q.
        for p, q in [(1, 1), (1, 2), (2, 3), (5, 8), (7, 16), (9, 64)]:
            gamma = 1.0 / q
            lhs = fermion_phase_sum(p, q, gamma)
            sign = 1.0 if (p + q) % 2 == 0 else -1.0
            wrong = math.log1p(+sign * math.exp(-q * gamma))
            assert abs(lhs - wrong) > 0.1
            assert abs(lhs - fermion_identity_rhs(p, q, gamma)) < 1e-12


def mpmath_half_sum(family, p, q, gamma):
    """The phase sum and the sum of its terms' magnitudes at 400 digits, which resolve
    1 -+ z for z = e^{-gamma} down to 1e-380: each term at z of the double gamma and at
    its phase 2 pi k/den as the double the sum takes."""
    ks, den = residue_phases(family, p, q)
    sign, turn = (-1 if family == "bose" else 1), 2.0 * math.pi / den
    with mpmath.workdps(400):
        z = mpmath.exp(-mpmath.mpf(gamma))
        terms = [mpmath.log(abs(1 + sign * z * mpmath.expj(turn * k))) for k in ks]
        return sum(terms), sum(abs(t) for t in terms)


class TestAgainstMpmath:
    """Each term keeps the digits of z = e^{-gamma}: at gamma 40 a fermion's 1 + z e^{i phi}
    rounds to 1, and at gamma 700 a boson's 1 - z does, but neither sum is lost."""

    @pytest.mark.parametrize("gamma", [GAMMA_FLOOR, 1.0, 40.0, 700.0])
    @pytest.mark.parametrize("family", ["bose", "fermi"])
    def test_phase_sums(self, family, gamma):
        phase_sum = boson_phase_sum if family == "bose" else fermion_phase_sum
        for p, q in coprime_fractions(6):
            want, size = mpmath_half_sum(family, p, q, gamma)
            # four roundings of the terms' magnitudes (relative at q = 1, one term), and
            # the subnormal spacing once per term and once for the halving at gamma 700
            bound = 4 * sys.float_info.epsilon * size + q * math.ulp(0.0)
            assert abs(phase_sum(p, q, gamma) - want) <= bound, (p, q)

    @pytest.mark.parametrize("gamma", [GAMMA_FLOOR, 1e-3, 0.5, 1.0, 40.0, 700.0])
    @pytest.mark.parametrize("q", [1, 2, 3, 6, 1000])
    def test_closed_forms(self, q, gamma):
        with mpmath.workdps(400):  # e^{-x} below 1e-380 rounds 1 -+ e^{-x} to 1, as in floats
            x = q * mpmath.mpf(gamma)
            minus, plus = mpmath.log(1 - mpmath.exp(-x)), mpmath.log(1 + mpmath.exp(-x))
        eps = sys.float_info.epsilon
        assert abs(boson_identity_rhs(q, gamma) - minus) <= 2 * eps * abs(minus)
        assert abs(fermion_identity_rhs(q + 2, q, gamma) - minus) <= 2 * eps * abs(minus)
        assert abs(fermion_identity_rhs(q + 1, q, gamma) - plus) <= 2 * eps * abs(plus)


class TestResiduePhases:
    @pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (1, 2), (3, 7), (-3, 7), (10, 7),
                                     (-10, 7), (17, 7), (-17, 7), (5, 12), (-29, 12)])
    def test_match_the_direct_definition(self, p, q):
        # residue a turns by a p / q (bose) or (a + 1/2) p / q (fermi), modulo one turn;
        # |p| > q and, for fermions, |p| > 2 q wrap around
        k, den = residue_phases("bose", p, q)
        assert den == q
        assert k == [Fraction(a * p, q) % 1 * q for a in range(q)]
        k, den = residue_phases(Family.FERMI, p, q)
        assert den == 2 * q
        assert k == [Fraction(2 * a + 1, 2 * q) * p % 1 * 2 * q for a in range(q)]

    @pytest.mark.parametrize("family,q", [("anyon", 3), ("bose", 0)])
    def test_rejects_bad_input(self, family, q):
        with pytest.raises(DomainError):
            residue_phases(family, 1, q)


class TestScan:
    @pytest.mark.parametrize("family,check", [("bose", check_boson_identity),
                                              ("fermi", check_fermion_identity)])
    @pytest.mark.parametrize("gamma", [1.0, 1e-6, 0.3])
    def test_bit_identical_to_the_per_pair_sum(self, family, check, gamma):
        scan = scan_identity_residuals(family, 128, gamma)
        assert [(c.p, c.q) for c in scan] == list(coprime_fractions(128))
        for c in scan:
            assert c == check(c.p, c.q, gamma)

    @pytest.mark.parametrize("family", ["bose", "fermi"])
    def test_rows_sum_the_phases_the_rounding_bound_counts(self, family):
        # the scan sums each class once per q, all den residues (bose) or those that
        # share p's parity (fermi): every coprime numerator's phases are exactly those
        for q in [*range(1, 41), 101]:
            for p in range(1, q + 1):
                if math.gcd(p, q) == 1:
                    k, den = residue_phases(family, p, q)
                    start, step = (0, 1) if family == "bose" else (p % 2, 2)
                    assert sorted(k) == list(range(start, den, step)), (p, q)

    @pytest.mark.parametrize("family", ["bose", "fermi"])
    @pytest.mark.parametrize("gamma", [1e-6, 0.1, 1.0, 10.0, 40.0, 740.0])
    def test_conjugate_branches_are_exact_conjugates(self, family, gamma):
        # the c = -1 term at -k has the modulus of the c = +1 term at k, bit for bit (cos
        # is even, sin odd), so the half sum over both branches is the sum over one
        sign = -1.0 if family == "bose" else 1.0
        for q in range(1, 65):
            den = q if family == "bose" else 2 * q
            ks = range(den)
            assert (identities._half_sum(sign, gamma, ks, den)
                    == identities._half_sum(sign, gamma, [-k for k in ks], den)), q

    @pytest.mark.parametrize("family,check", [("bose", check_boson_identity),
                                              ("fermi", check_fermion_identity)])
    @pytest.mark.parametrize("gamma", [40.0, 740.0])
    def test_terms_that_round_to_zero_pass_the_cancellation_check(self, family, check, gamma):
        # 1 - e^-gamma rounds to 1, and at gamma 740 e^-gamma is subnormal: each term
        # still keeps the digits of e^-gamma
        scan = scan_identity_residuals(family, 8, gamma)
        assert [(c.p, c.q) for c in scan] == list(coprime_fractions(8))
        for c in scan:
            assert c == check(c.p, c.q, gamma)
            assert c.residual < 1e-17

    def test_order_and_types(self):
        scan = scan_identity_residuals("fermi", 5, 1.0)
        assert [(c.p, c.q) for c in scan] == list(coprime_fractions(5))
        assert all(type(c.p) is int and type(c.lhs) is float for c in scan)

    @pytest.mark.parametrize("family,q_max", [("anyon", 3), ("bose", 0)])
    def test_rejects_bad_input(self, family, q_max):
        with pytest.raises(DomainError):
            scan_identity_residuals(family, q_max, 1.0)

    def test_rejects_gamma_below_floor(self):
        with pytest.raises(DomainError, match="gamma must be at least"):
            scan_identity_residuals("bose", 4, GAMMA_FLOOR / 10)

    @pytest.mark.parametrize("q_max", [10 ** 5, 10 ** 100, 10 ** 400])
    def test_over_budget_is_refused_before_any_work(self, q_max):
        with pytest.raises(DomainError, match=r"has an estimated ([\d.e+]+|inf) rows"
                                              r".*ROW_BUDGET"):
            scan_identity_residuals("bose", q_max, 1.0)


class TestCoprimeFractions:
    def test_small(self):
        assert list(coprime_fractions(3)) == [(1, 1), (1, 2), (1, 3), (2, 3)]

    def test_count_totient(self):
        # sum of Euler totients up to 64
        def phi(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

        assert len(list(coprime_fractions(64))) == sum(phi(q) for q in range(1, 65))

    @pytest.mark.parametrize("q_max", [1, 2, 3, 12, 101, 256])
    def test_sieve_counts_the_fractions(self, q_max):
        # the identity command reports this count without holding the fractions
        assert identities._coprime_count(q_max) == len(list(coprime_fractions(q_max)))


class TestRegularizedCount:
    def test_q_one_exact(self):
        for eps in (1e-4, 0.3, 2.0, 50.0):
            assert regularized_count_ratio(1, eps) == 1.0

    def test_closed_form_value(self):
        eps = 1.0
        s = lambda e: (1.0 + math.exp(-e)) / (1.0 - math.exp(-e))
        assert regularized_count_ratio(2, eps) == pytest.approx(s(2.0) / s(1.0), rel=1e-15)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_limit(self, q):
        assert regularized_count_limit(q) == pytest.approx(1.0 / q, abs=1e-6)

    def test_limit_oracle_direct_sum(self):
        # brute-force partial sums reproduce the closed form
        eps = 0.01
        m_cut = 20_000
        direct = sum(math.exp(-eps * abs(m)) for m in range(-m_cut, m_cut + 1))
        closed = (1.0 + math.exp(-eps)) / (1.0 - math.exp(-eps))
        assert direct == pytest.approx(closed, rel=1e-12)

    def test_bad_eps(self):
        with pytest.raises(DomainError):
            regularized_count_ratio(2, 0.0)
        with pytest.raises(DomainError):
            regularized_count_ratio(2, -1.0)

    @pytest.mark.parametrize("q", [2, 7, 101, 1000, 10 ** 6])
    def test_limit_to_rounding_at_large_q(self, q):
        assert abs(regularized_count_limit(q) * q - 1.0) <= 1e-12

    def test_limit_rejects_q_zero(self):
        with pytest.raises(DomainError):
            regularized_count_limit(0)

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_ratio_free_of_cancellation(self, eps):
        # S(2 eps)/S(eps) = (1 + x^2)/(1 + x)^2 with x = e^{-eps}: no 1 - x anywhere
        x = math.exp(-eps)
        ratio = regularized_count_ratio(2, eps)
        assert ratio == pytest.approx(math.tanh(eps / 2) / math.tanh(eps), rel=1e-14)
        assert ratio == pytest.approx((1.0 + x * x) / (1.0 + x) ** 2, rel=1e-14)


@given(st.integers(1, 40), st.floats(0.05, 8.0))
def test_identity_residuals_property(q, gamma):
    p = next(k for k in range(1, q + 1) if math.gcd(k, q) == 1)
    assert check_boson_identity(p, q, gamma).residual < 1e-12
    assert check_fermion_identity(p, q, gamma).residual < 1e-12


def test_check_dataclass_residual():
    chk = check_boson_identity(2, 5, 0.4)
    assert chk.residual == abs(chk.lhs - chk.rhs)
    assert chk.rhs == boson_identity_rhs(5, 0.4)
