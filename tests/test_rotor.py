import cmath
import math
import random
from decimal import Decimal, localcontext
import time
import tracemalloc

import numpy as np
import pytest

from ninionics.errors import MEMORY_BUDGET, ROW_BUDGET, TERM_BUDGET, DomainError, TruncationError
from ninionics.rotor import (
    RotorSpec,
    angular_distribution,
    generating_function,
    partition_rotwisted,
    shift_eigenphase_check,
    zk_table,
)


def direct_partition(spec, beta, chi, half_shift=False):
    """Independent oracle: plain summation term by term."""
    total = 0j
    for m in range(-spec.m_cut, spec.m_cut + 1):
        offset = m + 0.5 if half_shift else m
        total += cmath.exp(1j * chi * offset) * math.exp(-beta * spec.energy(m))
    return total


def decimal_k(beta, m_cut, quarter_turns, inertia=1.0):
    """Independent oracle for K at chi = quarter_turns * pi / 2, where cos(m chi) is 0 or
    +-1: the direct sum over |m| <= m_cut in decimal at 400 digits, more than
    K / ln 10 + 40. A weight below 10^-400 of w_0 = 1 changes neither sum."""
    with localcontext(prec=400):
        scale = Decimal(beta) / (2 * Decimal(inertia))
        z0 = zchi = Decimal(1)
        for m in range(1, m_cut + 1):
            if scale * m * m > 922:  # 400 ln 10 < 922
                break
            w = (-scale * m * m).exp()
            z0 += 2 * w
            zchi += 2 * w * (1, 0, -1, 0)[m * quarter_turns % 4]
        return float((z0 / zchi).ln())


def assert_exact_symmetry_and_band(spec, beta, weights):
    """R(-m) is R(m) bit for bit, and R(m) is exactly 0.0 wherever the weight is."""
    for m in range(1, spec.m_cut + 1):
        assert weights[-m] == weights[m]
        if math.exp(-beta * spec.energy(m)) == 0.0:
            assert weights[m] == 0.0


class TestPartition:
    def test_untwisted_positive(self):
        spec = RotorSpec(1.0, 20)
        z = partition_rotwisted(spec, 2.0, 0.0)
        assert z.imag == 0.0
        assert z.real > 1.0
        assert z == pytest.approx(direct_partition(spec, 2.0, 0.0), abs=1e-13)

    def test_half_turn_alternating_sum(self):
        # beta/(2 I) = 1: Z(pi) = sum (-1)^m e^{-m^2}
        spec = RotorSpec(0.5, 20)
        z = partition_rotwisted(spec, 1.0, math.pi)
        oracle = sum((-1) ** m * math.exp(-m * m) for m in range(-20, 21))
        assert z.real == pytest.approx(oracle, abs=1e-14)
        assert abs(z.imag) < 1e-14

    def test_reflection_symmetry_real(self):
        spec = RotorSpec(1.0, 30)
        for chi in np.linspace(-math.pi, math.pi, 37):
            z = partition_rotwisted(spec, 1.0, float(chi))
            assert abs(z.imag) < 1e-14 * abs(z.real)

    def test_triangle_inequality(self):
        spec = RotorSpec(1.0, 30)
        z0 = partition_rotwisted(spec, 0.7, 0.0).real
        for chi in np.linspace(-math.pi, math.pi, 101):
            assert abs(partition_rotwisted(spec, 0.7, float(chi))) <= z0 * (1 + 1e-15)

    def test_truncation_error_names_requirement(self):
        with pytest.raises(TruncationError, match=r"need m_cut >= (\d+)"):
            partition_rotwisted(RotorSpec(1.0, 3), 0.5, 0.0)
        try:
            partition_rotwisted(RotorSpec(1.0, 3), 0.5, 0.0)
        except TruncationError as exc:
            need = int(str(exc).rsplit(">=", 1)[1])
        # the suggested cap must actually pass
        partition_rotwisted(RotorSpec(1.0, need), 0.5, 0.0)

    def test_monotone_truncation(self):
        # Z is the untruncated rotor's: the same at every m_cut the truncation check
        # admits, and within the discarded tail of the truncated direct sum
        beta, inertia = 0.9, 1.0
        z_small = partition_rotwisted(RotorSpec(inertia, 40), beta, 1.1)
        z_large = partition_rotwisted(RotorSpec(inertia, 60), beta, 1.1)
        assert z_small == z_large
        bound = 2 * sum(math.exp(-beta * m * m / (2 * inertia)) for m in range(41, 61))
        assert abs(z_small - direct_partition(RotorSpec(inertia, 40), beta, 1.1)) <= (
            bound + 1e-14 * abs(z_small))

    def test_half_shift_antiperiodic(self):
        spec = RotorSpec(1.0, 25)
        z1 = partition_rotwisted(spec, 1.0, 0.3, half_shift=True)
        z2 = partition_rotwisted(spec, 1.0, 0.3 + 2 * math.pi, half_shift=True)
        assert z2 == pytest.approx(-z1, abs=1e-12)


class TestAngularDistribution:
    @pytest.mark.parametrize("beta_over_2i", [0.1, 1.0, 10.0])
    def test_inversion_matches_boltzmann(self, beta_over_2i):
        spec = RotorSpec(0.5 / beta_over_2i, 50)
        weights = angular_distribution(spec, 1.0)
        z0 = partition_rotwisted(spec, 1.0, 0.0).real
        for m, w in weights.items():
            assert abs(w - math.exp(-spec.energy(m)) / z0) < 1e-12
        assert_exact_symmetry_and_band(spec, 1.0, weights)

    def test_normalization_and_positivity(self):
        spec = RotorSpec(1.0, 40)
        weights = angular_distribution(spec, 0.8)
        assert abs(sum(weights.values()) - 1.0) < 1e-12
        assert all(w >= -1e-13 for w in weights.values())

    def test_ground_state_dominance(self):
        spec = RotorSpec(0.01, 50)  # beta E_1 = 50
        weights = angular_distribution(spec, 1.0)
        assert weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_half_shift_inversion_exact(self):
        spec = RotorSpec(1.0, 25)
        weights = angular_distribution(spec, 1.0)
        z0 = partition_rotwisted(spec, 1.0, 0.0).real
        for m, w in weights.items():
            assert abs(w - math.exp(-spec.energy(m)) / z0) < 1e-12
        # the same weights under the half-integer phases give the half-shifted Z
        synth = sum(w * cmath.exp(0.7j * (m + 0.5)) for m, w in weights.items())
        assert abs(synth - partition_rotwisted(spec, 1.0, 0.7, half_shift=True) / z0) < 1e-12

    def test_large_cut_matches_boltzmann(self):
        # 40001 levels: a dense inversion kernel would need tens of GB
        spec = RotorSpec(1.0, 20000)
        weights = angular_distribution(spec, 1.0)
        m = np.arange(-20000, 20001)
        boltzmann = np.exp(-m * m / 2.0)
        z0 = math.fsum(boltzmann.tolist())
        assert list(weights) == m.tolist()
        err = np.max(np.abs(np.array(list(weights.values())) - boltzmann / z0))
        assert err < 1e-12
        assert_exact_symmetry_and_band(spec, 1.0, weights)

    # isqrt(1492 I / beta) is 1221 and 2230 here, but w_m is 0.0 already at 1221 and at
    # 2229: the support S must stop at the last nonzero weight, or the band breaks
    @pytest.mark.parametrize("beta, m_cut, support", [(1e-3, 1300, 1220), (3e-4, 2300, 2228)])
    def test_band_starts_past_the_last_nonzero_weight(self, beta, m_cut, support):
        spec = RotorSpec(1.0, m_cut)
        weights = angular_distribution(spec, beta)
        assert math.exp(-beta * spec.energy(support)) > 0.0 == math.exp(
            -beta * spec.energy(support + 1))
        boltzmann = [math.exp(-beta * spec.energy(m)) for m in range(-m_cut, m_cut + 1)]
        z0 = math.fsum(boltzmann)
        assert max(abs(w - b / z0) for w, b in zip(weights.values(), boltzmann)) < 1e-12
        assert_exact_symmetry_and_band(spec, beta, weights)

    def test_memory_is_linear_in_cut(self):
        spec = RotorSpec(1.0, 1000)
        tracemalloc.start()
        try:
            angular_distribution(spec, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    # a full support (S = m_cut = 341 at beta 1e-2) and a support of 38 levels with a
    # weights dict that has just resized (m_cut 87381): the peak per level is highest
    # where the dict is least full, 159-161 and 134 B here
    @pytest.mark.parametrize("m_cut, beta", [(341, 1e-2), (87_381, 1.0)])
    def test_a_table_at_the_row_budget_fits_the_memory_budget(self, m_cut, beta):
        # ROW_BUDGET rows at that traced peak per level take at most 768 and 639 MiB
        tracemalloc.start()
        try:
            angular_distribution(RotorSpec(1.0, m_cut), beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (2 * m_cut + 1) * ROW_BUDGET <= MEMORY_BUDGET

    @pytest.mark.parametrize("call", [
        lambda: angular_distribution(RotorSpec(1.0, 100_000), 1e-6),
    ], ids=["weights"])
    def test_over_term_budget_refused_before_any_weight(self, call):
        # a support of 38,626 levels: about 3e9 terms
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"sums an estimated [\d.e+]+ terms, over the "
                                                  rf"budget of {TERM_BUDGET} terms "
                                                  rf"\(ninionics\.errors\.TERM_BUDGET\)$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.5
        assert peak < 2 ** 20

    def test_oversized_request_refused_before_allocating(self):
        spec = RotorSpec(1.0, 10 ** 9)  # hundreds of GiB for the weights dict alone
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"has an estimated [\d.e+]+ rows, over the "
                               r"budget of 5000000 rows \(ninionics\.errors\.ROW_BUDGET\)"):
                angular_distribution(spec, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestZkTable:
    @pytest.mark.parametrize("half_shift", [False, True])
    @pytest.mark.parametrize("n", [7, 64, 200])  # odd and even, below and above 2 m_cut + 1
    def test_matches_direct_sum(self, n, half_shift):
        spec, beta = RotorSpec(1.0, 40), 0.6
        rows = list(zk_table(spec, beta, n, half_shift))
        z0 = direct_partition(spec, beta, 0.0).real
        assert len(rows) == n
        for j, (chi, z_re, z_im, k_re, k_im) in enumerate(rows, start=1):
            assert chi == -math.pi + 2.0 * math.pi * j / n
            z = direct_partition(spec, beta, chi, half_shift)
            assert abs(complex(z_re, z_im) - z) < 1e-12
            assert abs(complex(k_re, k_im) + cmath.log(z / z0)) < 1e-12
            assert all(type(x) is float for x in (chi, z_re, z_im, k_re, k_im))
            if not half_shift:  # Z is real and positive: Im Z and Im K are +0.0
                assert math.copysign(1.0, z_im) == math.copysign(1.0, k_im) == 1.0
                assert z_im == k_im == 0.0
        if not half_shift:  # chi_{n-j} = -chi_j, and Z there is Z_j bit for bit
            assert all(rows[j - 1][1] == rows[n - j - 1][1] for j in range(1, n))

    # Z(pi)/Z(0) is 2.4e-14 at beta 0.154 and 3e-213 at beta 0.01: the direct sum in
    # double precision cancels to noise there, and the dual sum does not
    @pytest.mark.parametrize("beta,m_cut,quarter_turns,k", [
        (0.154, 200, 2, 31.351022952847064),
        (0.05, 1000, 2, 98.00289683033363),
        (0.05, 1000, 1, 24.674011002723397),
        (0.01, 2000, 2, 492.78707287390796),
    ])
    def test_k_matches_decimal_oracle(self, beta, m_cut, quarter_turns, k):
        assert decimal_k(beta, m_cut, quarter_turns) == pytest.approx(k, rel=1e-13)
        spec = RotorSpec(1.0, m_cut)
        chi = quarter_turns * math.pi / 2
        assert generating_function(spec, beta, chi).real == pytest.approx(k, rel=1e-13)
        assert generating_function(spec, beta, -chi).real == pytest.approx(k, rel=1e-13)
        # rows n/4 and n on a four-point grid: chi = -pi/2 and pi
        row = list(zk_table(spec, beta, 4))[(0, 0, 3)[quarter_turns]]
        assert row[3] == pytest.approx(k, rel=1e-13)
        assert row[1] == pytest.approx(
            partition_rotwisted(spec, beta, 0.0).real * math.exp(-k), rel=1e-13)

    def test_k_past_the_underflow_of_z(self):
        # only the k = 0 dual term is above e^-746 at chi = 1, so K = I chi^2 / (2 beta)
        assert generating_function(RotorSpec(1.0, 20_000), 1e-3, 1.0).real == pytest.approx(
            500.0, rel=1e-13)
        # at chi = pi the terms k = 0 and 1 are equal: K = I pi^2 / (2 beta) - ln 2,
        # and Z = Z(0) e^{-K} underflows to 0.0
        spec, beta = RotorSpec(1.0, 100_000), 1e-6
        assert generating_function(spec, beta, math.pi).real == pytest.approx(
            math.pi ** 2 / (2 * beta) - math.log(2.0), rel=1e-13)
        assert partition_rotwisted(spec, beta, math.pi) == 0.0

    def test_wide_support_is_admitted(self):
        # a support of 38,626 levels, but at most two dual terms a point
        start = time.perf_counter()
        rows = list(zk_table(RotorSpec(1.0, 100_000), 1e-6, 10_000))
        assert time.perf_counter() - start < 0.5
        # chi = -pi/2 and pi: K = I chi^2 / (2 beta), less ln 2 at pi, where the dual
        # terms k = 0 and 1 are equal
        assert rows[2499][3] == pytest.approx(math.pi ** 2 / 8e-6, rel=1e-13)
        assert rows[-1][3] == pytest.approx(math.pi ** 2 / 2e-6 - math.log(2.0), rel=1e-13)
        assert all(math.isfinite(k) and k >= 0.0 for _, _, _, k, _ in rows)

    @pytest.mark.parametrize("beta,inertia", [
        (0.01, 1.0), (0.1, 1.0), (0.3, 1.0), (1.0, 1.0), (3.0, 1.0), (3.14, 1.0), (10.0, 1.0),
        (100.0, 1.0), (2.5, 0.25), (0.4, 7.0)])
    def test_dual_matches_direct_sum(self, beta, inertia):
        # the direct fsum is exactly rounded, but its terms carry about one ulp of Z(0)
        # each, so it is a reference to 1e-13 relative plus a few ulps of Z(0)
        spec = RotorSpec(inertia, 4000)
        support = math.isqrt(int(2 * 746 * inertia / beta))  # w_m is 0.0 past it
        levels = range(-support, support + 1)
        w = [math.exp(-beta * spec.energy(m)) for m in levels]
        z0 = math.fsum(w)
        chis = [math.pi * i / 128 for i in range(129)] + [-2.0, 7.5, -40.0]
        rows = {chi: row[1] for row in zk_table(spec, beta, 200) for chi in [row[0]]}
        assert partition_rotwisted(spec, beta, 0.0).real == pytest.approx(z0, rel=1e-14)
        for chi in chis + list(rows):
            direct = math.fsum([c * math.cos(m * chi) for m, c in zip(levels, w)])
            if abs(direct) < 1e-10 * z0:
                continue
            tol = 1e-13 * abs(direct) + 4 * 2.0 ** -52 * z0
            assert abs(partition_rotwisted(spec, beta, chi).real - direct) <= tol
            if chi in rows:
                assert abs(rows[chi] - direct) <= tol

    def test_rows_stream_in_half_grid_memory(self):
        # a row is formed as it is yielded, and nothing is held per angle, not even Z on
        # half the grid; holding every row would take about 200 B a point, 10 MiB here
        tracemalloc.start()
        try:
            for _ in zk_table(RotorSpec(1.0, 400), 1.0, 50_000):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestGeneratingFunction:
    def test_zero_at_no_twist(self):
        assert generating_function(RotorSpec(1.0, 20), 1.0, 0.0) == 0.0

    def test_real_and_even_for_symmetric_rotor(self):
        spec = RotorSpec(1.0, 30)
        for chi in (0.3, 1.2, 2.9):
            k_plus = generating_function(spec, 1.0, chi)
            k_minus = generating_function(spec, 1.0, -chi)
            assert abs(k_plus.imag) < 1e-13
            assert k_minus == pytest.approx(k_plus.conjugate(), abs=1e-13)
            assert k_minus.real == pytest.approx(k_plus.real, abs=1e-13)

    def test_fourier_consistency(self):
        # e^{-K} must reproduce the twist-weighted sum of inverted weights
        spec = RotorSpec(1.0, 30)
        weights = angular_distribution(spec, 1.0)
        rng = random.Random(7)
        for _ in range(64):
            chi = rng.uniform(-math.pi, math.pi)
            synth = sum(w * cmath.exp(1j * chi * m) for m, w in weights.items())
            direct = cmath.exp(-generating_function(spec, 1.0, chi))
            assert abs(synth - direct) < 1e-12

    def test_round_trip(self):
        spec = RotorSpec(1.0, 30)
        weights = angular_distribution(spec, 1.0)
        z0 = partition_rotwisted(spec, 1.0, 0.0).real
        rng = random.Random(11)
        for _ in range(64):
            chi = rng.uniform(-math.pi, math.pi)
            synth = sum(w * cmath.exp(1j * chi * m) for m, w in weights.items())
            ratio = partition_rotwisted(spec, 1.0, chi) / z0
            assert abs(synth - ratio) < 1e-12


class TestShiftEigenphase:
    def test_identity_at_zero(self):
        chk = shift_eigenphase_check(0.0, 10, 20)
        assert chk.residual == 0.0
        assert chk.eigenphase == 1.0

    def test_third_turn_tight(self):
        chk = shift_eigenphase_check(math.pi / 3, 98, 100)
        assert chk.residual < 1e-14

    @pytest.mark.parametrize("chi", [math.pi / 3, math.pi / 2, math.pi])
    def test_wide_window_tight(self, chi):
        # chi*m is formed exactly as a two-term product, so the residual does not grow
        # with the window
        assert shift_eigenphase_check(chi, 5000, 5001).residual < 1e-14

    def test_half_turn_phase(self):
        chk = shift_eigenphase_check(math.pi, 10, 20)
        assert chk.eigenphase.real == pytest.approx(-1.0, abs=1e-15)
        assert chk.residual < 1e-14

    def test_window_guard(self):
        with pytest.raises(DomainError):
            shift_eigenphase_check(0.5, 20, 20)
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"below 2\*\*26"):
            shift_eigenphase_check(0.5, 2 ** 26, 2 ** 40)
        assert time.perf_counter() - start < 0.5

    def test_eigenphase_convention(self):
        # component convention: shift multiplies components by e^{-i chi}
        chi = 0.77
        chk = shift_eigenphase_check(chi, 5, 10)
        assert chk.eigenphase == pytest.approx(cmath.exp(-1j * chi))
