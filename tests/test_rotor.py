import cmath
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from ninionics.errors import DomainError, TruncationError
from ninionics.rotor import (
    TERM_BUDGET,
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
        beta, inertia = 0.9, 1.0
        z_small = partition_rotwisted(RotorSpec(inertia, 40), beta, 1.1)
        z_large = partition_rotwisted(RotorSpec(inertia, 60), beta, 1.1)
        bound = 2 * sum(math.exp(-beta * m * m / (2 * inertia)) for m in range(41, 61))
        assert abs(z_large - z_small) <= bound + 1e-300

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

    def test_minimal_exact_grid(self):
        spec = RotorSpec(1.0, 20)
        coarse = angular_distribution(spec, 1.0, n_grid=2 * 20 + 1)
        assert angular_distribution(spec, 1.0) == coarse  # the default grid, S = 20
        # oversampled, odd and even: the even grid folds its j = n/2 point once
        for n_grid in (4 * 20 + 1, 82):
            fine = angular_distribution(spec, 1.0, n_grid=n_grid)
            for m in coarse:
                assert coarse[m] == pytest.approx(fine[m], abs=1e-12)
            assert_exact_symmetry_and_band(spec, 1.0, fine)

    def test_aliasing_guard(self):
        with pytest.raises(DomainError, match="alias"):
            angular_distribution(RotorSpec(1.0, 20), 1.0, n_grid=40)

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

    def test_memory_is_linear_in_cut(self):
        spec = RotorSpec(1.0, 1000)
        tracemalloc.start()
        try:
            angular_distribution(spec, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("call", [
        lambda: angular_distribution(RotorSpec(1.0, 100_000), 1e-6),
        lambda: zk_table(RotorSpec(1.0, 100_000), 1e-6, 10_000),
    ], ids=["weights", "zk"])
    def test_over_term_budget_refused_before_any_weight(self, call):
        # a support of 38,626 levels: about 3e9 terms for the weights, 2e8 for the table
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"sums an estimated [\d.e+]+ terms, over the "
                                                  rf"budget of {TERM_BUDGET} terms"):
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
            with pytest.raises(DomainError, match=r"needs an estimated [\d.e+]+ MiB"):
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

    def test_vanishing_partition_names_chi(self):
        with pytest.raises(DomainError, match=r"vanishes at chi=3\.14159"):
            zk_table(RotorSpec(1.0, 1000), 0.05, 2)

    def test_rows_stream_in_half_grid_memory(self):
        # only the half-grid sums and the cosine table are held, about 36 B a point;
        # holding every row would take about 200 B a point, 38 MiB here
        tracemalloc.start()
        try:
            for _ in zk_table(RotorSpec(1.0, 400), 1.0, 200_000):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


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
