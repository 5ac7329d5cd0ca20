import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ninionics.errors import DomainError, PoleError
from ninionics.occupation import (
    Family,
    LevelClass,
    NinionParams,
    StatLabel,
    classify_levels,
    limit_form,
    occupation_from_eps,
    occupation_grid,
    occupation_number,
    xi_of,
)
from ninionics.rationals import StatAngle

HALF_TURN = StatAngle.from_fraction(1, 2)      # chi = pi
QUARTER_TURN = StatAngle.from_fraction(1, 4)   # chi = pi/2


class TestXiOf:
    def test_bose_ground_level(self):
        assert xi_of(0, HALF_TURN, Family.BOSE).raw == 0.0

    def test_fermi_half_offset(self):
        # m = 0, chi = pi: xi = (0 + 1/2) pi = pi/2
        xv = xi_of(0, HALF_TURN, Family.FERMI)
        assert xv.raw == pytest.approx(math.pi / 2)
        assert xv.turns == Fraction(1, 4)

    def test_reduction(self):
        xv = xi_of(3, HALF_TURN, Family.BOSE)
        assert xv.raw == pytest.approx(3 * math.pi)
        assert xv.canonical == pytest.approx(math.pi)
        assert xv.turns == Fraction(3, 2)

    def test_canonical_interval(self):
        for m in range(-7, 8):
            xv = xi_of(m, StatAngle.from_fraction(2, 7), Family.FERMI)
            assert -math.pi < xv.canonical <= math.pi + 1e-15


class TestOccupationNumber:
    def test_bose_einstein_point(self):
        # xi = 0, e^eps = 2: n = 1/(2 - 1) = 1
        n = occupation_number(NinionParams(Family.BOSE, 0.0, 1.0, math.log(2.0)))
        assert n == pytest.approx(1.0, abs=1e-15)

    def test_half_turn_at_zero_energy(self):
        # bose, xi = pi, eps = 0: -1/(e^0 + 1) = -1/2
        n = occupation_from_eps(Family.BOSE, math.pi, 0.0)
        assert n == pytest.approx(-0.5, abs=1e-15)

    def test_high_temperature_universal_value(self):
        n = occupation_from_eps(Family.BOSE, math.pi / 4, 1e-4)
        assert n == pytest.approx(-0.5, abs=1e-3)

    def test_high_temperature_limit_grid(self):
        for xi in (math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
            n = occupation_from_eps(Family.BOSE, xi, 1e-6)
            assert abs(n + 0.5) < 1e-4

    def test_reduction_identities_random_grid(self):
        rng = random.Random(20260810)
        for _ in range(200):
            eps = math.exp(rng.uniform(math.log(0.01), math.log(20.0)))
            assert occupation_from_eps(Family.BOSE, 0.0, eps) == pytest.approx(
                1.0 / math.expm1(eps), rel=1e-12, abs=1e-12)
            assert occupation_from_eps(Family.FERMI, 0.0, eps) == pytest.approx(
                1.0 / (math.exp(eps) + 1.0), rel=1e-12, abs=1e-12)
            # cos xi = 0: temperature halves, bosons turn into fermionic ghosts
            assert occupation_from_eps(Family.BOSE, math.pi / 2, eps) == pytest.approx(
                -1.0 / (math.exp(2 * eps) + 1.0), rel=1e-12, abs=1e-12)
            assert occupation_from_eps(Family.FERMI, math.pi / 2, eps) == pytest.approx(
                1.0 / (math.exp(2 * eps) + 1.0), rel=1e-12, abs=1e-12)
            # cos xi = -1: family swap with ghost sign
            assert occupation_from_eps(Family.BOSE, math.pi, eps) == pytest.approx(
                -1.0 / (math.exp(eps) + 1.0), rel=1e-12, abs=1e-12)
            assert occupation_from_eps(Family.FERMI, math.pi, eps) == pytest.approx(
                -1.0 / math.expm1(eps), rel=1e-12, abs=1e-12)

    @given(st.floats(-10.0, 10.0), st.floats(0.5, 10.0))
    def test_periodicity_and_parity(self, xi, eps):
        base = occupation_from_eps(Family.BOSE, xi, eps)
        assert occupation_from_eps(Family.BOSE, -xi, eps) == base  # cos is even
        assert occupation_from_eps(Family.BOSE, xi + 2 * math.pi, eps) == pytest.approx(
            base, rel=1e-9, abs=1e-9)

    def test_large_eps_decay(self):
        for family in Family:
            for xi in (0.0, 0.4, math.pi / 2, 2.5, math.pi):
                for eps in (5.0, 8.0, 20.0, 200.0, 1000.0):
                    n = occupation_from_eps(family, xi, eps)
                    assert abs(n) <= 2.0 * math.exp(-eps)

    def test_no_overflow_deep_quantum_regime(self):
        assert occupation_from_eps(Family.BOSE, 1.0, 800.0) == pytest.approx(
            math.cos(1.0) * math.exp(-800.0), rel=1e-12, abs=1e-300)

    def test_bose_pole(self):
        with pytest.raises(PoleError, match="Bose-Einstein pole"):
            occupation_number(NinionParams(Family.BOSE, 0.0, 1.0, 0.5, mu=0.5))

    def test_fermi_ghost_pole(self):
        with pytest.raises(PoleError):
            occupation_from_eps(Family.FERMI, math.pi, 0.0)

    @pytest.mark.parametrize("family", list(Family))
    def test_grid_is_bit_identical_to_the_per_point_formula(self, family):
        # every angle but the family's pole at eps = 0 (bose xi = 0, fermi xi = pi)
        xis = [0.3, math.pi / 4, math.pi / 2, 2.5, -7.0,
               math.pi if family is Family.BOSE else 0.0]
        eps = [-800.0, -3.0, -1e-300, -0.0, 1e-300, 1e-4, 0.7, 40.0, 800.0]
        table = occupation_grid(family, xis, iter(eps))  # a one-pass iterable
        # each column is an array('d'), which never equals a list
        assert [list(column) for column in table] == [
            [occupation_from_eps(family, xi, e) for e in eps] for xi in xis]
        for row, xi in zip(table, xis):  # == would let -0.0 stand for 0.0
            assert [math.copysign(1.0, n) for n in row] == [
                math.copysign(1.0, occupation_from_eps(family, xi, e)) for e in eps]

    @pytest.mark.parametrize("family,xi", [(Family.BOSE, 0.0), (Family.FERMI, math.pi)])
    def test_grid_pole_is_the_per_point_pole(self, family, xi):
        with pytest.raises(PoleError) as point:
            occupation_from_eps(family, xi, 0.0)
        with pytest.raises(PoleError) as grid:
            occupation_grid(family, [0.5, xi], [1.0, 0.0])
        assert str(grid.value) == str(point.value)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            occupation_number(NinionParams(Family.BOSE, 1.0, -1.0, 1.0))


class TestLimitForm:
    def test_bose_quarter_turn(self):
        lc = limit_form(Family.BOSE, math.pi / 2)
        assert lc == LevelClass(StatLabel.FERMION_GHOST, 2)
        eps = 0.73
        assert lc.reference(eps) == pytest.approx(-1.0 / (math.exp(2 * eps) + 1.0))

    def test_fermi_half_turn(self):
        lc = limit_form(Family.FERMI, math.pi)
        assert lc == LevelClass(StatLabel.BOSON_GHOST, 1)
        eps = 0.73
        assert lc.reference(eps) == pytest.approx(-1.0 / math.expm1(eps))

    def test_generic_angle_is_ninion(self):
        lc = limit_form(Family.BOSE, math.pi / 3)
        assert lc.label is StatLabel.NINION
        with pytest.raises(DomainError):
            lc.reference(1.0)

    def test_native_statistics(self):
        assert limit_form(Family.BOSE, 0.0) == LevelClass(StatLabel.BOSON, 1)
        assert limit_form(Family.FERMI, 0.0) == LevelClass(StatLabel.FERMION, 1)

    def test_reference_matches_occupation_formula(self):
        # the classified closed forms must agree with the defining formula
        for family in Family:
            for xi in (0.0, math.pi / 2, math.pi):
                lc = limit_form(family, xi)
                for eps in (0.3, 1.0, 4.0):
                    assert lc.reference(eps) == pytest.approx(
                        occupation_from_eps(family, xi, eps), rel=1e-12)


class TestClassifyLevels:
    def test_quarter_turn_cycle(self):
        got = classify_levels(QUARTER_TURN, Family.BOSE, range(5))
        labels = [(lc.label, lc.beta_multiplier) for _, lc in got]
        assert labels == [
            (StatLabel.BOSON, 1),
            (StatLabel.FERMION_GHOST, 2),
            (StatLabel.FERMION_GHOST, 1),
            (StatLabel.FERMION_GHOST, 2),
            (StatLabel.BOSON, 1),
        ]

    def test_half_turn_even_levels_stay_bosons(self):
        got = classify_levels(HALF_TURN, Family.BOSE, range(-8, 9))
        for m, lc in got:
            if m % 2 == 0:
                assert lc == LevelClass(StatLabel.BOSON, 1)
            else:
                assert lc == LevelClass(StatLabel.FERMION_GHOST, 1)

    def test_no_rotation_native(self):
        chi0 = StatAngle.from_fraction(0, 1)
        assert all(lc == LevelClass(StatLabel.BOSON, 1)
                   for _, lc in classify_levels(chi0, Family.BOSE, range(-5, 6)))
        assert all(lc == LevelClass(StatLabel.FERMION, 1)
                   for _, lc in classify_levels(chi0, Family.FERMI, range(-5, 6)))

    def test_exact_matches_float_classification(self):
        chi = StatAngle.from_fraction(3, 8)
        for family in Family:
            for m, lc in classify_levels(chi, family, range(-12, 13)):
                xv = xi_of(m, chi, family)
                assert lc == limit_form(family, xv.canonical)

    def test_fermi_quarter_turn(self):
        # xi = (m + 1/2) pi/2 never hits a classical angle at even multiples
        got = dict(classify_levels(QUARTER_TURN, Family.FERMI, range(4)))
        assert got[0].label is StatLabel.NINION  # xi = pi/4
        assert got[1].label is StatLabel.NINION  # xi = 3 pi/4
