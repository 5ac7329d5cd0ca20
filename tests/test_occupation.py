import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ninionics.errors import DomainError, PoleError
from ninionics.occupation import (
    Family,
    NinionParams,
    occupation_from_eps,
    occupation_columns,
    occupation_number,
)
from ninionics.rationals import StatAngle

HALF_TURN = StatAngle.from_fraction(1, 2)      # chi = pi
QUARTER_TURN = StatAngle.from_fraction(1, 4)   # chi = pi/2

# the closed form of each family at cos(xi) = 1, 0, -1: native statistics, the other
# family at twice the inverse temperature (a ghost for bosons), the other family's ghost
CLOSED_FORMS = {
    (Family.BOSE, 1): lambda eps: 1.0 / math.expm1(eps),
    (Family.BOSE, 0): lambda eps: -1.0 / (math.exp(2 * eps) + 1.0),
    (Family.BOSE, -1): lambda eps: -1.0 / (math.exp(eps) + 1.0),
    (Family.FERMI, 1): lambda eps: 1.0 / (math.exp(eps) + 1.0),
    (Family.FERMI, 0): lambda eps: 1.0 / (math.exp(2 * eps) + 1.0),
    (Family.FERMI, -1): lambda eps: -1.0 / math.expm1(eps),
}


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
            for (family, cos_xi), form in CLOSED_FORMS.items():
                assert occupation_from_eps(family, math.acos(cos_xi), eps) == pytest.approx(
                    form(eps), rel=1e-12, abs=1e-12)

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
        # math.pi is not pi: 1 + cos(xi) is 7.5e-33, not 0, so n is the universal 1/2
        assert occupation_from_eps(Family.FERMI, math.pi, 0.0) == 0.5
        for eps in (-1e-8, 1e-8):
            n = occupation_from_eps(Family.FERMI, math.pi, eps)
            assert n == pytest.approx(float(reference(Family.FERMI, math.pi, eps)[0]), rel=1e-13)

    @pytest.mark.parametrize("family", list(Family))
    def test_grid_is_bit_identical_to_the_per_point_formula(self, family):
        # every angle but the family's pole at eps = 0 (bose xi = 0, fermi xi = pi)
        xis = [0.3, math.pi / 4, math.pi / 2, 2.5, -7.0,
               math.pi if family is Family.BOSE else 0.0]
        eps = [-800.0, -3.0, -1e-300, -0.0, 1e-300, 1e-4, 0.7, 40.0, 800.0]
        table = occupation_columns(family, xis, lambda: iter(eps))  # one-pass iterables
        table = [list(column) for column in table]
        assert table == [[occupation_from_eps(family, xi, e) for e in eps] for xi in xis]
        for row, xi in zip(table, xis):  # == would let -0.0 stand for 0.0
            assert [math.copysign(1.0, n) for n in row] == [
                math.copysign(1.0, occupation_from_eps(family, xi, e)) for e in eps]

    @pytest.mark.parametrize("family,xi", [(Family.BOSE, 0.0), (Family.BOSE, 1e-200)])
    def test_grid_pole_is_the_per_point_pole(self, family, xi):
        with pytest.raises(PoleError) as point:
            occupation_from_eps(family, xi, 0.0)
        with pytest.raises(PoleError) as grid:
            occupation_columns(family, [0.5, xi], lambda: [1.0, 0.0])
        assert str(grid.value) == str(point.value)

    def test_grid_names_the_first_pole_in_eps_major_order(self):
        # t(a) = 1e-308 poles at eps = 0 alone, xi = 0 at eps = -1e-154 too: the refusal
        # names the first eps at which any angle poles, not the first angle that poles
        a, eps = 1.414e-154, [-1e-154, 0.0]
        occupation_from_eps(Family.BOSE, a, eps[0])
        for xi, e in [(a, eps[1]), (0.0, eps[0])]:
            with pytest.raises(PoleError):
                occupation_from_eps(Family.BOSE, xi, e)
        with pytest.raises(PoleError) as grid:
            occupation_columns(Family.BOSE, [a, 0.0], lambda: eps)
        assert str(grid.value).endswith("at xi=0.0, eps=-1e-154")

    @pytest.mark.parametrize("family", list(Family))
    def test_only_angles_that_can_pole_are_checked_first(self, family):
        calls = []

        def eps_values():
            calls.append(len(calls))
            return iter([-1e-300, 0.0, 1e-300])

        # the bose gap 2^-1021 at 2^-510, the least that can never pole, and the fermi gap
        # 7.5e-33 at the float pi: no angle is evaluated before its column is read
        xis = [2.0 ** -510, 3.0, math.pi]
        table = occupation_columns(family, xis, eps_values)
        assert calls == []
        assert [list(column) for column in table] == [
            [occupation_from_eps(family, xi, e) for e in eps_values()] for xi in xis]

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            occupation_number(NinionParams(Family.BOSE, 1.0, -1.0, 1.0))


def reference(family, xi, eps):
    """(n, S, den) at the doubles xi and eps, from the defining formula at 800 digits,
    which resolve 1 - cos(xi) and e^eps - 1 down to |xi|, |eps| of 1e-170. S is
    (g + w t) / den of the gap form, |n| for eps <= 0 and a bound on it for eps > 0."""
    s = 1 if family is Family.BOSE else -1
    with mpmath.workdps(800):
        xi, eps = mpmath.mpf(xi), mpmath.mpf(eps)
        e, c = mpmath.exp(eps), mpmath.cos(xi)
        n = (e * c - s) / (1 - 2 * s * e * c + e * e)
        w, t = mpmath.exp(-abs(eps)), 1 - s * c
        g = 1 - w
        den = g * g + 2 * w * t
        return n, (g + w * t) / den, den


class TestNearThePoles:
    """The gap form keeps full precision next to the Bose pole (xi = 0) and the Fermi
    pole (xi = pi), where 1 -+ 2 w cos(xi) + w^2 cancels."""

    # n is 2.5e7, 2.3529e7, 1e6 and the two Fermi mirrors; 1 -+ 2 w cos(xi) + w^2 printed
    # 2.5735e7 for the first two (2.9% and 9.4% off)
    @pytest.mark.parametrize("family,xi,eps", [
        (Family.BOSE, 0.0, 4e-8), (Family.BOSE, 1e-8, 4e-8), (Family.BOSE, 0.0, 1e-6),
        (Family.FERMI, math.pi, 4e-8), (Family.FERMI, math.pi, 1e-6)])
    def test_cases_against_mpmath(self, family, xi, eps):
        want = float(reference(family, xi, eps)[0])
        assert occupation_from_eps(family, xi, eps) == pytest.approx(want, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(Family)), st.integers(-1, 1), st.floats(-170.0, 0.0),
           st.sampled_from([-1.0, 1.0]),
           st.one_of(st.just(0.0), st.floats(-170.0, 2.5).map(lambda e: 10.0 ** e),
                     st.floats(-170.0, 2.5).map(lambda e: -10.0 ** e)))
    def test_error_is_bounded_by_the_gap_scale(self, family, k, offset, side, eps):
        """Offsets from each pole (2k pi for bosons, (2k + 1) pi for fermions) and |eps|
        log-uniform from 1e-170: an admitted n is within 1e-13 S of the reference, and a
        refusal is a bose point whose denominator is under the smallest normal double."""
        pole = (2 * k if family is Family.BOSE else 2 * k + 1) * math.pi
        xi = pole + side * 10.0 ** offset
        n_ref, scale, den = reference(family, xi, eps)
        try:
            n = occupation_from_eps(family, xi, eps)
        except PoleError:
            assert family is Family.BOSE and den < sys.float_info.min * (1 + 1e-12)
            return
        assert abs(n - n_ref) <= 1e-13 * scale

    # den = g^2 + 2 w t is exactly 2^-1022, the smallest normal double, at xi = 0 and
    # |eps| = 2^-511 (g = 2^-511), admitted, and below it one double nearer 0. In xi, at
    # eps = 0, t = xi^2 / 2 is subnormal, so the edge is only within a few doubles of
    # 2^-511: a refusal at 2^-512
    @pytest.mark.parametrize("xi,eps,n,refused", [
        (0.0, 2.0 ** -511, 2.0 ** 511, (0.0, math.nextafter(2.0 ** -511, 0.0))),
        (0.0, -(2.0 ** -511), -(2.0 ** 511), (0.0, math.nextafter(-(2.0 ** -511), 0.0))),
        (2.0 ** -511, 0.0, -0.5, (2.0 ** -512, 0.0))], ids=["eps", "minus-eps", "xi"])
    def test_refusal_starts_below_the_normal_range(self, xi, eps, n, refused):
        assert occupation_from_eps(Family.BOSE, xi, eps) == pytest.approx(n, rel=1e-15)
        with pytest.raises(PoleError, match="Bose-Einstein pole"):
            occupation_from_eps(Family.BOSE, *refused)


LEVEL_EPS = (0.3, 1.0, 4.0)


def level_xi(m, chi, family):
    """xi of level m in radians, as a user passes it to `occupation --xi`: m chi for
    bosons, (m + 1/2) chi for fermions."""
    return (m if family is Family.BOSE else m + 0.5) * math.tau * float(chi.turns)


def level_occupations(chi, family, levels):
    return {m: [occupation_from_eps(family, level_xi(m, chi, family), eps) for eps in LEVEL_EPS]
            for m in levels}


def closed_form(family, cos_xi):
    return [pytest.approx(CLOSED_FORMS[family, cos_xi](eps), rel=1e-12) for eps in LEVEL_EPS]


class TestClassifyLevels:
    """Each level's occupation takes the closed form that its cos(xi) in {1, 0, -1}
    names, with xi formed in floating point from the level."""

    def test_quarter_turn_cycle(self):
        got = level_occupations(QUARTER_TURN, Family.BOSE, range(5))
        assert list(got.values()) == [closed_form(Family.BOSE, c) for c in (1, 0, -1, 0, 1)]

    def test_half_turn_even_levels_stay_bosons(self):
        for m, n in level_occupations(HALF_TURN, Family.BOSE, range(-8, 9)).items():
            assert n == closed_form(Family.BOSE, 1 if m % 2 == 0 else -1)

    def test_no_rotation_native(self):
        chi0 = StatAngle.from_fraction(0, 1)
        for family in Family:
            for n in level_occupations(chi0, family, range(-5, 6)).values():
                assert n == closed_form(family, 1)

    def test_fermi_quarter_turn(self):
        # xi = (m + 1/2) pi/2 never hits a classical angle: a ninion matches no closed form
        got = level_occupations(QUARTER_TURN, Family.FERMI, range(2))  # xi = pi/4, 3 pi/4
        for n in got.values():
            for c in (1, 0, -1):
                form = CLOSED_FORMS[Family.FERMI, c]
                assert all(value != pytest.approx(form(eps), rel=1e-3)
                           for value, eps in zip(n, LEVEL_EPS))
