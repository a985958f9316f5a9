"""The bound prefactors against the moments of the peak kernel.

The paper's lemma writes the midpoint gap through the kernel k(t) = t^2 on
[0, 1/2] and (1-t)^2 on [1/2, 1].  Its L1 mass 1/12 gives the prefactor
1/24, and its Lp mass gives the Hoelder prefactor 1/(8 (2p+1)^(1/p)).
Here the kernel's moments come from the oracle (conftest's
``kernel_lp_mass``), and every second-derivative bound formula is checked
against them on [0, 1] with both endpoint values 1, where every endpoint
mean is 1.  The kernel itself (conftest's ``peak_kernel``) and its closed-form
moments are checked first.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhbounds.bounds_convex import bound_convex_holder, bound_convex_powermean, bound_convex_q1
from hhbounds.bounds_quasiconvex import (
    bound_quasi_holder,
    bound_quasi_monotone,
    bound_quasi_powermean,
    bound_quasi_q1,
)
from hhbounds.core import ConjugatePair, Interval
from hhbounds.oracle import integrate

UNIT = Interval(0.0, 1.0)


def _lp_mass_closed_form(p: float) -> float:
    # 2 * integral of t^(2p) over [0, 1/2]
    return 1.0 / (4.0 ** p * (2.0 * p + 1.0))


class TestPeakKernel:
    @pytest.mark.parametrize("t,expected", [
        (0.25, 0.0625),   # rising branch t^2
        (0.5, 0.25),      # both branches agree at the knot
        (0.75, 0.0625),   # falling branch (1-t)^2
        (0.0, 0.0),
        (1.0, 0.0),
    ])
    def test_values(self, t, expected, peak_kernel):
        assert peak_kernel(t) == pytest.approx(expected, abs=1e-16)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_about_one_half(self, peak_kernel, t):
        assert peak_kernel(t) == pytest.approx(peak_kernel(1.0 - t), rel=1e-12, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_and_peak(self, peak_kernel, t):
        assert 0.0 <= peak_kernel(t) <= 0.25
        assert peak_kernel(0.5) == 0.25

    def test_symmetry_on_dense_random_sample(self, peak_kernel):
        rng = random.Random(12)
        for _ in range(1000):
            t = rng.random()
            assert peak_kernel(t) == pytest.approx(
                peak_kernel(1.0 - t), rel=1e-12, abs=1e-15)


class TestMoments:
    def test_l1_is_one_twelfth_exactly(self, kernel_lp_mass):
        # twice the 1/24 bound on [0, 1] with both |f''| = 1
        assert 2.0 * bound_convex_q1(UNIT, 1.0, 1.0) == 1.0 / 12.0
        assert kernel_lp_mass(1.0) == pytest.approx(1.0 / 12.0, abs=1e-15)

    @pytest.mark.parametrize("p,expected", [
        (2.0, 0.0125),                  # 1/80
        (3.0, 1.0 / 448.0),
    ])
    def test_closed_forms(self, p, expected):
        assert _lp_mass_closed_form(p) == pytest.approx(expected, rel=1e-15)
        value = bound_convex_holder(UNIT, 1.0, 1.0, ConjugatePair.from_p(p))
        assert value == pytest.approx(0.5 * expected ** (1.0 / p), rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0])
    def test_closed_form_matches_quadrature(self, p, kernel_lp_mass):
        assert abs(_lp_mass_closed_form(p) - kernel_lp_mass(p)) <= 1e-10

    def test_weighted_moment_exact(self):
        # the t- and (1-t)-weighted moments are 1/24 each, so each endpoint
        # value alone carries half of the 1/24 bound
        assert bound_convex_q1(UNIT, 1.0, 0.0) == 0.5 / 24.0
        assert bound_convex_q1(UNIT, 0.0, 1.0) == 0.5 / 24.0

    def test_weighted_moment_matches_quadrature(self, peak_kernel):
        def moment(weight):
            return (integrate(lambda t: peak_kernel(t) * weight(t), Interval(0.0, 0.5), 1e-13).value
                    + integrate(lambda t: peak_kernel(t) * weight(t), Interval(0.5, 1.0), 1e-13).value)
        tmom = moment(lambda t: t)
        umom = moment(lambda t: 1.0 - t)
        assert tmom == pytest.approx(2.0 * bound_convex_q1(UNIT, 1.0, 0.0), abs=1e-12)
        assert umom == pytest.approx(2.0 * bound_convex_q1(UNIT, 0.0, 1.0), abs=1e-12)
        # the two weighted moments reassemble the L1 mass
        assert tmom + umom == pytest.approx(2.0 * bound_convex_q1(UNIT, 1.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("bound", [
    bound_convex_q1,
    lambda iv, a, b: bound_convex_powermean(iv, a, b, 2.0),
    bound_quasi_q1,
    bound_quasi_monotone,
    lambda iv, a, b: bound_quasi_powermean(iv, a, b, 2.0),
], ids=["convex_q1", "convex_pm", "quasi_q1", "quasi_monotone", "quasi_pm"])
def test_one_24th_prefactor_is_half_the_l1_mass(bound, kernel_lp_mass):
    assert bound(UNIT, 1.0, 1.0) == 1.0 / 24.0
    assert bound(UNIT, 1.0, 1.0) == pytest.approx(0.5 * kernel_lp_mass(1.0), rel=1e-10)


@pytest.mark.parametrize("bound", [bound_convex_holder, bound_quasi_holder])
@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_holder_prefactor_is_half_the_lp_norm(bound, p, kernel_lp_mass):
    value = bound(UNIT, 1.0, 1.0, ConjugatePair.from_p(p))
    assert value == pytest.approx(0.5 * kernel_lp_mass(p) ** (1.0 / p), rel=1e-10)

