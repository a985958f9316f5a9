import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhbounds.core import DomainError, Interval
from hhbounds.kernel import lp_norm_integral, peak_kernel, weighted_moment
from hhbounds.oracle import integrate


def _quad_kernel_power(p: float, tol: float = 5e-12) -> float:
    # integrate across the knot at 1/2 so each half is smooth
    left = integrate(lambda t: peak_kernel(t) ** p, Interval(0.0, 0.5), tol)
    right = integrate(lambda t: peak_kernel(t) ** p, Interval(0.5, 1.0), tol)
    return left.value + right.value


class TestPeakKernel:
    @pytest.mark.parametrize("t,expected", [
        (0.25, 0.0625),   # rising branch t^2
        (0.5, 0.25),      # both branches agree at the knot
        (0.75, 0.0625),   # falling branch (1-t)^2
        (0.0, 0.0),
        (1.0, 0.0),
    ])
    def test_values(self, t, expected):
        assert peak_kernel(t) == pytest.approx(expected, abs=1e-16)

    @pytest.mark.parametrize("t", [-0.1, 1.1, 2.0])
    def test_rejects_outside_unit_interval(self, t):
        with pytest.raises(DomainError):
            peak_kernel(t)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_about_one_half(self, t):
        assert peak_kernel(t) == pytest.approx(peak_kernel(1.0 - t), rel=1e-12, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_and_peak(self, t):
        assert 0.0 <= peak_kernel(t) <= 0.25
        assert peak_kernel(0.5) == 0.25

    def test_symmetry_on_dense_random_sample(self):
        from hhbounds.rng import SplitMix64
        rng = SplitMix64(12)
        for _ in range(1000):
            t = rng.random()
            assert peak_kernel(t) == pytest.approx(
                peak_kernel(1.0 - t), rel=1e-12, abs=1e-15)


class TestMoments:
    def test_l1_is_one_twelfth_exactly(self):
        assert lp_norm_integral(1.0) == 1.0 / 12.0

    @pytest.mark.parametrize("p,expected", [
        (2.0, 0.0125),                  # 1/80
        (3.0, 1.0 / 448.0),
    ])
    def test_closed_forms(self, p, expected):
        assert lp_norm_integral(p) == pytest.approx(expected, rel=1e-15)

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            lp_norm_integral(0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0])
    def test_closed_form_matches_quadrature(self, p):
        assert abs(lp_norm_integral(p) - _quad_kernel_power(p)) <= 1e-10

    def test_weighted_moment_exact(self):
        assert weighted_moment() == 1.0 / 24.0

    def test_weighted_moment_matches_quadrature(self):
        tmom = (integrate(lambda t: peak_kernel(t) * t, Interval(0.0, 0.5), 1e-13).value
                + integrate(lambda t: peak_kernel(t) * t, Interval(0.5, 1.0), 1e-13).value)
        umom = (integrate(lambda t: peak_kernel(t) * (1 - t), Interval(0.0, 0.5), 1e-13).value
                + integrate(lambda t: peak_kernel(t) * (1 - t), Interval(0.5, 1.0), 1e-13).value)
        assert tmom == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert umom == pytest.approx(1.0 / 24.0, abs=1e-12)
        # the two weighted moments reassemble the L1 mass
        assert tmom + umom == pytest.approx(lp_norm_integral(1.0), abs=1e-12)
