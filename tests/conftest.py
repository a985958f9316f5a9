import pytest
from hypothesis import HealthCheck, settings

from hhbounds.core import Interval, builtin_catalog, catalog_by_id
from hhbounds.oracle import integrate

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def by_id():
    return catalog_by_id()


@pytest.fixture(scope="session")
def mean_at():
    """(fn, iv, tol) -> the mean value of fn over iv through the oracle, to
    tol: ``oracle.mean_value``'s integral at a tolerance other than
    ``core.GAP_TOL``, for a reference tighter than the gap it checks."""
    def mean(fn, iv: Interval, tol: float) -> float:
        return integrate(fn.f, iv, tol * iv.width).value / iv.width
    return mean


@pytest.fixture(scope="session")
def peak_kernel():
    """The paper's peak kernel: t^2 on [0, 1/2] and (1-t)^2 on [1/2, 1]."""
    def kernel(t: float) -> float:
        return t * t if t <= 0.5 else (1.0 - t) * (1.0 - t)
    return kernel


@pytest.fixture(scope="session")
def kernel_lp_mass(peak_kernel):
    """p -> the integral over [0, 1] of the peak kernel to the power p, by
    the oracle.  Each half of the kernel is smooth, so each is integrated
    apart."""
    def mass(p: float) -> float:
        left = integrate(lambda t: peak_kernel(t) ** p, Interval(0.0, 0.5), 5e-12)
        right = integrate(lambda t: peak_kernel(t) ** p, Interval(0.5, 1.0), 5e-12)
        return left.value + right.value
    return mass
