"""The seeded stream every sweep draws from, pinned draw by draw.

The sweep digests (``tests/test_suites.py``) catch a changed stream only as
a whole; these values, taken from the generator as it stood before its
draws were reworked for speed, name the draw that moved.
"""

from hypothesis import given
from hypothesis import strategies as st

from hhbounds.core import Interval
from hhbounds.rng import SplitMix64

SEED = 1234567


def test_the_first_draws_of_one_seed():
    rng = SplitMix64(SEED)
    # the reference output of splitmix64 (Vigna's splitmix64.c) for this seed
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]
    assert [rng.random() for _ in range(3)] == [
        0.4230879388274831, 0.5906476283120033, 0.27528749941108965]
    assert [rng.uniform(0.1, 10.0) for _ in range(2)] == [4.434156038699816, 8.20483193060829]
    assert rng.uniform(-3.0, 1.25) == -1.1928421127953852
    assert [rng.choice((-4, -3, -2, 3, 4, 5, 6)) for _ in range(4)] == [4, 5, 3, 4]
    assert [rng.subinterval(Interval(-1.0, 2.0)) for _ in range(2)] == [
        Interval(-0.5409953355119218, 1.2418505013201502),
        Interval(-0.9745091715163415, 0.8059771974653305)]
    assert rng.next_u64() == 1241472831441642556


@given(st.integers(0, 2 ** 64 - 1),
       st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_uniform_is_lo_plus_the_span_times_random(seed, lo, hi):
    """``uniform`` draws its bits itself, with ``random``'s arithmetic in
    the same operand order, so twin generators agree bit for bit."""
    drawn, reference = SplitMix64(seed), SplitMix64(seed)
    for _ in range(3):
        # hex tells the signed zeros apart, as == does not
        assert drawn.uniform(lo, hi).hex() == (lo + (hi - lo) * reference.random()).hex()
