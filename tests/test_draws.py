"""The seeded draws every sweep reads, pinned where they could move.

Each sweep draws from ``random.Random(seed ^ salt)`` through ``random()``
alone, the one method whose sequence for an int seed the standard library
promises to keep (``suites``).  The sweep digests (``tests/test_suites.py``)
catch a changed stream only as a whole; these name the draw that moved.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from hhbounds import cli
from hhbounds.core import Interval
from hhbounds.suites import _subinterval

SEED = 1234567


def test_the_first_draws_of_one_seed():
    rng = random.Random(SEED)
    assert [rng.random() for _ in range(5)] == [
        0.9631432476096223, 0.23573288372003576, 0.5814831206063004,
        0.226719849335687, 0.9665910421080685]


@given(st.integers(0, 2 ** 64 - 1), st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
def test_a_subinterval_is_two_uniform_ends_at_least_a_twentieth_apart(seed, a, width):
    """The ends of each subinterval are the next pair of draws
    lo + (hi - lo) * random() that lie a twentieth of the window apart,
    bit for bit, and each pair before it lies closer."""
    window = Interval(a, a + width)
    drawn, reference = random.Random(seed), random.Random(seed)
    for _ in range(20):
        iv = _subinterval(drawn, window, 0.05 * window.width)
        assert window.a <= iv.a < iv.b <= window.b
        assert iv.width >= 0.05 * window.width
        while True:
            x, y = (window.a + (window.b - window.a) * reference.random() for _ in range(2))
            if abs(y - x) >= 0.05 * window.width:
                break
        # hex tells the signed zeros apart, as == does not
        assert [iv.a.hex(), iv.b.hex()] == [min(x, y).hex(), max(x, y).hex()]
    assert drawn.random() == reference.random()


def test_a_negative_seed_is_its_unsigned_64_bit_twin(capsys):
    """``random.Random`` seeds an int by its absolute value; the sweeps mask
    seed ^ salt to 64 bits, so seed -1 draws as 2**64 - 1."""
    printed = []
    for seed in ("-1", str(2 ** 64 - 1)):
        assert cli.main(["verify", "--suite", "all", "--cases", "2", "--seed", seed]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
