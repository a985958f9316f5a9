"""Composite midpoint integration with a certified error radius.

The radius has two parts, and the true integral lies within their sum of
the estimate.

Truncation part.  Each uniform subinterval of width h contributes h^3/24
times the mean (or, under the weaker quasi-convex hypothesis, the max) of
its endpoint |f''| values; the exact midpoint sum lies within the total of
the exact integral whenever |f''| has the claimed class on every
subinterval.  Both classes restrict to subintervals, so requiring the
class (``oracle.CONVEX_D2`` or ``oracle.QUASICONVEX_D2``) on the full
interval suffices.  The |f''| values are computed ones, each within
``ULPS`` ulp of the exact value, so within a relative 2*ULPS*u (u = 2^-53);
the weight sums them with ``math.fsum`` (Shewchuk 1997), correctly rounded
per chunk of at most ``CHUNK`` terms and once more over the chunks.  All
its terms are non-negative, so the exact weight is at most the computed one
times (1 + 2*ULPS*u/(1 - 2*ULPS*u)) / (1 - u)^2 = 1 + (2*ULPS + 2)*u +
O(u^2), the stated inflation.  The product by (b - a)^3/(24 n^3) is done
in exact rational arithmetic and rounded up.

Truncation part under QUASI_Q1.  Let G_0, ..., G_n be the exact |f''| at
the cuts.  |f''| is quasi-convex on [a, b], so G_l <= max(G_k, G_m) for
k < l < m: with j the index of a least G, the G fall (weakly) up to j and
rise after it, so max(G_k, G_k+1) is G_k for k < j and G_k+1 for k >= j,
and the weight is the sum of every G but G_j.  With g the computed
values, the sum of every G is at most inflation * S, S the fsum of all g,
as above; G_j >= g_j / (1 + 2*ULPS*u) >= deflation * g_min, g_min the
least g read.  So the exact weight is at most inflation*S -
deflation*g_min, both in exact rationals, and the walk needs only the
chunk sums and one running minimum, as the convex rule does.

Truncation part under FEJER.  The error of one panel [x, x + h] is the
integral of K f'', where the peak kernel K >= 0 is symmetric about the
midpoint m and integrates to h^3/24.  When signed f'' is convex on the
panel, Fejer's weighted Hermite-Hadamard inequality (L. Fejer, "Uber die
Fourierreihen, II", 1906) puts that error between h^3/24 f''(m) and
h^3/24 (f''(x) + f''(x + h))/2; when it is concave, the two ends swap.
Summed over the n panels, the integral minus the exact midpoint sum lies
between h^3/24 M and h^3/24 T, where M is the sum of f'' at the midpoints
and T the trapezoid-weighted sum of f'' at the cuts, in either order.  So
the estimate adds the centre h^3/48 (T + M), and the truncation part is
the half-width, h^3/24 (|T - M|/2 + e_T + e_M), where e = spread*fsum|f''|
+ u*|sum| bounds each computed sum's error as the rounding part below
bounds the f sum's.  Both classes restrict to subintervals, so one check
(``oracle.CONVEX_OR_CONCAVE_F2``) on [a, b] suffices, and the bracket has
the same centre and half-width for either sign.  T - M is O(h) for smooth
f'', so this radius is O(h^4); for linear f'' T = M and it is exactly 0 in
real arithmetic.

Truncation part under CORRECTED.  The estimate adds the Euler-Maclaurin
end correction h^2/24 (f'(b) - f'(a)) to the midpoint sum: the sum over
the panels of h^2/24 (f'(x + h) - f'(x)), whose inner terms cancel.  On
one panel, the integral minus h f(m) minus that term is the integral of
(K - h^2/24) f'', and two integrations by parts make it the integral of
L f'''', where L'' = K - h^2/24 and L and L' vanish at both ends of the
panel.  With t the distance from the nearer end, L = t^4/24 - h^2 t^2/48:
it is <= 0, even about m, and integrates to -7h^5/5760 (Davis and
Rabinowitz, *Methods of Numerical Integration*, 1984, on Peano kernels;
for f = x^4 on [0, 1] the error is 1/5 - 1/16 - 1/6 = -7/240 = 24 * -7/5760).
So -L is a non-negative weight symmetric about m, and Fejer's inequality
holds for it as for K: when f'''' is convex on the panel, the error lies
between -7h^5/5760 f''''(m) and -7h^5/5760 (f''''(x) + f''''(x + h))/2,
and when it is concave the two ends swap.  This is the FEJER bracket with
f'''' for f'' and -7h^5/5760 for h^3/24: the estimate adds the centre
-7h^5/11520 (T + M), now of f'''', and the truncation part is
7h^5/5760 (|T - M|/2 + e_T + e_M), under one check
(``oracle.CONVEX_OR_CONCAVE_F4``) on [a, b].  It is O(h^6) for smooth
f'''' and exactly 0 in real arithmetic for linear f'''' (every polynomial
of degree at most 5).  A function that declares no f'''' is refused.

Rounding part.  The estimate E is h times the fsum of the computed f
values at the midpoints (plus, under FEJER and CORRECTED, the centre
above, and under CORRECTED the end correction).  Against the exact sum it
can be off by (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 4):
  - 2*ULPS*u/(1 - 2*ULPS*u) times |f~| per evaluation, the error model;
  - u times the |f~| of each chunk, for the chunk's correctly rounded sum;
  - u times |S~| for the final fsum S~ over the chunks;
all times h, with sum |f~| read from its own chunked fsum and divided by
(1 - u)^2; and under CORRECTED h^2/24 times the same per-evaluation share
of |f'~(a)| + |f'~(b)|.  b - a, the product by h and the correction are
not rounded at all: h is exact as a rational, E is the exact value rounded
to nearest, and their difference is added exactly.

Assumptions.  ``ULPS`` bounds the error of each evaluation of f, f', f''
and f''''; the libm routines the catalog calls (exp, log, pow, sin, cos,
sqrt) are accurate to within about one ulp, and the catalog's formulas add
at most two correctly rounded operations without cancellation.  An
evaluator that cancels (a Horner polynomial near a root, say) can break
it.  The cuts and midpoints are computed as a + width*k/m; the certificate
covers them only when that is exact, so that the computed nodes are the
real ones, as they are for endpoints and widths with few significant bits
and a power-of-two grid (every benchmark rung).  Underflow to subnormals
is not tracked; a non-finite evaluation or sum raises EvaluationError.

Both entry points run one walk over nested grids: cut i of n subintervals
is bit-for-bit cut 2i of 2n (scaling by two is exact), so each doubling
evaluates the rule's derivative (f'', or f'''' under CORRECTED) only at
the n new odd cuts, ``CHUNK`` at a time.  Every rule keeps the same
thing: the two end values, and per level (the starting grid's interior
cuts, then each doubling's odd cuts) the chunk fsums of the derivative
and of its magnitude.  Under CONVEX_Q1 the trapezoid weight sum
1/2 (g_k + g_k+1) equals g_0/2 + g_N/2 + the sum of the interior g_k;
under QUASI_Q1 the weight is the formula above, which also tracks the
least |f''| read.  The bracketed rules (FEJER, CORRECTED) read one level
more: at n panels they have read the odd cuts of the 2n-grid too, which
are the midpoints, so M is that level's chunk sums and T the ends plus all
earlier ones; n panels cost 2n + 1 derivative evaluations, and f is read
at those same midpoints (and f' at a and b under CORRECTED).  The radius
depends on the derivative alone up to the rounding part, so
``refine_to_tolerance`` evaluates f only at a level whose truncation part
already fits.

Floors.  A floor is a lower bound on the truncation part at every level
from the current one up to ``MAX_SUBINTERVALS``.  At each level whose
truncation part is above the tolerance (the floor can exceed it only
there), ``refine_to_tolerance`` refuses, before it reads f, once the
floor is above the tolerance:
  - CONVEX_Q1: the new cuts of a doubling are the midpoints of the coarser
    grid, and for convex |f''| the Hermite-Hadamard inequality (midpoint
    sum <= integral <= trapezoid sum) turns their values into a lower bound
    on every finer trapezoid weight, hence on every finer truncation part;
  - FEJER and CORRECTED: the half-width |T - M|/2 + spread * S +
    u (|T| + |M|) is at least spread * S, S the fsum of the magnitudes read
    so far (the halved ends and every chunk).  Grids nest, so a finer
    level's S sums the same terms and more, all non-negative; fsum rounds
    correctly, and rounding is monotone, so S never shrinks.  The
    truncation part at n' <= MAX_SUBINTERVALS panels is C (span/n')^k
    times the half-width, rounded up, with C, k = 1/24, 3 (FEJER) or
    7/5760, 5 (CORRECTED), and span/n' >= span/MAX_SUBINTERVALS; so at this
    level and every later one it is at least
    C (span/MAX_SUBINTERVALS)^k * spread * S, S as read now;
  - QUASI_Q1 has none, and the search runs to 2^20 on f'' alone.

Decisions in floats.  Most levels of a search are rejected, and pricing
one in exact rationals costs far more than the reads it decides on.  So
``_Walk.screen`` first encloses the exact value that the truncation part
rounds up, and the exact floor, in floats: the same formulas on the same
computed sums, each operation rounded to nearest and stepped one float
outward with ``math.nextafter`` (the rounding is within half a step;
Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 2).  The
rational constants are rounded outward once: spread, u, inflation and
deflation per process, C span^k per walk (the floor's factor follows from
it by outward operations).  The least term QUASI_Q1 subtracts is bounded
the other way.  On the catalog's windows up to n = 2^10 the upper end of
each enclosure is within 27u of its lower end.  A level whose truncation
part is above the tolerance in floats, and whose floor is at most the
tolerance in floats, is rejected without its rationals; a level at 2^20,
the accepted level, any undecided one, and every number that is printed
or raised still come from the exact code, so outputs and evaluation
counts are those of the exact search.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    Interval,
    TestFunction,
)
from .oracle import CONVEX_D2, CONVEX_OR_CONCAVE_F2, CONVEX_OR_CONCAVE_F4, QUASICONVEX_D2

if TYPE_CHECKING:
    from fractions import Fraction

#: refinement cap for refine_to_tolerance
MAX_SUBINTERVALS = 1 << 20

#: evaluations per list and per fsum: long enough that the loop around
#: the chunks costs nothing, short enough that no level's values are held
#: at once (a level of 2^19 floats in lists is 16 MB more at peak)
CHUNK = 4096

#: assumed error bound, in ulp of the exact value, of each evaluation of f,
#: f', f'' and f'''': about one ulp from libm and at most two more roundings
ULPS = 2


class CertTheorem(str, Enum):
    CONVEX_Q1 = "convex_q1"
    QUASI_Q1 = "quasi_q1"
    FEJER = "fejer"
    CORRECTED = "corrected_fejer"


#: the class each theorem is stated under
_HYPOTHESIS = {CertTheorem.CONVEX_Q1: CONVEX_D2, CertTheorem.QUASI_Q1: QUASICONVEX_D2,
               CertTheorem.FEJER: CONVEX_OR_CONCAVE_F2,
               CertTheorem.CORRECTED: CONVEX_OR_CONCAVE_F4}


class _Kernel(NamedTuple):
    """A bracketed rule's panel error is the integral of a kernel of one
    sign, even about the panel's midpoint, times the derivative its class
    is stated for; over a panel of width h the kernel integrates to
    numerator/denominator h^power."""

    numerator: int
    denominator: int
    power: int


_KERNELS = {CertTheorem.FEJER: _Kernel(1, 24, 3),
            CertTheorem.CORRECTED: _Kernel(-7, 5760, 5)}

#: the derivatives a walk reads (``Hypothesis.derivative``), as messages name them
_DERIVATIVE_NAMES = {"d2": "f''", "d4": "f''''"}


@dataclass(frozen=True)
class CertifiedIntegral:
    """An estimate within ``error_radius`` of the integral.

    ``error_radius`` is ``truncation_radius + rounding_radius`` rounded up.
    """

    estimate: float
    error_radius: float
    subintervals: int
    theorem_used: CertTheorem
    truncation_radius: float
    rounding_radius: float


class _Model(NamedTuple):
    """The error model in exact rationals."""

    fraction: type[Fraction]
    u: Fraction          # unit roundoff of IEEE double
    share: Fraction      # one evaluation's error <= share * |its computed value|
    inflation: Fraction  # exact weight <= computed weight * inflation
    spread: Fraction     # |exact midpoint sum - S~| <= spread * sum |f~| + u * |S~|
    deflation: Fraction  # an exact |f''| sum or value >= computed one * deflation


@cache
def _model() -> _Model:
    """Made on first use: fractions imports decimal, about 4 ms that every
    hh start-up would pay if this module imported it."""
    from fractions import Fraction

    u = Fraction(1, 1 << 53)
    share = 2 * ULPS * u / (1 - 2 * ULPS * u)
    return _Model(
        fraction=Fraction,
        u=u,
        share=share,
        inflation=(1 + share) / (1 - u) ** 2,
        spread=(share + u) / (1 - u) ** 2,
        deflation=1 / ((1 + 2 * ULPS * u) * (1 + u) ** 2),
    )


def _up(x: Fraction) -> float:
    """The least float not below x, +inf above the float range."""
    try:
        y = float(x)
    except OverflowError:
        return math.inf
    return y if y >= x else math.nextafter(y, math.inf)


#: a float enclosure (lo, hi) of a real number >= 0, with 0 <= lo <= hi
_Enclosure = tuple[float, float]


def _enclose(x: Fraction) -> _Enclosure:
    """The greatest float not above x >= 0 and the least not below it; the
    greatest finite float and +inf above the float range."""
    try:
        y = float(x)
    except OverflowError:
        return math.nextafter(math.inf, 0.0), math.inf
    if y == x:
        return y, y
    return (y, math.nextafter(y, math.inf)) if y < x else (math.nextafter(y, -math.inf), y)


# Each operation on enclosures rounds to nearest and then steps one float
# outward; a rounded value is within half a step of the exact one, so the
# step covers it.  Lower ends step towards 0 and so stay >= 0.

def _rounded(x: float) -> _Enclosure:
    """An enclosure of the exact result >= 0 of an operation that rounded to x."""
    return math.nextafter(x, 0.0), math.nextafter(x, math.inf)


def _add(x: _Enclosure, y: _Enclosure) -> _Enclosure:
    return math.nextafter(x[0] + y[0], 0.0), math.nextafter(x[1] + y[1], math.inf)


def _mul(x: _Enclosure, y: _Enclosure) -> _Enclosure:
    return math.nextafter(x[0] * y[0], 0.0), math.nextafter(x[1] * y[1], math.inf)


def _div(x: _Enclosure, d: int) -> _Enclosure:
    """x over d > 0."""
    return math.nextafter(x[0] / d, 0.0), math.nextafter(x[1] / d, math.inf)


@cache
def _model_enclosures() -> dict[str, _Enclosure]:
    """The model's constants the screen reads, each rounded outward once."""
    model = _model()
    return {name: _enclose(getattr(model, name))
            for name in ("u", "spread", "inflation", "deflation")}


def _finite_sum(values: Iterable[float], what: str, n: int) -> float:
    """fsum of values, refusing a NaN or infinite total."""
    try:
        total = math.fsum(values)
    except ValueError:  # inf + -inf
        total = math.nan
    if not math.isfinite(total):
        raise EvaluationError(f"{what} is not finite on the grid of n={n}")
    return total


class _Walk:
    """The rule's derivative over the cuts of nested grids of n, 2n, 4n, ...
    subintervals: f'', or f'''' under CORRECTED.

    Starting at n, it evaluates the n + 1 cuts (the last pinned to b), and
    under a bracketed rule the n midpoints too; each ``double`` evaluates
    the new odd cuts alone (and the new midpoints).  It keeps the signed end
    values, the chunk fsums of the derivative (``sums``) and its magnitude
    (``sizes``) level after level, where the last level starts (``top``),
    and under QUASI_Q1 the least |f''| read.
    """

    def __init__(self, fn: TestFunction, iv: Interval, theorem: CertTheorem, n: int) -> None:
        self.fn, self.iv, self.theorem, self.n = fn, iv, theorem, n
        self.kernel = _KERNELS.get(theorem)
        derivative = _HYPOTHESIS[theorem].derivative
        self.derivative, self.what = getattr(fn, derivative), _DERIVATIVE_NAMES[derivative]
        fraction = _model().fraction
        self.span = fraction(iv.b) - fraction(iv.a)
        first, last = self.derivative(iv.a), self.derivative(iv.b)
        _finite_sum((abs(first), abs(last)), self.what, n)
        self.ends = (first, last)
        self.least = min(abs(first), abs(last))
        self.sums: list[float] = []
        self.sizes: list[float] = []
        self.top = 0
        self._factors: tuple[_Enclosure, _Enclosure] | None = None
        self._read(n, 1)
        if self.kernel is not None:
            self._read(2 * n, 2)
            self.scale = fraction(self.kernel.numerator, self.kernel.denominator)

    def _chunk_sums(self, ev, n: int, step: int,
                    what: str) -> Iterator[tuple[float, float, list[float]]]:
        """Per chunk of at most CHUNK values of ev at a + width*k/n, k = 1,
        1 + step, ... below n: their fsum, the fsum of their magnitudes and
        the values; raises EvaluationError when the magnitudes' sum is not
        finite."""
        a, width = self.iv.a, self.iv.width
        divisor = float(n)  # exact; a float spares the int conversion per cut
        stride = CHUNK * step
        for lo in range(1, n, stride):
            vals = [ev(a + width * k / divisor) for k in range(lo, min(lo + stride, n), step)]
            size = _finite_sum(map(abs, vals), what, self.n)
            yield math.fsum(vals), size, vals

    def _read(self, n: int, step: int) -> None:
        """Append the derivative at the cuts k = 1, 1 + step, ... of the
        n-grid as the last level."""
        self.top = len(self.sizes)
        self._bracket = None
        quasi = self.theorem is CertTheorem.QUASI_Q1
        for total, size, vals in self._chunk_sums(self.derivative, n, step, self.what):
            self.sums.append(total)
            self.sizes.append(size)
            if quasi:
                self.least = min(self.least, min(map(abs, vals)))

    def double(self) -> None:
        """Go to 2n subintervals."""
        self.n *= 2
        if self.kernel is not None:
            self._read(2 * self.n, 2)  # the old midpoints become cuts
        else:
            self._read(self.n, 2)

    def _weight(self, n: int) -> Fraction:
        """The signed integral of the bracketed rule's kernel over one panel
        of the n-grid."""
        return self.scale * (self.span / n) ** self.kernel.power

    def _size(self) -> float:
        """fsum of the magnitudes read: the halved ends and every chunk."""
        return math.fsum(chain((0.5 * abs(end) for end in self.ends), self.sizes))

    def _total(self) -> float:
        """fsum of the magnitudes read, the ends whole (QUASI_Q1's weight)."""
        return math.fsum(chain(map(abs, self.ends), self.sizes))

    def _sides(self) -> tuple[float, float]:
        """Under a bracketed rule, T and M as computed: the fsums of the
        derivative at the cuts, trapezoid-weighted, and at the midpoints."""
        return (math.fsum(chain((0.5 * end for end in self.ends), self.sums[:self.top])),
                math.fsum(self.sums[self.top:]))

    def bracket(self) -> tuple[Fraction, Fraction]:
        """Under a bracketed rule, the centre (T + M)/2 and the half-width
        |T - M|/2 + e_T + e_M of the interval that holds the sum of the
        exact panel errors over the kernel's integral; made once per level."""
        if self._bracket is not None:
            return self._bracket
        model = _model()
        fraction, u = model.fraction, model.u
        trapezoid, midpoint = map(fraction, self._sides())
        slack = model.spread * fraction(self._size()) + u * (abs(trapezoid) + abs(midpoint))
        self._bracket = (trapezoid + midpoint) / 2, abs(trapezoid - midpoint) / 2 + slack
        return self._bracket

    def truncation(self) -> float:
        """h^3/24 times a bound on the exact weight (the sum of each
        subinterval's endpoint mean of |f''| under CONVEX_Q1, max under
        QUASI_Q1), or under a bracketed rule the kernel's |integral| times
        the bracket's half-width; rounded up."""
        model = _model()
        if self.kernel is not None:
            return _up(abs(self._weight(self.n)) * self.bracket()[1])
        cube = (self.span / self.n) ** 3 / 24
        if self.theorem is CertTheorem.QUASI_Q1:
            # every cut but a least one is the larger end of some subinterval
            weight = (model.inflation * model.fraction(self._total())
                      - model.deflation * model.fraction(self.least))
        else:
            weight = model.inflation * model.fraction(self._size())
        return _up(cube * weight)

    def floor(self) -> Fraction:
        """Lower bound on the truncation part at every level from this one
        to MAX_SUBINTERVALS (see Floors in the module docstring); 0 under
        QUASI_Q1.  Under CONVEX_Q1 it reads the |f''| sum at the new cuts
        of the last doubling: h of the n/2 grid times it bounds the integral
        of |f''| from below (0 before the first doubling)."""
        model = _model()
        if self.kernel is not None:
            return (abs(self._weight(MAX_SUBINTERVALS)) * model.spread
                    * model.fraction(self._size()))
        if self.theorem is CertTheorem.QUASI_Q1:
            return model.fraction(0)
        odd_sum = math.fsum(self.sizes[self.top:])
        return (self.span ** 2 / (24 * MAX_SUBINTERVALS ** 2)
                * (2 * self.span / self.n) * model.fraction(odd_sum) * model.deflation)

    def _outward_factors(self) -> tuple[_Enclosure, _Enclosure]:
        """The factors of ``truncation`` and ``floor`` that depend on the
        interval alone, made once per walk from C span^k (1/24 span^3 under
        the Q1 rules, the kernel's |integral| at h = span otherwise) rounded
        outward: the truncation part is the first over n^k times the weight,
        the floor is the second times S (bracketed rules) or over n times
        the odd cuts' sum (CONVEX_Q1)."""
        model = _model_enclosures()
        if self.kernel is not None:
            part = _enclose(abs(self.scale) * self.span ** self.kernel.power)
            return part, _mul(_div(part, MAX_SUBINTERVALS ** self.kernel.power),
                              model["spread"])
        part = _enclose(self.span ** 3 / 24)
        if self.theorem is CertTheorem.QUASI_Q1:
            return part, (0.0, 0.0)
        # span^2/(24 MAX^2) * 2 span/n, the Hermite-Hadamard factor of floor
        return (_mul(part, model["inflation"]),
                _mul(_div(part, MAX_SUBINTERVALS ** 2 // 2), model["deflation"]))

    def screen(self) -> tuple[_Enclosure, _Enclosure]:
        """Float enclosures of the exact value that ``truncation`` rounds up
        and of ``floor``: the same formulas on the same computed sums, with
        every operation stepped outward (see Decisions in floats)."""
        if self._factors is None:
            self._factors = self._outward_factors()
        part, floor = self._factors
        model = _model_enclosures()
        if self.kernel is not None:
            trapezoid, midpoint = self._sides()
            size = self._size()
            half_width = _add(
                _add(_mul((0.5, 0.5), _rounded(abs(trapezoid - midpoint))),
                     _mul(model["spread"], (size, size))),
                _mul(model["u"], _rounded(abs(trapezoid) + abs(midpoint))))
            return (_div(_mul(part, half_width), self.n ** self.kernel.power),
                    _mul(floor, (size, size)))
        cubed = self.n ** 3
        if self.theorem is CertTheorem.QUASI_Q1:
            total, least = self._total(), self.least
            inflated = _mul(model["inflation"], (total, total))
            deflated = _mul(model["deflation"], (least, least))
            # the least term is bounded the other way; the exact weight is
            # >= 0, since total holds least
            weight = (max(0.0, math.nextafter(inflated[0] - deflated[1], -math.inf)),
                      math.nextafter(inflated[1] - deflated[0], math.inf))
            return _div(_mul(part, weight), cubed), floor
        size, odd_sum = self._size(), math.fsum(self.sizes[self.top:])
        return (_div(_mul(part, (size, size)), cubed),
                _div(_mul(floor, (odd_sum, odd_sum)), self.n))

    def certificate(self, truncation: float) -> CertifiedIntegral:
        """Evaluate f at the n midpoints (and f' at a and b under CORRECTED)
        and close the certificate."""
        n = self.n
        sums, sizes = [], []
        for total, size, _ in self._chunk_sums(self.fn.f, 2 * n, 2, "f"):
            sums.append(total)
            sizes.append(size)
        model = _model()
        fraction, u = model.fraction, model.u
        total = fraction(_finite_sum(sums, "f", n))
        h = self.span / n
        exact = h * total
        error = h * (model.spread * fraction(math.fsum(sizes)) + u * abs(total))
        if self.kernel is not None:
            exact += self._weight(n) * self.bracket()[0]
        if self.theorem is CertTheorem.CORRECTED:
            left, right = self.fn.d1(self.iv.a), self.fn.d1(self.iv.b)
            _finite_sum((abs(left), abs(right)), "f'", n)
            exact += h * h / 24 * (fraction(right) - fraction(left))
            error += h * h / 24 * model.share * (fraction(abs(left)) + fraction(abs(right)))
        estimate = float(exact)
        rounding = _up(abs(fraction(estimate) - exact) + error)
        return CertifiedIntegral(
            estimate=estimate,
            error_radius=_up(fraction(truncation) + fraction(rounding)),
            subintervals=n,
            theorem_used=self.theorem,
            truncation_radius=truncation,
            rounding_radius=rounding,
        )


def integrate_certified(fn: TestFunction, iv: Interval, n: int,
                        theorem: CertTheorem = CertTheorem.CONVEX_Q1) -> CertifiedIntegral:
    """Composite midpoint rule over n equal subintervals with an error radius.

    Walks from the odd part m of n (m + 1 cuts, then doublings), as
    ``refine_to_tolerance`` walks from 1: n + 1 f'' and n f evaluations,
    2n + 1 f'' under FEJER, and 2n + 1 f'''' and 2 f' under CORRECTED.
    Raises DomainError when iv leaves fn's domain and HypothesisError when
    the sample of the 64-point grid's pairs refutes the theorem's class on
    iv, or under CORRECTED when fn declares no f'''' (both from
    ``Hypothesis.require``), EvaluationError on a non-finite evaluation.
    """
    if n < 1:
        raise DomainError(f"need at least one subinterval, got {n}")
    _HYPOTHESIS[theorem].require(fn, iv)
    walk = _Walk(fn, iv, theorem, n // (n & -n))
    while walk.n < n:
        walk.double()
    return walk.certificate(walk.truncation())


def refine_to_tolerance(fn: TestFunction, iv: Interval, tol: float,
                        theorem: CertTheorem = CertTheorem.CONVEX_Q1) -> CertifiedIntegral:
    """The certificate of the fewest power-of-two subintervals, from 1 up to
    2^20, whose radius fits the tolerance.

    Equal to ``integrate_certified`` at the subinterval count it returns.
    The search doubles on nested grids and reads the rule's derivative
    alone, one evaluation per cut, until the truncation part fits; only
    then does it evaluate f, at that level's midpoints, and accept the
    level when truncation + rounding fits.  A level whose float enclosures
    already reject it skips the exact rationals (see Decisions in floats
    in the module docstring).  The truncation part scales as
    h^2 for bounded |f''|, so the count grows as O(tol^(-1/2)); under FEJER
    it scales as h^4 for smooth f'', so the count grows as O(tol^(-1/4)),
    and under CORRECTED as h^6 for smooth f'''', O(tol^(-1/6)).  For linear
    f'' (FEJER) or f'''' (CORRECTED) it is exactly 0 in real arithmetic,
    leaving the rounding part at n = 1.

    Raises DomainError and HypothesisError as ``integrate_certified`` does,
    EvaluationError on a non-finite evaluation, and ConvergenceError when
    the radius is still above tol at 2^20 subintervals, as soon as the
    rule's floor (all but QUASI_Q1; see Floors in the module docstring) is
    above tol, and as soon as the rounding part alone is above tol.  That
    last one is a refusal, not a proof that no grid fits: a finer grid
    moves the rounding part only through the midpoint sum of |f| and
    through |E|, which approach fixed values, so it does not shrink with h.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    _HYPOTHESIS[theorem].require(fn, iv)
    walk = _Walk(fn, iv, theorem, 1)
    while True:
        n = walk.n
        # a level whose truncation part is above tol in floats, below the
        # cap and with its floor at most tol, doubles without the exact
        # values; any other level decides on them
        (low, _), (_, ceiling) = walk.screen()
        if low > tol and ceiling <= tol and n < MAX_SUBINTERVALS:
            walk.double()
            continue
        radius = walk.truncation()
        if radius <= tol:
            cert = walk.certificate(radius)
            if cert.error_radius <= tol:
                return cert
            if cert.rounding_radius > tol:
                raise ConvergenceError(
                    f"rounding part {cert.rounding_radius} alone is above {tol} at n={n}")
            radius = cert.error_radius
        else:
            # the floor is at most this level's truncation part, so it can
            # refuse only here
            floor = walk.floor()
            if floor > tol:
                raise ConvergenceError(
                    f"radius at n={MAX_SUBINTERVALS} is at least {float(floor)} "
                    f"(floor from the {walk.what} read up to n={n}), above {tol}")
        if n >= MAX_SUBINTERVALS:
            raise ConvergenceError(f"radius {radius} still above {tol} at n={n}")
        walk.double()
