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
O(u^2), the stated inflation.  The product by (b - a)^3/(24 n^3) is
bounded above in floats (see Arithmetic below).

Truncation part under QUASI_Q1.  Let G_0, ..., G_n be the exact |f''| at
the cuts.  |f''| is quasi-convex on [a, b], so G_l <= max(G_k, G_m) for
k < l < m: with j the index of a least G, the G fall (weakly) up to j and
rise after it, so max(G_k, G_k+1) is G_k for k < j and G_k+1 for k >= j,
and the weight is the sum of every G but G_j.  With g the computed
values, the sum of every G is at most inflation * S, S the fsum of all g,
as above; G_j >= g_j / (1 + 2*ULPS*u) >= deflation * g_min, g_min the
least g read.  So the exact weight is at most inflation*S -
deflation*g_min, and the walk needs only the chunk sums and the running
minimum, which it keeps under QUASI_Q1 alone.

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

Rounding part.  The estimate E is the fsum of its terms, each rounded to
nearest: h times S~, the fsum of the computed f values at the midpoints,
with h = (b - a)/n as computed; under FEJER and CORRECTED the centre
C h^k (T + M)/2 above; and under CORRECTED the end correction
h^2/24 (f'(b) - f'(a)).  Against the exact midpoint sum, S~ can be off by
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4):
  - 2*ULPS*u/(1 - 2*ULPS*u) times |f~| per evaluation, the error model;
  - u times the |f~| of each chunk, for the chunk's correctly rounded sum;
  - u times |S~| for the final fsum S~ over the chunks;
all times h, with sum |f~| read from its own chunked fsum and divided by
(1 - u)^2; and under CORRECTED h^2/24 times the same per-evaluation share
of |f'~(a)| + |f'~(b)|.  That is the evaluation part.  The rest is E's
distance from the exact estimate Q: the same terms with the exact
h = (b - a)/n, on the computed S~, T, M and f' values.  Each term's
magnitude is bounded below and above in floats (see Arithmetic below), so
the sums of the bounds give low <= Q <= high.  Each rounded term lies
within its own bounds, and fsum rounds monotonically, so E lies in
[low, high] too, and |E - Q| <= max(high - E, E - low).  The rounding part
is the evaluation part plus that distance, both bounded above.

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

The ladder.  ``certify(fn, iv, tol)`` is what `hh certify` runs: it tries
the rules in the order of ``_LADDER``, CORRECTED, FEJER, CONVEX_Q1 and
QUASI_Q1, each through ``refine_to_tolerance``, and returns the first
certificate.  The two brackets come first, since their radii shrink as h^6
and h^4 where the paper's rules shrink as h^2 (``inv_x`` over [1, 2] at
1e-12 takes 64 panels under CORRECTED and 262,144 under CONVEX_Q1); the
paper's two rules follow, for a function whose f'''' or f'' bends both
ways.  A class refusal or a ConvergenceError passes the request on; when
no rule certifies, the first ConvergenceError is raised, or else the last
HypothesisError.  ``refine_to_tolerance`` and ``integrate_certified`` take
one rule, CONVEX_Q1 by default.

Both single-rule entry points run one walk over nested grids: cut i of
n subintervals is bit-for-bit cut 2i of 2n (scaling by two is exact), so
each doubling evaluates the rule's derivative (f'', or f'''' under
CORRECTED) only at the n new odd cuts, ``CHUNK`` at a time.  Every rule
reads, sums and keeps the same things the same way: the two end values,
and per level (the starting grid's interior cuts, then each doubling's
odd cuts) the chunk fsums of the derivative and of its magnitude.
QUASI_Q1 alone also keeps the least magnitude read, which it alone
uses.  Under CONVEX_Q1 the trapezoid weight sum
1/2 (g_k + g_k+1) equals g_0/2 + g_N/2 + the sum of the interior g_k, the
fsum of the magnitudes with the ends halved; under QUASI_Q1 the weight is
the formula above, that fsum with the ends whole less the least.  The
bracketed rules (FEJER, CORRECTED) read one level more: at n panels they
have read the odd cuts of the 2n-grid too, which are the midpoints, so M
is that level's chunk sums and T the ends plus all earlier ones; n panels
cost 2n + 1 derivative evaluations, and f is read at those same midpoints
(and f' at a and b under CORRECTED).  The radius depends on the derivative
alone up to the rounding part, so ``refine_to_tolerance`` evaluates f only
at a level whose truncation part already fits.

Floors.  A floor is a lower bound on the truncation part at every level
from the current one up to ``MAX_SUBINTERVALS``.  At each level whose
truncation part is above the tolerance (the floor can exceed it only
there), ``refine_to_tolerance`` refuses, before it reads f, once the
floor is above the tolerance:
  - CONVEX_Q1: the new cuts of a doubling are the midpoints of the coarser
    grid, and for convex |f''| the Hermite-Hadamard inequality (midpoint
    sum <= integral <= trapezoid sum) turns their values into a lower bound
    on every finer trapezoid weight, hence on every finer truncation part
    (0 before the first doubling, whose cuts are no midpoints);
  - every other rule reads S, the fsum of the magnitudes read so far (the
    halved ends and every chunk).  Grids nest, so a finer level's S sums
    the same terms and more, all non-negative; fsum rounds correctly, and
    rounding is monotone, so S never shrinks.  The truncation part at
    n' <= MAX_SUBINTERVALS panels is an upper bound of C (span/n')^k times
    a weight w, with C, k the kernel's (1/24, 3, or 7/5760, 5 under
    CORRECTED) and span/n' >= span/MAX_SUBINTERVALS; so once w >= c S, at
    this level and every later one it is at least
    C (span/MAX_SUBINTERVALS)^k * c * S, S as read now.  Under FEJER and
    CORRECTED w is the half-width |T - M|/2 + spread * S + u (|T| + |M|),
    and c = spread.  Under QUASI_Q1 c = 1: each panel's larger end is at
    least the mean of its two ends, so the weight is at least the
    trapezoid sum.  That holds for the computed w = inflation * S~ -
    deflation * least too, S~ the fsum with the ends whole: the exact sums
    X behind S~ and Y behind S differ by the mean of the two end values,
    at least the least value read; fsum is within a relative u of each,
    and inflation >= 1/(1 - u)^2, so w >= X (1 + u) - least >= Y (1 + u)
    >= S.

Arithmetic.  The whole certificate is bounded in floats, with directed
rounding: each operation rounds to nearest, within half a step of the
exact result (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 2), and then steps one float with ``math.nextafter``, up for an upper
bound and towards 0 for a lower one, so each result bounds the exact one
on its side.  The step is left out only where the operation is exact:
  - b - a, where Knuth's TwoSum finds its rounding error 0 (else the
    error's sign says which of the span's two bounds is b - a itself);
  - a product with a factor 0, and a sum or difference that rounds to 0
    (with gradual underflow that happens only when it is exactly 0), so
    |T - M| keeps its exact 0 where T == M; a product of non-zero factors
    can underflow to 0, and then steps to the least subnormal;
  - a product or a quotient by a power of two whose result, scaled back,
    gives the operand again, so that it is not below the normal range:
    the division by (n/m)^k, by MAX_SUBINTERVALS and by a power-of-two n,
    and the products by u and 2u;
  - S~, T, M and the f' values, which are floats already, and an fsum of
    one term.
So f'' that reads 0 at every cut, or f'''' under CORRECTED (x2, x3 and
affine), still gives a truncation part of exactly 0.  The model's
constants are float literals rounded outward: SHARE, SPREAD and INFLATION
up, DEFLATION and SHRINK = deflation/inflation down.  None of them is a
float, so the float below SPREAD, which the floor takes, is below spread;
and importing the module does no arithmetic.  Per walk, the factors that
depend on the interval alone are made once from the span's bounds:
C span^k / m^k rounded up, where m is the walk's first n, and the floor's
factor rounded down.  C and k come from the rule's kernel record, its
``CertTheorem`` member's ``kernel``: the |integral| at h = 1 and the
power.  The Q1 rules take C times inflation (so the CONVEX_Q1 weight is S
itself), a bracketed rule half of C (the float bound then takes twice the
half-width, |T - M| + 2 spread S + 2u (|T| + |M|)).  The floor's factor, deflation
(CONVEX_Q1) or spread (FEJER, CORRECTED) included, is rounded down.  Four
points keep the bounds sound and finite:
  - a chain that takes a power starts from the factors that do not grow
    with it (the constant; in ``certificate`` S~, |T + M| or the f' gap)
    and multiplies by span/m, span/MAX or h one factor at a time, so its
    partial products run monotonically to the result and none overflows
    where the result fits: x2 over [1e100, 1e102] certifies at n = 1,
    where T + M = 0 and h^5 is past the float range;
  - span/m is taken before its power: m^k need not be a float (m = 1,701
    and k = 5 give more than 2^53);
  - the walk's factor is divided by (n/m)^k before it multiplies the
    weight.  The weight of exp over [0, 700] is near 1e304 and the factor
    above 1e7, so their product is +inf at every level; dividing first
    brings the truncation part back into the float range as n grows;
  - under QUASI_Q1 the weight over inflation is the sum of every |f''|
    read less a lower bound of deflation/inflation * least: subtracting
    an upper bound could cut it below the exact one.  The difference is
    > 0 whenever the sum is, since the sum holds the least term.
A truncation part past the float range reads +inf and a floor past it the
greatest finite float; an estimate or a rounding part past it raises
EvaluationError.  Every step adds at most 1.5 ulp, and each bound takes
few of them: on the catalog's windows the truncation part is within 64u
above the exact value of the formulas above on the computed sums, and the
floor within 64u below.  ``refine_to_tolerance`` decides on these bounds
and prints them, so a certificate's truncation part is never below the
exact one and a refusal's floor never above it.  The rounding part pays a
few ulp of each term of the estimate: a few u of E, unless the terms
cancel.  x4 over [-1.5, 1.5] at n = 1 adds 10.1 and -7.09 to make 3.04,
and its rounding part is 67u of E.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple

from .core import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    HypothesisError,
    Interval,
    TestFunction,
)
from .oracle import (CONVEX_D2, CONVEX_OR_CONCAVE_F2, CONVEX_OR_CONCAVE_F4, QUASICONVEX_D2,
                     Hypothesis)

#: refinement cap for refine_to_tolerance
MAX_SUBINTERVALS = 1 << 20

#: evaluations per list and per fsum: long enough that the loop around
#: the chunks costs nothing, short enough that no level's values are held
#: at once (a level of 2^19 floats in lists is 16 MB more at peak)
CHUNK = 4096

#: assumed error bound, in ulp of the exact value, of each evaluation of f,
#: f', f'' and f'''': about one ulp from libm and at most two more roundings
ULPS = 2


class _Kernel(NamedTuple):
    """A panel's error is the integral of a kernel of one sign, even about
    the panel's midpoint, times the derivative the rule's class is stated
    for; over a panel of width h the kernel integrates to
    numerator/denominator h^power."""

    numerator: int
    denominator: int
    power: int


#: the midpoint rule's peak kernel K, of integral h^3/24: the paper's two
#: theorems and Fejer's bracket all bound a panel through it
_PEAK = _Kernel(1, 24, 3)


class CertTheorem(str, Enum):
    """The certifier's rules, the one table of them: each member is its
    name and carries its class ``hypothesis``, its ``kernel`` record and
    whether it is ``bracketed`` (the estimate adds the bracket's centre)
    or bounds the panel error's size.  ``CertTheorem(theorem)`` takes a
    member or its name; any other value raises DomainError."""

    CONVEX_Q1 = "convex_q1", CONVEX_D2, _PEAK, False
    QUASI_Q1 = "quasi_q1", QUASICONVEX_D2, _PEAK, False
    FEJER = "fejer", CONVEX_OR_CONCAVE_F2, _PEAK, True
    CORRECTED = "corrected_fejer", CONVEX_OR_CONCAVE_F4, _Kernel(-7, 5760, 5), True

    def __new__(cls, name: str, hypothesis: Hypothesis, kernel: _Kernel, bracketed: bool):
        member = str.__new__(cls, name)
        member._value_ = name
        member.hypothesis, member.kernel, member.bracketed = hypothesis, kernel, bracketed
        return member

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown certifier rule {value!r}; rules: {', '.join(cls)}")


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


#: the error model (see the module docstring), from ULPS and the unit
#: roundoff u = 2^-53: one evaluation's error is at most SHARE times its
#: computed value; the exact weight is at most the computed one times
#: INFLATION; the exact midpoint sum is within SPREAD times sum |f~| plus
#: u |S~| of S~; an exact |f''| sum or value is at least DEFLATION times
#: the computed one; SHRINK is deflation/inflation.  Each is its exact
#: value rounded outward, up for the first three and down for the last
#: two, and written out, so that importing the module does no arithmetic
SHARE = 4.440892098500629e-16
SPREAD = 5.551115123125787e-16
INFLATION = 1.0000000000000009
DEFLATION = 0.9999999999999993
SHRINK = 0.9999999999999987


# Bounds in floats (see Arithmetic in the module docstring): a rounded
# result is within half a step of the exact one, so one float further out,
# towards +inf for an upper bound and towards 0 (or -inf) for a lower one,
# bounds it.  The step is left out only where the operation is exact.

def _step(x: float, toward: float = math.inf) -> float:
    """A bound of the exact sum or difference of two floats that rounded to
    x; 0 stays, since only an exact sum rounds to 0."""
    return math.nextafter(x, toward) if x else 0.0


def _product(x: float, y: float, toward: float = math.inf) -> float:
    """A bound of x * y for x, y >= 0: exact where a factor is 0, or where
    y is a power of two and the product divided by y gives x back (so it
    is not below the normal range)."""
    if not (x and y):
        return 0.0
    p = x * y
    return p if math.frexp(y)[0] == 0.5 and p / y == x else math.nextafter(p, toward)


def _quotient(x: float, d: float, toward: float = math.inf) -> float:
    """A bound of x / d for x >= 0 and d > 0: exact where d is a power of
    two and the quotient times d gives x back."""
    q = x / d
    return q if math.frexp(d)[0] == 0.5 and q * d == x else math.nextafter(q, toward)


def _finite_sum(values: Iterable[float], what: str, n: int) -> float:
    """fsum of values, refusing a NaN or infinite total, or one that
    overflows on the way."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # an intermediate overflow; inf + -inf
        total = math.nan
    if not math.isfinite(total):
        raise EvaluationError(f"{what} is not finite on the grid of n={n}")
    return total


class _Walk:
    """The rule's derivative over the cuts of nested grids of n, 2n, 4n, ...
    subintervals: f'', or f'''' under CORRECTED.

    Starting at n, it evaluates the n + 1 cuts (the last pinned to b), and
    under a bracketed rule the n midpoints too; each ``double`` evaluates
    the new odd cuts alone (and the new midpoints).  Under every rule it
    keeps the signed end values, the chunk fsums of the derivative
    (``sums``) and its magnitude (``sizes``) level after level, and where the
    last level starts (``top``).  ``least`` is the least magnitude read
    under QUASI_Q1, whose weight alone takes it; every other rule keeps the
    ends' alone and builds no list of magnitudes.  ``theorem`` is a
    ``CertTheorem`` member, never a name: the walk reads its record and
    tests its identity.
    """

    def __init__(self, fn: TestFunction, iv: Interval, theorem: CertTheorem, n: int) -> None:
        self.fn, self.iv, self.theorem, self.n, self.start = fn, iv, theorem, n, n
        hypothesis, (numerator, denominator, power) = theorem.hypothesis, theorem.kernel
        self.derivative = getattr(fn, hypothesis.derivative)
        self.what, self.power = hypothesis.magnitude.strip("|"), power
        # b - a and its rounding error, exact by Knuth's TwoSum: the span's
        # bounds are one float apart on the error's side, or both b - a
        span = iv.b - iv.a
        back = span - iv.b
        error = (iv.b - (span - back)) - (iv.a + back)
        self.span = (span if error >= 0 else _step(span, 0.0), span if error <= 0 else _step(span))
        # the factors of the truncation part and the floor that depend on the
        # interval alone (see Arithmetic in the module docstring): the
        # kernel's |integral| over [a, b] as one panel, |C| span^k, over m^k
        # (halved, or times inflation) and over MAX^k (times spread, 1, or
        # under CONVEX_Q1 2 deflation MAX/m).  Each starts from its constant
        # and takes span/m or span/MAX one factor at a time, so no step
        # overflows where the result fits.  spread is no float, so the float
        # below SPREAD is below it.
        top, bottom = (0.5, math.nextafter(SPREAD, 0.0)) if theorem.bracketed else (
            INFLATION, 1.0 if theorem is CertTheorem.QUASI_Q1 else 2.0 * DEFLATION)
        self.part = _quotient(_product(top, abs(numerator)), denominator)
        self.below = _quotient(_product(bottom, abs(numerator), 0.0), denominator, 0.0)
        convex = theorem is CertTheorem.CONVEX_Q1
        if convex:  # MAX/m turns one span/MAX into span/m
            self.below = _product(self.below, _quotient(self.span[0], n, 0.0), 0.0)
        up, down = _quotient(self.span[1], n), _quotient(self.span[0], MAX_SUBINTERVALS, 0.0)
        for _ in range(power):
            self.part = _product(self.part, up)
        for _ in range(power - convex):
            self.below = _product(self.below, down, 0.0)
        self.ends = (self.derivative(iv.a), self.derivative(iv.b))
        _finite_sum(map(abs, self.ends), self.what, n)
        self.least = min(map(abs, self.ends))
        self.sums: list[float] = []
        self.sizes: list[float] = []
        self._read(n, 1)  # sets top, where the last level starts
        if theorem.bracketed:
            self._read(2 * n, 2)

    def _chunk_sums(self, ev, n: int, step: int, what: str,
                    least: bool = False) -> Iterator[tuple[float, float, float]]:
        """Per chunk of at most CHUNK values of ev at a + width*k/n, k = 1,
        1 + step, ... below n: their fsum, the fsum of their magnitudes and,
        when ``least`` asks for it, their least magnitude (else +inf); raises
        EvaluationError when the magnitudes' sum is not finite."""
        a, width = self.iv.a, self.iv.width
        divisor = float(n)  # exact; a float spares the int conversion per cut
        stride = CHUNK * step
        for lo in range(1, n, stride):
            vals = [ev(a + width * k / divisor) for k in range(lo, min(lo + stride, n), step)]
            sizes = list(map(abs, vals)) if least else map(abs, vals)
            size = _finite_sum(sizes, what, self.n)  # before fsum(vals) meets inf - inf
            yield math.fsum(vals), size, min(sizes) if least else math.inf

    def _read(self, n: int, step: int) -> None:
        """Append the derivative at the cuts k = 1, 1 + step, ... of the
        n-grid as the last level; under QUASI_Q1, lower ``least`` to its
        least magnitude."""
        self.top = len(self.sizes)
        keep = self.theorem is CertTheorem.QUASI_Q1
        for total, size, least in self._chunk_sums(self.derivative, n, step, self.what, keep):
            self.sums.append(total)
            self.sizes.append(size)
            self.least = min(self.least, least)

    def double(self) -> None:
        """Go to 2n subintervals: read the odd cuts of the 2n-grid, or under
        a bracketed rule of the 4n-grid, whose even cuts the old midpoints
        became."""
        self.n *= 2
        self._read(2 * self.n if self.theorem.bracketed else self.n, 2)

    def _size(self, ends: float = 0.5) -> float:
        """fsum of the magnitudes read: the ends times ``ends`` (1/2, or 1
        in QUASI_Q1's weight) and every chunk."""
        return _finite_sum(chain((ends * abs(end) for end in self.ends), self.sizes),
                           self.what, self.n)

    def _sides(self) -> tuple[float, float]:
        """Under a bracketed rule, T and M as computed: the fsums of the
        derivative at the cuts, trapezoid-weighted, and at the midpoints."""
        return (_finite_sum(chain((0.5 * end for end in self.ends), self.sums[:self.top]),
                            self.what, self.n),
                _finite_sum(self.sums[self.top:], self.what, self.n))

    def truncation(self) -> float:
        """An upper bound of h^3/24 times a bound on the exact weight (the
        sum of each subinterval's endpoint mean of |f''| under CONVEX_Q1,
        max under QUASI_Q1), or under a bracketed rule of the kernel's
        |integral| times the bracket's half-width |T - M|/2 + e_T + e_M."""
        part = _quotient(self.part, (self.n // self.start) ** self.power)
        if self.theorem.bracketed:
            trapezoid, midpoint = self._sides()
            # |T - M| + 2 spread S + 2u (|T| + |M|): twice the half-width, as
            # part holds half the kernel's |integral|
            width = _step(_step(_step(abs(trapezoid - midpoint))
                                + _product(2.0 * SPREAD, self._size()))
                          + _product(_step(abs(trapezoid) + abs(midpoint)), 2.0 ** -52))
            return _product(part, width)
        if self.theorem is CertTheorem.QUASI_Q1:
            # every cut but a least one is the larger end of some subinterval
            return _product(part, _step(self._size(1.0) - _product(SHRINK, self.least, 0.0)))
        return _product(part, self._size())

    def floor(self) -> float:
        """A lower bound of the truncation part at every level from this one
        to MAX_SUBINTERVALS (see Floors in the module docstring).  Under
        CONVEX_Q1 it reads the |f''| sum at the new cuts of the last
        doubling: h of the n/2 grid times it bounds the integral of |f''|
        from below (0 before the first doubling); every other rule reads
        the sum of the magnitudes read, ``_size``."""
        if self.theorem is CertTheorem.CONVEX_Q1:
            # a walk from an odd n > 1 starts with cuts that are no midpoints
            new = (_finite_sum(self.sizes[self.top:], self.what, self.n)
                   if self.n > self.start else 0.0)
            return _product(_quotient(self.below, self.n // self.start, 0.0), new, 0.0)
        return _product(self.below, self._size(), 0.0)

    def certificate(self, truncation: float) -> CertifiedIntegral:
        """Evaluate f at the n midpoints (and f' at a and b under CORRECTED)
        and close the certificate (see Rounding part in the module
        docstring)."""
        n, (numerator, denominator, power) = self.n, self.theorem.kernel
        sums, sizes, _ = zip(*self._chunk_sums(self.fn.f, 2 * n, 2, "f"))
        total = _finite_sum(sums, "f", n)
        h = self.iv.width / n
        low, high = _quotient(self.span[0], n, 0.0), _quotient(self.span[1], n)
        # h (spread sum |f~| + u |S~|), the evaluations' and the sums' error
        error = _product(_step(_product(SPREAD, _finite_sum(sizes, "f", n))
                               + _product(abs(total), 2.0 ** -53)), high)
        # the estimate's terms, each a factor of h^k: (the factor rounded to
        # nearest, bounds of its exact magnitude, k, whether it is negative)
        terms = [(total, abs(total), abs(total), 1, total < 0)]
        if self.theorem.bracketed:
            trapezoid, midpoint = self._sides()
            sides, half, c = trapezoid + midpoint, 2 * denominator, abs(numerator)
            # the centre C h^k (T + M)/2
            terms.append((numerator / half * sides,
                          _product(_quotient(c, half, 0.0), _step(abs(sides), 0.0), 0.0),
                          _product(_quotient(c, half), _step(abs(sides))),
                          power, (numerator < 0) != (sides < 0)))
        if self.theorem is CertTheorem.CORRECTED:
            left, right = self.fn.d1(self.iv.a), self.fn.d1(self.iv.b)
            ends, gap = _finite_sum((abs(left), abs(right)), "f'", n), right - left
            # the end correction h^2/24 (f'(b) - f'(a)), and its reads' error
            terms.append((gap / 24, _quotient(_step(abs(gap), 0.0), 24, 0.0),
                          _quotient(_step(abs(gap)), 24), 2, gap < 0))
            share = _quotient(_product(SHARE, _step(ends)), 24)
            error = _step(error + _product(_product(share, high), high))
        nearest, lows, highs = [], [], []
        for value, below, above, k, negative in terms:
            for _ in range(k):
                value = value * h
                below, above = _product(below, low, 0.0), _product(above, high)
            nearest.append(value)
            lows.append(-above if negative else below)
            highs.append(-below if negative else above)
        estimate = _finite_sum(nearest, "the estimate", n)
        below, above = _finite_sum(lows, "the estimate", n), _finite_sum(highs, "the estimate", n)
        if len(terms) > 1:
            below, above = _step(below, -math.inf), _step(above)
        # the exact estimate is in [below, above], and so is the computed one
        rounding = _step(_finite_sum((error, _step(max(above - estimate, estimate - below))),
                                     "the rounding part of the estimate", n))
        return CertifiedIntegral(
            estimate=estimate,
            error_radius=_step(truncation + rounding),
            subintervals=n,
            theorem_used=self.theorem,
            truncation_radius=truncation,
            rounding_radius=rounding,
        )


def integrate_certified(fn: TestFunction, iv: Interval, n: int,
                        theorem: CertTheorem | str = CertTheorem.CONVEX_Q1) -> CertifiedIntegral:
    """Composite midpoint rule over n equal subintervals with an error radius.

    Walks from the odd part m of n (m + 1 cuts, then doublings), as
    ``refine_to_tolerance`` walks from 1: n + 1 f'' and n f evaluations,
    2n + 1 f'' under FEJER, and 2n + 1 f'''' and 2 f' under CORRECTED.
    ``theorem`` is a ``CertTheorem`` member or its name, looked up once.
    Raises DomainError, before any evaluation, for any other theorem (the
    message lists the four rules) and for n < 1; DomainError when iv
    leaves fn's domain and HypothesisError when the sample of the 64-point
    grid's pairs refutes the theorem's class on iv, or under CORRECTED
    when fn declares no f'''' (both from ``Hypothesis.require``);
    EvaluationError on a non-finite evaluation, sum, estimate or rounding
    part.
    """
    theorem = CertTheorem(theorem)
    if n < 1:
        raise DomainError(f"need at least one subinterval, got {n}")
    theorem.hypothesis.require(fn, iv)
    walk = _Walk(fn, iv, theorem, n // (n & -n))
    while walk.n < n:
        walk.double()
    return walk.certificate(walk.truncation())


def refine_to_tolerance(fn: TestFunction, iv: Interval, tol: float,
                        theorem: CertTheorem | str = CertTheorem.CONVEX_Q1) -> CertifiedIntegral:
    """The certificate of the fewest power-of-two subintervals, from 1 up to
    2^20, whose radius fits the tolerance.

    Equal to ``integrate_certified`` at the subinterval count it returns.
    The search doubles on nested grids and reads the rule's derivative
    alone, one evaluation per cut, until the truncation part fits; only
    then does it evaluate f, at that level's midpoints, and accept the
    level when truncation + rounding fits.  It decides on float bounds of
    the truncation part and the floor (see Arithmetic in the module
    docstring).  The truncation part scales as
    h^2 for bounded |f''|, so the count grows as O(tol^(-1/2)); under FEJER
    it scales as h^4 for smooth f'', so the count grows as O(tol^(-1/4)),
    and under CORRECTED as h^6 for smooth f'''', O(tol^(-1/6)).  For linear
    f'' (FEJER) or f'''' (CORRECTED) it is exactly 0 in real arithmetic,
    leaving the rounding part at n = 1.

    ``theorem`` is a member or its name, as in ``integrate_certified``.
    Raises DomainError, before any evaluation, for any other theorem and
    for a tolerance that is not positive; DomainError and HypothesisError
    from the class check as ``integrate_certified`` does; EvaluationError
    on a non-finite evaluation, sum, estimate or rounding part; and
    ConvergenceError when the radius is still above tol at 2^20
    subintervals, as soon as the rule's floor (see Floors in the module
    docstring) is above tol, and as soon as the rounding part alone is
    above tol.  That last one is a refusal, not a proof that no grid
    fits: a finer grid moves the rounding part only through the midpoint
    sum of |f| and through |E|, which approach fixed values, so it does
    not shrink with h.
    """
    theorem = CertTheorem(theorem)
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    theorem.hypothesis.require(fn, iv)
    walk = _Walk(fn, iv, theorem, 1)
    while True:
        n = walk.n
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
                    f"radius at n={MAX_SUBINTERVALS} is at least {floor} "
                    f"(floor from the {walk.what} read up to n={n}), above {tol}")
        if n >= MAX_SUBINTERVALS:
            raise ConvergenceError(f"radius {radius} still above {tol} at n={n}")
        walk.double()


#: the rules ``certify`` tries, in order, until one certifies: Fejer's
#: two-sided bracket on the corrected midpoint rule, then on the plain one,
#: then the paper's convex and quasi-convex rules
_LADDER = (CertTheorem.CORRECTED, CertTheorem.FEJER, CertTheorem.CONVEX_Q1,
           CertTheorem.QUASI_Q1)


def certify(fn: TestFunction, iv: Interval, tol: float) -> CertifiedIntegral:
    """The certificate of the first rule of ``_LADDER`` that certifies, as
    ``refine_to_tolerance`` gives it under that rule: the ladder `hh
    certify` runs.

    A rule that raises ConvergenceError or HypothesisError passes the
    request on.  If none certifies, the first ConvergenceError is raised,
    or else the last HypothesisError, each the very exception its rule
    raised.  Any other error (DomainError, EvaluationError, an overflow)
    ends the ladder at once.
    """
    refusal = None
    for theorem in _LADDER:
        try:
            return refine_to_tolerance(fn, iv, tol, theorem)
        except (ConvergenceError, HypothesisError) as exc:
            if not isinstance(refusal, ConvergenceError):
                refusal = exc
    raise refusal
