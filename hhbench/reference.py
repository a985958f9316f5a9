"""Exact references for the benchmark, computed with mpmath apart from hhbounds.

Everything here is derived from closed forms: antiderivatives and
derivatives of the ten catalog functions, the paper's q = 1 bound formulas
applied to exact endpoint derivative values, the special means, and the
class of |f''| and |f'| on an interval read off from where the closed form
turns.  Nothing imports hhbounds, so a fault in the program cannot leak
into the reference it is checked against.

Floats passed in are converted to mpf exactly; results are mpf at
``DPS`` decimal digits.
"""

from __future__ import annotations

from mpmath import mp, mpf

#: working precision of every reference, in decimal digits
DPS = 40

with mp.workdps(DPS):
    HALF_PI = +mp.pi / 2


# --- catalog closed forms ---------------------------------------------------
# id -> (f, F = antiderivative, f', f''), each a function of one mpf.

def _x_n(n: int):
    return (lambda x: x ** n,
            lambda x: x ** (n + 1) / (n + 1),
            lambda x: n * x ** (n - 1),
            lambda x: n * (n - 1) * x ** (n - 2))


CATALOG = {
    "x2": _x_n(2),
    "x3": _x_n(3),
    "x4": _x_n(4),
    "x5": _x_n(5),
    "inv_x": (lambda x: 1 / x, mp.log, lambda x: -1 / x ** 2, lambda x: 2 / x ** 3),
    "neg_ln": (lambda x: -mp.log(x), lambda x: x - x * mp.log(x),
               lambda x: -1 / x, lambda x: 1 / x ** 2),
    "exp": (mp.exp, mp.exp, mp.exp, mp.exp),
    "affine": (lambda x: 3 * x + 1, lambda x: mpf(3) / 2 * x ** 2 + x,
               lambda x: mpf(3), lambda x: mpf(0)),
    "x_5_2": (lambda x: x ** mpf(2.5), lambda x: x ** mpf(3.5) / mpf(3.5),
              lambda x: mpf(2.5) * x ** mpf(1.5), lambda x: mpf(3.75) * mp.sqrt(x)),
    "sin": (mp.sin, lambda x: -mp.cos(x), mp.cos, lambda x: -mp.sin(x)),
}


def abs_d1(fid: str, x) -> mpf:
    with mp.workdps(DPS):
        return abs(CATALOG[fid][2](mpf(x)))


def abs_d2(fid: str, x) -> mpf:
    with mp.workdps(DPS):
        return abs(CATALOG[fid][3](mpf(x)))


def integral(fid: str, a, b) -> mpf:
    """Exact integral of f over [a, b] from the antiderivative."""
    with mp.workdps(DPS):
        big = CATALOG[fid][1]
        return big(mpf(b)) - big(mpf(a))


def signed_gap(fid: str, a, b) -> mpf:
    """Mean value of f over [a, b] minus f at the exact midpoint."""
    with mp.workdps(DPS):
        a, b = mpf(a), mpf(b)
        return integral(fid, a, b) / (b - a) - CATALOG[fid][0]((a + b) / 2)


# --- q = 1 bound formulas (the paper's, on exact endpoint values) ----------

def convex_q1(a, b, ga, gb) -> mpf:
    """(b-a)^2/24 times the mean of the endpoint |f''| values."""
    with mp.workdps(DPS):
        w = mpf(b) - mpf(a)
        return w * w / 24 * (ga + gb) / 2


def quasi_q1(a, b, ga, gb) -> mpf:
    """(b-a)^2/24 times the larger endpoint |f''| value."""
    with mp.workdps(DPS):
        w = mpf(b) - mpf(a)
        return w * w / 24 * max(ga, gb)


def baseline_q1(a, b, ha, hb) -> mpf:
    """(b-a)/4 times the mean of the endpoint |f'| values."""
    with mp.workdps(DPS):
        return (mpf(b) - mpf(a)) / 4 * (ha + hb) / 2


#: bound theorem -> (its family's q = 1 formula, endpoint derivative order)
FAMILY_Q1 = {
    "convex_q1": (convex_q1, 2),
    "convex_holder": (convex_q1, 2),
    "convex_pm": (convex_q1, 2),
    "quasi_q1": (quasi_q1, 2),
    "quasi_holder": (quasi_q1, 2),
    "quasi_pm": (quasi_q1, 2),
    "quasi_monotone": (quasi_q1, 2),
    "baseline_q1": (baseline_q1, 1),
    "baseline_pm": (baseline_q1, 1),
}

#: means proposition -> its family's q = 1 formula, applied to the |f''| of
#: x^n, 1/x or -ln x
MEANS_FAMILY_Q1 = {
    "prop_monomial_q1": convex_q1,
    "prop_monomial_pm": convex_q1,
    "prop_monomial_quasi": quasi_q1,
    "prop_identric": convex_q1,
    "prop_reciprocal_pm": convex_q1,
    "prop_reciprocal_quasi": quasi_q1,
}

#: theorems whose bound *is* the q = 1 formula; the rest only dominate it
Q1_EXACT = frozenset({"convex_q1", "quasi_q1", "quasi_pm", "quasi_monotone",
                      "baseline_q1", "prop_monomial_q1", "prop_reciprocal_quasi"})


def family_q1_bound(theorem: str, fid: str, a, b) -> mpf:
    """The q = 1 bound of ``theorem``'s family for catalog ``fid`` on [a, b]."""
    formula, order = FAMILY_Q1[theorem]
    d = abs_d2 if order == 2 else abs_d1
    return formula(a, b, d(fid, a), d(fid, b))


# --- class of |f''| and |f'| from the closed forms --------------------------
# Each catalog |f''| is monotone, or turns once (x4 and x5 at 0, sin at pi/2);
# no catalog |f''| is convex on any interval when it is concave (x_5_2, sin).

def d2_turning_point(fid: str):
    """Where |f''| changes direction inside its window, or None."""
    if fid in ("x4", "x5"):
        return mpf(0)
    if fid == "sin":
        return HALF_PI
    return None


def _inside(t, a, b) -> bool:
    return t is not None and mpf(a) < t < mpf(b)


def d2_convex(fid: str, a, b) -> bool:
    return fid not in ("x_5_2", "sin")


def d2_quasiconvex(fid: str, a, b) -> bool:
    # sin is concave with its peak at pi/2: quasi-convex only where monotone
    return not (fid == "sin" and _inside(HALF_PI, a, b))


def d2_monotone(fid: str, a, b) -> bool:
    return not _inside(d2_turning_point(fid), a, b)


def d1_convex(fid: str, a, b) -> bool:
    # |cos| is concave on each side of pi/2; every other |f'| is convex
    return fid != "sin"


#: bound theorem -> the class predicates its hypothesis needs
HYPOTHESES = {
    "convex_q1": (d2_convex,),
    "convex_holder": (d2_convex,),
    "convex_pm": (d2_convex,),
    "quasi_q1": (d2_quasiconvex,),
    "quasi_holder": (d2_quasiconvex,),
    "quasi_pm": (d2_quasiconvex,),
    "quasi_monotone": (d2_quasiconvex, d2_monotone),
    "baseline_q1": (d1_convex,),
    "baseline_pm": (d1_convex,),
}


def hypothesis_holds(theorem: str, fid: str, a, b) -> bool:
    return all(pred(fid, a, b) for pred in HYPOTHESES[theorem])


# --- special means ----------------------------------------------------------

def arithmetic(a, b) -> mpf:
    with mp.workdps(DPS):
        return (mpf(a) + mpf(b)) / 2


def geometric(a, b) -> mpf:
    with mp.workdps(DPS):
        return mp.sqrt(mpf(a) * mpf(b))


def harmonic(a, b) -> mpf:
    with mp.workdps(DPS):
        a, b = mpf(a), mpf(b)
        return 2 * a * b / (a + b)


def logarithmic(a, b) -> mpf:
    with mp.workdps(DPS):
        a, b = mpf(a), mpf(b)
        return (b - a) / (mp.log(b) - mp.log(a))


def identric(a, b) -> mpf:
    with mp.workdps(DPS):
        a, b = mpf(a), mpf(b)
        return mp.exp((b * mp.log(b) - a * mp.log(a)) / (b - a) - 1)


def p_logarithmic(a, b, p) -> mpf:
    """L_p(a, b); L_{-1} is the logarithmic and L_0 the identric mean."""
    p = mpf(p)
    if p == -1:
        return logarithmic(a, b)
    if p == 0:
        return identric(a, b)
    with mp.workdps(DPS):
        a, b = mpf(a), mpf(b)
        return ((b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))) ** (1 / p)


def monomial_gap(a, b, n: int) -> mpf:
    """|L_n^n - A^n|: the midpoint gap of x^n on [a, b]."""
    with mp.workdps(DPS):
        a, b = mpf(a), mpf(b)
        return abs((b ** (n + 1) - a ** (n + 1)) / ((n + 1) * (b - a))
                   - ((a + b) / 2) ** n)


def identric_gap(a, b) -> mpf:
    """ln(A/I): the midpoint gap of -ln x on [a, b]."""
    with mp.workdps(DPS):
        return mp.log(arithmetic(a, b) / identric(a, b))


def reciprocal_gap(a, b) -> mpf:
    """|1/L - 1/A|: the midpoint gap of 1/x on [a, b]."""
    with mp.workdps(DPS):
        return abs(1 / logarithmic(a, b) - 1 / arithmetic(a, b))


def _means_function(label: str):
    """(|f''|, midpoint gap) of the function a means report is about."""
    if label == "1/x":
        return (lambda x: 2 / x ** 3), reciprocal_gap
    if label == "-ln(x)":
        return (lambda x: 1 / x ** 2), identric_gap
    n = int(label.removeprefix("x^"))
    return (lambda x: abs(n * (n - 1)) * x ** (n - 2)), (lambda a, b: monomial_gap(a, b, n))


def means_gap(label: str, a, b) -> mpf:
    """Exact midpoint gap behind a means report on x^n, 1/x or -ln(x)."""
    return _means_function(label)[1](a, b)


def means_family_q1_bound(theorem: str, label: str, a, b) -> mpf:
    """The q = 1 bound of a means proposition's family on [a, b]."""
    d2 = _means_function(label)[0]
    with mp.workdps(DPS):
        return MEANS_FAMILY_Q1[theorem](a, b, d2(mpf(a)), d2(mpf(b)))
