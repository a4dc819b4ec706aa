"""Exact polynomial families, certified root isolation and sign certificates.

Everything here is exact and runs on integers.  A polynomial is integer
numerators over one positive denominator, so its arithmetic needs no
Fraction, and its numerators are a positive multiple of it.  A quadratic
point is a Quad, the integers of (A + B sqrt(d))/C in lowest terms, with no
arithmetic of its own.  A sign or value at a rational a/b or at a Quad is
one Horner sum on those integers, in Z or in Z[sqrt(d)].  Sturm chains and
gcds are primitive pseudo-remainder sequences (Collins 1967), positive
multiples of the rational remainders; a chain is built on each use, from
one remainder sequence when the polynomial is squarefree, and only the one
bracket of its largest root is kept on it.  A reported largest root lies
in a cell of width at most 1e-13 of the grid that bisection from the Cauchy
bound runs on: a float root, moved by one exact Newton step, names the cell
and is reported, and one sign at its upper end and one sign variation after
a Taylor shift to its lower end (Descartes' rule) certify it, on the
squarefree part, p divided by gcd(p, p') when that is not a constant,
which needs no chain; else the root is isolated, bisected and reported as
the cell's midpoint.
Grid points are integer numerators over one denominator, (the Cauchy
bound's denominator) x 2^k, so no step takes a gcd.  Fractions are built
only for output: a polynomial's coefficients and a root bracket's two ends
when read, and a Quad's text.  Largest roots are ordered exactly from
those brackets: disjoint ones order them, and overlapping ones hold equal
roots when the gcd of the squarefree parts has a root in the overlap, else
are halved until they separate.  A largest root's sign against a point and
its 12 decimals are read off the same bracket.  The nested-radical ceilings
square away both radicals and become one sign in Z[sqrt(m-1)].  The
certificates at m are rows (name, statement, kind, arguments, detail) from
one generator, and one evaluator decides each row by its kind: a sign at a
point, an exact value, positivity on a ray or an open interval, a
largest-root order, a discriminant or a nested radical.

Polynomial ids and their parameters:

* ``c5_extremal(m)``        quartic whose largest zero bounds the C5 case
* ``c6_extremal(m)``        the C6 case (degree 3/4/5 by parity and range)
* ``split_pendant(m, t)``   quartic for the pendant split graphs
* ``star_matching_cubic(m)`` / ``star_matching_quartic(m)``  the S^1 star
* ``cone_star_edge(m, r)``  quintic for apex over star-plus-edge + isolates
* ``cone_star_matching_even(m)`` / ``cone_star_matching_odd(m)``
* ``bipartite_minus(m, p)`` / ``bipartite_plus(m, p)``
* ``diamond_k4(m)``         quartic for the star-diamond-K4 graph
* ``cone_double_star(m)`` / ``cone_double_star_alt(m)``  comparison quintics
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Callable, Iterable

# ---------------------------------------------------------------------------
# exact univariate polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Univariate polynomial with exact rational coefficients, held as integer
    numerators ``num``, ascending, over one denominator ``den``, in a unique
    form: no trailing zero in ``num``, ``den`` > 0, and no prime dividing
    ``den`` and every numerator (the zero polynomial has ``den`` = 1).  So
    equality, hashing and the arithmetic run on integers; the Fractions of
    ``coeffs`` are built on each read, for output.  The one value kept on
    it is ``_root``, the bracket of its largest root."""

    __slots__ = ("num", "den", "_root")

    def __init__(self, coeffs: Iterable[Fraction | int], den: int = 1):
        """The polynomial sum(coeffs[i] x^i) / den, for an integer den != 0."""
        num = list(coeffs)
        if any(type(c) is not int for c in num):
            cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in num]
            lcm = math.lcm(*(c.denominator for c in cs))
            num, den = [c.numerator * (lcm // c.denominator) for c in cs], den * lcm
        while num and num[-1] == 0:
            num.pop()
        g = math.gcd(den, *num) * (1 if den > 0 else -1)
        self.num: tuple[int, ...] = tuple(c // g for c in num) if g != 1 else tuple(num)
        self.den: int = den // g
        self._root: tuple[tuple[int, ...], int, int, int, float] | None = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, ascending."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def __call__(self, x):
        """p(x): a Fraction at an int or Fraction, a Quad at a Quad, else a float."""
        if isinstance(x, (int, Fraction)):
            value = self(Quad.of(x))
            return Fraction(value.a, value.c)
        if isinstance(x, Quad):
            return _quad(*_quad_horner(self.num, x), self.den * x.c ** max(self.degree, 0), x.d)
        acc, *rest = [k / self.den for k in reversed(self.num)] or [0.0]
        for c in rest:
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.num]
        b = [c * (den // other.den) for c in other.num]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Polynomial(a, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = [0] * (len(self.num) + len(other.num) - 1)
            for i, a in enumerate(self.num):
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
            return Polynomial(out, self.den * other.den)
        s = other if isinstance(other, (int, Fraction)) else Fraction(other)
        return Polynomial([c * s.numerator for c in self.num], self.den * s.denominator)

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.num)][1:], self.den)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder by pseudo-division, l^k num = Q other.num + R
        with l = other.num[-1] and k = deg p - deg other + 1, in integers."""
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        d, lead = len(b) - 1, b[-1]
        scale = lead ** max(0, len(self.num) - d)
        rem = [c * scale for c in self.num]
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            f = quot[i - d] = rem[i] // lead
            for j, c in enumerate(b):
                rem[i - d + j] -= f * c
        den = self.den * scale
        return Polynomial([q * other.den for q in quot], den), Polynomial(rem, den)

    def squarefree(self) -> "Polynomial":
        """p itself when gcd(p, p') is a constant, else p divided by it."""
        g = _poly_gcd(self.num, self.derivative().num)
        return self if g.degree <= 0 else self.divmod(g)[0]

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            mag = abs(c)
            term = "" if (mag == 1 and i > 0) else str(mag)
            if i >= 1:
                term += "x" if i == 1 else f"x^{i}"
            parts.append(("- " if c < 0 else "+ ") + term)
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """|lc(b)|^(deg a - deg b + 1) times the remainder of a by b, divided by
    its content: a positive multiple of that remainder, in integers."""
    if b[-1] < 0:
        b = tuple(-c for c in b)  # same remainder, positive leading coefficient
    rem, n, lead = list(a), len(b) - 1, b[-1]
    for i in range(len(rem) - 1, n - 1, -1):
        f = rem[i]
        rem = [c * lead for c in rem]
        for j, c in enumerate(b):
            rem[i - n + j] -= f * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    g = math.gcd(*rem)
    return tuple(c // g for c in rem) if g > 1 else tuple(rem)


def _poly_gcd(x: tuple[int, ...], y: tuple[int, ...]) -> Polynomial:
    """The monic gcd of two integer polynomials, by a primitive remainder sequence."""
    while y:
        x, y = y, _prem(x, y)
    return Polynomial(x, x[-1] if x else 1)


X = Polynomial([0, 1])


# ---------------------------------------------------------------------------
# quadratic field values a + b*sqrt(d)
# ---------------------------------------------------------------------------


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@dataclass(frozen=True)
class Quad:
    """Exact value (a + b*sqrt(d))/c, held as integers in a unique form: c > 0,
    no prime divides a, b and c, b = 0 iff d = 0, and d is not a square.  It
    has no arithmetic of its own; signs and values read its integers."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def of(a, b=0, d: int = 0) -> "Quad":
        """a + b*sqrt(d) for rational a, b and an integer d >= 0."""
        a, b = (x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (a, b))
        c = math.lcm(a.denominator, b.denominator)
        return _quad(a.numerator * (c // a.denominator), b.numerator * (c // b.denominator), c, d)

    def sign(self) -> int:
        return _quad_sign(self.a, self.b, self.d)

    def __str__(self) -> str:
        a = Fraction(self.a, self.c)
        return f"{a} + {Fraction(self.b, self.c)}*sqrt({self.d})" if self.b else str(a)


def _quad(a: int, b: int, c: int, d: int) -> Quad:
    """The Quad (a + b*sqrt(d))/c, for integers with c != 0 and d >= 0."""
    if d < 0:
        raise ValueError("radicand must be nonnegative")
    if b and _is_square(d):
        a, b = a + b * math.isqrt(d), 0
    g = math.gcd(a, b, c) * (1 if c > 0 else -1)
    return Quad(a // g, b // g, c // g, d if b else 0)


def _quad_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for d >= 0: the sign of a and b when they agree,
    else that of a times that of a^2 - b^2 d."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0) if d else 0
    if sa * sb >= 0:
        return sa or sb
    t = a * a - b * b * d
    return sa * ((t > 0) - (t < 0))


def gate(m: int, c: int) -> Quad:
    """The point (1 + sqrt(4m - c))/2 as an exact quadratic value."""
    return _quad(1, 1, 2, 4 * m - c)


# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------

POS_INF = "+inf"
NEG_INF = "-inf"


def sturm_chain(p: Polynomial) -> tuple[Polynomial, ...]:
    """The squarefree part of p, then integer polynomials, each a positive
    multiple of the rational Sturm chain's element, so that sign variations
    are the same.  Built on each call from one remainder sequence on p: its
    last element is a multiple of gcd(p, p'), so a constant there means p is
    squarefree, and only otherwise is the sequence run again on p's
    squarefree part."""
    chain = _remainders(p)
    if chain[-1].degree > 0:
        chain = _remainders(p.squarefree())
    return tuple(chain)


def _remainders(head: Polynomial) -> list[Polynomial]:
    """head, its derivative, then the negated primitive pseudo-remainders."""
    chain = [head, Polynomial([i * c for i, c in enumerate(head.num)][1:])]
    while chain[-1].num:
        r = _prem(chain[-2].num, chain[-1].num)
        if not r:
            break
        chain.append(Polynomial([-c for c in r]))
    return chain


def _sign_at(cs: tuple[int, ...], x) -> int:
    """Sign of the integer polynomial cs at a rational or quadratic point or
    at POS_INF or NEG_INF."""
    if not cs:
        return 0
    if isinstance(x, str):
        s = (cs[-1] > 0) - (cs[-1] < 0)
        return -s if x == NEG_INF and len(cs) % 2 == 0 else s
    if isinstance(x, Quad):
        if x.b:
            return _quad_sign(*_quad_horner(cs, x), x.d)
        return _horner_sign(cs, x.a, x.c)
    return _horner_sign(cs, x.numerator, x.denominator)


def _quad_horner(cs: tuple[int, ...], x: Quad) -> tuple[int, int]:
    """Integers u, v with c^degree cs(x) = u + v sqrt(d), for the Quad
    x = (a + b sqrt(d))/c: one Horner sum in Z[sqrt(d)]."""
    a, b, c = x.a, x.b, x.c
    bd = b * x.d
    u = v = 0
    c_pow = 1
    for k in reversed(cs):
        u, v = u * a + v * bd + k * c_pow, u * b + v * a
        c_pow *= c
    return u, v


def _horner_sign(cs: tuple[int, ...], a: int, b: int) -> int:
    """Sign at a/b, for b > 0, of the integer polynomial cs: b^degree times
    its value is one Horner sum in Z."""
    acc, b_pow = 0, 1
    for k in reversed(cs):
        acc = acc * a + k * b_pow
        b_pow *= b
    return (acc > 0) - (acc < 0)


def _variations(signs: Iterable[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def count_roots(p: Polynomial, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    chain = sturm_chain(p)
    return (_variations(_sign_at(q.num, lo) for q in chain)
            - _variations(_sign_at(q.num, hi) for q in chain))


def sign_at(p: Polynomial, x) -> int:
    """Exact sign of p at a rational or quadratic point."""
    return _sign_at(p.num, x)


def cauchy_bound(p: Polynomial) -> tuple[int, int]:
    """Integers (b, |c_n|) with b/|c_n| = 1 + max |c_i / c_n|, which bounds the
    absolute value of every root."""
    if p.degree < 0:
        raise ValueError("zero polynomial")
    lead = abs(p.num[-1])
    return lead + max(map(abs, p.num[:-1]), default=0), lead


@dataclass(frozen=True, eq=False)
class RootBracket:
    """Interval (lo, hi] certified to hold exactly one distinct root.  Its
    ends are points of the bisection grid from the Cauchy bound, integer
    numerators over one denominator of the form (the Cauchy bound's
    denominator) x 2^k, and are kept so: ``lo`` and ``hi`` build their
    Fractions only when read.  Two brackets are equal when their ends are
    equal as numbers."""

    lo_num: int
    hi_num: int
    den: int

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootBracket):
            return NotImplemented
        return (self.lo_num * other.den == other.lo_num * self.den
                and self.hi_num * other.den == other.hi_num * self.den)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))


def _isolate(p: Polynomial) -> tuple[tuple[int, ...], int, int, int]:
    """The numerators of p's squarefree part and a Sturm-certified bracket
    (lo/den, hi/den] that holds its largest root, with no root of p above
    hi/den."""
    if p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    chain = sturm_chain(p)
    prims = [q.num for q in chain]
    at_inf = _variations(_sign_at(cs, POS_INF) for cs in prims)
    hi, den = cauchy_bound(chain[0])
    lo = -hi
    above = _variations(_horner_sign(cs, lo, den) for cs in prims) - at_inf
    if above == 0:
        bound = Fraction(hi, den)
        raise ValueError(f"no real root of {p} in [-{bound}, {bound}]")
    # no root lies above hi, so (lo, hi] isolates the largest root once
    # exactly one root lies above lo
    while above != 1:
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        count = _variations(_horner_sign(cs, mid, den) for cs in prims) - at_inf
        if count >= 1:
            lo, above = mid, count
        else:
            hi = mid
    return prims[0], lo, hi, den


def _halve(cs: tuple[int, ...], lo: int, hi: int, den: int) -> tuple[int, int, int]:
    """The half of a bracket (lo/den, hi/den] of the largest root of cs that
    keeps that root.  cs has the sign of its leading coefficient above that root
    and the opposite sign below it, so an exact midpoint hit keeps the root
    at the closed upper endpoint."""
    mid = lo + hi
    if _horner_sign(cs, mid, 2 * den) * cs[-1] < 0:
        return mid, 2 * hi, 2 * den
    return 2 * lo, mid, 2 * den


def largest_real_root(p: Polynomial) -> tuple[float, RootBracket]:
    """The largest real root, as a float in its certified bracket, and the bracket.

    The returned bracket (lo, hi] contains exactly one distinct root of p,
    no root of p lies above hi, and the squarefree part of p changes sign
    over [lo, hi].  It is the cell that Sturm isolation and bisection to
    width 1e-13 reach; a float seed finds it when it can, and names the float.
    """
    _, lo, hi, den, value = _largest_root(p)
    return value, RootBracket(lo, hi, den)


def _largest_root(p: Polynomial) -> tuple[tuple[int, ...], int, int, int, float]:
    """The numerators of p's squarefree part, the bracket (lo/den, hi/den]
    of largest_real_root and its float.  Found on first use and kept on p."""
    if p._root is None:
        p._root = _seeded_bracket(p) or _bisected_bracket(p)
    return p._root


def _bisected_bracket(p: Polynomial) -> tuple[tuple[int, ...], int, int, int, float]:
    """The _isolate bracket of p's largest root, halved to width 1e-13, and its midpoint."""
    cs, lo, hi, den = _isolate(p)
    while (hi - lo) * 10**13 > den:
        lo, hi, den = _halve(cs, lo, hi, den)
    return cs, lo, hi, den, (lo + hi) / (2 * den)


def _seeded_bracket(p: Polynomial) -> tuple[tuple[int, ...], int, int, int, float] | None:
    """The _bisected_bracket of p, from a float root, or None.

    _isolate bisects (-b/den, b/den], the Cauchy bound of p's squarefree
    part, so its cells at depth k have width 2b over den 2^k.  Bisection
    stops at the least depth with width at most 1e-13 unless isolation
    went deeper, and keeps the cell (lo, hi] that holds the largest root.
    A float root names a cell of that depth; the cell is the one when the
    squarefree part has the leading coefficient's sign (or 0) at hi and
    exactly one distinct root lies above lo, for then that root lies in
    (lo, hi], and isolation stopped no deeper; a/q is far nearer the root
    than an ulp.  The one root above lo is certified by Descartes' rule
    (``_one_root_above``), with no Sturm chain.  It finds every cell that a
    Sturm count accepts when the squarefree part has only real roots; with
    non-real roots right of lo it may find none.  Else None.
    """
    if p.degree < 1:
        return None
    sf = p.squarefree()
    cs = sf.num
    seed = _float_root(cs)
    if seed is None:
        return None
    x, slope = seed
    a, q = x.as_integer_ratio()
    try:
        # one Newton step on the exact value at the float moves its error
        # of a few ulps far below the cell width
        step = _quad_horner(cs, Quad(a, 0, q, 0))[0] / (q ** (len(cs) - 1) * cs[-1]) / slope
        e, s = step.as_integer_ratio()
    except (OverflowError, ValueError):
        return None
    a, q = a * s - e * q, q * s  # the root is near a/q
    b, den = cauchy_bound(sf)
    width = 2 * b
    depth = (-(-width * 10**13 // den) - 1).bit_length()  # least k with width <= 1e-13 den 2^k
    den, base = den << depth, b << depth
    hi = width * -((-a * den - base * q) // (q * width)) - base  # least grid point >= a/q
    lo = hi - width
    if _horner_sign(cs, hi, den) * cs[-1] < 0 or not _one_root_above(cs, lo, den):
        return None
    return cs, lo, hi, den, a / q


def _one_root_above(cs: tuple[int, ...], lo: int, den: int) -> bool:
    """Whether one sign variation proves that exactly one root of the
    squarefree cs lies above lo/den (Descartes' rule of signs; Collins &
    Akritas 1976).  den^d cs((lo + s)/den), one Taylor shift in integers,
    has as many roots s > 0 as cs has above lo/den; that count is at most
    the sign variations of its coefficients and has their parity, and it
    equals them when cs has only real roots."""
    d = len(cs) - 1
    shifted = [c * den ** (d - i) for i, c in enumerate(cs)]  # den^d cs(y / den)
    for i in range(d):  # y = lo + s
        for j in range(d - 1, i - 1, -1):
            shifted[j] += lo * shifted[j + 1]
    return _variations((c > 0) - (c < 0) for c in shifted) == 1


def _float_root(cs: tuple[int, ...]) -> tuple[float, float] | None:
    """A float x near the largest real root of cs, and cs'(x) / lc(cs).

    Newton's method on cs / lc(cs) runs down from Fujiwara's bound B on the
    roots' moduli, inside (-B, B), until a step no longer lowers x; from
    above the largest root of a polynomial with only real roots, every
    step does.  None when a coefficient ratio or the bound leaves float
    range, or the derivative vanishes."""
    try:
        f = [c / cs[-1] for c in cs]
    except OverflowError:
        return None
    n = len(f) - 1
    bound = x = 2 * max(abs(c) ** (1 / (n - i)) for i, c in enumerate(f[:-1]))
    if not math.isfinite(bound):
        return None
    while True:
        value = slope = 0.0
        for c in reversed(f):
            slope, value = slope * x + value, value * x + c
        if not slope:
            return None
        nxt = x - value / slope
        if not -bound < nxt < x:
            return x, slope
        x = nxt


@dataclass(frozen=True)
class RootComparison:
    """The order of two largest roots ("gt" means the left one is larger),
    with the brackets that decide it: each polynomial's largest_real_root
    bracket, halved until the two are disjoint unless the roots are equal."""

    order: str  # "lt", "gt" or "eq"
    left: RootBracket
    right: RootBracket


def compare_largest_roots(p: Polynomial, q: Polynomial) -> RootComparison:
    """Exact ordering of the largest real roots of p and q.

    It starts from the two brackets of largest_real_root.  Each holds one
    distinct root of its squarefree part and no root lies above it, so
    disjoint brackets order the roots, and overlapping ones hold equal
    roots iff the gcd of the squarefree parts has a root where they
    overlap.  Otherwise the wider bracket is halved until the two separate.
    """
    ps, plo, phi, pd, _ = _largest_root(p)
    qs, qlo, qhi, qd, _ = _largest_root(q)
    # the overlap (lo, hi] of the brackets, over the denominator pd * qd; the
    # gcd is taken only when the overlap is not empty
    lo, hi = max(plo * qd, qlo * pd), min(phi * qd, qhi * pd)
    if lo < hi and (g := _poly_gcd(ps, qs)).degree > 0 and count_roots(
            g, *(_quad(x, 0, pd * qd, 0) for x in (lo, hi))):
        order = "eq"
    else:
        # the brackets overlap while qlo/qd < phi/pd and plo/pd < qhi/qd
        while qlo * pd < phi * qd and plo * qd < qhi * pd:
            if (phi - plo) * qd >= (qhi - qlo) * pd:
                plo, phi, pd = _halve(ps, plo, phi, pd)
            else:
                qlo, qhi, qd = _halve(qs, qlo, qhi, qd)
        order = "lt" if phi * qd <= qlo * pd else "gt"
    return RootComparison(order, RootBracket(plo, phi, pd), RootBracket(qlo, qhi, qd))


def largest_root_sign(p: Polynomial, x: Quad) -> int:
    """The sign of λ - x, for p's largest real root λ, read off its bracket
    (lo, hi]: x against lo and hi, and only when lo < x <= hi, the sign at
    x of the squarefree numerators kept with the bracket (no Sturm chain),
    which have the leading coefficient's sign above λ and the opposite sign
    below it."""
    cs, lo, hi, den, _ = _largest_root(p)
    if _quad_sign(x.a * den - lo * x.c, x.b * den, x.d) <= 0:
        return 1
    if _quad_sign(x.a * den - hi * x.c, x.b * den, x.d) > 0:
        return -1
    return -_sign_at(cs, x) * (1 if cs[-1] > 0 else -1)


def root_decimal(p: Polynomial) -> str:
    """p's largest real root rounded to 12 decimals, half to even, decided
    on its bracket (lo, hi]: with no rounding boundary (k + 1/2) 10^-12 in
    it, every point of the bracket rounds alike; else the sign of the
    squarefree part at that one boundary (the bracket is narrower than the
    boundaries' spacing) says on which side the root lies."""
    cs, lo, hi, den, _ = _largest_root(p)
    scale = 10**12
    k = (2 * hi * scale + den) // (2 * den)  # hi rounded to the nearest unit of 1e-12
    if 2 * lo * scale < (2 * k - 1) * den:  # the boundary below k lies in (lo, hi]
        side = _horner_sign(cs, 2 * k - 1, 2 * scale) * cs[-1]
        k -= side > 0 or (side == 0 and k % 2 == 1)
    whole, frac = divmod(abs(k), scale)
    return f"{'-' if k < 0 else ''}{whole}.{frac:012d}"


# ---------------------------------------------------------------------------
# named polynomial instances
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def c5_extremal(m: int) -> Polynomial:
    """Quartic bounding the C5-free case: the pendant split with m's pendant count."""
    _require(m >= 4, f"need m >= 4, got {m}")
    return split_pendant_poly(m, crossover_at(m).split_t)


def c6_extremal(m: int) -> Polynomial:
    """C6-free bound: the cone polynomial up to the crossover, the C5 quartic after."""
    _require(m >= 22, f"defined for m >= 22, got {m}")
    cx = crossover_at(m)
    if m > cx.last_cone:
        return cx.split(m)
    if m % 2:
        return cx.cone(m)
    # the even cone quartic is (x + 1) times the cubic that bounds this case
    return cx.cone(m).divmod(Polynomial([1, 1]))[0]


def split_pendant_poly(m: int, t: int) -> Polynomial:
    """Quartic x^4 - m x^2 - (m-t-1)x - (t^2 - mt + t)/2."""
    _require(t >= 1 and m >= t + 1, f"need 1 <= t and m >= t+1, got m={m}, t={t}")
    return Polynomial([-Fraction(t * t - m * t + t, 2), -(m - t - 1), -m, 0, 1])


def star_matching_cubic(m: int) -> Polynomial:
    _require(m >= 4, f"need m >= 4, got {m}")
    return Polynomial([m - 3, -(m - 1), -1, 1])


def star_matching_quartic(m: int) -> Polynomial:
    _require(m >= 4, f"need m >= 4, got {m}")
    return Polynomial([m - 3, -2, -m, 0, 1])


def cone_star_edge_poly(m: int, r: int) -> Polynomial:
    """Quintic for the apex-over-(star-plus-edge, isolates) graph."""
    _require(r >= 3 and m >= 2 * r + 3, f"need r >= 3 and m >= 2r+3, got m={m}, r={r}")
    return Polynomial([
        2 * r * r - m * r - 2 * r + 2 * m - 4,
        -(2 * r * r - m * r + 4),
        -(2 * r - m + 5),
        -(m - 1),
        -1,
        1,
    ])


def cone_star_matching_even(m: int) -> Polynomial:
    _require(m >= 8 and m % 2 == 0, f"need even m >= 8, got {m}")
    return Polynomial([m - 6, -3, -(m - 1), -1, 1])


def cone_star_matching_odd(m: int) -> Polynomial:
    _require(m >= 9 and m % 2 == 1, f"need odd m >= 9, got {m}")
    return Polynomial([-Fraction(m - 7, 2), Fraction(3 * m - 17, 2), -2, -(m - 1), -1, 1])


def bipartite_minus_poly(m: int, p: int) -> Polynomial:
    """Quartic for the complete bipartite graph minus one edge, parts p and (m+1)/p."""
    _require(p >= 2 and (m + 1) % p == 0 and p * p <= m + 1,
             f"need p >= 2 dividing m+1 with p <= (m+1)/p, got m={m}, p={p}")
    return Polynomial([m + 2 - p - Fraction(m + 1, p), 0, -m, 0, 1])


def bipartite_plus_poly(m: int, p: int) -> Polynomial:
    """Quartic for the complete bipartite graph with one pendant, parts p and (m-1)/p."""
    _require(p >= 2 and (m - 1) % p == 0 and p * p <= m - 1,
             f"need p >= 2 dividing m-1 with p <= (m-1)/p, got m={m}, p={p}")
    return Polynomial([m - 1 - Fraction(m - 1, p), 0, -m, 0, 1])


def diamond_k4_poly(m: int) -> Polynomial:
    _require(m >= 9 and m % 2 == 1, f"need odd m >= 9, got {m}")
    return Polynomial([Fraction(7 * m - 49, 2), m - 5, -(m - 3), -2, 1])


def cone_double_star_poly(m: int) -> Polynomial:
    _require(m >= 7 and m % 2 == 1, f"need odd m >= 7, got {m}")
    return Polynomial([m - 5, Fraction(3 * m - 15, 2), -(m - 1), -m, 0, 1])


def cone_double_star_alt_poly(m: int) -> Polynomial:
    _require(m >= 7 and m % 2 == 1, f"need odd m >= 7, got {m}")
    return Polynomial([0, m - 3, -(m - 3), -m, 0, 1])


@dataclass(frozen=True)
class Crossover:
    """One parity class of the C6 runner-up crossover.

    The apex-join cone's largest root beats the split with ``split_t``
    pendants for every m <= ``last_cone`` of this parity; the split wins
    after that, by a root comparison up to ``last_window`` and by an exact
    bracket certificate beyond it.  ``gates`` holds the c of the gates
    (1+sqrt(4m-c))/2 that the certificates use: where the split side is
    negative, where its positive ray starts, and where the cone's does.
    """

    cone: Callable[[int], Polynomial]
    split_t: int
    last_cone: int
    last_window: int
    gates: tuple[int, int, int]

    def split(self, m: int) -> Polynomial:
        return split_pendant_poly(m, self.split_t)


CROSSOVER = {
    "even": Crossover(cone_star_matching_even, 1, 72, 88, (5, 4, 3)),
    "odd": Crossover(cone_star_matching_odd, 2, 71, 87, (7, 6, 5)),
}


def crossover_at(m: int) -> Crossover:
    return CROSSOVER["odd" if m % 2 else "even"]


_INSTANTIATORS: dict[str, Callable[..., Polynomial]] = {
    "c5_extremal": c5_extremal,
    "c6_extremal": c6_extremal,
    "split_pendant": split_pendant_poly,
    "star_matching_cubic": star_matching_cubic,
    "star_matching_quartic": star_matching_quartic,
    "cone_star_edge": cone_star_edge_poly,
    "cone_star_matching_even": cone_star_matching_even,
    "cone_star_matching_odd": cone_star_matching_odd,
    "bipartite_minus": bipartite_minus_poly,
    "bipartite_plus": bipartite_plus_poly,
    "diamond_k4": diamond_k4_poly,
    "cone_double_star": cone_double_star_poly,
    "cone_double_star_alt": cone_double_star_alt_poly,
}

POLY_IDS = tuple(sorted(_INSTANTIATORS))


def instantiate(poly_id: str, m: int, **params: int) -> Polynomial:
    """Build a named polynomial; raises on a missing or unknown parameter
    (named as the ``bht poly`` flag) and on out-of-range or wrong-parity input."""
    if poly_id not in _INSTANTIATORS:
        raise ValueError(f"unknown polynomial id {poly_id!r}; known: {POLY_IDS}")
    fn = _INSTANTIATORS[poly_id]
    names = fn.__code__.co_varnames[1:fn.__code__.co_argcount]  # its parameters after m
    if extra := [k for k in params if k not in names]:
        raise ValueError(f"{poly_id} takes no {', '.join('--' + k for k in extra)}")
    if missing := [k for k in names if k not in params]:
        raise ValueError(f"{poly_id} needs {', '.join('--' + k for k in missing)}")
    return fn(m, **params)


def book_lambda(m: int) -> float:
    """Closed form (1 + sqrt(4m-3))/2."""
    if m < 3:
        raise ValueError("need m >= 3")
    return (1 + math.sqrt(4 * m - 3)) / 2


# ---------------------------------------------------------------------------
# positivity certificates
# ---------------------------------------------------------------------------


def positive_on_ray(p: Polynomial, x0: Quad | Fraction) -> bool:
    """Certify p(x) > 0 for every x >= x0 (Sturm count + endpoint sign)."""
    return sign_at(p, x0) > 0 and count_roots(p, x0, POS_INF) == 0


def positive_on_open_interval(p: Polynomial, lo: Quad, hi: Quad) -> bool:
    """Certify p(x) > 0 on (lo, hi), for lo < hi: no roots inside, and p
    positive just right of lo."""
    if count_roots(p, lo, hi) - (sign_at(p, hi) == 0):
        return False
    # with no root in (lo, hi), p has there the sign of its first
    # derivative that is nonzero at lo
    while p.num and sign_at(p, lo) == 0:
        p = p.derivative()
    return sign_at(p, lo) > 0


@dataclass(frozen=True)
class Certificate:
    name: str
    statement: str
    holds: bool
    detail: str = ""


def nested_radical_below(m: int, inner_shift: int) -> bool:
    """Decide sqrt((m + sqrt(E))/2) < sqrt(m-1) + 1/(m-1) exactly.

    With inner_shift = 0 the inner radicand is E = m^2 - 4(m - 1 - sqrt(m-1))
    (the bipartite ceiling); inner_shift = 1 uses E = m^2 - 4m + 8 (the
    double-star value).  Both sides are positive, and squaring twice turns
    the claim into E < r^2 with r = m - 2 + 4 sqrt(m-1)/(m-1) + 2/(m-1)^2 > 0,
    one sign in Q(sqrt(m-1)).  With k = m - 1, s = (m-2)k^2 + 2 and
    E = e + e' sqrt(k), k^2 r is s + 4k sqrt(k), so k^4 (r^2 - E) is
    s^2 + 16k^3 - k^4 e + (8ks - k^4 e') sqrt(k): one sign in Z[sqrt(k)].
    """
    k = m - 1
    s = (m - 2) * k * k + 2
    e, e_root = (m * m - 4 * m + 8, 0) if inner_shift else (m * m - 4 * k, 4)
    return _quad_sign(s * s + 16 * k**3 - k**4 * e, 8 * k * s - k**4 * e_root, k) > 0


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def inequality_certificates(m: int) -> list[Certificate]:
    """Exact-sign evaluation of every delegated inequality that applies to
    m's parity and range."""
    if m < 22:
        raise ValueError("certificates start at m = 22")
    return [_certify(*row) for row in _certificate_rows(m)]


def _certify(name: str, statement: str, kind: str, args: tuple, detail: str = "") -> Certificate:
    """Decide one certificate row.  Its detail is a format string over the
    evidence: the value at the point, the probe point, or the root comparison."""
    evidence = None
    if kind == "sign":  # p has sign s at x
        p, evidence, s = args
        holds = sign_at(p, evidence) == s
    elif kind == "value":  # p(x) has sign s, and is `exact` when one is stated
        p, x, s, exact = args
        evidence = p(x)
        holds = evidence.sign() == s and (exact is None or evidence == exact)
    elif kind == "ray":  # p > 0 for x >= x0
        holds = positive_on_ray(*args)
    elif kind == "interval":  # p > 0 on (lo, hi)
        holds = positive_on_open_interval(*args)
    elif kind == "order":  # the largest roots of p and q compare as `order`
        p, q, order = args
        evidence = compare_largest_roots(p, q)
        holds = evidence.order == order
    elif kind == "discriminant":  # a real quadratic with this discriminant has no root
        holds = args[0] < 0
    else:  # "radical": the nested-radical ceiling at (m, inner_shift)
        holds = nested_radical_below(*args)
    return Certificate(name, statement, holds, detail.format(evidence))


def _certificate_rows(m: int) -> Iterable[tuple]:
    """One row (name, statement, kind, args[, detail]) per certificate at m."""
    g7, cx = gate(m, 7), crossover_at(m)

    # pendant-split gate values (both parities)
    for t in (1, 2):
        yield (f"split{t}_below_gate7", f"s{t} at (1+sqrt(4m-7))/2 is negative", "value",
               (split_pendant_poly(m, t), g7, -1, None), "value = {}")

    # cone versus split side, each negative at one gate and positive on a
    # ray; against the odd cone quintic the split side is x*s2, of degree five
    t, st, cone = cx.split_t, cx.split(m), cx.cone(m)
    neg_c, ray_c, cone_c = cx.gates
    parity, shape = ("odd", "quintic") if m % 2 else ("even", "quartic")
    side, tag, sym = (X * st, f"xsplit{t}", f"x*s{t}") if m % 2 else (st, f"split{t}", f"s{t}")
    for p_tag, p_sym, p, neg, ray in ((tag, sym, side, neg_c, ray_c),
                                      (f"cone_{parity}", f"cone {shape}", cone, 7, cone_c)):
        yield (f"{p_tag}_neg_gate{neg}", f"{p_sym} < 0 at (1+sqrt(4m-{neg}))/2", "sign",
               (p, gate(m, neg), -1))
        yield (f"{p_tag}_pos_ray_gate{ray}", f"{p_sym} > 0 for x >= (1+sqrt(4m-{ray}))/2", "ray",
               (p, gate(m, ray)))
    if m <= cx.last_cone:
        yield (f"cone_beats_split_{parity}", f"{sym} - g{t} > 0 on the {parity} bracket",
               "interval", (side - cone, gate(m, neg_c), gate(m, ray_c)))
    elif m <= cx.last_window:
        yield (f"split_beats_cone_window_{parity}",
               "largest split root exceeds the cone root (gap window)", "order",
               (st, cone, "gt"), "split in ({0.left.lo}, {0.left.hi}]")
    else:
        yield (f"split_beats_cone_{parity}", f"g{t} - {sym} > 0 on the {parity} bracket",
               "interval", (cone - side, g7, gate(m, cone_c)))

    if m % 2:
        # the diamond-over-K4 chain (the graph needs odd m)
        ell = diamond_k4_poly(m)
        yield ("diamond_k4_second_derivative", "l'' > 0 at the gate (= 2(5m-9))", "value",
               (ell.derivative().derivative(), g7, 1, Quad.of(2 * (5 * m - 9))), "value = {}")
        yield ("diamond_k4_first_derivative", "l' > 0 at the gate (= (m-2)sqrt(4m-7)-3)", "value",
               (ell.derivative(), g7, 1, Quad.of(-3, m - 2, 4 * m - 7)))
        yield ("diamond_k4_value", "l > 0 at the gate (= (7m - 3 sqrt(4m-7) - 52)/2)", "value",
               (ell, g7, 1, _quad(7 * m - 52, -3, 2, 4 * m - 7)))
        yield ("diamond_k4_ray", "l > 0 for x >= (1+sqrt(4m-7))/2", "ray", (ell, g7))

        # cone-over-double-star comparison quadratic, positive on the bracket
        if m >= 25:
            yield ("double_star_shift_gain", "-2x^2 + (m-9)/2 x + (m-5) > 0 on the gate bracket",
                   "interval", (Polynomial([m - 5, Fraction(m - 9, 2), -2]), g7, gate(m, 3)))

    # apex/star-edge quintic versus the pendant-split quartics: positive on
    # the bounded window holding both largest roots (the difference has
    # negative leading term, so a ray claim would be false)
    for r in range(3, 8):
        if m >= 4 * r + 12:
            fr = cone_star_edge_poly(m, r)
            yield (f"cone_star_edge_r{r}_vs_split{t}",
                   f"f_r - x*split{t} > 0 on the root window (r={r})", "interval",
                   (fr - X * st, g7, gate(m, ray_c)))
            yield (f"cone_star_edge_r{r}_below_split{t}",
                   f"largest root of f_r below that of split{t} (r={r})", "order", (fr, st, "lt"))

    # monotonicity of the star-edge quintics in r: f_r - f_{r+1}
    for r in range(1, (m - 1) // 4 + 1):
        if 4 * r + 1 <= m <= 4 * r + 11:
            disc = (4 * r - m + 2) ** 2 + 8 * (4 * r - m)
            yield (f"cone_star_edge_step_r{r}",
                   f"discriminant of f_{r}-f_{r + 1} is negative (= {disc})", "discriminant",
                   (disc,))

    if m >= 26:
        # bipartite ceiling probes at the divisors the argument uses.  The
        # probe asks for g < 0 at the crossing point of the quartic
        # difference; a failing probe is reported as such, and the exact
        # root comparison below records the true ordering either way.
        g, cubic = star_matching_quartic(m), star_matching_cubic(m)
        for p in _relevant_divisors(m + 1, first=2 if m % 2 else 3):
            yield (f"bipartite_minus_probe_p{p}",
                   f"star quartic < 0 at p/2+(m+1)/(2p)-5/2 (p={p})", "sign",
                   (g, Fraction(p * p - 5 * p + m + 1, 2 * p), -1), "probe point {}")
            yield (f"bipartite_minus_vs_star_p{p}",
                   f"largest root: K-({p},{(m + 1) // p}) vs star-plus-edge", "order",
                   (bipartite_minus_poly(m, p), cubic, "lt"), "exact order: {.order}")
        if m % 2 == 0:
            for p in _relevant_divisors(m - 1, first=3):
                yield (f"bipartite_plus_probe_p{p}", f"star quartic < 0 at (m-1)/(2p)-1 (p={p})",
                       "sign", (g, Fraction(m - 1 - 2 * p, 2 * p), -1), "probe point {}")
                yield (f"bipartite_plus_vs_star_p{p}",
                       f"largest root: K+({p},{(m - 1) // p}) vs star-plus-edge", "order",
                       (bipartite_plus_poly(m, p), cubic, "lt"), "exact order: {.order}")
            yield ("twin_prime_bipartite_ceiling",
                   "sqrt((m+sqrt(m^2-4(m-1-sqrt(m-1))))/2) < sqrt(m-1) + 1/(m-1)", "radical",
                   (m, 0), "m-1 and m+1 both prime" if _is_prime(m - 1) and _is_prime(m + 1)
                   else "primality side condition not met")
        yield ("double_star_ceiling", "sqrt((m+sqrt(m^2-4m+8))/2) < sqrt(m-1) + 1/(m-1)",
               "radical", (m, 1))


def _relevant_divisors(n: int, first: int) -> list[int]:
    """The least divisor >= first of n, when it stays below sqrt(n)."""
    return [p for p in range(first, math.isqrt(n) + 1) if n % p == 0][:1]


# ---------------------------------------------------------------------------
# crossover scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossoverReport:
    parity: str
    orders: tuple[tuple[int, str], ...]
    runs: tuple[tuple[int, int, str], ...]
    flips: tuple[tuple[int, int], ...]


def crossover_scan(
    left: Callable[[int], Polynomial],
    right: Callable[[int], Polynomial],
    parity: str,
    m_range: tuple[int, int],
) -> CrossoverReport:
    """Largest-root ordering of left vs right over one parity class of m.

    Returns per-m orders ("gt" means the left root is larger), the maximal
    constant runs, and the flip boundaries between consecutive runs.
    """
    lo, hi = m_range
    if lo > hi:
        raise ValueError("empty range")
    rem = {"even": 0, "odd": 1}[parity]
    orders = [(m, compare_largest_roots(left(m), right(m)).order)
              for m in range(lo, hi + 1) if m % 2 == rem]
    runs = []
    for order, group in groupby(orders, key=lambda mo: mo[1]):
        ms = [m for m, _ in group]
        runs.append((ms[0], ms[-1], order))
    flips = [(a[1], b[0]) for a, b in zip(runs, runs[1:])]
    return CrossoverReport(parity, tuple(orders), tuple(runs), tuple(flips))
