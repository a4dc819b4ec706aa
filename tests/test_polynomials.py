"""Named polynomials, certified roots, exact signs, crossover scans."""

import hashlib
import importlib
import json
import math
import random
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bht import polynomials as P
from conftest import (FractionPolynomial, fraction_compare_largest_roots, fraction_count_roots,
                      fraction_largest_root_bracket, fraction_sturm_chain,
                      interval_nested_radical_below, refuse_overlap_gcd)


# -- polynomial arithmetic ---------------------------------------------------


def test_polynomial_basics():
    p = P.Polynomial([1, 2, 3])
    q = P.Polynomial([0, 1])
    assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    assert (p - p).coeffs == ()
    assert p(Fraction(2)) == 1 + 4 + 12
    assert p.derivative() == P.Polynomial([2, 6])
    quot, rem = P.Polynomial([-6, 11, -6, 1]).divmod(P.Polynomial([-1, 1]))
    assert rem.coeffs == () and quot == P.Polynomial([6, -5, 1])
    assert str(P.Polynomial([Fraction(7, 2), -2, 0, 1])) == "x^3 - 2x + 7/2"


def test_squarefree():
    double_root = P.Polynomial([-2, 1]) * P.Polynomial([-2, 1]) * P.Polynomial([1, 1])
    sf = double_root.squarefree()
    assert sf.degree == 2 and P.sign_at(sf, Fraction(2)) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=6),
       st.fractions(max_denominator=2**20))
def test_sign_at_rational_matches_fraction_value(coeffs, x):
    p = P.Polynomial(coeffs)
    val = p(x)
    assert P.sign_at(p, x) == (val > 0) - (val < 0)


small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
# x = a + b sqrt(d), with square d and b = 0 among them
quad_points = st.builds(P.Quad.of, small_fractions,
                        st.one_of(st.just(0), small_fractions), st.integers(0, 60))
# random coefficients; sparse ones, whose remainder sequences skip degrees
# (so that a pseudo-remainder by a negative leading coefficient would flip
# a sign); and products of linear and quadratic factors with repeats, so
# that the squarefree part is a proper factor
polys = st.one_of(
    st.lists(small_fractions, max_size=7).map(P.Polynomial),
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3]), max_size=7).map(P.Polynomial),
    st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=3), min_size=1, max_size=3)
    .map(lambda fs: math.prod((P.Polynomial(f) for f in fs + fs[:1]), start=P.Polynomial([1])))
    .filter(lambda p: p.degree <= 6),
)
endpoints = st.one_of(small_fractions, quad_points,
                      st.builds(P.gate, st.integers(4, 200), st.integers(1, 9)),
                      st.sampled_from([P.POS_INF, P.NEG_INF]))


def _positive_multiple(p: P.Polynomial, q: P.Polynomial) -> bool:
    """p = k*q for some rational k > 0 (or both are zero)."""
    if p.degree != q.degree:
        return False
    if not p.coeffs:
        return True
    k = p.coeffs[-1] / q.coeffs[-1]
    return k > 0 and all(a == k * b for a, b in zip(p.coeffs, q.coeffs))


def _same(poly: P.Polynomial, oracle: FractionPolynomial) -> bool:
    return poly.coeffs == oracle.coeffs and str(poly) == str(oracle)


# zero, constant, integer and non-integer coefficient lists
coeff_lists = st.one_of(st.just([]), st.lists(small_fractions, min_size=1, max_size=1),
                        st.lists(st.integers(-6, 6), max_size=6), st.lists(small_fractions, max_size=6))


@settings(max_examples=300, deadline=None)
@given(coeff_lists, coeff_lists, small_fractions, small_fractions, quad_points,
       st.floats(-40, 40))
def test_integer_polynomial_matches_fraction_oracle(a, b, s, x, q, f):
    """Integer numerators over one denominator agree with arithmetic on
    Fraction coefficients: coefficients, text, equality, hashing, the ring
    operations, division, squarefree parts and values."""
    p, r = P.Polynomial(a), P.Polynomial(b)
    po, ro = FractionPolynomial(a), FractionPolynomial(b)
    assert _same(p, po) and _same(r, ro)
    assert (p == r) == (po == ro) and (p != r or hash(p) == hash(r))
    assert p == P.Polynomial(po.coeffs) and hash(p) == hash(P.Polynomial(po.coeffs))
    assert p == P.Polynomial(p.num, p.den) and hash(p) == hash(P.Polynomial(p.num, p.den))
    for got, want in [(p + r, po + ro), (p - r, po - ro), (-p, -po), (p * r, po * ro),
                      (p * s, po * s), (s * p, s * po), (p.derivative(), po.derivative()),
                      (p.squarefree(), po.squarefree()),
                      ((p * p * r).squarefree(), (po * po * ro).squarefree())]:
        assert _same(got, want)
    if r.degree >= 0:
        (quot, rem), (quot_o, rem_o) = p.divmod(r), po.divmod(ro)
        assert _same(quot, quot_o) and _same(rem, rem_o)
    assert type(p(x)) is Fraction and p(x) == po(x)
    assert p(q) == po(q)
    assert type(p(f)) is float and p(f) == float(po(f))


def test_constants_and_zero_are_exact_at_exact_points():
    """A constant's value at a quadratic point is a Quad, and the zero
    polynomial's value at an exact point is an exact zero."""
    g = P.gate(30, 7)
    five, zero = P.Polynomial([5]), P.Polynomial([])
    assert five(g) == P.Quad.of(5) and five(g).sign() == 1
    assert zero(g) == P.Quad.of(0) and zero(g).sign() == 0
    assert P.Polynomial([Fraction(-1, 3), 0, 0])(g) == P.Quad.of(Fraction(-1, 3))
    assert type(zero(Fraction(2))) is Fraction and zero(Fraction(2)) == 0
    assert type(zero(2)) is Fraction and zero(2) == 0


@settings(max_examples=200, deadline=None)
@given(polys, endpoints, endpoints)
@example(P.Polynomial([0, 1, 0, 0, -2]), P.NEG_INF, P.POS_INF)
def test_count_roots_matches_fraction_chain(p, lo, hi):
    chain, oracle = P.sturm_chain(p), fraction_sturm_chain(p)
    assert chain[0] == oracle[0] == p.squarefree()
    assert len(chain) == len(oracle)
    assert all(_positive_multiple(a, b) for a, b in zip(chain, oracle))
    assert P.count_roots(p, lo, hi) == fraction_count_roots(p, lo, hi)


def test_sturm_chain_is_headed_by_the_squarefree_part():
    sf = P.split_pendant_poly(30, 1)
    for p in (sf, sf * P.Polynomial([-1, 1]) * P.Polynomial([-1, 1])):
        chain = P.sturm_chain(p)
        assert type(chain) is tuple and chain[0] == p.squarefree()


@pytest.mark.parametrize("m", [61, 96])
def test_certificates_build_each_chain_once(monkeypatch, m):
    """No polynomial is asked for its Sturm chain twice, and chains are
    built only for Sturm counts: the polynomial of a ``ray`` or
    ``interval`` row, or a gcd that overlapping root brackets test."""
    built = []  # keeping the objects alive keeps their ids distinct
    gcds = []
    sturm_chain, poly_gcd = P.sturm_chain, P._poly_gcd

    def counting(p):
        built.append(p)
        return sturm_chain(p)

    def kept_gcd(x, y):
        gcds.append(poly_gcd(x, y))
        return gcds[-1]

    rows = list(P._certificate_rows(m))
    monkeypatch.setattr(P, "_certificate_rows", lambda m: rows)
    monkeypatch.setattr(P, "sturm_chain", counting)
    monkeypatch.setattr(P, "_poly_gcd", kept_gcd)
    P.inequality_certificates(m)
    ids = [id(p) for p in built]
    assert built and len(ids) == len(set(ids))
    counted = {id(row[3][0]) for row in rows if row[2] in ("ray", "interval")}
    assert set(ids) <= counted | {id(g) for g in gcds}


@settings(max_examples=200, deadline=None)
@given(polys, quad_points)
def test_sign_at_quad_matches_field_value(p, x):
    assert P.sign_at(p, x) == FractionPolynomial(p.coeffs)(x).sign()


# -- quadratic field values --------------------------------------------------


def test_quad_signs():
    assert P.Quad.of(1, 1, 5).sign() == 1
    assert P.Quad.of(-3, 1, 5).sign() == -1  # sqrt5 < 3
    assert P.Quad.of(-2, 1, 5).sign() == 1  # sqrt5 > 2
    assert P.Quad.of(2, -1, 5).sign() == -1
    assert P.Quad.of(3, -1, 5).sign() == 1
    assert P.Quad.of(Fraction(5, 2), Fraction(-1, 2), 25).sign() == 0  # 5/2 - 5/2
    assert P.Quad.of(0, 0, 0).sign() == 0


def test_quad_square_radicand_normalizes():
    v = P.Quad.of(1, 2, 9)  # 1 + 2*3
    assert v == P.Quad.of(7) == P.Quad(7, 0, 1, 0)
    assert P.Quad.of(Fraction(1, 2), 3, 1) == P.Quad(7, 0, 2, 0)
    assert P.Quad.of(5, 4, 0) == P.Quad(5, 0, 1, 0)


@given(small_fractions, small_fractions, st.integers(0, 60))
def test_quad_is_integers_in_lowest_terms(a, b, d):
    """Quad.of(a, b, d) holds (A + B sqrt(d'))/C in the unique form: C > 0,
    gcd(A, B, C) = 1, B = 0 iff d' = 0, d' not a square, and the same
    real number a + b sqrt(d)."""
    q = P.Quad.of(a, b, d)
    assert all(type(x) is int for x in (q.a, q.b, q.c, q.d))
    assert q.c > 0 and math.gcd(q.a, q.b, q.c) == 1
    assert (q.b == 0) == (q.d == 0) and (q.d == 0 or math.isqrt(q.d) ** 2 != q.d)
    r = math.isqrt(d)
    if r * r == d:
        assert (Fraction(q.a, q.c), q.b) == (a + b * r, 0)
    else:
        assert (Fraction(q.a, q.c), Fraction(q.b, q.c), q.d) == (a, b, d if b else 0)
    with pytest.raises(ValueError, match="radicand"):
        P.Quad.of(a, b, -d - 1)


def test_quad_has_no_arithmetic():
    q = P.Quad.of(1, 1, 3)
    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "__float__", "_coerce"):
        assert not hasattr(q, name), name
    with pytest.raises(TypeError):
        float(q)


def test_gate_points():
    g = P.gate(22, 7)  # sqrt(81) = 9, so the gate is rational 5
    assert g == P.Quad.of(5) == P.Quad(5, 0, 1, 0)
    assert P.gate(30, 3) == P.Quad(1, 1, 2, 117)  # (1 + sqrt(117))/2
    assert str(P.gate(30, 3)) == "1/2 + 1/2*sqrt(117)"


# -- root isolation ----------------------------------------------------------


def test_largest_root_quadratic_closed_form():
    for m in (9, 22, 59, 200):
        value, bracket = P.largest_real_root(P.Polynomial([-(m - 1), -1, 1]))
        assert abs(value - (1 + math.sqrt(4 * m - 3)) / 2) <= 1e-12
        assert bracket.hi - bracket.lo <= Fraction(1, 10**13)


def test_largest_root_trivial_product():
    poly = P.Polynomial([0, 1]) * P.Polynomial([-1, 1]) * P.Polynomial([-2, 1])
    value, _ = P.largest_real_root(poly)
    assert abs(value - 2.0) <= 1e-12


def test_star_matching_cubic_root_is_three_at_nine():
    # bisection oracle: the largest root of the size-9 cubic is exactly 3
    value, bracket = P.largest_real_root(P.star_matching_cubic(9))
    assert abs(value - 3.0) <= 1e-12
    assert bracket.lo < 3 <= bracket.hi
    from bht.families import star_matching
    from bht.spectral import spectral_radius

    assert abs(spectral_radius(star_matching(9, 1)).lam - value) <= 1e-9


def test_exact_dyadic_root_hit_keeps_bracket_valid():
    # the bisection walks straight onto the root x = 3; the bracket must
    # keep it at the closed upper endpoint
    poly = P.Polynomial([-3, 1]) * P.Polynomial([1, 1]) * P.Polynomial([5, 1])
    value, bracket = P.largest_real_root(poly)
    assert abs(value - 3.0) <= 1e-12
    assert bracket.lo < 3 <= bracket.hi
    assert P.count_roots(poly, bracket.lo, bracket.hi) == 1


def test_no_real_root_raises():
    with pytest.raises(ValueError, match="no real root"):
        P.largest_real_root(P.Polynomial([1, 0, 1]))


def test_bracket_certificates():
    poly = P.split_pendant_poly(30, 1)
    value, bracket = P.largest_real_root(poly)
    assert P.count_roots(poly, bracket.lo, bracket.hi) == 1
    assert P.count_roots(poly, bracket.hi, P.POS_INF) == 0
    assert P.sign_at(poly, bracket.lo) * P.sign_at(poly, bracket.hi) < 0


def test_compare_largest_roots():
    s1 = P.split_pendant_poly(30, 1)
    s3 = P.split_pendant_poly(30, 3)
    assert P.compare_largest_roots(s3, s1).order == "lt"
    assert P.compare_largest_roots(s1, s1).order == "eq"
    g1 = P.cone_star_matching_even(72)
    assert P.compare_largest_roots(g1, P.split_pendant_poly(72, 1)).order == "gt"
    g1 = P.cone_star_matching_even(74)
    assert P.compare_largest_roots(g1, P.split_pendant_poly(74, 1)).order == "lt"

    def lin(a):
        return P.Polynomial([-a, 1])

    # shared largest roots of different polynomials tie exactly
    assert P.compare_largest_roots(lin(3) * lin(-1), lin(3) * lin(1) * lin(-5)).order == "eq"
    root2 = P.Polynomial([-2, 0, 1])
    assert P.compare_largest_roots(root2, root2 * lin(1)).order == "eq"
    # roots 1e-12 apart are ordered, with brackets that separate
    cmp = P.compare_largest_roots(lin(1), lin(1 + Fraction(1, 10**12)))
    assert cmp.order == "lt" and cmp.left.hi <= cmp.right.lo
    assert cmp.left.lo < 1 <= cmp.left.hi



def _linear_product(roots, cofactor: P.Polynomial, scale: Fraction) -> P.Polynomial:
    return scale * math.prod((P.Polynomial([-r, 1]) for r in roots), start=cofactor)


nonzero_scales = small_fractions.filter(lambda k: k != 0)
# rational roots and scales make Cauchy bounds that are not integers; the
# cofactors may have no real root, and the polys may have none at all
rooted = st.one_of(
    polys.filter(lambda p: p.degree >= 1),
    st.builds(_linear_product, st.lists(small_fractions, min_size=1, max_size=3),
              st.lists(small_fractions, max_size=3).map(P.Polynomial).filter(lambda p: p.coeffs),
              nonzero_scales),
)


@st.composite
def shared_largest_root(draw):
    """Two polynomials with one common factor whose largest root, above 1,
    is the largest root of both: a rational one, or sqrt(d) for d >= 2."""
    if draw(st.booleans()):
        shared = P.Polynomial([-draw(st.fractions(1, 30, max_denominator=12)), 1])
    else:
        shared = P.Polynomial([-draw(st.integers(2, 400)), 0, 1])
    lower_roots = st.lists(st.fractions(-30, 1, max_denominator=12), max_size=3)
    no_real_root = st.sampled_from([P.Polynomial([1]), P.Polynomial([1, 0, 1]),
                                    P.Polynomial([5, -2, 1])])
    return tuple(_linear_product(draw(lower_roots), shared * draw(no_real_root),
                                 draw(nonzero_scales)) for _ in range(2))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(rooted, rooted)
def test_integer_bisection_matches_fraction_oracle(p, q):
    """Integer numerators over one denominator give the very brackets and
    orders that Fraction bisection gives."""
    got = _outcome(P.largest_real_root, p)
    want = _outcome(fraction_largest_root_bracket, p)
    assert (got if isinstance(got, str) else got[1]) == want
    assert _outcome(P.compare_largest_roots, p, q) == _outcome(fraction_compare_largest_roots, p, q)


@settings(max_examples=100, deadline=None)
@given(shared_largest_root())
def test_shared_largest_roots_tie_as_in_fraction_oracle(pair):
    cmp = P.compare_largest_roots(*pair)
    assert cmp.order == "eq"
    assert cmp == fraction_compare_largest_roots(*pair)


def test_named_roots_are_reached_from_the_float_seed(monkeypatch):
    """Every named polynomial at m = 22..120 gets its bracket from the
    float seed's cell, with neither isolation nor bisection."""
    def refuse(*args):
        raise AssertionError("isolated or bisected")

    monkeypatch.setattr(P, "_isolate", refuse)
    monkeypatch.setattr(P, "_halve", refuse)
    seen = 0
    for m in range(22, 121):
        for _, _, poly in _named_instances(m):
            P.largest_real_root(poly)
            seen += 1
    assert seen > 2000


def test_orders_start_from_the_root_brackets(monkeypatch):
    """Both crossover scans over m = 22..400 and every certificate order row
    at m = 22..400 are decided on the brackets of largest_real_root: none
    of them isolates, bisects or takes the gcd of overlapping brackets."""
    def refuse(*args):
        raise AssertionError("isolated or bisected")

    for name in ("_isolate", "_halve"):
        monkeypatch.setattr(P, name, refuse)
    refuse_overlap_gcd(monkeypatch)
    for parity, cx in P.CROSSOVER.items():
        assert P.crossover_scan(cx.cone, cx.split, parity, (22, 400)).flips
    seen = 0
    for m in range(22, 401):
        for row in P._certificate_rows(m):
            if row[2] == "order":
                P._certify(*row)
                seen += 1
    assert seen == 2285


CLOSE_ROOTS = P.Polynomial([-1, 1]) * P.Polynomial([-(2**47) - 1, 2**47])  # 1 and 1 + 2^-47
PAST_FLOAT_RANGE = P.Polynomial([-1, 1]) * P.Polynomial([10**400, 0, 1])


@pytest.mark.parametrize("p", [
    CLOSE_ROOTS,
    PAST_FLOAT_RANGE,
    # 1/3, 3/5 and 7/9 are grid points of the bisection from their Cauchy
    # bounds 4/3, 8/5 and 16/9
    P.Polynomial([-1, 3]),
    P.Polynomial([-3, 5]),
    P.Polynomial([-7, 9]),
], ids=["close_roots", "past_float_range", "grid_1_3", "grid_3_5", "grid_7_9"])
def test_seed_fallbacks_match_fraction_oracle(p):
    """Where the float seed cannot name the cell, or names one that its
    Sturm count rejects, the bracket is still the bisection's: two roots
    inside one cell, a coefficient past float range, roots on cell ends."""
    assert P.largest_real_root(P.Polynomial(p.num, p.den))[1] == fraction_largest_root_bracket(p)
    if p in (CLOSE_ROOTS, PAST_FLOAT_RANGE):
        assert P._seeded_bracket(P.Polynomial(p.num, p.den)) is None


ONE = P.Polynomial([1])
SQRT2 = P.Polynomial([-2, 0, 1])
BELOW_SQRT2 = Fraction(math.isqrt(2 * 10**30), 10**15)  # within 1e-15 below sqrt(2)


@pytest.mark.parametrize("p, q, order", [
    # largest roots at most 1e-15 apart: the brackets are halved
    (SQRT2, _linear_product([BELOW_SQRT2 + Fraction(1, 10**15)], ONE, 1), "lt"),
    (_linear_product([BELOW_SQRT2], ONE, 1), SQRT2, "lt"),
    (SQRT2, P.Polynomial([-2 - Fraction(3, 10**15), 0, 1]), "lt"),
    # equal largest roots of different polynomials, decided by the gcd
    (SQRT2 * P.Polynomial([5, 1]), 3 * SQRT2 * P.Polynomial([1, 0, 1]), "eq"),
    (_linear_product([Fraction(7, 3), -1, -1], ONE, 1),
     _linear_product([Fraction(7, 3), Fraction(7, 3), 1], ONE, 1), "eq"),
    # a polynomial with no float seed against a seeded one
    (CLOSE_ROOTS, _linear_product([1 + Fraction(1, 2**47) + Fraction(1, 10**17)], ONE, 1), "lt"),
    (PAST_FLOAT_RANGE, _linear_product([1], ONE, 1), "eq"),
], ids=["close_above", "close_below", "close_irrational", "shared_sqrt2", "shared_repeated",
        "seedless_close", "seedless_equal"])
def test_overlapping_brackets_match_fraction_oracle(p, q, order):
    """Where the two brackets of largest_real_root overlap, they are halved
    apart, or the gcd finds the common root, as in the Fraction oracle."""
    p, q = P.Polynomial(p.num, p.den), P.Polynomial(q.num, q.den)
    a, b = P.largest_real_root(p)[1], P.largest_real_root(q)[1]
    assert max(a.lo, b.lo) < min(a.hi, b.hi)
    cmp = P.compare_largest_roots(p, q)
    assert cmp.order == order
    assert cmp == fraction_compare_largest_roots(p, q)


# polynomials with only real roots: rational ones, repeats among them, and
# the pairs +-sqrt(d)
real_rooted = st.builds(
    lambda p, ds: math.prod((P.Polynomial([-d, 0, 1]) for d in ds), start=p),
    st.builds(_linear_product, st.lists(small_fractions, min_size=1, max_size=4), st.just(ONE),
              nonzero_scales),
    st.lists(st.integers(2, 60), max_size=2))


@settings(max_examples=100, deadline=None)
@given(real_rooted, small_fractions)
def test_descartes_count_is_the_sturm_count_on_real_roots(p, x):
    """With only real roots, one sign variation after the Taylor shift to x
    is exactly one distinct root above x, as the Sturm count says."""
    sf = p.squarefree()
    sturm = fraction_count_roots(sf, x, P.POS_INF)
    assert P._one_root_above(sf.num, x.numerator, x.denominator) == (sturm == 1)


@settings(max_examples=100, deadline=None)
@given(real_rooted)
def test_seeded_brackets_on_real_roots_match_fraction_oracle(p):
    """On polynomials with only real roots the seeded bracket, certified by
    Descartes' rule, is the Fraction bisection's, and its float lies in it."""
    got = P._seeded_bracket(P.Polynomial(p.num, p.den))
    if got is not None:
        cs, lo, hi, den, value = got
        bracket = P.RootBracket(lo, hi, den)
        assert bracket == fraction_largest_root_bracket(p)
        assert float(bracket.lo) <= value <= float(bracket.hi)
        assert cs == p.squarefree().num
    assert P.largest_real_root(p)[1] == fraction_largest_root_bracket(p)


@settings(max_examples=100, deadline=None)
@given(polys.filter(lambda p: p.degree >= 0), polys.filter(lambda f: f.degree >= 1))
def test_squarefree_part_never_keeps_a_square(p, f):
    """p f^2 is never taken for its own squarefree part, and every
    polynomial's part is the one rational remainders give."""
    q = p * f * f
    assert q.squarefree() is not q
    for r in (q, p):
        assert r.squarefree() == P.Polynomial(FractionPolynomial(r.coeffs).squarefree().coeffs)


def test_complex_roots_right_of_the_real_root_take_the_bisection():
    """(x - 1)(x^2 - 4x + 5) has its complex roots 2 +- i right of its real
    root 1: three sign variations above the seed's cell prove nothing, and
    bisection gives the bracket, with its midpoint as the float."""
    p = P.Polynomial([-1, 1]) * P.Polynomial([5, -4, 1])
    assert P._seeded_bracket(P.Polynomial(p.num, p.den)) is None
    value, bracket = P.largest_real_root(p)
    assert bracket == fraction_largest_root_bracket(p) and bracket.lo < 1 <= bracket.hi
    assert value == (bracket.lo_num + bracket.hi_num) / (2 * bracket.den)


def test_seeded_roots_build_no_sturm_chain(monkeypatch):
    """Every claim of verify at m = 22..120, both crossover scans over
    22..400 and the largest root of every named polynomial at m = 22..120
    are decided with no Sturm chain: the seeded cells are certified by
    Descartes' rule, and the book checks read the squarefree part."""
    from bht import search as SR

    def refuse(*args):
        raise AssertionError("built a Sturm chain")

    monkeypatch.setattr(P, "sturm_chain", refuse)
    for thm, claim in SR.CLAIMS.items():
        for m in range(max(22, claim.start), 121):
            assert SR.verify_theorem(thm, m).status == "pass", (thm, m)
    for parity, cx in P.CROSSOVER.items():
        assert P.crossover_scan(cx.cone, cx.split, parity, (22, 400)).flips
    seen = 0
    for m in range(22, 121):
        for _, _, poly in _named_instances(m):
            P.largest_real_root(poly)
            seen += 1
    assert seen > 2000


def test_bisection_builds_no_fraction_per_step(monkeypatch):
    """largest_real_root builds no Fraction, for a root near 1e20 as for
    one near 1.4: the Cauchy bound, the halvings and the bracket are
    integers, and reading the bracket's two ends builds two Fractions."""
    new = Fraction.__new__
    counts = []
    for p in (P.Polynomial([-2, 0, 1]), P.Polynomial([-2 * 10**40, 0, 1])):
        P.sturm_chain(p)
        calls = []

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        _, bracket = P.largest_real_root(p)
        built = len(calls)
        assert bracket.lo < bracket.hi
        monkeypatch.undo()
        counts.append((built, len(calls)))
    assert counts == [(0, 2), (0, 2)]


def test_brackets_equal_as_numbers():
    """A bracket's ends are read as Fractions, and equality compares the
    numbers, not the numerators and denominators held."""
    a, b = P.RootBracket(3, 5, 4), P.RootBracket(6, 10, 8)
    assert (a.lo, a.hi) == (Fraction(3, 4), Fraction(5, 4))
    assert a == b and hash(a) == hash(b)
    assert a != P.RootBracket(3, 6, 4) and a != P.RootBracket(2, 5, 4)


def _fractions_built(monkeypatch, fn) -> int:
    """How many Fractions fn() builds."""
    new = Fraction.__new__
    calls = []

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    try:
        fn()
    finally:
        monkeypatch.setattr(Fraction, "__new__", new)
    return len(calls)


@pytest.mark.parametrize("m", [22, 30, 61, 96])
def test_gate_decisions_build_no_fraction(monkeypatch, m):
    """Gates, polynomial values and signs at gates, root counts and
    positivity on rays and intervals between gates, and the nested-radical
    ceilings all read a Quad's integers: none builds a Fraction."""
    cx = P.crossover_at(m)
    polys = [cx.cone(m), cx.split(m), P.X * cx.split(m), P.star_matching_quartic(m),
             P.star_matching_cubic(m), P.cone_star_edge_poly(m, 3), P.diamond_k4_poly(2 * m + 1)]
    values = []

    def decide():
        gates = [P.gate(m, c) for c in range(3, 8)]  # descending; gate(22, 7) = 5
        for p in polys:
            for lo, hi in zip(gates[1:], gates):
                values.append((p(hi), P.sign_at(p, hi), P.positive_on_ray(p, hi),
                               P.count_roots(p, lo, hi), P.positive_on_open_interval(p, lo, hi)))
        values.append((P.nested_radical_below(m, 0), P.nested_radical_below(m, 1)))

    assert _fractions_built(monkeypatch, decide) == 0
    assert all(type(v[0]) is P.Quad for v in values[:-1])


def test_certify_range_pass_builds_few_fractions(monkeypatch):
    """One pass of the benchmark's certify-range ops builds Fractions only for
    output: coefficients and root brackets' ends when read, and a Quad's
    text.  It builds 167; brackets that built their ends when made took
    427."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    ops, worker = importlib.import_module("ops"), importlib.import_module("worker")
    one_pass = ops.build_ops("certify-range", random.Random(1))
    assert _fractions_built(monkeypatch, lambda: [worker.execute(op) for op in one_pass]) <= 200

# -- named instances ---------------------------------------------------------


def test_instantiate_examples():
    assert P.instantiate("c5_extremal", 24) == P.Polynomial([11, -22, -24, 0, 1])
    assert P.instantiate("c5_extremal", 23) == P.Polynomial([20, -20, -23, 0, 1])
    assert P.instantiate("split_pendant", 30, t=2) == P.Polynomial([27, -27, -30, 0, 1])
    with pytest.raises(ValueError):
        P.instantiate("cone_star_matching_even", 23)
    with pytest.raises(ValueError):
        P.instantiate("split_pendant", 3, t=5)
    with pytest.raises(ValueError):
        P.instantiate("nonsense", 24)


def test_c6_extremal_branches():
    assert P.c6_extremal(24).degree == 3
    assert P.c6_extremal(74) == P.c5_extremal(74)
    assert P.c6_extremal(31).degree == 5
    assert P.c6_extremal(73) == P.c5_extremal(73)
    with pytest.raises(ValueError):
        P.c6_extremal(20)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 400), st.integers(2, 12))
def test_split_pendant_difference_identities(m, t):
    if m < t + 1:
        m = t + 1
    st_poly = P.split_pendant_poly(m, t)
    s1 = P.split_pendant_poly(m, 1)
    s2 = P.split_pendant_poly(m, 2)
    half = Fraction(1, 2)
    assert st_poly - s1 == P.Polynomial([half * (t - 1) * (m - t - 2), (t - 1)])
    assert st_poly - s2 == P.Polynomial([half * (t - 2) * (m - t - 3), (t - 2)])


@settings(max_examples=30, deadline=None)
@given(st.integers(11, 200))
def test_factorization_bridge(k):
    m = 2 * k  # even
    cubic = P.Polynomial([m - 6, -(m - 3), -2, 1])
    assert P.Polynomial([1, 1]) * cubic == P.cone_star_matching_even(m)


def test_star_quartic_factors_through_cubic():
    for m in (9, 26, 41, 60):
        assert P.Polynomial([1, 1]) * P.star_matching_cubic(m) == P.star_matching_quartic(m)


def test_bipartite_difference_identities():
    for m, p in [(27, 2), (26, 3), (50, 3)]:
        g = P.star_matching_quartic(m)
        f1 = P.bipartite_minus_poly(m, p)
        assert f1 - g == P.Polynomial([5 - p - Fraction(m + 1, p), 2])
    for m, p in [(28, 3), (46, 3)]:
        g = P.star_matching_quartic(m)
        f2 = P.bipartite_plus_poly(m, p)
        assert f2 - g == P.Polynomial([2 - Fraction(m - 1, p), 2])


def test_odd_difference_identity():
    for m in (23, 45, 71):
        xs2 = P.X * P.split_pendant_poly(m, 2)
        g2 = P.cone_star_matching_odd(m)
        assert xs2 - g2 == P.Polynomial(
            [Fraction(m - 7, 2), -Fraction(m - 11, 2), 5 - m, -1, 1]
        )


def test_even_difference_identity():
    for m in (22, 48, 72):
        s1 = P.split_pendant_poly(m, 1)
        g1 = P.cone_star_matching_even(m)
        assert s1 - g1 == P.Polynomial([5 - Fraction(m, 2), -(m - 5), -1, 1])


def test_closed_forms():
    assert abs(P.book_lambda(9) - (1 + math.sqrt(33)) / 2) <= 1e-15
    assert P.book_lambda(3) == 2.0


def test_candidate_roots_live_between_gates():
    for m in range(22, 61):
        polys = [P.split_pendant_poly(m, 1), P.split_pendant_poly(m, 2)]
        if m % 2 == 0 and m <= 72:
            polys.append(P.cone_star_matching_even(m))
        if m % 2 == 1 and 23 <= m <= 71:
            polys.append(P.cone_star_matching_odd(m))
        for poly in polys:
            assert P.count_roots(poly, P.gate(m, 7), P.POS_INF) >= 1
            assert P.count_roots(poly, P.gate(m, 3), P.POS_INF) == 0


# -- scans and certificates --------------------------------------------------


def test_crossover_even_and_odd():
    rep = P.crossover_scan(
        P.cone_star_matching_even, lambda m: P.split_pendant_poly(m, 1), "even", (22, 120)
    )
    assert rep.flips == ((72, 74),)
    assert rep.runs[0][2] == "gt" and rep.runs[1][2] == "lt"
    rep = P.crossover_scan(
        P.cone_star_matching_odd, lambda m: P.split_pendant_poly(m, 2), "odd", (22, 121)
    )
    assert rep.flips == ((71, 73),)


@pytest.mark.parametrize("parity", sorted(P.CROSSOVER))
def test_crossover_table_matches_scan(parity):
    cx = P.CROSSOVER[parity]
    rep = P.crossover_scan(cx.cone, cx.split, parity, (22, 120))
    assert rep.flips == ((cx.last_cone, cx.last_cone + 2),)


def test_crossover_trivial_no_flips():
    rep = P.crossover_scan(
        lambda m: P.split_pendant_poly(m, 1),
        lambda m: P.split_pendant_poly(m, 1),
        "even",
        (22, 40),
    )
    assert rep.flips == ()
    assert all(order == "eq" for _, order in rep.orders)


def test_gate_sign_exact_value_at_22():
    s1 = P.split_pendant_poly(22, 1)
    v = s1(P.gate(22, 7))
    assert v == P.Quad.of(-15)


def test_certificates_all_hold_in_tame_range():
    for m in (22, 23, 26, 30, 72, 90):
        certs = P.inequality_certificates(m)
        assert certs and all(c.holds for c in certs), [
            c.name for c in certs if not c.holds
        ]


def test_certificates_report_known_violations():
    """The bipartite rival genuinely overtakes the star at odd sizes: the
    certificates must say so rather than smooth it over."""
    by_name = {c.name: c for c in P.inequality_certificates(27)}
    assert not by_name["bipartite_minus_probe_p2"].holds
    assert not by_name["bipartite_minus_vs_star_p2"].holds
    assert "gt" in by_name["bipartite_minus_vs_star_p2"].detail
    # and the same flip appears at large even sizes with divisor 3
    by_name = {c.name: c for c in P.inequality_certificates(50)}
    assert not by_name["bipartite_minus_vs_star_p3"].holds


def test_certificates_reject_small_m():
    with pytest.raises(ValueError):
        P.inequality_certificates(21)


def test_positivity_primitives():
    up = P.Polynomial([3, -4, 1])  # (x-1)(x-3)
    assert not P.positive_on_ray(up, P.Quad.of(2))
    assert P.positive_on_ray(up, P.Quad.of(4))
    assert not P.positive_on_ray(up, P.Quad.of(3))  # zero at the endpoint
    assert P.positive_on_open_interval(up, P.Quad.of(Fraction(-1)), P.Quad.of(Fraction(1, 2)))
    assert not P.positive_on_open_interval(up, P.Quad.of(0), P.Quad.of(2))
    assert P.positive_on_open_interval(up, P.Quad.of(3), P.Quad.of(5))  # root at lo
    assert not P.positive_on_open_interval(up, P.Quad.of(1), P.Quad.of(3))  # roots at both ends
    assert P.positive_on_open_interval(up, P.Quad.of(-1), P.Quad.of(1))  # root at hi alone
    square = P.Polynomial([0, 0, 1])
    assert P.positive_on_open_interval(square, P.Quad.of(0), P.Quad.of(1))  # double root at lo


def test_nested_radical_certificates():
    assert P.nested_radical_below(30, inner_shift=0)
    for m in (10, 26, 44, 200):
        assert P.nested_radical_below(m, inner_shift=1)


def test_nested_radical_matches_interval_oracle():
    for m in range(3, 401):
        for shift in (0, 1):
            assert P.nested_radical_below(m, shift) == interval_nested_radical_below(m, shift), (m, shift)


# -- pin ---------------------------------------------------------------------


def _named_instances(m):
    """Every named polynomial at m, over a range of the parameters its id
    takes (those out of range for m are skipped)."""
    choices = {"split_pendant": [{"t": t} for t in range(1, 8)],
               "cone_star_edge": [{"r": r} for r in range(3, 9)],
               "bipartite_minus": [{"p": p} for p in range(2, 12)],
               "bipartite_plus": [{"p": p} for p in range(2, 12)]}
    for poly_id in P.POLY_IDS:
        for params in choices.get(poly_id, [{}]):
            try:
                yield poly_id, params, P.instantiate(poly_id, m, **params)
            except ValueError:
                continue


def test_reported_roots_are_the_nearest_floats():
    """The float that largest_real_root reports is the float nearest the
    root, computed by mpmath to 60 digits, on every named polynomial at
    every 23rd m of 18..400; integer roots come out exact, 0 with a plus
    sign."""
    mpmath = pytest.importorskip("mpmath")
    seen = 0
    for m in range(18, 401, 23):
        for poly_id, params, poly in _named_instances(m):
            value, bracket = P.largest_real_root(poly)
            with mpmath.workdps(60):
                lo, hi = (mpmath.mpf(x.numerator) / x.denominator for x in (bracket.lo, bracket.hi))
                coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
                root = mpmath.findroot(lambda x: mpmath.polyval(coeffs, x), (lo, hi),
                                       solver="anderson")
                assert lo < root <= hi and value == float(root), (poly_id, m, params)
            seen += 1
    assert seen > 300
    for poly, root in [(P.Polynomial([-2, 1]), "2.000000000000"), (P.Polynomial([0, 1]), "0.000000000000"),
                       (P.Polynomial([0, 0, 0, 1]), "0.000000000000"),
                       (P.Polynomial([-30, -1, 1]), "6.000000000000")]:
        value, _ = P.largest_real_root(poly)
        assert f"{value:.12f}" == root and value == float(root), poly


def test_root_decimals_round_the_root():
    """root_decimal rounds the root, not its float, to 12 decimals: on every
    named polynomial at every 7th m of 18..400, against mpmath at 60 digits
    (the nearest float misrounds two of them), and half to even on rational
    roots that lie on a rounding boundary."""
    mpmath = pytest.importorskip("mpmath")
    twelve = Decimal("1e-12")
    seen = 0
    for m in range(18, 401, 7):
        for poly_id, params, poly in _named_instances(m):
            _, bracket = P.largest_real_root(poly)
            with mpmath.workdps(60):
                lo, hi = (mpmath.mpf(x.numerator) / x.denominator for x in (bracket.lo, bracket.hi))
                coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
                root = mpmath.findroot(lambda x: mpmath.polyval(coeffs, x), (lo, hi),
                                       solver="anderson")
                want = Decimal(mpmath.nstr(root, 50)).quantize(twelve, ROUND_HALF_EVEN)
            assert P.root_decimal(poly) == f"{want:f}", (poly_id, m, params)
            seen += 1
    assert seen > 1200
    assert P.root_decimal(P.split_pendant_poly(200, 7)) == "14.493048969151"
    assert P.root_decimal(P.cone_star_edge_poly(284, 3)) == "16.749659456951"
    for root in (Fraction(1, 2 * 10**12), Fraction(3, 2 * 10**12), Fraction(-5, 2 * 10**12),
                 Fraction(4, 3), Fraction(-7, 10**13), Fraction(123456789, 8), Fraction(0)):
        want = (Decimal(root.numerator) / Decimal(root.denominator)).quantize(twelve, ROUND_HALF_EVEN)
        poly = _linear_product([root], P.Polynomial([1, 0, 1]), 1)  # a cofactor with no real root
        assert P.root_decimal(poly) == f"{want + 0:f}", root  # a root that rounds to 0 prints no sign


def _exact_layer_records():
    for m in range(22, 201):
        for c in P.inequality_certificates(m):
            yield [m, c.name, c.statement, c.holds, c.detail]
    for parity, cx in sorted(P.CROSSOVER.items()):
        rep = P.crossover_scan(cx.cone, cx.split, parity, (22, 200))
        yield [parity, rep.orders, rep.runs, rep.flips]
    for m in range(22, 121):
        for poly_id, params, poly in _named_instances(m):
            _, bracket = P.largest_real_root(poly)
            yield [m, poly_id, params, str(bracket.lo), str(bracket.hi)]


# (record count, sha256 of the records as JSON lines) for every certificate
# at m = 22..200, both crossover scans over 22..200 and the largest-root
# bracket of every named polynomial at m = 22..120
EXACT_LAYER_PIN = (6785, "4596acc52ea26502fbc219da6ab9062741a9b4c41867c0e0060883298d64b887")


def test_exact_layer_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for record in _exact_layer_records():
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == EXACT_LAYER_PIN


# (record count, sha256 of the records as JSON lines) for every certificate
# at m = 201..400, in the record format of EXACT_LAYER_PIN
CERTIFICATES_TO_400_PIN = (5220, "a89cfddf7dcd2cf9fe302e84f889026e511cd9415e200e75bb08726992c72ef9")


def test_certificates_to_m400_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for m in range(201, 401):
        for c in P.inequality_certificates(m):
            digest.update(json.dumps([m, c.name, c.statement, c.holds, c.detail]).encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == CERTIFICATES_TO_400_PIN
