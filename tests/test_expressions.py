"""Parser and evaluator tests for the trig-polynomial whitelist."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradlab.expressions import ExpressionError, TrigPoly, TrigTerm, parse_trig_poly
from testlib import trig_text


def theta_grid(n, size=16):
    axes = [np.linspace(0.0, 2 * np.pi, size, endpoint=False) for _ in range(n)]
    return np.meshgrid(*axes, indexing="ij")


def max_abs_bound(poly):
    """Cheap upper bound sum |c_i| of a trig polynomial's values."""
    return sum(abs(t.coeff) for t in poly.terms)


def test_parse_simple_forms():
    th = theta_grid(2)
    cases = {
        "0.1*cos(x1)": 0.1 * np.cos(th[0]),
        "cos(x1)": np.cos(th[0]),
        "sin(2*x1 - x2)": np.sin(2 * th[0] - th[1]),
        "1.5": np.full_like(th[0], 1.5),
        "-0.3*sin(x2) + 2": 2 - 0.3 * np.sin(th[1]),
        "cos(x1) + cos(x1)": 2 * np.cos(th[0]),
        "0.4*cos(x1+x2) - 0.25*sin(3*x2)": 0.4 * np.cos(th[0] + th[1])
        - 0.25 * np.sin(3 * th[1]),
    }
    for text, expect in cases.items():
        got = parse_trig_poly(text).evaluate(th)
        assert np.allclose(got, expect, atol=1e-15), text


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x1",  # bare variable outside cos/sin
        "cos(1.5*x1)",  # non-integer wave
        "cos(x0)",  # variables start at x1
        "cos(x1)*cos(x2)",  # products of trigs not in the grammar
        "exp(x1)",
        "cos(x1",
        "cos()",
        "1 + ",
        "__import__('os')",
        "cos(2)",  # constant inside the argument
        "2 4",
    ],
)
def test_rejects_outside_whitelist(bad):
    with pytest.raises(ExpressionError):
        parse_trig_poly(bad)


def test_canonicalization_identities():
    # cos is even, sin is odd in the wave vector
    assert parse_trig_poly("cos(-x1+x2)") == parse_trig_poly("cos(x1-x2)")
    assert parse_trig_poly("sin(-x1)") == parse_trig_poly("-1*sin(x1)")
    assert parse_trig_poly("cos(x1) - cos(x1)").is_zero
    assert parse_trig_poly("cos(x1-x1+x2)") == parse_trig_poly("cos(x2)")


def test_angular_derivative_exact():
    th = theta_grid(2)
    f = parse_trig_poly("0.5*cos(2*x1 - 3*x2) + sin(x2) + 4")
    d1 = f.angular_derivative(0).evaluate(th)
    d2 = f.angular_derivative(1).evaluate(th)
    assert np.allclose(d1, -1.0 * np.sin(2 * th[0] - 3 * th[1]), atol=1e-15)
    assert np.allclose(d2, 1.5 * np.sin(2 * th[0] - 3 * th[1]) + np.cos(th[1]), atol=1e-15)
    assert f.angular_derivative(5).is_zero


def test_evaluate_requires_enough_coordinates():
    f = parse_trig_poly("cos(x3)")
    assert f.n_vars == 3
    with pytest.raises(ExpressionError):
        f.evaluate(theta_grid(2))


def test_zero_and_constant_helpers():
    for z in (TrigPoly([]), parse_trig_poly("0"), parse_trig_poly("0.0*cos(x2)")):
        assert z.is_zero and trig_text(z) == "0" and z == TrigPoly([])
    c = parse_trig_poly("2.5")
    assert np.allclose(c.evaluate(theta_grid(1)), 2.5)
    assert max_abs_bound(c) == 2.5


@st.composite
def trig_polys(draw):
    n_terms = draw(st.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        coeff = draw(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False).filter(
                lambda c: abs(c) > 1e-6
            )
        )
        kind = draw(st.sampled_from(["const", "cos", "sin"]))
        if kind == "const":
            terms.append(TrigTerm(coeff, "const", ()))
        else:
            wave = tuple(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
            if not any(wave):
                wave = (1,) + wave[1:]
            terms.append(TrigTerm(coeff, kind, wave))
    return TrigPoly(terms)


@settings(max_examples=80, deadline=None)
@given(trig_polys())
def test_serialization_round_trip(poly):
    again = parse_trig_poly(trig_text(poly)) if not poly.is_zero else poly
    assert again == poly
    th = theta_grid(3, size=8)
    assert np.allclose(again.evaluate(th), poly.evaluate(th), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(trig_polys(), st.integers(0, 2))
def test_derivative_matches_finite_difference(poly, axis):
    th = [np.array([0.3]), np.array([1.1]), np.array([2.4])]
    h = 1e-6
    shifted_up = list(th)
    shifted_dn = list(th)
    shifted_up[axis] = th[axis] + h
    shifted_dn[axis] = th[axis] - h
    fd = (poly.evaluate(shifted_up) - poly.evaluate(shifted_dn)) / (2 * h)
    exact = poly.angular_derivative(axis).evaluate(th)
    scale = max(1.0, max_abs_bound(poly) * 10)
    assert np.allclose(fd, exact, atol=1e-4 * scale)


@pytest.mark.parametrize("text,axis,even", [
    ("cos(x1)", 0, True), ("cos(x1+x2) + cos(x1-x2)", 0, True), ("sin(x1)", 0, False),
    ("cos(x1+x2)", 0, False), ("0.1*cos(x1) + 0.05*sin(x2)", 0, True),
    ("0.1*cos(x1) + 0.05*sin(x2)", 1, False), ("sin(x1)", 1, True), ("2", 0, True),
    ("0.5*cos(x1+x2) + 0.25*cos(x1-x2)", 0, False),
])
def test_even_in_compares_the_terms_with_the_axis_negated(text, axis, even):
    assert parse_trig_poly(text).is_even_in(axis) is even


@settings(max_examples=40, deadline=None)
@given(trig_polys(), st.integers(0, 2))
def test_even_in_matches_the_reflected_samples(poly, axis):
    # the symbolic query agrees with sampling: a polynomial is even in an
    # axis exactly when its values at x_axis and -x_axis agree
    th = theta_grid(3, size=8)
    flipped = list(th)
    flipped[axis] = -th[axis]
    gap = np.max(np.abs(poly.evaluate(flipped) - poly.evaluate(th)))
    assert poly.is_even_in(axis) == bool(gap <= 1e-12 * max(1.0, max_abs_bound(poly)))
