"""Expression language, forward-mode AD, local forms and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holotwist.errors import (
    DegreeUnsupported,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from holotwist.formsexpr import (
    Bin,
    Call,
    Coord,
    Num,
    Unary,
    eval_ad,
    eval_expr,
    expr_form,
    exterior_derivative,
    integrate_1form,
    integrate_2form,
    native_form,
    parse,
    to_source,
)
from holotwist.formsexpr.forms import zero_form


# --- parsing ---------------------------------------------------------------

def test_parse_structure():
    ast = parse("sin(u)*cos(v)")
    assert ast == Bin("*", Call("sin", (Coord("u"),)),
                      Call("cos", (Coord("v"),)))


def test_precedence():
    assert eval_expr(parse("1+2*3"), {}) == 7
    assert eval_expr(parse("-x^2"), {"x": 3.0}) == -9.0
    assert eval_expr(parse("x^2^3"), {"x": 2.0}) == 256.0
    assert eval_expr(parse("2^-1"), {}) == 0.5


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2*")
    assert exc.value.column == 3
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x +\n(y*)")
    assert exc.value.line == 2


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse("frob(2)")
    with pytest.raises(UnknownIdentifier):
        parse("x+q", coords={"x", "y"})
    # unrestricted parse defers the check to evaluation time
    ast = parse("x+q")
    with pytest.raises(UnknownIdentifier):
        eval_expr(ast, {"x": 1.0})


@pytest.mark.parametrize("src", [
    "-x^2", "x^2^3", "(x+y)*z", "atan2(y, x)-2*pi*i", "exp(-x/2)^2",
    "-(x+1)", "x-(y-z)", "x/(y/z)", "2*-3", "sqrt(x)+1.5e-3",
])
def test_roundtrip(src):
    ast = parse(src)
    assert parse(to_source(ast)) == ast


_leaf = st.one_of(
    st.floats(0.1, 4.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from([Coord("x"), Coord("y")]),
)


def _combine(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: Bin(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
            lambda t: Call(t[0], (t[1],))),
    )


@settings(max_examples=60, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12))
def test_roundtrip_random_ast(ast):
    assert parse(to_source(ast)) == ast


# --- evaluation and AD -----------------------------------------------------

def test_eval_ad_basic():
    v, d = eval_ad(parse("u^2"), {"u": 3.0}, {"u": 1.0})
    assert abs(v - 9.0) < 1e-14 and abs(d - 6.0) < 1e-14
    v, d = eval_ad(parse("sin(u*v)"), {"u": 1.0, "v": 0.0}, {"v": 1.0})
    assert abs(v) < 1e-14 and abs(d - 1.0) < 1e-14


# d/dx and d/dy of the generated leaves along the direction (1, 0.5)
_LEAF_SLOPE = {"x": 1.0, "y": 0.5}


def _slope(ast):
    """The AST of the derivative of an expression built from _leaf and
    _combine along (1, 0.5), by the rules of calculus."""
    if isinstance(ast, Num):
        return Num(0.0)
    if isinstance(ast, Coord):
        return Num(_LEAF_SLOPE[ast.name])
    if isinstance(ast, Call):
        (arg,) = ast.args
        outer = {"sin": Call("cos", (arg,)),
                 "cos": Unary("-", Call("sin", (arg,))),
                 "exp": ast}[ast.fn]
        return Bin("*", outer, _slope(arg))
    left, right = ast.left, ast.right
    dl, dr = _slope(left), _slope(right)
    if ast.op in "+-":
        return Bin(ast.op, dl, dr)
    if ast.op == "*":
        return Bin("+", Bin("*", dl, right), Bin("*", left, dr))
    return Bin("/", Bin("-", Bin("*", dl, right), Bin("*", left, dr)),
               Bin("*", right, right))


@settings(max_examples=40, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=10),
       st.floats(0.2, 1.7), st.floats(0.2, 1.7))
# sin(e^(e^x)) at x = 1.5: a second-order difference quotient was off by
# 2.7e-6 relative there (its truncation error grows with the third
# derivative).
@example(ast=Call("sin", (Call("exp", (Call("exp", (Coord("x"),)),)),)),
         x=1.5, y=1.0)
def test_ad_matches_symbolic_derivative(ast, x, y):
    pt = {"x": x, "y": y}
    try:
        v, d = eval_ad(ast, pt, {"x": 1.0, "y": 0.5})
        ref = eval_expr(_slope(ast), pt)
    except (DomainError, OverflowError):
        return
    assert abs(d - ref) / max(1.0, abs(ref)) < 1e-6


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_expr(parse("log(x)"), {"x": 0.0})
    with pytest.raises(DomainError):
        eval_expr(parse("1/x"), {"x": 0.0})


def test_imaginary_constant():
    assert eval_expr(parse("exp(i*pi)"), {}) == pytest.approx(-1.0)


# --- forms -----------------------------------------------------------------

def test_degree1_linearity_and_degree2_antisymmetry():
    rng = np.random.default_rng(0)
    a1 = expr_form(1, {"x": [["sin(y)"]], "y": [["x*y"]]}, ("x", "y"))
    f2 = expr_form(2, {("x", "y"): [["exp(x)"]]}, ("x", "y"))
    for _ in range(10):
        p = rng.uniform(-1, 1, size=2)
        v, w = rng.normal(size=2), rng.normal(size=2)
        c = rng.normal()
        assert abs(a1(p, c * v)[0, 0] - c * a1(p, v)[0, 0]) < 1e-10
        assert abs(f2(p, v, w)[0, 0] + f2(p, w, v)[0, 0]) < 1e-10
        assert abs(f2(p, v, v)[0, 0]) < 1e-10


def test_exterior_derivative_of_function():
    f0 = expr_form(0, [["sin(x)*y"]], ("x", "y"))
    df = exterior_derivative(f0)
    p = np.array([0.3, 0.8])
    assert df(p, np.array([1.0, 0.0]))[0, 0] == pytest.approx(
        0.8 * math.cos(0.3), abs=1e-12)
    assert df(p, np.array([0.0, 1.0]))[0, 0] == pytest.approx(
        math.sin(0.3), abs=1e-12)


def test_d_of_u_dv_is_du_wedge_dv():
    a = expr_form(1, {"y": [["x"]]}, ("x", "y"))
    da = exterior_derivative(a)
    p = np.array([0.4, -0.2])
    got = da(p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))[0, 0]
    assert got == pytest.approx(1.0, abs=1e-10)


def test_dd_is_small():
    f0 = expr_form(0, [["exp(x)*sin(2*y)"]], ("x", "y"))
    ddf = exterior_derivative(exterior_derivative(f0))
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=2)
        assert ddf(p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))[0, 0] == 0


def test_top_degree_rejected():
    f2 = expr_form(2, {("x", "y"): [["1"]]}, ("x", "y"))
    with pytest.raises(DegreeUnsupported):
        exterior_derivative(f2)


def test_zero_form_chain():
    z = zero_form(1, 2, ("x", "y"))
    dz = exterior_derivative(z)
    assert dz.degree == 2
    assert np.all(dz(np.zeros(2), np.eye(2)[0], np.eye(2)[1]) == 0)


# --- quadrature ------------------------------------------------------------

def test_integrate_dt():
    one = expr_form(1, {"x": [["1"]]}, ("x",))
    seg = lambda t: (t[:, None], np.ones((len(t), 1)))
    assert integrate_1form(one, seg).entries[0, 0] == pytest.approx(1.0,
                                                                   abs=1e-13)


def test_integrate_u_du():
    udu = expr_form(1, {"x": [["x"]]}, ("x",))
    seg = lambda t: (2.0 * t[:, None], np.full((len(t), 1), 2.0))
    assert integrate_1form(udu, seg).entries[0, 0] == pytest.approx(2.0,
                                                                   abs=1e-12)


def test_sitting_segment_integrates_to_zero():
    a = expr_form(1, {"x": [["exp(x)"]], "y": [["x"]]}, ("x", "y"))
    seg = lambda t: (np.tile([0.3, 0.4], (len(t), 1)), np.zeros((len(t), 2)))
    assert abs(integrate_1form(a, seg).entries[0, 0]) < 1e-15


def test_circle_area_integral():
    a1 = expr_form(1, {"y": [["x"]]}, ("x", "y"))

    def circ(t):
        th = 2 * math.pi * t
        return (np.stack([np.cos(th), np.sin(th)], axis=-1),
                2 * math.pi * np.stack([-np.sin(th), np.cos(th)], axis=-1))

    val = integrate_1form(a1, circ, order=12, cells=8).entries[0, 0]
    assert val == pytest.approx(math.pi, abs=1e-10)


def _sphere_patch(s, t):
    th, ph = math.pi * s, 2 * math.pi * t
    p = np.stack([np.sin(th) * np.cos(ph),
                  np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    dps = math.pi * np.stack([np.cos(th) * np.cos(ph),
                              np.cos(th) * np.sin(ph), -np.sin(th)], axis=-1)
    dpt = 2 * math.pi * np.stack([-np.sin(th) * np.sin(ph),
                                  np.sin(th) * np.cos(ph), 0.0 * th], axis=-1)
    return p, dps, dpt


AREA_FORM = expr_form(2, {("y", "z"): [["x"]], ("x", "z"): [["-y"]],
                          ("x", "y"): [["z"]]}, ("x", "y", "z"))


def test_sphere_area():
    val = integrate_2form(AREA_FORM, _sphere_patch, order=10,
                          cells=(6, 6)).entries[0, 0]
    assert val == pytest.approx(4 * math.pi, abs=1e-6)


def test_swapping_patch_roles_negates():
    swapped = lambda s, t: (lambda p, a, b: (p, b, a))(*_sphere_patch(t, s))
    v1 = integrate_2form(AREA_FORM, _sphere_patch, order=8,
                         cells=(4, 4)).entries[0, 0]
    v2 = integrate_2form(AREA_FORM, swapped, order=8, cells=(4, 4)).entries[0, 0]
    assert v1 == pytest.approx(-v2, abs=1e-10)


def test_rank_one_patch_integrates_to_zero():
    def thin(s, t):
        u = s + 2.0 * t
        p = np.stack([np.cos(u), np.sin(u), 0.5 + 0.0 * u], axis=-1)
        du = np.stack([-np.sin(u), np.cos(u), 0.0 * u], axis=-1)
        return p, du, 2.0 * du

    val = integrate_2form(AREA_FORM, thin, order=8, cells=(3, 3)).entries[0, 0]
    assert abs(val) < 1e-10


def test_native_form_with_supplied_derivative():
    fn = lambda p, v: np.array([[p[0] * v[1] - p[1] * v[0]]], dtype=complex)
    dfn = lambda p, v, w: np.array([[2.0 * (v[0] * w[1] - v[1] * w[0])]],
                                   dtype=complex)
    nf = native_form(1, fn, 1, ("x", "y"), d=native_form(2, dfn, 1, ("x", "y")))
    d = exterior_derivative(nf)
    got = d(np.array([0.2, 0.5]), np.array([1.0, 0.0]),
            np.array([0.0, 1.0]))[0, 0]
    assert got == pytest.approx(2.0, abs=1e-12)


def test_native_form_without_derivative_has_none():
    fn = lambda p, v: np.array([[p[0] * v[1]]], dtype=complex)
    with pytest.raises(DegreeUnsupported):
        exterior_derivative(native_form(1, fn, 1, ("x", "y")))
    f0 = native_form(0, lambda p: np.array([[p[0]]], dtype=complex), 1,
                     ("x", "y"))
    with pytest.raises(DegreeUnsupported):
        exterior_derivative(f0)
