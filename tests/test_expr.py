"""Expression parser and evaluator."""

import math

import numpy as np
import pytest

from lcl import DEFAULT_SEED, default_suite, parse_expression
from lcl.errors import (EvaluationError, ExpressionError,
                        ExpressionSyntaxError, UnknownIdentifierError)


def test_polynomial_with_caret_power():
    f = parse_expression("-s^2/2 + 0.3*s + 0.1")
    assert f(0.0) == pytest.approx(0.1)
    assert f(1.0) == pytest.approx(-0.1)
    assert f(2.0) == pytest.approx(-1.3)


def test_power_binds_tighter_than_unary_minus():
    f = parse_expression("-s^2")
    assert f(3.0) == -9.0


def test_right_associative_power():
    f = parse_expression("2^3^2")
    assert f(0.0) == 512.0


def test_double_star_power_is_not_in_the_grammar():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("s**3")


def test_known_functions_and_constants():
    f = parse_expression("exp(s) + sin(pi*s) + cos(0) + sqrt(4)")
    assert f(0.0) == pytest.approx(math.e**0 + 0.0 + 1.0 + 2.0)
    assert f(1.0) == pytest.approx(math.e + math.sin(math.pi) + 3.0)
    g = parse_expression("log(e)")
    assert g(0.0) == pytest.approx(1.0)


def test_tan_and_abs():
    f = parse_expression("tan(s) + abs(-2)")
    assert f(0.5) == pytest.approx(math.tan(0.5) + 2.0)


def test_vectorized_evaluation_over_arrays():
    f = parse_expression("1 + s^2")
    s = np.linspace(0.0, 2.0, 7)
    out = f(s)
    assert isinstance(out, np.ndarray)
    assert np.allclose(out, 1.0 + s**2)


def test_unbalanced_paren_reports_offset():
    with pytest.raises(ExpressionSyntaxError) as ei:
        parse_expression("sin(s")
    assert "offset 5" in str(ei.value)


def test_implicit_multiplication_is_rejected():
    # "3(1+s)" needs an explicit *, the grammar has no juxtaposition rule
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("3(1 + s^2)")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expression("2*t + 1")(0.5)


def test_unknown_function_name():
    with pytest.raises((UnknownIdentifierError, ExpressionSyntaxError)):
        parse_expression("sinc(s)")(0.5)


def test_empty_input_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("")


def test_division_and_precedence():
    f = parse_expression("6/2/3 + 2*3^2")
    assert f(0.0) == pytest.approx(1.0 + 18.0)


def test_non_finite_values_raise_instead_of_propagating_nan():
    f = parse_expression("sqrt(s - 2)")
    with pytest.raises(EvaluationError):
        f(0.0)
    g = parse_expression("log(s)")
    with pytest.raises(EvaluationError):
        g(0.0)
    h = parse_expression("1/s")
    with pytest.raises(EvaluationError):
        h(0.0)


def test_to_text_round_trips_semantics():
    src = "-s^2/2 + 0.3*s + 0.1"
    f = parse_expression(src)
    g = parse_expression(f.to_text())
    for s in np.linspace(-1.0, 2.0, 9):
        assert f(float(s)) == pytest.approx(g(float(s)), abs=1e-15)


def test_whitespace_is_insignificant():
    a = parse_expression("1+2 * s")
    b = parse_expression(" 1 + 2*s ")
    assert a(3.0) == b(3.0) == 7.0


# source text -> canonical text, which parses back to an equal tree
CANONICAL = {
    "-s^2/2 + 0.3*s + 0.1": "-s^2/2+0.3*s+0.1",
    "2^3^2": "2^3^2",
    "sin(pi*s) - exp(-s)/e": "sin(pi*s)-exp(-s)/e",
    "(1 + s)^-2": "(1+s)^-2",
    "-(s^2)": "-s^2",
    "2^(3^2)": "2^3^2",
    "(2^3)^2": "(2^3)^2",
    "(-s)^2": "(-s)^2",
    "+s": "s",
    ".5*3.": "0.5*3",
    "(s - 1) - s": "s-1-s",
}


@pytest.mark.parametrize("src", list(CANONICAL))
def test_to_text_reparses_to_an_equal_tree(src):
    f = parse_expression(src)
    assert f.to_text() == str(f) == CANONICAL[src]
    g = parse_expression(f.to_text())
    assert g == f and hash(g) == hash(f)
    assert repr(g) == repr(f)
    assert g.to_text() == f.to_text()
    assert parse_expression("s + 1") != parse_expression("1 + s")


def test_every_suite_text_is_canonical():
    texts = {}
    for seed in (DEFAULT_SEED, *range(16)):
        for fx in default_suite(seed):
            for name in ("kappa", "tau", "sigma"):
                tree = getattr(fx.profile, name)
                texts[str(tree)] = tree
    assert len(texts) > 1000
    for text, tree in texts.items():
        again = parse_expression(text)
        assert again.to_text() == text
        assert again == tree and hash(again) == hash(tree)


@pytest.mark.parametrize("src, error, message, offset", [
    ("1.2.3", ExpressionSyntaxError, "bad number literal '1.2.3'", 0),
    ("s # 1", ExpressionSyntaxError, "unexpected character '#'", 2),
    ("s)", ExpressionSyntaxError, "unexpected trailing input ')'", 1),
    ("sin s", ExpressionSyntaxError, "expected '(' after function 'sin'", 4),
    ("(s", ExpressionSyntaxError, "expected ')'", 2),
    ("*s", ExpressionSyntaxError, "expected a number, name, or '('", 0),
    ("", ExpressionSyntaxError, "expected a number, name, or '('", 0),
    ("2*t + 1", UnknownIdentifierError, "unknown identifier 't'", 2),
])
def test_parse_errors_pin_class_message_and_offset(src, error, message,
                                                    offset):
    with pytest.raises(ExpressionError) as ei:
        parse_expression(src)
    assert type(ei.value) is error
    assert str(ei.value) == f"{message} (offset {offset})"
    assert ei.value.offset == offset


def test_a_non_string_is_a_type_error():
    with pytest.raises(TypeError, match="expected an expression string"):
        parse_expression(1.5)
