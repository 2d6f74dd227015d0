from fractions import Fraction

import pytest

from conftest import random_field, random_poly, random_unipotent_diffeo

from germcalc.diffeos import WordComm, WordLeaf
from germcalc.laurent import LaurentPoly
from germcalc.parsing import (
    ParseError,
    format_diffeo,
    format_field,
    format_poly,
    format_word,
    parse_diffeo,
    parse_field,
    parse_fields,
    parse_matrix,
    parse_poly,
    parse_word,
)
from germcalc.scalars import Scalar


def test_parse_poly_examples():
    p = parse_poly("3/2*x1^2*x3^-1 + i*x2", 3)
    assert p.coefficient((2, 0, -1)) == Scalar(Fraction(3, 2))
    assert p.coefficient((0, 1, 0)) == Scalar(0, 1)


def test_parse_field_examples():
    f = parse_field("x2^2 d1", 2)
    assert f.coeffs[0] == LaurentPoly.monomial(2, {2: 2})
    g = parse_field("3/2*x1*x3^-1 d2 + i*x2 d3", 3)
    assert g.coeffs[1] == LaurentPoly(3, {(1, 0, -1): Scalar(Fraction(3, 2))})
    assert g.coeffs[2] == LaurentPoly(3, {(0, 1, 0): Scalar(0, 1)})


def test_parse_diffeo_identity():
    from germcalc.diffeos import FormalDiffeo

    assert parse_diffeo("(x1, x2)", 2, 3) == FormalDiffeo.identity(2, 3)


def test_parse_fields_semicolons():
    fields = parse_fields("x1 d1; x1^2 d1", 1)
    assert len(fields) == 2
    # empty entries are skipped
    assert parse_fields("x1 d1;; x1^2 d1", 1) == fields
    assert parse_fields(" ; ", 1) == []


def test_dimension_is_explicit():
    with pytest.raises(ParseError):
        parse_poly("x3", 2)
    with pytest.raises(ParseError):
        parse_field("x1 d3", 2)
    # a two-variable monomial is fine in any bigger ambient space
    assert parse_field("x2^2 d1", 5).dim == 5


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + @", 2)
    assert "column 6" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("x1 +", 2)
    with pytest.raises(ParseError):
        parse_poly("1/0", 1)
    with pytest.raises(ParseError):
        parse_diffeo("(x1, x2, x3)", 2, 3)


def test_operator_precedence():
    # ^ binds tighter than *, which binds tighter than +
    p = parse_poly("2*x1^2 + x1*x2", 2)
    assert p.coefficient((2, 0)) == Scalar(2)
    assert p.coefficient((1, 1)) == Scalar(1)
    q = parse_poly("(x1 + x2)^2", 2)
    assert q.coefficient((1, 1)) == Scalar(2)


def test_unary_minus():
    p = parse_poly("-x1 + 2", 1)
    assert p.coefficient((1,)) == Scalar(-1)
    assert p.constant_term() == Scalar(2)


def test_value_round_trips_random(rng):
    for _ in range(25):
        p = random_poly(rng, 2, min_exp=-2)
        assert parse_poly(format_poly(p), 2) == p
    for _ in range(25):
        X = random_field(rng, 2)
        assert parse_field(format_field(X), 2) == X
    for _ in range(10):
        phi = random_unipotent_diffeo(rng, 2, 4)
        assert parse_diffeo(format_diffeo(phi), 2, 4) == phi


def test_word_round_trip():
    w = WordComm(WordComm(WordLeaf(0), WordLeaf(1, True)), WordLeaf(2))
    assert parse_word(format_word(w)) == w


# (text, value) pairs: the text is written and its value computed side by side


def _random_atom(rng, depth):
    kind = rng.choice(["num", "imag", "var", "paren"] if depth < 2 else ["num", "imag", "var"])
    if kind == "num":
        num, den = rng.randint(0, 9), rng.randint(1, 4)
        text = str(num) if den == 1 else f"{num}/{den}"
        return text, LaurentPoly.constant(2, Fraction(num, den))
    if kind == "imag":
        return "i", LaurentPoly.constant(2, Scalar(0, 1))
    if kind == "var":
        j = rng.randint(1, 2)
        return f"x{j}", LaurentPoly.variable(2, j)
    text, value = _random_poly_text(rng, depth + 1)
    return f"({text})", value


def _random_factor(rng, depth):
    text, value = _random_atom(rng, depth)
    if rng.random() < 0.4:
        e = rng.randint(-3, 3)
        if e < 0 and len(value.terms) != 1:
            e = -e  # negative powers apply to monomials only
        return f"{text}^{e}", value ** e
    return text, value


def _random_poly_text(rng, depth=0):
    text, value = "", LaurentPoly.zero(2)
    for k in range(rng.randint(1, 3)):
        factors = [_random_factor(rng, depth) for _ in range(rng.randint(1, 3))]
        term = LaurentPoly.one(2)
        for _, f in factors:
            term = term * f
        sign = rng.choice(["+", "-"] if k else ["", "+", "-"])
        space = rng.choice(["", " "])
        text += space + sign + space + rng.choice(["*", " * "]).join(t for t, _ in factors)
        value = value - term if sign == "-" else value + term
    return text, value


def test_parse_poly_computes_the_value_of_random_text(rng):
    for _ in range(200):
        text, value = _random_poly_text(rng)
        assert parse_poly(text, 2) == value, text


# Each malformed input and its exact error.  The rows marked "changed" read
# otherwise when the parser built a syntax tree before any value: it reported
# every syntax error before any dimension or power error, split the text of
# parse_fields at ';' before tokenizing, placed a parenthesised value at its
# first inner token and said "exceeds the declared dimension" for index 0.
# The g1^2 row is marked "changed" too: the word parser read both tokens after
# a generator's '^' before checking either, so it reported the end of input.
# The matrix rows are the --matrix operand of jordan-chevalley, whose columns
# count from the start of the operand.
ERROR_TABLE = [
    ("poly", "x1 + @", 2, "unexpected character '@' at line 1, column 6"),
    ("poly", "x1 +", 2, "unexpected end of input at line 1, column 5"),
    ("poly", "x1 x2", 2, "trailing input 'x2' at line 1, column 4"),
    ("poly", "1/0", 1, "zero denominator at line 1, column 3"),
    ("poly", "1/x1", 2, "expected a denominator at line 1, column 3"),
    ("poly", "x1^x2", 2, "expected an integer exponent at line 1, column 4"),
    ("poly", "x1^-x2", 2, "expected an integer exponent at line 1, column 5"),
    ("poly", "x1^", 2, "unexpected end of input at line 1, column 4"),
    ("poly", "(x1 + x2", 2, "unexpected end of input at line 1, column 9"),
    ("poly", "(x1 + x2]", 2, "expected ')', found ']' at line 1, column 9"),
    ("poly", ")", 2, "unexpected token ')' at line 1, column 1"),
    ("poly", "x3", 2, "variable x3 exceeds the declared dimension 2 at line 1, column 1"),
    ("poly", "x1 + 2*x3^2", 2, "variable x3 exceeds the declared dimension 2 at line 1, column 8"),
    ("poly", "x0", 2, "variable x0 is not one of x1..x2 at line 1, column 1"),  # changed
    ("poly", "0^-1", 2, "negative powers are only defined for single-term values at line 1, column 1"),
    ("poly", "x1*x2^-1 + (x1 + x2)^-1", 2, "negative powers are only defined for single-term values at line 1, column 12"),  # changed
    ("poly", "(x1+x2)^-1", 2, "negative powers are only defined for single-term values at line 1, column 1"),  # changed
    ("poly", "x3 + )", 2, "variable x3 exceeds the declared dimension 2 at line 1, column 1"),  # changed
    ("poly", "x1 +\n  x2 +\n  @", 2, "unexpected character '@' at line 3, column 3"),
    ("poly", "x1\n+ x3", 2, "variable x3 exceeds the declared dimension 2 at line 2, column 3"),
    ("field", "x1", 2, "unexpected end of input at line 1, column 3"),
    ("field", "x1 + x2 d1", 2, "expected a direction d<i> after the coefficient at line 1, column 4"),
    ("field", "x1 d1 + x2", 2, "unexpected end of input at line 1, column 11"),
    ("field", "d1", 2, "unexpected token 'd1' at line 1, column 1"),
    ("field", "x1 d1 x2 d2", 2, "trailing input 'x2' at line 1, column 7"),
    ("field", "x1 d3", 2, "direction d3 exceeds the declared dimension 2 at line 1, column 1"),
    ("field", "x1 d1 - x2^2 d3", 2, "direction d3 exceeds the declared dimension 2 at line 1, column 9"),
    ("field", "x1 d0", 2, "direction d0 is not one of d1..d2 at line 1, column 1"),  # changed
    ("field", "(x1 + x2) d3", 2, "direction d3 exceeds the declared dimension 2 at line 1, column 1"),  # changed
    ("field", "x3 d3", 2, "variable x3 exceeds the declared dimension 2 at line 1, column 1"),  # changed
    ("field", "x1 d1 +\n  x1*x2 d4", 2, "direction d4 exceeds the declared dimension 2 at line 2, column 3"),
    ("diffeo", "(x1)", 2, "diffeomorphism has 1 components, expected 2 at line 1, column 1"),
    ("diffeo", "(x1, x2, x1*x2)", 2, "diffeomorphism has 3 components, expected 2 at line 1, column 1"),
    ("diffeo", "x1, x2", 2, "expected '(', found 'x1' at line 1, column 1"),
    ("diffeo", "(x1, x2", 2, "unexpected end of input at line 1, column 8"),
    ("diffeo", "(x1, x3)", 2, "variable x3 exceeds the declared dimension 2 at line 1, column 6"),
    ("diffeo", "(x1, x2) x1", 2, "trailing input 'x1' at line 1, column 10"),
    ("diffeo", "(x1, x2, x3)", 2, "variable x3 exceeds the declared dimension 2 at line 1, column 10"),  # changed
    ("diffeo", "  (x1,\n x2, x2)", 2, "diffeomorphism has 3 components, expected 2 at line 1, column 3"),
    ("word", "g1^2", None, "only ^-1 is meaningful on a generator at line 1, column 1"),  # changed
    ("word", "g1^-", None, "unexpected end of input at line 1, column 5"),
    ("word", "g1^-2", None, "only ^-1 is meaningful on a generator at line 1, column 1"),
    ("word", "[g1^2, g2]", None, "only ^-1 is meaningful on a generator at line 1, column 2"),
    ("word", "[g1, g2^-2]", None, "only ^-1 is meaningful on a generator at line 1, column 6"),
    ("word", "[g1 g2]", None, "expected ',', found 'g2' at line 1, column 5"),
    ("word", "g1]", None, "trailing input ']' at line 1, column 3"),
    ("word", "x1", None, "unexpected token 'x1' in word at line 1, column 1"),
    ("word", "[g1,", None, "unexpected end of input at line 1, column 5"),
    ("fields", "x1 d1; x1 + @ d1", 1, "unexpected character '@' at line 1, column 13"),  # changed
    ("fields", "x1 d1; x2 d1", 1, "variable x2 exceeds the declared dimension 1 at line 1, column 8"),  # changed
    ("fields", "x1 d1;\nx1 + @ d1", 1, "unexpected character '@' at line 2, column 6"),
    ("fields", "x1 d1 x1 d1; x1 d1", 1, "trailing input 'x1' at line 1, column 7"),
    ("fields", "x3 d1; @", 2, "unexpected character '@' at line 1, column 8"),  # changed
    ("matrix", "1, 2; 3, @", None, "unexpected character '@' at line 1, column 10"),
    ("matrix", "1, 2; 3, x1", None, "expected a scalar literal at line 1, column 10"),
    ("matrix", "1, 2;\n 3, 2/0", None, "zero denominator at line 2, column 7"),
    ("matrix", "1, 2; 3,", None, "unexpected end of input at line 1, column 9"),
]

def _parse_as(kind, text, dim):
    if kind == "poly":
        return parse_poly(text, dim)
    if kind == "field":
        return parse_field(text, dim)
    if kind == "fields":
        return parse_fields(text, dim)
    if kind == "diffeo":
        return parse_diffeo(text, dim, 3)
    if kind == "matrix":
        return parse_matrix(text)
    return parse_word(text)


@pytest.mark.parametrize("kind, text, dim, message", ERROR_TABLE)
def test_parse_error_table(kind, text, dim, message):
    with pytest.raises(ParseError) as err:
        _parse_as(kind, text, dim)
    assert str(err.value) == message


def test_format_zero():
    assert format_poly(LaurentPoly.zero(2)) == "0"
    assert parse_poly("0", 2).is_zero()
